"""Tests for the adaptive Runge-Kutta integrator with dense output.

Oracles are closed-form solutions: exponentials, circular motion, and a
stiff-ish decaying system where step control has to do real work.
"""

import math
import pickle

import numpy as np
import pytest

from qmotion.ode import (
    DenseSolution,
    IntegrationFailure,
    IntegratorSettings,
    integrate_ivp,
)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=-1.0).validate()
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0).validate()


def test_exponential_decay():
    sol = integrate_ivp(lambda t, y: -y, [1.0], (0.0, 5.0))
    for t in np.linspace(0.0, 5.0, 23):
        assert sol(t)[0] == pytest.approx(math.exp(-t), abs=1e-10)


def test_harmonic_circle_conserves_radius():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    sol = integrate_ivp(rhs, [1.0, 0.0], (0.0, 20.0))
    ts = np.linspace(0.0, 20.0, 200)
    ys = np.array([sol(t) for t in ts])
    r = np.hypot(ys[:, 0], ys[:, 1])
    np.testing.assert_allclose(r, 1.0, atol=1e-9)
    np.testing.assert_allclose(ys[:, 0], np.cos(ts), atol=1e-9)


def test_reversed_span_rejected():
    # forward-only by contract; callers reverse time in the rhs instead
    with pytest.raises(ValueError):
        integrate_ivp(lambda t, y: -y, [1.0], (2.0, 0.0))


def test_dense_output_between_grid_points():
    # force large steps so interpolation, not step density, carries accuracy
    settings = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-13)
    sol = integrate_ivp(lambda t, y: np.array([math.cos(t)]), [0.0],
                        (0.0, 10.0), settings)
    assert sol.n_steps < 2000
    for t in np.random.default_rng(7).uniform(0.0, 10.0, 50):
        assert sol(t)[0] == pytest.approx(math.sin(t), abs=5e-11)


def test_vector_evaluation_shape():
    sol = integrate_ivp(lambda t, y: -y, [1.0, 2.0], (0.0, 1.0))
    out = sol(0.5)
    assert out.shape == (2,)
    np.testing.assert_allclose(out, [math.exp(-0.5), 2 * math.exp(-0.5)],
                               rtol=1e-9)


def test_time_array_matches_pointwise_step_interpolants():
    """A time array is evaluated step by step on all its times at once;
    each row agrees with the owning step's interpolant at that one time
    to rounding (the batched polynomial product may round differently)."""
    sol = integrate_ivp(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                        (0.0, 10.0))
    ts = np.concatenate([np.linspace(0.0, 10.0, 301), sol._breaks[:40]])
    idx = np.minimum(np.searchsorted(sol._breaks, ts, side="left"),
                     sol.n_steps - 1)
    ref = np.array([sol._segments[k](t) for k, t in zip(idx, ts)])
    np.testing.assert_allclose(sol(ts), ref, rtol=0.0, atol=4e-16)
    np.testing.assert_array_equal(sol(ts[7]), sol(ts[7:8])[0])


def test_out_of_range_evaluation_rejected():
    sol = integrate_ivp(lambda t, y: -y, [1.0], (0.0, 1.0))
    with pytest.raises(ValueError):
        sol(1.5)


def test_step_budget_exhaustion_reports_partial():
    settings = IntegratorSettings(max_steps=5)
    with pytest.raises(IntegrationFailure) as info:
        integrate_ivp(lambda t, y: np.array([math.cos(10.0 * t)]), [0.0],
                      (0.0, 50.0), settings)
    err = info.value
    assert "budget" in err.reason
    assert 0.0 < err.t_last < 50.0
    # sweep workers send it back to the parent process, without the partial
    back = pickle.loads(pickle.dumps(err))
    assert (back.reason, back.t_last, back.partial) == (err.reason, err.t_last,
                                                        None)
    np.testing.assert_array_equal(back.y_last, err.y_last)
    if err.partial is not None:
        assert isinstance(err.partial, DenseSolution)
        # the partial solution must agree with the oracle on its own range
        tm = err.t_last * 0.5
        assert err.partial(tm)[0] == pytest.approx(math.sin(10.0 * tm) / 10.0,
                                                   abs=1e-6)


def test_nonfinite_rhs_fails_cleanly():
    def rhs(t, y):
        return np.array([1.0 / (0.5 - t)])

    with pytest.raises(IntegrationFailure):
        integrate_ivp(rhs, [0.0], (0.0, 1.0))


def test_tolerance_actually_tightens():
    def rhs(t, y):
        return np.array([y[0] * math.sin(3.0 * t)])

    exact = math.exp((1.0 - math.cos(3.0 * 2.0)) / 3.0)
    loose = integrate_ivp(rhs, [1.0], (0.0, 2.0),
                          IntegratorSettings(rel_tol=1e-5, abs_tol=1e-8))
    tight = integrate_ivp(rhs, [1.0], (0.0, 2.0),
                          IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14))
    err_loose = abs(loose(2.0)[0] - exact)
    err_tight = abs(tight(2.0)[0] - exact)
    assert err_tight < err_loose
    assert err_tight < 1e-10
    assert tight.n_steps > loose.n_steps


def test_max_step_is_respected():
    # a slow decay would otherwise be crossed in a handful of giant steps
    settings = IntegratorSettings(max_step=0.25)
    sol = integrate_ivp(lambda t, y: -0.01 * y, [1.0], (0.0, 10.0), settings)
    assert sol.n_steps >= 40
