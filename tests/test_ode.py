"""Tests for the adaptive Runge-Kutta integrator with dense output.

Oracles are closed-form solutions: exponentials, circular motion, and a
stiff-ish decaying system where step control has to do real work.  scipy's
RK45, whose controller the stepper copies, is the oracle for the steps.
"""

import math
import pickle

import numpy as np
import pytest

from qmotion import trajectory
from qmotion.ode import (
    _CONTROL_MARGIN,
    DenseSolution,
    IntegrationFailure,
    IntegratorSettings,
    integrate_ivp,
)
from qmotion.reduced_action import QuantumStateParams
from qmotion.schrodinger import PhysParams, PotentialModel
from qmotion.trajectory import ScenarioConfig


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorSettings(max_steps=0)


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


def test_time_array_rows_equal_scalar_calls_bitwise():
    """A time array is evaluated in one pass over all its times; each row
    equals the call at that one time bit for bit, breakpoints included."""
    sol = integrate_ivp(lambda t, y: np.array([y[1], -y[0]]), [0.0, 1.0],
                        (0.0, 10.0))
    ts = np.concatenate([np.linspace(0.0, 10.0, 301), sol._ts[:40]])
    rows = sol(ts)
    assert rows.shape == (ts.size, 2)
    for t, row in zip(ts.tolist(), rows):
        np.testing.assert_array_equal(sol(t), row)


def _rk45_reference(rhs, y0, t_span):
    """scipy's RK45 stepped to the end with the tolerances integrate_ivp
    hands its controller by default: the step edges, the states there, the
    per-step interpolants and the number of rhs calls."""
    from scipy.integrate import RK45

    settings = IntegratorSettings()
    stepper = RK45(rhs, t_span[0], np.asarray(y0, dtype=float), t_span[1],
                   rtol=max(settings.rel_tol / _CONTROL_MARGIN, 2.5e-14),
                   atol=settings.abs_tol / _CONTROL_MARGIN,
                   max_step=settings.max_step)
    ts, ys, steps = [stepper.t], [stepper.y], []
    while stepper.status == "running":
        stepper.step()
        ts.append(stepper.t)
        ys.append(stepper.y)
        steps.append(stepper.dense_output())
    return np.array(ts), np.array(ys), steps, stepper.nfev


def _free_newton_problem():
    """The free fourth-order law at (a, b) = (1.4, 0.3), T = 10, as
    integrate_newton_law hands it to the integrator."""
    captured = []

    def spy(rhs, y0, t_span, settings, stop=None):
        captured.append((rhs, y0, t_span))
        return integrate_ivp(rhs, y0, t_span, settings, stop=stop)

    s = ScenarioConfig(PotentialModel.free(), PhysParams(1.0, 1.0, 0.5),
                       QuantumStateParams(a=1.4, b=0.3), law="newton",
                       t_span=(0.0, 10.0), samples=16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "integrate_ivp", spy)
        trajectory.integrate_newton_law(s)
    return captured[0]


@pytest.mark.parametrize("problem", [
    lambda: (lambda t, y: -y, [1.0], (0.0, 5.0)),
    lambda: (lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], (0.0, 20.0)),
    # y0 = 0: the initial step is the 100 h0 bound
    lambda: (lambda t, y: np.array([math.cos(t)]), [0.0], (0.0, 10.0)),
    _free_newton_problem,
], ids=["exponential", "circle", "cosine", "free-newton"])
def test_steps_match_scipy_rk45(problem):
    """The stepper copies RK45: the same steps, the same rhs calls (two for
    the initial step, then six per attempted step), the same states and
    the same dense output."""
    rhs, y0, t_span = problem()
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return rhs(t, y)

    sol = integrate_ivp(counted, y0, t_span)
    ts, ys, steps, nfev = _rk45_reference(rhs, y0, t_span)
    assert sol.n_steps == len(steps)
    assert calls[0] == nfev
    assert (calls[0] - 2) % 6 == 0 and (calls[0] - 2) // 6 >= sol.n_steps
    np.testing.assert_allclose(sol._ts, ts, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(np.vstack([sol._y, sol.y_end]), ys,
                               rtol=1e-13, atol=0.0)
    tq = np.concatenate([np.linspace(*t_span, 1001), ts])
    idx = np.minimum(np.searchsorted(ts[1:], tq, side="left"), len(steps) - 1)
    ref = np.array([steps[k](t) for k, t in zip(idx, tq)])
    np.testing.assert_allclose(sol(tq), ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ys).max())


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


def test_stop_ends_the_solution_at_the_first_step_it_holds():
    full = integrate_ivp(lambda t, y: np.ones(1), [0.0], (0.0, 10.0),
                         IntegratorSettings(max_step=0.25))
    sol = integrate_ivp(lambda t, y: np.ones(1), [0.0], (0.0, 10.0),
                        IntegratorSettings(max_step=0.25),
                        stop=lambda y: y[0] > 2.0)
    assert 2.0 < sol.t1 <= 2.25 and sol.y_end[0] > 2.0
    assert np.all(sol._y[:, 0] <= 2.0)
    # the steps up to the stop are the unstopped run's
    np.testing.assert_array_equal(sol._ts, full._ts[:sol.n_steps + 1])
