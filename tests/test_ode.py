"""Tests for the Taylor-series integrator with dense output.

Oracles are closed-form solutions whose Taylor series are known exactly:
exponentials (x' = +-x), circular motion (x'' = -x) and a quartic
polynomial (x' = 4t^3, zero past its fourth coefficient).
"""

import math
import pickle

import numpy as np
import pytest

from qmotion import ode
from qmotion.ode import ORDER, IntegrationFailure, integrate_ivp


def exp_series(t, y, order):
    """x' = x: a_k = x/k!."""
    a = [y[0]]
    for k in range(order):
        a.append(a[-1] / (k + 1))
    return a, None


def circle_series(t, y, order):
    """x'' = -x from (x, x'): a_{k+2} = -a_k/((k+1)(k+2))."""
    a = [y[0], y[1]]
    for k in range(order - 1):
        a.append(-a[k] / ((k + 1) * (k + 2)))
    return a, None


def quartic_series(t, y, order):
    """x' = 4t^3 from x: the series of t^4 ends at its fourth coefficient."""
    return [y[0], 4.0 * t ** 3, 6.0 * t ** 2, 4.0 * t, 1.0] + [0.0] * (
        order - 4), None


def test_exponential_decay():
    def series(t, y, order):  # x' = -x: a_k = x (-1)^k/k!
        a = [y[0]]
        for k in range(order):
            a.append(-a[-1] / (k + 1))
        return a, None

    sol = integrate_ivp(series, [1.0], (0.0, 5.0))
    for t in np.linspace(0.0, 5.0, 23):
        assert sol(t)[0] == pytest.approx(math.exp(-t), rel=1e-13)


def test_harmonic_circle_conserves_radius():
    sol = integrate_ivp(circle_series, [1.0, 0.0], (0.0, 20.0))
    ts = np.linspace(0.0, 20.0, 200)
    ys = sol(ts)
    np.testing.assert_allclose(ys[:, 0], np.cos(ts), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(ys[:, 1], -np.sin(ts), rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(np.hypot(ys[:, 0], ys[:, 1]), 1.0, atol=1e-13)
    np.testing.assert_allclose(sol.y_end, [math.cos(20.0), -math.sin(20.0)],
                               atol=1e-13)


def test_dense_output_between_grid_points():
    # few, long steps, so the steps' polynomials carry the accuracy
    sol = integrate_ivp(circle_series, [0.0, 1.0], (0.0, 10.0))
    assert sol.n_steps < 40
    for t in np.random.default_rng(7).uniform(0.0, 10.0, 50):
        np.testing.assert_allclose(sol(t), [math.sin(t), math.cos(t)],
                                   rtol=0.0, atol=1e-13)


def test_vector_evaluation_shape():
    sol = integrate_ivp(circle_series, [1.0, 0.0], (0.0, 1.0))
    assert sol(0.5).shape == (2,)
    assert sol(np.array([0.5])).shape == (1, 2)
    assert sol(np.zeros((0,))).shape == (0, 2)


def test_polynomial_solution_takes_one_step():
    """Nothing but the span limits the quartic's step, since its last two
    coefficients are zero, and the step's polynomial is the solution."""
    sol = integrate_ivp(quartic_series, [0.0], (0.0, 3.0))
    assert sol.n_steps == 1 and sol.t1 == 3.0
    assert sol(2.0)[0] == 16.0 and sol.y_end[0] == 81.0
    for t0, t1 in ((0.0, 1e6), (-2.0, -1.0), (1.5, 2.5)):
        sol = integrate_ivp(quartic_series, [t0 ** 4], (t0, t1))
        assert sol.n_steps == 1 and sol.t1 == t1
        assert sol.y_end[0] == pytest.approx(t1 ** 4, rel=1e-15)


def test_reversed_span_rejected():
    # forward-only by contract; callers reverse time in the series instead
    with pytest.raises(ValueError):
        integrate_ivp(exp_series, [1.0], (2.0, 0.0))


def test_out_of_range_evaluation_rejected():
    sol = integrate_ivp(exp_series, [1.0], (0.0, 1.0))
    with pytest.raises(ValueError):
        sol(1.5)


def test_time_array_rows_equal_scalar_calls_bitwise():
    """A time array is evaluated in one pass over all its times; each row
    equals the call at that one time bit for bit, step edges included."""
    sol = integrate_ivp(circle_series, [0.0, 1.0], (0.0, 10.0))
    ts = np.concatenate([np.linspace(0.0, 10.0, 301), sol._ts[:40]])
    rows = sol(ts)
    assert rows.shape == (ts.size, 2)
    for t, row in zip(ts.tolist(), rows):
        np.testing.assert_array_equal(sol(t), row)


def test_tolerance_actually_tightens(monkeypatch):
    def run(rel_tol, abs_tol):
        monkeypatch.setattr(ode, "REL_TOL", rel_tol)
        monkeypatch.setattr(ode, "ABS_TOL", abs_tol)
        return integrate_ivp(circle_series, [1.0, 0.0], (0.0, 20.0))

    exact = math.cos(20.0)
    loose, tight = run(1e-2, 1e-2), run(1e-12, 1e-14)
    err_loose = abs(loose.y_end[0] - exact)
    err_tight = abs(tight.y_end[0] - exact)
    assert err_tight < err_loose
    assert err_tight < 1e-13
    assert tight.n_steps > loose.n_steps


def test_stop_ends_the_solution_at_the_first_step_it_holds():
    full = integrate_ivp(exp_series, [1.0], (0.0, 10.0))
    sol = integrate_ivp(exp_series, [1.0], (0.0, 10.0),
                        stop=lambda y: y[0] > 100.0)
    assert sol.t1 < 10.0 and sol.y_end[0] > 100.0
    assert sol(sol._ts[-2])[0] <= 100.0
    # the steps up to the stop are the unstopped run's
    np.testing.assert_array_equal(sol._ts, full._ts[:sol.n_steps + 1])


def test_wall_ends_a_step_on_it():
    """A series that holds only up to t = 0.4 ends its step there, and the
    next step starts on the wall."""
    starts = []

    def series(t, y, order):
        a, _ = exp_series(t, y, order)
        starts.append(t)
        return a, (0.4 if t < 0.4 else None)

    sol = integrate_ivp(series, [1.0], (0.0, 2.0))
    assert starts[1] == sol._ts[1] == 0.4
    assert sol(0.4)[0] == pytest.approx(math.exp(0.4), rel=1e-15)
    assert sol(2.0)[0] == pytest.approx(math.exp(2.0), rel=1e-14)


def test_an_endless_span_needs_a_wall_where_the_rule_reads_nothing():
    """The quartic's step rule has no coefficient to read: over an endless
    span a wall must bound each step, and without one the run fails."""
    with pytest.raises(IntegrationFailure) as info:
        integrate_ivp(quartic_series, [0.0], (0.0, math.inf))
    assert info.value.reason == "no bound on the step at t = 0.0"
    assert info.value.y == [0.0]

    def walled(t, y, order):
        return quartic_series(t, y, order)[0], t + 1.0

    sol = integrate_ivp(walled, [0.0], (0.0, math.inf),
                        stop=lambda y: y[0] >= 50.0)
    assert sol._ts.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert sol.y_end[0] == pytest.approx(81.0, rel=1e-15)


def test_step_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(ode, "MAX_STEPS", 5)
    with pytest.raises(IntegrationFailure) as info:
        integrate_ivp(circle_series, [1.0, 0.0], (0.0, 50.0))
    err = info.value
    assert err.reason.startswith("step budget of 5 exhausted at t = ")
    assert 0.0 < float(err.reason.rsplit("t = ", 1)[1]) < 50.0
    # sweep workers send it back to the parent process
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is IntegrationFailure and back.reason == err.reason


def test_nonfinite_rhs_fails_cleanly():
    def series(t, y, order):
        a, _ = exp_series(t, y, order)
        a[ORDER] = math.inf if t > 0.5 else a[ORDER]
        return a, None

    with pytest.raises(IntegrationFailure, match="non-finite derivative at t = "):
        integrate_ivp(series, [1.0], (0.0, 2.0))
