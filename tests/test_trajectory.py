"""Tests for trajectory integration under the three laws of motion.

Free-particle oracles are closed forms worked out by hand:

  a = 1: S0' = hbar k everywhere, so x(t) = t for unit parameters.
  a = 2: S0' = 2 hbar k / (1 + 3 sin^2 kx); seeding the motion jets gives
         (xd, xdd, xddd) = (2, 0, -48) at x = 0 and
         (0.8, -0.768, 2.21184) at x = pi/4 (unit parameters), and the
         time-of-flight integral evaluates to
         a sqrt(2E/mu) t = 5x/2 - (3/4) sin 2x   (so t(pi) = 5 pi / 4).
"""

import dataclasses
import json
import math
import operator
import os
import pickle
import subprocess
import sys
import tempfile
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmotion.jets import Jet, SingularityError, _horner
from qmotion import trajectory
from qmotion import ode
from qmotion.reduced_action import QuantumStateParams, s0p
from qmotion.rootfind import RootConvergenceError, invert_monotone
from qmotion.schrodinger import PhysParams, PotentialModel, solve_pair
from qmotion.trajectory import (
    CSV_HEADER,
    LAWS,
    DomainEdgeError,
    ScenarioConfig,
    SingularObservables,
    VelocityFloorError,
    integrate_legacy_law,
    integrate_newton_law,
    integrate_velocity_law,
    observables,
    run_scenario,
    state_jet_from_x,
    summarize,
    write_csv,
    write_summary,
)

UNIT = PhysParams(hbar=1.0, mu=1.0, energy=0.5)  # free wave number k = 1


# the free particle's closed form, the oracle of the free runs

def free_time_of_x(params: PhysParams, q: QuantumStateParams,
                   x: float) -> float:
    """Elapsed time t - t0 for the free-particle law, measured from x = 0.

    Closed form: a sqrt(2E/mu) (t - t0) =
    (a^2+b^2+1) x/2 + (1+b^2-a^2) sin(2kx)/(4k) - a b cos(2kx)/(2k),
    with the x = 0 value of the right-hand side subtracted.
    """
    E = params.energy
    if not E > 0:
        raise ValueError("the free closed form needs positive energy")
    k = np.sqrt(2.0 * params.mu * E) / params.hbar
    a, b = q.a, q.b

    def F(u):
        return ((a * a + b * b + 1.0) * u / 2.0
                + (1.0 + b * b - a * a) * np.sin(2.0 * k * u) / (4.0 * k)
                - a * b * np.cos(2.0 * k * u) / (2.0 * k))

    return float((F(x) - F(0.0)) / (a * np.sqrt(2.0 * E / params.mu)))


def free_x_of_time(params: PhysParams, q: QuantumStateParams,
                   t: float) -> float:
    """Invert the free closed form: position reached after elapsed time t.

    The mean motion x = v_cl t, v_cl the classical-limit speed, brackets
    the position to within pi/k: t(x) rises by the same amount over every
    period pi/k of its harmonic part, and is monotone."""
    if t == 0.0:
        return 0.0
    f = lambda u: free_time_of_x(params, q, u)
    v_cl = classical_limit_factor(q) * np.sqrt(2.0 * params.energy
                                               / params.mu)
    period = math.pi * params.hbar / math.sqrt(2.0 * params.mu
                                               * params.energy)
    x = float(t * v_cl)
    return invert_monotone(f, t, (x - period, x + period))


def classical_limit_factor(q: QuantumStateParams) -> float:
    """Proportionality factor between x and sqrt(2E/mu)(t - t0) in the
    classical limit: 2a/(a^2 + b^2 + 1); equals 1 only at (a, b) = (1, 0)."""
    return 2.0 * q.a / (q.a * q.a + q.b * q.b + 1.0)


def free_scenario(a=1.0, b=0.0, law="velocity", t1=5.0, samples=128, **kw):
    return ScenarioConfig(PotentialModel.free(), UNIT,
                          QuantumStateParams(a=a, b=b), law=law,
                          t_span=(0.0, t1), samples=samples, **kw)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_law():
    with pytest.raises(ValueError):
        free_scenario(law="teleport")


def test_config_rejects_empty_span():
    with pytest.raises(ValueError):
        free_scenario(t1=0.0)


def test_config_rejects_single_sample():
    with pytest.raises(ValueError):
        free_scenario(samples=1)


def test_start_outside_numerov_domain_rejected():
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.0), x_start=5.0,
                       domain=(-2.0, 2.0))
    with pytest.raises(ValueError):
        s.build_pair()


# ---------------------------------------------------------------------------
# Motion jets from the reduced action
# ---------------------------------------------------------------------------

def test_unit_state_jet_is_uniform_motion():
    pair = solve_pair(PotentialModel.free(), UNIT, (-8.0, 8.0))
    j = state_jet_from_x(pair, QuantumStateParams(a=1.0), UNIT, 0.7, order=5)
    np.testing.assert_allclose(j.coeffs, [0.7, 1.0, 0.0, 0.0, 0.0, 0.0],
                               atol=1e-13)


def test_two_state_jet_oracles():
    pair = solve_pair(PotentialModel.free(), UNIT, (-8.0, 8.0))
    q = QuantumStateParams(a=2.0)
    j0 = state_jet_from_x(pair, q, UNIT, 0.0, order=3)
    np.testing.assert_allclose(j0.coeffs, [0.0, 2.0, 0.0, -48.0], atol=1e-11)
    j1 = state_jet_from_x(pair, q, UNIT, math.pi / 4, order=3)
    np.testing.assert_allclose(j1.coeffs,
                               [math.pi / 4, 0.8, -0.768, 2.21184],
                               rtol=1e-10)


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------

def test_observable_hand_oracle():
    j = Jet((0.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    obs = observables(j, UNIT)
    assert obs.Q == pytest.approx(-0.625, abs=1e-14)
    assert obs.H == pytest.approx(-0.125, abs=1e-14)
    assert obs.P == pytest.approx(0.5, abs=1e-14)


def test_observables_reject_stationary_point():
    from qmotion.kinetic_series import SingularityError
    with pytest.raises((SingularityError, ZeroDivisionError)):
        observables(Jet((0.0, 0.0, 1.0, 0.0, 0.0, 0.0)), UNIT)


# ---------------------------------------------------------------------------
# Time-of-flight closed form
# ---------------------------------------------------------------------------

def test_unit_state_time_is_identity():
    q = QuantumStateParams(a=1.0)
    assert free_time_of_x(UNIT, q, 2.0) == pytest.approx(2.0, abs=1e-14)
    assert free_x_of_time(UNIT, q, 3.1) == pytest.approx(3.1, abs=1e-12)


def test_two_state_time_oracle():
    q = QuantumStateParams(a=2.0)
    assert free_time_of_x(UNIT, q, math.pi) == pytest.approx(5 * math.pi / 4,
                                                             rel=1e-14)
    assert free_time_of_x(UNIT, q, 0.0) == 0.0
    # quarter period: 5x/2 - (3/4) sin 2x at x = pi/2 gives 5 pi / 4 ... / 2
    assert free_time_of_x(UNIT, q, math.pi / 2) == pytest.approx(
        (2.5 * math.pi / 2 - 0.75 * math.sin(math.pi)) / 2.0, rel=1e-14)


def test_time_inverse_roundtrip():
    q = QuantumStateParams(a=1.7, b=0.4)
    for x in [0.0, 0.8, 2.9, -1.3]:
        t = free_time_of_x(UNIT, q, x)
        assert free_x_of_time(UNIT, q, t) == pytest.approx(x, abs=1e-11)


def test_time_requires_positive_energy():
    bad = PhysParams(hbar=1.0, mu=1.0, energy=-0.5)
    with pytest.raises(ValueError):
        free_time_of_x(bad, QuantumStateParams(a=1.0), 1.0)


def test_classical_limit_factor():
    assert classical_limit_factor(QuantumStateParams(a=1.0)) == pytest.approx(1.0)
    assert classical_limit_factor(QuantumStateParams(a=2.0)) == pytest.approx(0.8)
    assert classical_limit_factor(QuantumStateParams(a=1.0, b=1.0)) == pytest.approx(2.0 / 3.0)


# ---------------------------------------------------------------------------
# Velocity law
# ---------------------------------------------------------------------------

def test_velocity_law_free_unit_state_tracks_time():
    res = integrate_velocity_law(free_scenario())
    worst = max(abs(s.x - s.t) for s in res.samples)
    assert worst < 1e-10


def test_velocity_law_matches_time_equation():
    res = integrate_velocity_law(free_scenario(a=2.0))
    q = QuantumStateParams(a=2.0)
    for s in res.samples[:: 16]:
        assert s.x == pytest.approx(free_x_of_time(UNIT, q, s.t), abs=1e-9)


def test_velocity_law_arrival_time():
    res = integrate_velocity_law(free_scenario(a=2.0, t1=4.5))
    assert res.arrival_time(math.pi) == pytest.approx(5 * math.pi / 4,
                                                      abs=1e-9)


def test_velocity_law_samples_costate():
    res = integrate_velocity_law(free_scenario(a=2.0, t1=2.0))
    for s in res.samples[:: 16]:
        assert s.s0p == pytest.approx(s.xdot, rel=1e-12)  # mu = 1


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (2.0, 0.0), (1.4, 0.3),
                                  (-0.8, 0.5), (0.6, -0.9)])
def test_velocity_law_free_positions_match_closed_form(a, b):
    q = QuantumStateParams(a=a, b=b)
    res = integrate_velocity_law(free_scenario(a=a, b=b, t1=20.0,
                                               samples=512))
    worst = max(abs(s.x - free_x_of_time(UNIT, q, s.t)) for s in res.samples)
    assert worst < 1e-12


def _reference_positions(s: ScenarioConfig, rate) -> np.ndarray:
    """x at the sample times by scipy's DOP853 on dx/dt = rate(x), at rtol
    1e-13 and atol 1e-15: an integrator the package does not use."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: [rate(y[0])], s.t_span, [s.x_start],
                    method="DOP853", rtol=1e-13, atol=1e-15,
                    t_eval=np.linspace(*s.t_span, s.samples))
    assert sol.success, sol.message
    return sol.y[0]


def _velocity_reference(s: ScenarioConfig) -> np.ndarray:
    """The velocity law's x at the sample times by DOP853."""
    pair = s.build_pair()
    return _reference_positions(
        s, lambda x: float(s0p(pair, s.q, x)) / s.params.mu)


def _legacy_reference(s: ScenarioConfig) -> np.ndarray:
    """The legacy law's x at the sample times by DOP853."""
    pair, E = s.build_pair(), s.params.energy
    return _reference_positions(
        s, lambda x: 2.0 * (E - float(s.potential.value(x)))
        / float(s0p(pair, s.q, x)))


@pytest.mark.parametrize("potential", [
    PotentialModel.harmonic(1.0),
    PotentialModel.tabulated(np.linspace(-3.5, 3.5, 141),
                             0.5 * np.linspace(-3.5, 3.5, 141) ** 2)])
@pytest.mark.parametrize("a, b", [(1.4, 0.3), (-0.8, 0.3), (0.6, -0.9)])
def test_velocity_law_grid_positions_match_tight_rk45(potential, a, b):
    s = ScenarioConfig(potential, UNIT, QuantumStateParams(a=a, b=b),
                       t_span=(0.0, 10.0), samples=256, domain=(-3.0, 3.0))
    xs = np.array([p.x for p in integrate_velocity_law(s).samples])
    assert np.max(np.abs(xs - _velocity_reference(s))) < 1e-11


def test_velocity_law_integrates_no_ode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the velocity law called integrate_ivp")

    monkeypatch.setattr(trajectory, "integrate_ivp", refuse)
    integrate_velocity_law(free_scenario(a=2.0, b=0.5, t1=10.0))
    integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=-1.4, b=0.3),
        t_span=(0.0, 10.0), domain=(-3.0, 3.0)))


def test_legacy_law_integrates_no_ode(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the legacy law called integrate_ivp")

    monkeypatch.setattr(trajectory, "integrate_ivp", refuse)
    integrate_legacy_law(free_scenario(a=2.0, b=0.5, law="legacy", t1=10.0))
    integrate_legacy_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=-1.4, b=0.3),
        law="legacy", t_span=(0.0, 10.0), domain=(-3.0, 3.0)))


_RUNS = [
    integrate_velocity_law(free_scenario(a=2.0, b=0.5, t1=10.0)),
    integrate_velocity_law(free_scenario(a=-0.7, b=-0.2, t1=10.0)),
    integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=1.4, b=0.3),
        t_span=(0.0, 2.0), domain=(-3.0, 3.0))),
    integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=-0.8, b=0.3),
        x_start=0.4, t_span=(0.0, 2.0), domain=(-3.0, 3.0))),
]


@given(st.integers(0, len(_RUNS) - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
@settings(deadline=None, max_examples=60)
def test_batched_time_of_x_equals_scalar_bitwise(which, fractions):
    clock, x0 = _RUNS[which].time_of_x, _RUNS[which].config.x_start
    reach = 3.0 if clock.pair.source == "analytic" else 0.5
    xs = x0 + clock.steps[0] * reach * np.asarray(fractions)
    batched = clock(xs)
    for k, x in enumerate(xs):
        assert clock(float(x)) == batched[k]


def test_time_of_x_inverts_the_samples():
    res = integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=-0.8, b=0.3),
        t_span=(0.0, 10.0), samples=64, domain=(-3.0, 3.0)))
    cols = res.columns()
    np.testing.assert_allclose(res.time_of_x(cols[:, 1]), cols[:, 0],
                               rtol=0.0, atol=1e-13)
    # the run moves left from x = 0, on a grid of step 1e-3
    with pytest.raises(ValueError, match="behind the run's start"):
        res.arrival_time(4e-4)
    with pytest.raises(ValueError, match="not on the run's path"):
        res.arrival_time(0.01)


def test_velocity_bohm_gap_detects_a_displaced_sample():
    res = integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=1.4, b=0.3),
        t_span=(0.0, 10.0), samples=256, domain=(-3.0, 3.0)))
    assert summarize(res)["max_bohm_gap_rel"] < 1e-12
    k = 100
    res.columns()[k, 1] += 1e-7  # the summary reads the run's own table
    assert summarize(res)["max_bohm_gap_rel"] > 1e-6


def test_newton_law_stops_at_the_domain_edge(monkeypatch):
    """Downhill, x leaves the solved domain near t = 2.2.  The law never
    reads the pair, so without a stop the run would go on to t1 = 50."""
    monkeypatch.setattr(ode, "MAX_STEPS", 5000)
    s = ScenarioConfig(PotentialModel.linear(-0.5), UNIT,
                       QuantumStateParams(a=1.0), law="newton",
                       t_span=(0.0, 50.0), samples=256, domain=(-2.0, 3.0))
    with pytest.raises(DomainEdgeError, match="outside solved domain") as info:
        integrate_newton_law(s)
    xs = [p.x for p in info.value.partial.samples]
    assert len(xs) > 1 and max(xs) <= 3.0 + 1e-9


def test_velocity_law_stops_at_the_domain_edge():
    s = ScenarioConfig(PotentialModel.linear(0.5), UNIT,
                       QuantumStateParams(a=1.0), t_span=(0.0, 50.0),
                       samples=256, domain=(-2.0, 3.0))
    with pytest.raises(DomainEdgeError, match="outside solved domain") as info:
        integrate_velocity_law(s)
    part = info.value.partial
    t_edge = part.time_of_x(3.0)
    assert part.samples[-1].t <= t_edge < part.samples[-1].t + 50.0 / 255
    assert len(part.samples) == int(t_edge / (50.0 / 255)) + 1
    assert part.notes == [f"domain edge x = 3 reached at t = {t_edge:.9g}; "
                          "no samples after it"]
    info = summarize(part)
    assert info["energy_conserved"] and info["max_bohm_gap_rel"] < 1e-12


def test_newton_and_velocity_laws_reach_the_domain_edge_together(monkeypatch):
    """Uphill, both modified laws cross the barrier and reach x = 3 near
    t = 14.39: the velocity law's time from its t(x), the newton law's as
    the root of its step's polynomial."""
    reached = {}

    def record(result, edge, t_edge, _edge_reached=trajectory._edge_reached):
        reached[result.law] = (edge, t_edge)
        _edge_reached(result, edge, t_edge)

    monkeypatch.setattr(trajectory, "_edge_reached", record)
    base = dict(potential=PotentialModel.linear(0.5), params=UNIT,
                q=QuantumStateParams(a=1.0, b=0.0), t_span=(0.0, 50.0),
                samples=256, domain=(-2.0, 3.0))
    for law, integrate in (("velocity", integrate_velocity_law),
                           ("newton", integrate_newton_law)):
        with pytest.raises(DomainEdgeError) as info:
            integrate(ScenarioConfig(law=law, **base))
        t_edge = reached[law][1]
        assert info.value.partial.notes == [
            f"domain edge x = 3 reached at t = {t_edge:.9g}; "
            "no samples after it"]
    assert reached["velocity"][0] == reached["newton"][0] == 3.0
    assert abs(reached["velocity"][1] - reached["newton"][1]) < 1e-9


def test_legacy_law_stops_at_the_domain_edge():
    """Downhill there is no turning point ahead: the legacy law reaches
    x = 3 and writes its samples up to the edge, as the velocity law does."""
    s = ScenarioConfig(PotentialModel.linear(-0.5), UNIT,
                       QuantumStateParams(a=1.0), law="legacy",
                       t_span=(0.0, 50.0), samples=256, domain=(-2.0, 3.0))
    with pytest.raises(DomainEdgeError, match="outside solved domain") as info:
        integrate_legacy_law(s)
    part = info.value.partial
    (note,) = part.notes
    assert note.startswith("domain edge x = 3 reached at t = ")
    t_edge = float(note.split("t = ")[1].split(";")[0])
    assert part.samples[-1].t <= t_edge < part.samples[-1].t + 50.0 / 255
    xs = np.array([p.x for p in part.samples])
    assert len(xs) > 1 and np.all(np.diff(xs) > 0) and xs[-1] <= 3.0
    ref = _legacy_reference(dataclasses.replace(
        s, t_span=(0.0, part.samples[-1].t), samples=len(xs)))
    assert np.max(np.abs(xs - ref)) < 1e-10


# ---------------------------------------------------------------------------
# Newton-type law
# ---------------------------------------------------------------------------

def test_newton_law_agrees_with_velocity_law():
    sv = free_scenario(a=2.0, b=0.5, t1=4.0)
    sn = free_scenario(a=2.0, b=0.5, t1=4.0, law="newton")
    xv = {s.t: s.x for s in integrate_velocity_law(sv).samples}
    xn = {s.t: s.x for s in integrate_newton_law(sn).samples}
    worst = max(abs(xv[t] - xn[t]) for t in xv)
    assert worst < 1e-7


# the newton law's own checks: bounds about ten times the worst gap measured
# over these states (1.1e-13 in t on the free pair, 6.4e-14 in x on the
# harmonic one), where relabelling the law's hbar by 1e-6 gives 1.2e-6 and
# 4.6e-7
_FREE_STATES = [(2.0, 0.5), (-1.8659213137870747, 0.4679349528437209),
                (0.6, -0.9), (-0.5, 1.0), (1.4, 0.3)]
_HARMONIC_STATES = [(1.4, 0.3), (-0.8, 0.1), (0.6, -0.9), (-1.9, 0.9),
                    (1.0, 0.0)]
NEWTON_FREE_TOL = 1e-12
NEWTON_HARMONIC_TOL = 1e-12
RELABELLED = PhysParams(hbar=1.0 + 1e-6, mu=1.0, energy=0.5)


def newton_run(s: ScenarioConfig, law_params=None):
    """The newton law's run of s, from the consistent jet of s's params,
    stepped with ``law_params`` in their place when given."""
    if law_params is None:
        return integrate_newton_law(s)
    init = state_jet_from_x(s.build_pair(), s.q, s.params, s.x_start,
                            3).coeffs
    return integrate_newton_law(dataclasses.replace(s, params=law_params),
                                init=init)


def free_closed_form_gap(params, q, law_params=None):
    """The worst |t_k - t(x_k)| of a newton run on the free pair against
    t(x) = t0 + mu/(hbar a k) [F(x) - F(x_start)] (``free_time_of_x``),
    from t0 = 1 and x_start = 0.3."""
    s = ScenarioConfig(PotentialModel.free(), params, q, law="newton",
                       x_start=0.3, t_span=(1.0, 11.0), samples=256)
    cols = newton_run(s, law_params).columns()
    t_start = free_time_of_x(params, q, 0.3)
    model = [1.0 + free_time_of_x(params, q, x) - t_start for x in cols[:, 1]]
    return float(np.max(np.abs(np.subtract(model, cols[:, 0]))))


@pytest.mark.parametrize("params", [UNIT, PhysParams(hbar=0.8, mu=1.3,
                                                     energy=0.7)])
def test_newton_law_samples_lie_on_the_free_closed_form(params):
    gaps = [free_closed_form_gap(params, QuantumStateParams(a=a, b=b))
            for a, b in _FREE_STATES]
    assert max(gaps) < NEWTON_FREE_TOL, gaps


def test_newton_law_agrees_with_velocity_law_on_the_harmonic_pair():
    """Far inside criterion 7's 1e-6, with t1 = 10 and 256 samples."""
    pair = solve_pair(PotentialModel.harmonic(1.0), UNIT, (-3.0, 3.0),
                      grid_step=1e-3)
    gaps = [harmonic_gap(pair, QuantumStateParams(a=a, b=b))
            for a, b in _HARMONIC_STATES]
    assert max(gaps) < NEWTON_HARMONIC_TOL, gaps


def harmonic_gap(pair, q, law_params=None):
    base = dict(potential=PotentialModel.harmonic(1.0), params=UNIT, q=q,
                t_span=(0.0, 10.0), samples=256, pair=pair)
    xv = integrate_velocity_law(ScenarioConfig(law="velocity", **base))
    xn = newton_run(ScenarioConfig(law="newton", **base), law_params)
    return float(np.max(np.abs(xv.columns()[:, 1] - xn.columns()[:, 1])))


def test_newton_checks_fail_for_a_law_with_hbar_relabelled():
    """From the consistent jet, a law whose hbar is off by 1e-6 fails both
    checks above by orders of magnitude, and criterion 7's 1e-6 would not
    see it on the harmonic pair."""
    pair = solve_pair(PotentialModel.harmonic(1.0), UNIT, (-3.0, 3.0),
                      grid_step=1e-3)
    for a, b in _FREE_STATES:
        q = QuantumStateParams(a=a, b=b)
        gap = free_closed_form_gap(UNIT, q, RELABELLED)
        assert gap > 1e3 * NEWTON_FREE_TOL
    for a, b in _HARMONIC_STATES:
        q = QuantumStateParams(a=a, b=b)
        assert harmonic_gap(pair, q, RELABELLED) > 1e3 * NEWTON_HARMONIC_TOL


def test_newton_law_at_criterion_1s_state_ends_at_t1():
    """At a = 1, b = 0 on the free pair t(x) is linear, so the step rule
    reads no coefficient and the steps are bounded by t1 alone."""
    res = integrate_newton_law(free_scenario(law="newton", t1=20.0,
                                             samples=512))
    cols = res.columns()
    assert np.isfinite(cols).all() and cols[-1, 0] == 20.0
    assert np.max(np.abs(cols[:, 1] - cols[:, 0])) < 1e-12


def test_newton_law_stops_at_a_truncated_pairs_edge():
    """The steps run to the requested edge x = 30, past the overflow cap
    at 7.794: the samples end where the pair's covered domain does."""
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=-1.4, b=0.3), law="newton",
                       x_start=2.0, t_span=(0.0, 0.02), samples=16,
                       domain=(-30.0, 30.0))
    with pytest.raises(DomainEdgeError, match="outside solved domain") as info:
        integrate_newton_law(s, init=(2.0, 1e3, 0.0, 0.0))
    part = info.value.partial
    edge = s.pair.domain[1]
    assert s.pair.truncated and edge == pytest.approx(7.794, abs=1e-3)
    assert part.notes[-1].startswith(f"domain edge x = {edge:.9g} reached")
    xs = part.columns()[:, 1]
    assert 1 < len(xs) < 16 and xs[-1] <= edge


@pytest.mark.parametrize("x0, xd", [(3.0, 1.0), (-3.0, -0.5)])
def test_newton_law_started_on_the_edge_moving_out_stops_at_t0(x0, xd):
    """The span of the distance travelled is empty: the run keeps its one
    sample at t0 and names t0 as the edge time."""
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.4, b=0.3), law="newton",
                       t_span=(0.0, 1.0), samples=8, domain=(-3.0, 3.0))
    with pytest.raises(DomainEdgeError) as info:
        integrate_newton_law(s, init=(x0, xd, 0.0, 0.0))
    part = info.value.partial
    assert part.columns()[:, :2].tolist() == [[0.0, x0]]
    assert part.notes == [f"domain edge x = {x0:.9g} reached at t = 0; "
                          "no samples after it"]


def test_newton_law_on_a_tabulated_potential_agrees_with_velocity_law(
        monkeypatch):
    """The spline's third derivative jumps at its knots, so steps end
    there; the law still agrees with the velocity law on the same pair."""
    sols = []

    def keep(*args, _integrate=trajectory.integrate_ivp, **kwargs):
        sols.append(_integrate(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(trajectory, "integrate_ivp", keep)
    knots = np.linspace(-3.5, 3.5, 141)
    potential = PotentialModel.tabulated(knots, 0.5 * knots ** 2)
    pair = solve_pair(potential, UNIT, (-3.0, 3.0), grid_step=1e-3)
    for a, b in [(1.4, 0.3), (-0.8, 0.3)]:
        base = dict(potential=potential, params=UNIT,
                    q=QuantumStateParams(a=a, b=b), t_span=(0.0, 10.0),
                    samples=256, pair=pair)
        xv = [p.x for p in integrate_velocity_law(
            ScenarioConfig(law="velocity", **base)).samples]
        xn = [p.x for p in integrate_newton_law(
            ScenarioConfig(law="newton", **base)).samples]
        assert np.max(np.abs(np.subtract(xv, xn))) < 1e-10
        # the steps run in the distance travelled from x_start = 0
        step_edges = sols[-1]._ts
        assert np.isin(np.sign(xn[-1]) * knots, step_edges).sum() >= 5


def test_newton_series_reads_each_spline_piece_once(monkeypatch):
    """The series takes V' about the midpoint of x's spline piece, the same
    for every step inside it, so a tabulated run reads the spline's
    derivatives once a piece, not once a series call.  Steps end on the
    knots, so the pieces are wider than a step: those of the CI's table."""
    counts = {"series": 0, "derivs": 0}
    inside = [False]

    def derivs(self, x, m, _derivs=PotentialModel.derivs):
        counts["derivs"] += inside[0]
        return _derivs(self, x, m)

    def newton_series(*args, _make=trajectory._newton_series):
        series = _make(*args)

        def counted(t, y, order):
            counts["series"] += 1
            inside[0] = True
            try:
                return series(t, y, order)
            finally:
                inside[0] = False

        return counted

    monkeypatch.setattr(PotentialModel, "derivs", derivs)
    monkeypatch.setattr(trajectory, "_newton_series", newton_series)
    knots = np.array([-3.5, -2.0, -1.0, 0.0, 1.0, 2.0, 3.5])
    integrate_newton_law(ScenarioConfig(
        PotentialModel.tabulated(knots, 0.5 * knots ** 2), UNIT,
        QuantumStateParams(a=0.6, b=-0.9), law="newton",
        t_span=(0.0, 10.0), samples=256, domain=(-3.0, 3.0)))
    assert 0 < counts["derivs"] < counts["series"]


def test_arrival_time_needs_the_velocity_law():
    res = integrate_newton_law(free_scenario(a=2.0, law="newton", t1=1.0))
    with pytest.raises(ValueError, match="newton law"):
        res.arrival_time(0.5)


def test_newton_law_conserves_h_off_family():
    # an initial state not generated by any (a, b): H stays pinned anyway
    s = free_scenario(law="newton", t1=3.0)
    res = integrate_newton_law(s, init=(0.0, 1.5, 0.2, -0.1))
    hs = [x.H for x in res.samples]
    assert hs[0] == pytest.approx(1.112654320987654, rel=1e-9)
    assert max(abs(h - hs[0]) for h in hs) < 1e-10


def test_newton_law_velocity_floor():
    s = free_scenario(law="newton", t1=1.0)
    with pytest.raises(VelocityFloorError) as info:
        integrate_newton_law(s, init=(0.0, 1e-13, 0.0, 0.0))
    # sweep workers send it back to the parent process
    back = pickle.loads(pickle.dumps(info.value))
    assert type(back) is VelocityFloorError
    assert (str(back), back.t, back.state) == (str(info.value), info.value.t,
                                              info.value.state)


def test_newton_law_nonfinite_derivative_fails_instead_of_hanging():
    # xd**4 overflows to inf, and inf * V'(0) = inf * 0 is NaN: with no
    # finite initial derivative no step size can be chosen, and a NaN step
    # size passes every underflow test.  A child process runs it, so a
    # stepper that spins fails this test instead of hanging the suite.
    code = textwrap.dedent("""
        from qmotion import ode
        from qmotion.ode import IntegrationFailure
        from qmotion.reduced_action import QuantumStateParams
        from qmotion.schrodinger import PhysParams, PotentialModel
        from qmotion.trajectory import ScenarioConfig, integrate_newton_law
        ode.MAX_STEPS = 2000
        s = ScenarioConfig(PotentialModel.harmonic(1.0),
                           PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                           QuantumStateParams(a=1.4, b=0.3), law="newton",
                           domain=(-3.0, 3.0))
        try:
            integrate_newton_law(s, init=(0.0, 1e80, 0.0, 0.0))
        except IntegrationFailure as exc:
            print(exc.reason)
        """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "non-finite derivative at t = 0.0"


def test_newton_series_overflow_gives_a_nonfinite_coefficient():
    # at xd = 1e80, dt/dx = 1e-80, and the quotients by it overflow: the
    # series must hand ode a non-finite coefficient, which it reports as an
    # IntegrationFailure, and raise nothing itself (a power on floats
    # raises OverflowError)
    s = ScenarioConfig(PotentialModel.harmonic(1.0),
                       PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                       QuantumStateParams(a=1.4, b=0.3), law="newton",
                       domain=(-3.0, 3.0))
    s.build_pair()
    a, wall = trajectory._newton_series(s, 0.0, 1.0)(
        0.0, [0.0, 1e-80, 0.0, 0.0], ode.ORDER)
    assert len(a) == ode.ORDER + 1 and wall > 0.0
    assert not all(map(math.isfinite, a))


def product_form_newton_series(s: ScenarioConfig, x0: float, sign: float,
                               magnitude: bool = False):
    """The newton law's series in the distance travelled d = sign (x - x0)
    by Cauchy products of the raw terms, t'^2, t''^2, t''^3, t'' t''',
    (x - xm)^2 and V' t', and the quotients t''/t'^2, t''^3/t'^2 and
    t'' t'''/t': the oracle of ``trajectory._newton_series``.  With
    ``magnitude``, V' sums its terms about xm in magnitude, which is the
    size at which the series rounds it."""
    mu, hbar = s.params.mu, s.params.hbar
    knots = s.potential.knots

    def dot(u, v):  # the newest Cauchy-product coefficient of u*v
        return sum(map(operator.mul, u, reversed(v)))

    def series(d, y, order):
        t, tp, tpp, tppp = y
        x = xm = x0 + sign * d
        if knots is not None:
            i = int(np.searchsorted(knots, x, "right" if sign > 0 else "left"))
            i = min(max(i, 1), knots.size - 1)
            xm = 0.5 * (knots[i - 1] + knots[i])
        g0, g1, g2 = (float(v) for v in s.potential.derivs(xm, 3)[1:])
        a = [t, tp, 0.5 * tpp, tppp / 6.0]
        p, q, r, e, p2, q2, q3, qr, e2, v, vp, ra, rb, rc = (
            [] for _ in range(14))
        for k in range(order - 3):
            p.append((k + 1) * a[k + 1])
            q.append((k + 1) * (k + 2) * a[k + 2])
            r.append((k + 1) * (k + 2) * (k + 3) * a[k + 3])
            e.append([x - xm, sign][k] if k < 2 else 0.0)  # x - xm
            p2.append(dot(p, p))
            q2.append(dot(q, q))
            q3.append(dot(q2, q))
            qr.append(dot(q, r))
            e2.append(dot(e, e))
            terms = g1 * e[k], 0.5 * g2 * e2[k], g0 if k == 0 else 0.0
            v.append(sum(map(abs, terms)) if magnitude
                     else terms[0] + terms[1] + terms[2])
            vp.append(dot(v, p))                                  # V' t'
            ra.append((q[k] - dot(p2[1:], ra)) / p2[0])           # t''/t'^2
            rb.append((q3[k] - dot(p2[1:], rb)) / p2[0])          # t''^3/t'^2
            rc.append((qr[k] - dot(p[1:], rc)) / p[0])            # t''t'''/t'
            a.append((sign * 4.0 * mu / hbar ** 2 * vp[k]
                      - 4.0 * mu * mu / hbar ** 2 * ra[k]
                      - rb[k] + 2.0 * rc[k])
                     / ((k + 1) * (k + 2) * (k + 3) * (k + 4)))
        return a

    return series


_CUBIC_KNOTS = np.linspace(-3.5, 3.5, 15)
# the spline reproduces the cubic, so V''' = 1.8 on every piece
_SERIES_POTENTIALS = [
    PotentialModel.free(), PotentialModel.linear(0.5),
    PotentialModel.harmonic(1.0),
    PotentialModel.tabulated(_CUBIC_KNOTS,
                             0.3 * _CUBIC_KNOTS ** 3 + 0.5 * _CUBIC_KNOTS ** 2),
]


@given(st.sampled_from(_SERIES_POTENTIALS), st.floats(-2.5, 2.5),
       st.floats(0.1, 3.0), st.sampled_from([1.0, -1.0]),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.0, 2.0))
# just left of the cubic's knot at 0, where V' = -6e-8 is the sum of terms
# of size 0.2 about the piece's midpoint -0.25
@example(_SERIES_POTENTIALS[3], -5.960464477539063e-08, 1.0, 1.0, 0.0, 0.0,
         0.0)
@settings(deadline=None, max_examples=200)
def test_newton_series_matches_the_product_form_recurrence(
        potential, x, speed, sign, xdd, xddd, d):
    """The series at a state (xd, xdd, xddd) off the consistent family, d
    from its start x0: its t'''' is the x-form law's x'''' through the
    inverse-function rule, its wall comes no later than the spline's next
    knot, and over half the step to the wall its polynomial is the
    oracle's.  t(d) is entire on the free pair, so its last coefficients
    are the quotients' rounding noise, which a step damps as h^k."""
    params = PhysParams(hbar=0.8, mu=1.3, energy=0.5)
    s = ScenarioConfig(potential, params, QuantumStateParams(a=1.4, b=0.3),
                       law="newton", domain=(-3.0, 3.0))
    s.build_pair()
    x0, xd = x - sign * d, sign * speed
    x = x0 + sign * d  # the series' x, rounded as it rounds it
    # d(t) = sign (x(t) - x0) has the derivatives f, and t(d) inverts it
    f1, f2, f3 = sign * xd, sign * xdd, sign * xddd
    y = [0.7, 1.0 / f1, -f2 / f1 ** 3, (3.0 * f2 * f2 - f1 * f3) / f1 ** 5]
    a, wall = trajectory._newton_series(s, x0, sign)(d, y, ode.ORDER)
    b = product_form_newton_series(s, x0, sign)(d, y, ode.ORDER)
    assert len(a) == len(b) == ode.ORDER + 1
    mu, hbar = params.mu, params.hbar
    law = (4.0 * mu * xd ** 4 / hbar ** 2 * mu * xdd,
           4.0 * mu * xd ** 4 / hbar ** 2 * float(potential.grad(x)),
           10.0 * xdd ** 3 / xd ** 2, 8.0 * xdd * xddd / xd)
    f4 = sign * (-law[0] - law[1] - law[2] + law[3])
    t4 = -(f4 * f1 ** 2 - 10.0 * f1 * f2 * f3 + 15.0 * f2 ** 3) / f1 ** 7
    # the series rounds V' at the size of the potentials' slopes here, 1
    law_size = max(map(abs, law + (4.0 * mu * xd ** 4 / hbar ** 2,)))
    size = (law_size * f1 ** 2 + abs(10.0 * f1 * f2 * f3)
            + abs(15.0 * f2 ** 3)) / f1 ** 7
    assert abs(24.0 * a[4] - t4) <= 1e-12 * size
    assert wall > d
    if potential.knots is not None:
        ahead = sign * (potential.knots - x0)
        assert wall <= ahead[ahead > d].min()
    h = 0.5 * (wall - d)
    got, want = _horner(a, h, 4), _horner(b, h, 4)
    # both series round V' at the size of its terms about xm, so near a
    # zero of V' the sizes are those of the series with V' at that size
    m = product_form_newton_series(s, x0, sign, True)(d, y, ode.ORDER)
    sizes = [max(u, v) for u, v in zip(_horner([abs(v) for v in b], h, 4),
                                       _horner([abs(v) for v in m], h, 4))]
    assert all(abs(u - v) <= 1e-12 * z for u, v, z in zip(got, want, sizes))


# ---------------------------------------------------------------------------
# Legacy law
# ---------------------------------------------------------------------------

def test_legacy_law_free_unit_state_is_classical():
    res, rep = integrate_legacy_law(free_scenario(law="legacy", t1=3.0))
    assert not rep.stalled
    assert rep.velocity_gap == pytest.approx(0.0, abs=1e-12)
    worst = max(abs(s.x - s.t) for s in res.samples)
    assert worst < 1e-10


def test_legacy_law_velocity_gap():
    # at x = pi/2 the legacy speed is 2(E - V)/S0' = 1/0.5 = 2 while the
    # modified law gives S0'/mu = 1/2: the gap is 3/2
    _, rep = integrate_legacy_law(free_scenario(a=2.0, law="legacy", t1=4.0))
    assert rep.velocity_gap == pytest.approx(1.5, rel=1e-6)


def test_legacy_law_stalls_at_turning_point():
    s = ScenarioConfig(PotentialModel.linear(0.5), UNIT,
                       QuantumStateParams(a=1.0), law="legacy",
                       t_span=(0.0, 40.0), samples=400, domain=(-2.0, 6.0),
                       grid_step=1e-3)
    res, rep = integrate_legacy_law(s)
    assert rep.stalled
    assert rep.x_turn == pytest.approx(1.0, abs=1e-9)  # V(x) = E at x = 1
    assert rep.x_stall == pytest.approx(1.0, abs=1e-2)
    assert rep.x_stall < rep.x_turn
    assert rep.t_stall < 40.0
    # the scan over the run's columns finds the sample that the rule, run
    # one sample at a time, stops at
    want = stall_by_sample(res.samples, rep.threshold, rep.x_turn, 0.0)
    assert (rep.t_stall, rep.x_stall) == want


def stall_by_sample(samples, threshold, x_turn, x_start):
    """The legacy law's stall rule, one sample at a time: (t, x) of the
    third of three successive samples both slow and closing on x_turn."""
    run = 0
    for p in samples:
        slow = abs(p.xdot) < threshold
        closing = x_turn is None or abs(p.x - x_turn) <= abs(x_start - x_turn)
        run = run + 1 if (slow and closing) else 0
        if run >= 3:
            return p.t, p.x
    return None


_SLOW, _FAST = 1e-4, 1.0
_TOWARD = [0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.99999]


@pytest.mark.parametrize("x, xd, x_turn, want", [
    # two slow samples, a fast one, then three slow: the third of those
    (_TOWARD, [_FAST, _SLOW, _SLOW, _FAST, _SLOW, _SLOW, _SLOW, _SLOW],
     1.0, 6),
    # slow, but moving away from x_turn: farther from it than x_start
    ([0.0, -0.5, -1.1, -1.2, -1.3, -1.4, -1.5, -1.6],
     [_FAST, _FAST] + [_SLOW] * 6, 1.0, None),
    # slow on both sides of x_start's distance: only the closing ones count
    ([0.0, 0.5, -1.5, 0.9, -1.2, 0.95, 0.96, 0.97],
     [_FAST] + [_SLOW] * 7, 1.0, 7),
    # no turning point: slowness alone
    ([0.0, -0.5, -1.1, -1.2, -1.3, -1.4, -1.5, -1.6],
     [_FAST, _FAST, _SLOW, _FAST, _SLOW, _SLOW, _SLOW, _FAST], None, 6),
    # a NaN speed is not slow
    (_TOWARD, [_FAST, _SLOW, _SLOW, math.nan, _SLOW, _SLOW, _FAST, _FAST],
     1.0, None),
    # fewer than three samples
    ([0.0, 0.5], [_SLOW, _SLOW], None, None),
], ids=["break-then-three", "moving-away", "mixed", "no-turn", "nan",
        "short"])
def test_stall_scan_matches_the_per_sample_rule(x, xd, x_turn, want):
    ts = np.arange(len(x)) * 0.5
    samples = [trajectory.TrajectorySample(t, xv, v, *[0.0] * 6)
               for t, xv, v in zip(ts.tolist(), x, xd)]
    got = trajectory._stall(ts, np.array(x), np.array(xd), 1e-3, x_turn, 0.0)
    assert got == stall_by_sample(samples, 1e-3, x_turn, 0.0)
    assert got == (None if want is None else (ts[want], x[want]))


@given(st.lists(st.tuples(st.sampled_from([_SLOW, _FAST, -_SLOW, math.nan]),
                          st.floats(-3.0, 3.0)), max_size=12),
       st.sampled_from([None, 1.0, -0.5]), st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=200)
def test_stall_scan_matches_the_per_sample_rule_on_random_columns(
        rows, x_turn, x_start):
    ts = np.arange(len(rows)) * 0.25
    xd = np.array([v for v, _ in rows], dtype=float)
    x = np.array([p for _, p in rows], dtype=float)
    samples = [trajectory.TrajectorySample(t, p, v, *[0.0] * 6)
               for t, p, v in zip(ts.tolist(), x.tolist(), xd.tolist())]
    assert (trajectory._stall(ts, x, xd, 1e-3, x_turn, x_start)
            == stall_by_sample(samples, 1e-3, x_turn, x_start))


@pytest.mark.parametrize("potential, a, b, t1", [
    (PotentialModel.free(), 2.0, 0.5, 10.0),
    (PotentialModel.free(), -0.7, -0.2, 10.0),
    (PotentialModel.harmonic(1.0), 1.4, 0.3, 10.0),
    (PotentialModel.harmonic(1.0), -0.8, 0.3, 10.0),
    (PotentialModel.tabulated(np.linspace(-3.5, 3.5, 141),
                              0.5 * np.linspace(-3.5, 3.5, 141) ** 2),
     0.6, -0.9, 10.0),
    # the barrier, up to its stall near t = 4.3
    (PotentialModel.linear(0.5), 1.0, 0.0, 4.3),
], ids=["free", "free-left", "harmonic", "harmonic-left", "tabulated",
        "barrier"])
def test_legacy_positions_match_dop853(potential, a, b, t1):
    s = ScenarioConfig(potential, UNIT, QuantumStateParams(a=a, b=b),
                       law="legacy", t_span=(0.0, t1), samples=256,
                       domain=(-2.0, 6.0) if potential.kind == "linear"
                       else (-3.0, 3.0))
    res, _ = integrate_legacy_law(s)
    xs = np.array([p.x for p in res.samples])
    assert np.max(np.abs(xs - _legacy_reference(s))) < 1e-10


def test_legacy_law_creeps_toward_a_double_root():
    """Harmonic at E = 0: V = E only at x = 0, where V' vanishes too, so
    dt/dx has a double pole and x creeps toward 0 like 1/t."""
    s = ScenarioConfig(PotentialModel.harmonic(1.0),
                       PhysParams(hbar=1.0, mu=1.0, energy=0.0),
                       QuantumStateParams(a=1.0), x_start=1.0, law="legacy",
                       t_span=(0.0, 15.0), samples=4, domain=(-3.0, 3.0))
    res, rep = integrate_legacy_law(s)
    xs = [p.x for p in res.samples]
    np.testing.assert_allclose(
        xs, [1.0, 0.150007, 0.085249, 0.059681], rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(xs, _legacy_reference(s), rtol=0.0, atol=1e-10)
    assert rep.x_turn == 0.0 and not rep.stalled


_KNOTS = np.linspace(-3.5, 3.5, 141)


@pytest.mark.parametrize("potential, a, b, domain, t1, samples", [
    (PotentialModel.linear(0.5), 1.0, 0.0, (-2.0, 6.0), 40.0, 400),
    (PotentialModel.tabulated(_KNOTS, 0.5 * _KNOTS ** 2), 1.4, 0.3,
     (-3.0, 3.0), 10.0, 256),
    (PotentialModel.tabulated(_KNOTS, 0.5 * _KNOTS ** 2), -1.5, 0.9,
     (-3.0, 3.0), 10.0, 256),
], ids=["barrier", "tabulated-right", "tabulated-left"])
def test_legacy_positions_converge_in_six_newton_steps(
        potential, a, b, domain, t1, samples, monkeypatch):
    """The position solves of the legacy law converge quadratically, in
    the cells short of a turning point and on ln d in its cell, where the
    pole part of the step is exact in d: six Newton steps give the
    samples of the default budget bit for bit."""
    s = ScenarioConfig(potential, UNIT, QuantumStateParams(a=a, b=b),
                       law="legacy", t_span=(0.0, t1), samples=samples,
                       domain=domain, grid_step=1e-3)
    full, report = integrate_legacy_law(s)
    monkeypatch.setattr(trajectory, "_NEWTON_STEPS", 6)
    six, _ = integrate_legacy_law(dataclasses.replace(s, pair=None))
    assert report.x_turn == pytest.approx(math.copysign(1.0, a), abs=1e-9)
    assert six.samples == full.samples


def test_legacy_law_started_on_a_turning_point_stays_there():
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.0), x_start=1.0, law="legacy",
                       samples=4, domain=(-3.0, 3.0))
    res, rep = integrate_legacy_law(s)
    cols = res.columns()
    assert (cols[:, 1] == 1.0).all() and (cols[:, 2] == 0.0).all()
    assert np.isnan(cols[:, 5:8]).all()
    assert not rep.stalled and rep.x_turn is None


BARRIER_XS = np.linspace(-4.0, 4.0, 161)
_BUMP = np.where(np.abs(BARRIER_XS - 1.2) < 0.15, 1.0, 0.0)
# a tabulated bump of height 1 at x = 1.2, alone or before a second barrier
# on x > 1.8
BARRIERS = {"bump": _BUMP, "two-barriers": np.where(BARRIER_XS > 1.8, 1.0,
                                                    _BUMP)}


def first_root_ahead(potential, energy, x0, x1):
    """The two adjacent floats that straddle the first root of V - E on
    [x0, x1]: a scan of V at 1e-5 steps, then bisection between the scan
    points on either side of the first change of sign."""
    xs = np.linspace(x0, x1, int(round((x1 - x0) * 1e5)) + 1)
    ahead = np.sign(potential.value(xs) - energy)
    k = int(np.flatnonzero(ahead != ahead[0])[0])
    lo, hi = float(xs[k - 1]), float(xs[k])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.sign(potential.value(mid) - energy) == ahead[0]:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("vs", BARRIERS.values(), ids=BARRIERS)
def test_legacy_law_stalls_at_the_first_barrier_ahead(vs):
    """The legacy law meets its turning point on the cells it sums: the
    first root of V = E ahead, on the bump's rising side, where the run
    stalls with every sample behind it.  A search that doubled its steps
    from x_start stepped over the bump (the run left the domain at x = 3)
    or landed in the second barrier (x_turn = 1.7750001128)."""
    s = ScenarioConfig(PotentialModel.tabulated(BARRIER_XS, vs), UNIT,
                       QuantumStateParams(a=1.4, b=0.3), law="legacy",
                       t_span=(0.0, 10.0), samples=64, domain=(-3.0, 3.0))
    res, rep = integrate_legacy_law(s)
    lo, hi = first_root_ahead(s.potential, UNIT.energy, 0.0, 3.0)
    assert rep.stalled and rep.x_turn in (lo, hi)
    assert (res.columns()[:, 1] < rep.x_turn).all()
    assert rep.x_stall == pytest.approx(rep.x_turn, abs=1e-6)


def test_legacy_run_toward_a_far_turning_point_marches_as_far_as_it_goes():
    """Uphill on V = x/2 at E = 20 the turning point x = 40 lies far past
    where the run stands at t1 = 0.05 (x = 0.26): the cells are summed a
    chunk at a time, so the pair is marched at most a chunk past the last
    sample, and the run meets no turning point.  A search for it first
    marched the pair out to x = 40, 40 700 nodes past the last sample."""
    from qmotion.schrodinger import _CHUNK

    s = ScenarioConfig(PotentialModel.linear(0.5),
                       PhysParams(hbar=1.0, mu=1.0, energy=20.0),
                       QuantumStateParams(a=1.0), law="legacy",
                       t_span=(0.0, 0.05), domain=(-60.0, 60.0))
    res, report = integrate_legacy_law(s)
    assert report.x_turn is None and not report.stalled
    nodes = s.pair._nodes
    last = nodes.nearest(res.samples[-1].x)[0]
    assert nodes.lo == nodes.base and nodes.hi - last <= _CHUNK


def test_modified_laws_cross_the_legacy_barrier():
    base = dict(potential=PotentialModel.linear(0.5), params=UNIT,
                q=QuantumStateParams(a=1.0), t_span=(0.0, 8.0), samples=160,
                domain=(-2.0, 6.0))
    rv = integrate_velocity_law(ScenarioConfig(law="velocity", **base))
    rn = integrate_newton_law(ScenarioConfig(law="newton", **base))
    for res in (rv, rn):
        assert res.samples[-1].x > 1.0  # beyond the classical turning point
        assert min(abs(s.xdot) for s in res.samples) > 0.1


@pytest.mark.parametrize("law, integrate", [
    ("velocity", integrate_velocity_law), ("newton", integrate_newton_law),
    ("legacy", integrate_legacy_law)])
def test_law_called_directly_names_an_underflowing_start(law, integrate):
    """Each law checks S0' at x_start itself, so a library call fails in
    the one line that the CLI prints, with no numpy warning before it."""
    # the finite b makes D overflow at x = 0, so S0' = 0 there
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.0, b=1e308), law=law,
                       t_span=(0.0, 0.5), samples=16, domain=(-3.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularityError) as info:
            integrate(s)
    assert str(info.value) == ("S0' at x_start = 0 is 0: it under- or "
                               "overflows")


@pytest.mark.parametrize("law, integrate", [
    ("velocity", integrate_velocity_law), ("newton", integrate_newton_law),
    ("legacy", integrate_legacy_law)])
def test_run_scenario_dispatches_on_the_law(law, integrate):
    """run_scenario gives the law's own samples, and a report only for the
    legacy law."""
    got, report = run_scenario(free_scenario(law=law, t1=2.0, samples=16))
    want = integrate(free_scenario(law=law, t1=2.0, samples=16))
    if law == "legacy":
        want, want_report = want
        assert report.velocity_gap == want_report.velocity_gap
    else:
        assert report is None
    assert got.law == law
    assert got.samples == want.samples


@pytest.mark.parametrize("law", LAWS)
def test_run_scenario_calls_the_law_by_its_module_name(monkeypatch, law):
    """run_scenario looks each law up in the module when it runs, so a
    wrapper set in a law's place is the one called."""
    calls = []
    for name in LAWS:
        attr = f"integrate_{name}_law"
        def record(s, _law=getattr(trajectory, attr), _name=name):
            calls.append(_name)
            return _law(s)
        monkeypatch.setattr(trajectory, attr, record)
    run_scenario(free_scenario(law=law, t1=2.0, samples=16))
    assert calls == [law]


# ---------------------------------------------------------------------------
# Output formats
# ---------------------------------------------------------------------------

def test_csv_format(tmp_path):
    res = integrate_velocity_law(free_scenario(t1=1.0, samples=8))
    path = tmp_path / "run.csv"
    write_csv(res.samples, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 9
    row = [float(v) for v in lines[3].split(",")]
    assert len(row) == 9
    # %.17g rows reproduce the sampled values bit-for-bit
    assert row[1] == res.samples[2].x


def _csv_bytes(samples) -> bytes:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "run.csv")
        write_csv(samples, path)
        with open(path, "rb") as fh:
            return fh.read()


_EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                -2.5e-310, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308]


@given(st.lists(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS)),
                         min_size=9, max_size=9), max_size=12))
@settings(deadline=None, max_examples=200)
def test_write_csv_writes_each_row_as_the_row_loop_did(rows):
    """The table is formatted in one operation, to the bytes of one "%.17g"
    join a row, from TrajectorySample rows or from the float table."""
    fmt = ",".join(["%.17g"] * 9) + "\n"
    want = (CSV_HEADER + "\n" + "".join(fmt % tuple(r) for r in rows)).encode()
    samples = [trajectory.TrajectorySample(*r) for r in rows]
    assert _csv_bytes(samples) == want
    assert _csv_bytes(np.array(rows, dtype=float).reshape(-1, 9)) == want


@pytest.mark.parametrize("law", LAWS)
def test_samples_are_a_read_only_view_of_the_table(law):
    """``samples`` reads the rows of the run's table as TrajectorySamples
    of plain floats, and both write the same CSV; assigning to a row
    raises, so an edit the table would not see is never lost silently."""
    res, _ = run_scenario(free_scenario(a=2.0, law=law, t1=2.0, samples=16))
    table = res.columns()
    assert table.dtype == np.float64 and table.shape == (16, 9)
    rows = res.samples
    assert all(type(r) is trajectory.TrajectorySample for r in rows)
    assert all(type(v) is float for r in rows for v in r)
    np.testing.assert_array_equal(np.array(rows).view(np.int64),
                                  table.view(np.int64))
    assert _csv_bytes(rows) == _csv_bytes(table)
    with pytest.raises(TypeError):
        res.samples[3] = rows[3]._replace(x=0.0)


def test_summary_contents(tmp_path):
    res = integrate_velocity_law(free_scenario(a=2.0, t1=3.0))
    info = summarize(res)
    assert info["energy_conserved"] is True
    assert info["max_energy_drift_abs"] < 1e-10
    assert info["max_bohm_gap_rel"] < 1e-10
    assert info["max_principal_drift_rel"] < 1e-10
    assert info["min_abs_xdot"] > 0.4
    path = tmp_path / "run.json"
    write_summary(res, path)
    again = json.loads(path.read_text())
    assert again["law"] == "velocity"
    assert again["energy_conserved"] is True


def test_summary_flags_drifting_run():
    # the legacy law on the free a=2 state does not conserve the modified H
    res, _ = integrate_legacy_law(free_scenario(a=2.0, law="legacy", t1=4.0))
    info = summarize(res)
    assert info["energy_conserved"] is False


# ---------------------------------------------------------------------------
# Batched sampling against the scalar path
# ---------------------------------------------------------------------------

_TABLE_X = np.linspace(-3.5, 3.5, 141)
_SAMPLING_PAIRS = [
    (solve_pair(PotentialModel.free(), UNIT, (-8.0, 8.0)), (-6.0, 6.0)),
    (solve_pair(PotentialModel.harmonic(1.0), UNIT, (-3.0, 3.0)), None),
    (solve_pair(PotentialModel.tabulated(_TABLE_X, 0.5 * _TABLE_X ** 2), UNIT,
                (-3.0, 3.0)), None),
]


@given(st.integers(0, len(_SAMPLING_PAIRS) - 1), st.floats(0.5, 2.0),
       st.floats(-1.0, 1.0), st.integers(3, 6),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
@settings(deadline=None, max_examples=50)
def test_batched_state_jets_and_observables_match_scalar(which, a, b, order,
                                                         fractions):
    pair, span = _SAMPLING_PAIRS[which]
    lo, hi = span or pair.domain
    xs = lo + (hi - lo) * np.asarray(fractions)
    q = QuantumStateParams(a=a, b=b)
    batched = state_jet_from_x(pair, q, UNIT, xs, order=order)
    obs = observables(batched, UNIT, pair.potential)
    for k, x in enumerate(xs):
        one = state_jet_from_x(pair, q, UNIT, float(x), order=order)
        assert (np.array([c[k] for c in batched.coeffs]).tobytes()
                == np.array(one.coeffs).tobytes())
        assert (np.array([v[k] for v in obs]).tobytes()
                == np.array(observables(one, UNIT, pair.potential)).tobytes())


@given(st.integers(0, len(_SAMPLING_PAIRS) - 1),
       st.lists(st.tuples(st.floats(0.5, 2.0), st.sampled_from([-1.0, 1.0]),
                          st.floats(-1.0, 1.0)), min_size=1, max_size=5))
@settings(deadline=None, max_examples=25)
def test_batched_velocity_runs_equal_single_runs_bitwise(which, states):
    """One array pass over a batch of states, of either direction, gives
    each state's maxima bit for bit as its own run does."""
    pair, _ = _SAMPLING_PAIRS[which]
    qs = [QuantumStateParams(a=sign * m, b=b) for m, sign, b in states]
    s = ScenarioConfig(pair.potential, UNIT, qs[0], t_span=(0.0, 1.5),
                       samples=24, pair=pair)
    maxima = trajectory.state_maxima(s, qs)
    for k, q in enumerate(qs):
        one = summarize(integrate_velocity_law(dataclasses.replace(s, q=q)))
        assert {key: v[k] for key, v in maxima.items()} == {
            key: one[key] for key in maxima}


def test_velocity_batch_moving_both_ways_takes_one_newton_solve(monkeypatch):
    """A batch whose states move both ways is sampled by one clock: one
    ``_newton`` call over every state's row of sample times."""
    qs = [QuantumStateParams(a=a, b=0.3) for a in (1.4, -0.8, 0.6)]
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT, qs[0],
                       t_span=(0.0, 0.5), samples=16, domain=(-3.0, 3.0))
    shapes = []
    newton = trajectory._newton

    def counted(target, *args):
        shapes.append(np.shape(target))
        return newton(target, *args)

    monkeypatch.setattr(trajectory, "_newton", counted)
    x_last = trajectory.state_maxima(s, qs)["x_last"]
    assert shapes == [(3, 16)]
    assert x_last[0] > 0 > x_last[1] and x_last[2] > 0


def test_velocity_batch_sums_each_row_in_one_round_on_a_fresh_pair(
        monkeypatch):
    """On a fresh grid pair the first state moving each way sums its start
    cell together with the chunk that the march takes past it: a batch
    whose rows each end within one chunk takes one ``_crossings`` round per
    state, each over many cells."""
    qs = [QuantumStateParams(a=a, b=0.3) for a in (1.4, -0.8, 0.6, -1.9)]
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT, qs[0],
                       t_span=(0.0, 0.5), samples=16, domain=(-3.0, 3.0))
    sizes = []
    crossings = trajectory._Clock._crossings

    def counted(self, q, step, nodes):
        sizes.append(nodes.size)
        return crossings(self, q, step, nodes)

    monkeypatch.setattr(trajectory._Clock, "_crossings", counted)
    x_last = trajectory.state_maxima(s, qs)["x_last"]
    assert len(sizes) == len(qs) and min(sizes) > 1
    assert x_last[0] > 0 > x_last[1] and x_last[2] > 0 > x_last[3]


@pytest.mark.parametrize("law", ["newton", "legacy"])
def test_state_maxima_runs_each_state_of_the_other_laws(law, monkeypatch):
    """Under the newton and legacy laws each state is its own run on the
    scenario's one pair, with the summary of a run on its own pair."""
    qs = [QuantumStateParams(a=1.4, b=0.3), QuantumStateParams(a=-0.8, b=0.1)]
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT, qs[0],
                       t_span=(0.0, 0.5), samples=16, domain=(-3.0, 3.0),
                       law=law)
    builds = []
    monkeypatch.setattr(trajectory, "solve_pair",
                        lambda *args, **kw: builds.append(1) or solve_pair(
                            *args, **kw))
    maxima = trajectory.state_maxima(s, qs)
    assert len(builds) == 1
    for k, q in enumerate(qs):
        one = summarize(run_scenario(dataclasses.replace(s, q=q, pair=None))[0])
        assert {key: v[k] for key, v in maxima.items()} == one


@pytest.mark.parametrize("energy", [0.5, 0.8])
def test_sweep_group_marches_only_the_nodes_its_paths_reach(energy):
    """A sweep group shaped as the benchmark's: 12 states on a 48k-node
    pair over [-6, 6].  Every path ends within |x| < 1, and each side of
    the pair is marched at most one chunk past the nodes the paths reach."""
    from qmotion.schrodinger import _CHUNK

    qs = [QuantumStateParams(a=a, b=b) for a in (1.4, -0.8, 0.6, -1.9)
          for b in (0.3, -0.2, 0.9)]
    s = ScenarioConfig(PotentialModel.harmonic(1.0),
                       PhysParams(hbar=1.0, mu=1.0, energy=energy), qs[0],
                       t_span=(0.0, 0.5), samples=16, domain=(-6.0, 6.0),
                       grid_step=2.5e-4)
    x_last = trajectory.state_maxima(s, qs)["x_last"]
    nodes = s.pair._nodes
    reach = [nodes.nearest(x)[0] for x in (min(x_last), max(x_last))]
    assert nodes.lo < reach[0] and reach[1] < nodes.hi
    assert reach[0] - nodes.lo <= _CHUNK and nodes.hi - reach[1] <= _CHUNK
    assert nodes.hi - nodes.lo + 1 <= 2 * _CHUNK + 1 < 48001 // 5
    assert s.pair.truncation_note() is None


def test_time_of_x_past_t1_runs_on_as_a_longer_run():
    """t(x) asked past where the run stood at t1 sums the cells further, a
    march of the pair included, with the bits of a run that went there."""
    base = dict(potential=PotentialModel.harmonic(1.0), params=UNIT,
                q=QuantumStateParams(a=1.4, b=0.3), domain=(-6.0, 6.0),
                grid_step=2.5e-4)
    short = integrate_velocity_law(ScenarioConfig(t_span=(0.0, 0.5), **base))
    long = integrate_velocity_law(ScenarioConfig(t_span=(0.0, 10.0), **base))
    x_short, x_long = short.samples[-1].x, long.samples[-1].x
    marched = short.config.pair._nodes.hi
    xs = np.linspace(x_short, x_long, 7)
    assert short.arrival_time(xs[-1]) > 0.5
    assert short.config.pair._nodes.hi > marched
    np.testing.assert_array_equal(short.time_of_x(xs), long.time_of_x(xs))


@pytest.mark.parametrize("law", ["velocity", "legacy"])
@pytest.mark.parametrize("a, b, x0", [(1.4, 0.3, 0.3), (-0.7, -0.5, -1.1),
                                      (5.0, 0.0, 2.0)])
def test_free_clock_matches_quadrature_of_dt_dx(law, a, b, x0):
    """The free pair's closed-form t(x), a mean motion plus one harmonic
    under the velocity law and the continued phase angle of S0 under the
    legacy law, against 8-point Gauss-Legendre sums of dt/dx = mu/S0' or
    S0'/(2E) over 64 parts of each of six periods pi/k from x_start, with
    S0' from the pair's sin kx and cos kx."""
    s = free_scenario(a=a, b=b, x_start=x0, law=law)
    pair, step = s.build_pair(), int(math.copysign(1.0, a))
    clock = trajectory._FreeClock(s, step, s.q, legacy=law == "legacy")
    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = x0 + step * np.linspace(0.0, 6.0 * math.pi / pair.k, 6 * 64 + 1)
    half = 0.5 * np.diff(edges)
    sp = s0p(pair, s.q, (edges[:-1] + half)[:, None] + half[:, None] * nodes)
    rate = sp / UNIT.mu if law == "velocity" else 2.0 * UNIT.energy / sp
    want = np.cumsum(half * ((1.0 / rate) @ weights))
    np.testing.assert_allclose(clock(edges[1:]), want, rtol=1e-14)
    assert clock(x0) == 0.0
    with pytest.raises(ValueError, match="behind the run's start"):
        clock(x0 - 1e-3 * step)


def test_free_arrival_time_past_t1_runs_on_as_on_a_grid_pair():
    """The free pair's t(x) is closed form, so past where the run stood at
    t1 it is the closed form's, as a grid pair's cells are summed on
    demand."""
    res = integrate_velocity_law(free_scenario(a=2.0, t1=4.5))
    assert res.samples[-1].x < 30.0
    assert res.arrival_time(30.0) == pytest.approx(
        free_time_of_x(UNIT, QuantumStateParams(a=2.0), 30.0), rel=1e-13)


@pytest.mark.parametrize("t1", [1.0, 10.0])
def test_legacy_run_with_no_turning_point_ahead_marches_as_far_as_it_goes(t1):
    """Downhill no turning point lies ahead, and the legacy law's cells are
    summed on demand, a chunk at a time, as far as t1 takes them: the pair
    is marched at most a chunk past the last sample, on its side only, and
    the samples have the bits of a run on the completed pair."""
    def scenario():
        return ScenarioConfig(PotentialModel.linear(-0.5), UNIT,
                              QuantumStateParams(a=1.0), law="legacy",
                              t_span=(0.0, t1), domain=(-100.0, 100.0))

    from qmotion.schrodinger import _CHUNK

    lazy, full = scenario(), scenario()
    res, report = integrate_legacy_law(lazy)
    assert report.x_turn is None
    nodes = lazy.pair._nodes
    last = nodes.nearest(res.samples[-1].x)[0]
    assert nodes.lo == nodes.base and nodes.hi - last <= _CHUNK
    full.build_pair().domain  # marches every node
    want = integrate_legacy_law(full)[0].columns()
    np.testing.assert_array_equal(res.columns().view(np.int64),
                                  want.view(np.int64))


def test_batched_observables_flag_singular_rows():
    rows = np.array([[0.0, 1.0, 1.0, 0.0], [0.1, 0.0, 1.0, 0.0],
                     [0.2, 1e-70, 0.5, 0.1], [0.3, 1.7, -0.4, 0.9]])
    with pytest.raises(SingularObservables) as info:
        observables(Jet(tuple(rows.T)), UNIT)
    partial = info.value.partial
    for field in partial:
        assert np.isnan(field[1:3]).all() and np.isfinite(field[[0, 3]]).all()
    for k in (0, 3):
        np.testing.assert_allclose([v[k] for v in partial],
                                   observables(Jet(tuple(rows[k])), UNIT),
                                   rtol=1e-14, atol=0.0)


def test_velocity_batch_raises_singular_observables_in_grid_order():
    """At a = 1e75 xd**5 overflows at x = 0 only.  The single run and a
    batch that holds the state between two sound ones raise the same
    SingularObservables: a batch raises its first failing state's error."""
    s = free_scenario(t1=1.0, samples=8)
    with pytest.raises(SingularObservables) as one:
        integrate_velocity_law(
            dataclasses.replace(s, q=QuantumStateParams(1e75)))
    with pytest.raises(SingularObservables) as batch:
        trajectory.state_maxima(
            s, [QuantumStateParams(a) for a in (1.0, 1e75, 2.0)])
    for info in (one, batch):
        assert str(info.value) == (
            "observables undefined at 1 of 8 samples (xd = 0, or its powers "
            "under- or overflow)")
        assert np.isnan(info.value.partial.H).tolist() == [True] + [False] * 7


def test_velocity_batch_raises_an_unconverged_sample(monkeypatch):
    """With one Newton step per sample x(t) is not found, in the single run
    and in a batch of two states, at the same first sample time."""
    monkeypatch.setattr(trajectory, "_NEWTON_STEPS", 1)
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.4, b=0.3), t_span=(0.0, 0.5),
                       samples=16, domain=(-3.0, 3.0))
    with pytest.raises(RootConvergenceError) as one:
        integrate_velocity_law(s)
    with pytest.raises(RootConvergenceError) as batch:
        trajectory.state_maxima(s, [s.q, QuantumStateParams(a=-0.8, b=0.1)])
    assert str(one.value).endswith("not found in 1 Newton steps")
    assert str(batch.value) == str(one.value)


def test_legacy_law_underflowing_velocity_powers_give_nan_rows():
    """Near the turning point at x = 0 the legacy speed decays like e^-t
    from 1e-60: once xd**5 (and later xd**4) underflows the observables of
    a row are undefined and only that row's H, P, Q turn NaN."""
    s = ScenarioConfig(PotentialModel.linear(0.5),
                       PhysParams(hbar=1.0, mu=1.0, energy=0.0),
                       QuantumStateParams(a=1.0), x_start=-1e-60,
                       law="legacy", t_span=(0.0, 60.0), samples=61,
                       domain=(-2.0, 2.0))
    res, _ = integrate_legacy_law(s)
    cols = res.columns()
    xd = cols[:, 2]
    assert np.isfinite(cols[:, :5]).all() and np.isfinite(cols[:, 8]).all()
    nan_rows = np.isnan(cols[:, 5])
    assert (np.isnan(cols[:, 5:8]) == nan_rows[:, None]).all()
    assert nan_rows.tolist() == (xd ** 5 == 0.0).tolist()
    assert 5 < nan_rows.sum() < 60
    assert (xd[nan_rows] ** 4 == 0.0).any()
    for row in cols[~nan_rows][::3]:
        obs = observables(Jet(tuple(row[1:5])), s.params, s.potential)
        np.testing.assert_allclose((obs.H, obs.P, obs.Q), row[5:8],
                                   rtol=1e-14, atol=0.0)


def test_truncated_pair_is_noted_in_the_summary():
    # uphill from x = 2 the legacy law reaches the cap at x = 7.794
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=-1.0), x_start=2.0,
                       t_span=(0.0, 0.02), samples=8, law="legacy",
                       domain=(-30.0, 30.0))
    with pytest.raises(DomainEdgeError) as info:
        integrate_legacy_law(s)
    notes = summarize(info.value.partial)["notes"]
    assert notes[0] == ("Taylor-marched pair truncated at the overflow cap: "
                        "requested domain [-30, 30], covered [-7.794, 7.794]")
    assert notes[1].startswith("domain edge x = 7.794 reached at t = ")


def test_run_short_of_the_cap_notes_no_truncation():
    # the march of a run that ends near x = 0.8 stops far short of the cap
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.0), t_span=(0.0, 1.0),
                       samples=8, domain=(-30.0, 30.0))
    assert summarize(integrate_velocity_law(s))["notes"] == []
    assert s.pair.truncation_note() is None
    assert s.pair.truncated  # reading it marches the rest of the pair


def test_free_scenario_needs_positive_energy():
    with pytest.raises(ValueError, match="positive energy"):
        ScenarioConfig(PotentialModel.free(),
                       PhysParams(hbar=1.0, mu=1.0, energy=0.0),
                       QuantumStateParams(a=1.0))
