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
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmotion.jets import Jet
from qmotion import trajectory
from qmotion import ode
from qmotion.reduced_action import QuantumStateParams, s0p
from qmotion.rootfind import expand_bracket, invert_monotone
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
    """Invert the free closed form: position reached after elapsed time t."""
    if t == 0.0:
        return 0.0
    f = lambda u: free_time_of_x(params, q, u)
    v_cl = classical_limit_factor(q) * np.sqrt(2.0 * params.energy
                                               / params.mu)
    step = np.sign(t) * np.sign(q.a) * max(0.5, abs(t * v_cl))
    bracket = expand_bracket(f, t, 0.0, float(step))
    return invert_monotone(f, t, bracket)


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


_CLOCKS = [
    integrate_velocity_law(free_scenario(a=2.0, b=0.5, t1=10.0)).time_of_x,
    integrate_velocity_law(free_scenario(a=-0.7, b=-0.2, t1=10.0)).time_of_x,
    integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=1.4, b=0.3),
        t_span=(0.0, 2.0), domain=(-3.0, 3.0))).time_of_x,
    integrate_velocity_law(ScenarioConfig(
        PotentialModel.harmonic(1.0), UNIT, QuantumStateParams(a=-0.8, b=0.3),
        x_start=0.4, t_span=(0.0, 2.0), domain=(-3.0, 3.0))).time_of_x,
]


@given(st.integers(0, len(_CLOCKS) - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24))
@settings(deadline=None, max_examples=60)
def test_batched_time_of_x_equals_scalar_bitwise(which, fractions):
    clock = _CLOCKS[which]
    x0 = clock.pair.cells(clock.i0)[0] + clock.s0
    reach = 3.0 if clock.pair.source == "analytic" else 0.5
    xs = x0 + clock.step * reach * np.asarray(fractions)
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
    res.samples[k] = res.samples[k]._replace(x=res.samples[k].x + 1e-7)
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
        step_starts = sols[-1]._a[:, 0]
        assert np.isin(knots, step_starts).sum() >= 5


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


def nine_sum_newton_series(s: ScenarioConfig):
    """The newton law's series by nine Cauchy sums per order, the products
    x'^2, x'^4, x''^2, x''^3, x'' x''' and (x - xm)^2, the quotients
    x''^3/x'^2 and x'' x'''/x', and x'^4 (mu x'' + V'): the oracle of
    ``trajectory._newton_series``."""
    mu = s.params.mu
    coef = 4.0 * mu / s.params.hbar ** 2
    knots = s.potential.knots

    def dot(u, v):  # the newest Cauchy-product coefficient of u*v
        return sum(map(operator.mul, u, reversed(v)))

    def series(t, y, order):
        x, xd, xdd, xddd = y
        wall, xm = None, x
        if knots is not None:
            i = int(np.searchsorted(knots, x, "right" if xd > 0 else "left"))
            i = min(max(i, 1), knots.size - 1)
            lo, hi = float(knots[i - 1]), float(knots[i])
            wall, xm = (hi if xd > 0 else lo), 0.5 * (lo + hi)
        g0, g1, g2 = (float(v) for v in s.potential.derivs(xm, 3)[1:])
        a = [x, xd, 0.5 * xdd, xddd / 6.0]
        p, q, r, e, p2, p4, q2, q3, qr, e2, m, ra, rb = ([] for _ in range(13))
        for k in range(order - 3):
            p.append((k + 1) * a[k + 1])
            q.append((k + 1) * (k + 2) * a[k + 2])
            r.append((k + 1) * (k + 2) * (k + 3) * a[k + 3])
            e.append(x - xm if k == 0 else a[k])  # x - xm
            p2.append(dot(p, p))
            p4.append(dot(p2, p2))
            q2.append(dot(q, q))
            q3.append(dot(q2, q))
            qr.append(dot(q, r))
            e2.append(dot(e, e))
            m.append(mu * q[k] + g1 * e[k] + 0.5 * g2 * e2[k]
                     + (g0 if k == 0 else 0.0))  # mu x'' + V'(x)
            ra.append((q3[k] - dot(p2[1:], ra)) / p2[0])  # x''^3/x'^2
            rb.append((qr[k] - dot(p[1:], rb)) / p[0])    # x''x'''/x'
            a.append((-coef * dot(p4, m) - 10.0 * ra[k] + 8.0 * rb[k])
                     / ((k + 1) * (k + 2) * (k + 3) * (k + 4)))
        return a, wall

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
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
@settings(deadline=None, max_examples=200)
def test_newton_series_matches_the_nine_sum_recurrence(potential, x, speed,
                                                       sign, xdd, xddd):
    # (xdd, xddd) are free, so the states are off the consistent family
    s = ScenarioConfig(potential, PhysParams(hbar=0.8, mu=1.3, energy=0.5),
                       QuantumStateParams(a=1.4, b=0.3), law="newton",
                       domain=(-3.0, 3.0))
    y = [x, sign * speed, xdd, xddd]
    a, wall = trajectory._newton_series(s)(0.0, y, ode.ORDER)
    b, oracle_wall = nine_sum_newton_series(s)(0.0, y, ode.ORDER)
    assert wall == oracle_wall and len(a) == len(b) == ode.ORDER + 1
    scale = max(map(abs, b))
    assert max(abs(u - v) for u, v in zip(a, b)) <= 1e-12 * scale


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


def test_legacy_law_started_on_a_turning_point_stays_there():
    s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                       QuantumStateParams(a=1.0), x_start=1.0, law="legacy",
                       samples=4, domain=(-3.0, 3.0))
    res, rep = integrate_legacy_law(s)
    cols = res.columns()
    assert (cols[:, 1] == 1.0).all() and (cols[:, 2] == 0.0).all()
    assert np.isnan(cols[:, 5:8]).all()
    assert not rep.stalled and rep.x_turn is None


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
        np.testing.assert_allclose([c[k] for c in batched.coeffs], one.coeffs,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose([v[k] for v in obs],
                                   observables(one, UNIT, pair.potential),
                                   rtol=1e-14, atol=0.0)


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
    maxima = trajectory.velocity_law_maxima(s, qs)
    for k, q in enumerate(qs):
        one = summarize(integrate_velocity_law(dataclasses.replace(s, q=q)))
        assert {key: v[k] for key, v in maxima.items()} == {
            key: one[key] for key in maxima}


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
    x_last = trajectory.velocity_law_maxima(s, qs)["x_last"]
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
