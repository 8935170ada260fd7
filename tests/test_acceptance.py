"""Acceptance gate: ten pinned criteria, one test (= one pass/fail line) each.

Every test measures its own wall time against the pinned budget and checks
the pinned tolerance; the assertion message carries the measured numbers so
a failure line is self-explanatory.  Tolerances and budgets are contract
values -- do not loosen them to make a red test green.
"""

import math
import time

import numpy as np
import pytest

from qmotion.kinetic_series import (
    KineticCoefficients,
    determine_coefficients,
    master_residual,
    sample_jets,
    series_momenta,
)
from qmotion.mechanics import canonical_consistency, momenta, quantum_lagrangian
from qmotion.reduced_action import QuantumStateParams, qshje_residual
from qmotion.schrodinger import PhysParams, PotentialModel, solve_pair
from qmotion.trajectory import (
    ScenarioConfig,
    integrate_legacy_law,
    integrate_newton_law,
    integrate_velocity_law,
    summarize,
)

UNIT = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
SEED = 20260823


def check(ok: bool, label: str, detail: str, elapsed: float, budget: float):
    """Emit the single pass/fail line for a criterion and enforce it."""
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"{label}: {verdict} -- {detail} "
            f"[{elapsed:.2f}s of {budget:.0f}s budget]")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def random_states(rng, count):
    out = []
    for _ in range(count):
        a = rng.uniform(0.5, 2.0) * (1.0 if rng.random() < 0.5 else -1.0)
        out.append(QuantumStateParams(a=a, b=rng.uniform(-1.0, 1.0)))
    return out


def free_scenario(q, law, t1, samples=512):
    return ScenarioConfig(PotentialModel.free(), UNIT, q, law=law,
                          t_span=(0.0, t1), samples=samples)


def test_criterion_01_free_unit_state_tracks_time():
    """Velocity law, free potential, a = 1: x(t) = t on [0, 20]."""
    t0 = time.perf_counter()
    res = integrate_velocity_law(free_scenario(QuantumStateParams(a=1.0),
                                               "velocity", 20.0))
    worst = max(abs(s.x - s.t) for s in res.samples)
    check(worst < 1e-9, "criterion 1",
          f"max |x - t| = {worst:.3e} (tol 1e-9)",
          time.perf_counter() - t0, 1.0)


def test_criterion_02_arrival_time_closed_form():
    """Velocity law, free potential, a = 2: arrival at pi equals 5 pi / 4."""
    t0 = time.perf_counter()
    res = integrate_velocity_law(free_scenario(QuantumStateParams(a=2.0),
                                               "velocity", 4.5))
    err = abs(res.arrival_time(math.pi) - 5.0 * math.pi / 4.0)
    check(err < 1e-8, "criterion 2",
          f"|t(pi) - 5pi/4| = {err:.3e} (tol 1e-8)",
          time.perf_counter() - t0, 1.0)


def test_criterion_03_coefficient_determination():
    """Level-by-level determination recovers the canonical lattice exactly,
    exposes both classical roots, and returns zero at levels 3-4."""
    t0 = time.perf_counter()
    lattice, report = determine_coefficients(levels=4)
    ok = lattice == KineticCoefficients.canonical()
    lvl0 = report.levels[0]
    ok &= sorted(lvl0.roots) == [0.0, 0.5] and lvl0.selected_root == 0.5
    for rep in report.levels:
        ok &= rep.rank >= rep.n_unknowns
    for rep in report.levels[3:]:
        ok &= all(v == 0.0 for v in rep.values.values())
    ok &= report.unique
    check(ok, "criterion 3",
          f"lattice {lattice!r}, roots {sorted(lvl0.roots)}, "
          f"unique {report.unique}",
          time.perf_counter() - t0, 10.0)


def test_criterion_04_master_identity_sharpness():
    """Canonical coefficients satisfy the master identity at 1e-10 over
    1000 jets; perturbing any canonical coefficient by 1e-2 lifts the
    residual above 1e-3 on at least 99% of jets."""
    t0 = time.perf_counter()
    params = UNIT
    rng = np.random.default_rng(SEED)
    jets = sample_jets(rng, 1000)
    canonical = KineticCoefficients.canonical()
    worst = max(master_residual(canonical, j, params) for j in jets)
    ok = worst <= 1e-10
    rates = []
    perturbed = [
        canonical.with_entry(0, 0, alpha=0.5 + 1e-2),
        canonical.with_entry(2, 0, alpha=0.625 + 1e-2),
        canonical.with_entry(2, 0, beta=-0.25 + 1e-2),
    ]
    for c in perturbed:
        hits = sum(master_residual(c, j, params) >= 1e-3 for j in jets)
        rates.append(hits / len(jets))
    ok &= all(r >= 0.99 for r in rates)
    check(ok, "criterion 4",
          f"canonical max {worst:.3e} (tol 1e-10); perturbed detection "
          f"rates {[f'{r:.1%}' for r in rates]} (floor 99%)",
          time.perf_counter() - t0, 30.0)


def test_criterion_05_stationary_action_residuals():
    """Scaled stationary-action defect: 1e-10 on the analytic pair, 1e-6 on
    the Taylor-marched harmonic pair."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pair = solve_pair(PotentialModel.free(), UNIT, (-8.0, 8.0))
    worst_free = max(
        qshje_residual(pair, q, float(x))
        for q in random_states(rng, 5)
        for x in rng.uniform(-6.0, 6.0, size=25))
    hpair = solve_pair(PotentialModel.harmonic(1.0), UNIT, (-3.0, 3.0),
                       grid_step=1e-3)
    worst_num = max(
        qshje_residual(hpair, q, float(x))
        for q in random_states(rng, 5)
        for x in rng.uniform(-2.5, 2.5, size=25))
    ok = worst_free <= 1e-10 and worst_num <= 1e-6
    check(ok, "criterion 5",
          f"free max {worst_free:.3e} (tol 1e-10), "
          f"harmonic max {worst_num:.3e} (tol 1e-6)",
          time.perf_counter() - t0, 10.0)


def test_criterion_06_conservation_along_trajectories():
    """Both laws hold H at E to 1e-8 relative; with V = 0 the principal
    momentum drifts below 1e-8; the velocity field stays on the reduced
    action (Bohm gap below 1e-8)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    ok = True
    details = []
    for q in random_states(rng, 2):
        for law, integ in (("velocity", integrate_velocity_law),
                           ("newton", integrate_newton_law)):
            s = free_scenario(q, law, 10.0, samples=256)
            res = integ(s)
            info = summarize(res)
            ok &= info["max_energy_drift_abs"] <= 1e-8 * abs(UNIT.energy)
            ok &= info["max_principal_drift_rel"] <= 1e-8  # V = 0 here
            ok &= info["max_bohm_gap_rel"] <= 1e-8
            details.append(f"{law}: dH {info['max_energy_drift_abs']:.1e}")
    # one numerically solved potential as well (no momentum clause there)
    hs = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                        QuantumStateParams(a=1.4, b=0.3), law="velocity",
                        t_span=(0.0, 10.0), samples=256, domain=(-3.0, 3.0))
    pair = hs.build_pair()
    for law, integ in (("velocity", integrate_velocity_law),
                       ("newton", integrate_newton_law)):
        s = ScenarioConfig(PotentialModel.harmonic(1.0), UNIT,
                           QuantumStateParams(a=1.4, b=0.3), law=law,
                           t_span=(0.0, 10.0), samples=256, pair=pair)
        info = summarize(integ(s))
        ok &= info["max_energy_drift_abs"] <= 1e-8 * abs(UNIT.energy)
        ok &= info["max_bohm_gap_rel"] <= 1e-8
        details.append(f"harmonic {law}: dH {info['max_energy_drift_abs']:.1e}")
    check(ok, "criterion 6", "; ".join(details),
          time.perf_counter() - t0, 30.0)


def test_criterion_07_velocity_and_newton_laws_agree():
    """Sup gap between the first-order and fourth-order laws stays below
    1e-6 over a span of 10 for five random states on each potential."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_free = 0.0
    for q in random_states(rng, 5):
        xv = [s.x for s in
              integrate_velocity_law(free_scenario(q, "velocity", 10.0,
                                                   samples=256)).samples]
        xn = [s.x for s in
              integrate_newton_law(free_scenario(q, "newton", 10.0,
                                                 samples=256)).samples]
        worst_free = max(worst_free,
                         max(abs(a - b) for a, b in zip(xv, xn)))
    hpair = solve_pair(PotentialModel.harmonic(1.0), UNIT, (-3.0, 3.0),
                       grid_step=1e-3)
    worst_harm = 0.0
    for q in random_states(rng, 5):
        base = dict(potential=PotentialModel.harmonic(1.0), params=UNIT,
                    q=q, t_span=(0.0, 10.0), samples=256, pair=hpair)
        xv = [s.x for s in
              integrate_velocity_law(ScenarioConfig(law="velocity",
                                                    **base)).samples]
        xn = [s.x for s in
              integrate_newton_law(ScenarioConfig(law="newton",
                                                  **base)).samples]
        worst_harm = max(worst_harm,
                         max(abs(a - b) for a, b in zip(xv, xn)))
    ok = worst_free <= 1e-6 and worst_harm <= 1e-6
    check(ok, "criterion 7",
          f"sup gap free {worst_free:.3e}, harmonic {worst_harm:.3e} "
          "(tol 1e-6)",
          time.perf_counter() - t0, 60.0)


def test_criterion_08_two_momentum_paths_coincide():
    """Jet-transform momenta of the closed-form Lagrangian match the
    series momenta of the canonical lattice to 1e-10 relative."""
    t0 = time.perf_counter()
    L = quantum_lagrangian(UNIT)
    canonical = KineticCoefficients.canonical()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for j in sample_jets(rng, 1000):
        a = np.asarray(momenta(L, j))
        b = np.asarray(series_momenta(canonical, j, UNIT))
        worst = max(worst, float(np.max(np.abs(a - b)
                                        / np.maximum(np.abs(b), 1e-30))))
    check(worst <= 1e-10, "criterion 8",
          f"max relative momentum gap {worst:.3e} (tol 1e-10)",
          time.perf_counter() - t0, 5.0)


def test_criterion_09_canonical_structure_closes():
    """The reconstructed canonical equations are self-consistent at 1e-10
    for regulator strengths spanning six orders of magnitude."""
    t0 = time.perf_counter()
    canonical = KineticCoefficients.canonical()
    rng = np.random.default_rng(SEED)
    jets = sample_jets(rng, 200)
    worst = {}
    for lam in (0.5, 1e-3, 1e-6):
        worst[lam] = max(
            canonical_consistency(canonical, j, UNIT, lam).max_ratio
            for j in jets)
    ok = all(v <= 1e-10 for v in worst.values())
    check(ok, "criterion 9",
          "max ratios " + ", ".join(f"lam={k:g}: {v:.3e}"
                                    for k, v in worst.items()) +
          " (tol 1e-10)",
          time.perf_counter() - t0, 5.0)


def test_criterion_10_legacy_stall_vs_pass_through():
    """On a linear barrier the legacy law stalls at the classical turning
    point; the modified laws cross it with the speed bounded away from 0."""
    t0 = time.perf_counter()
    base = dict(potential=PotentialModel.linear(0.5), params=UNIT,
                q=QuantumStateParams(a=1.0), domain=(-2.0, 6.0))
    legacy = ScenarioConfig(law="legacy", t_span=(0.0, 40.0), samples=400,
                            **base)
    res, rep = integrate_legacy_law(legacy)
    ok = rep.stalled and abs(rep.x_turn - 1.0) < 1e-9
    ok &= rep.x_stall < rep.x_turn
    mins, lasts = [], []
    for law, integ in (("velocity", integrate_velocity_law),
                       ("newton", integrate_newton_law)):
        r = integ(ScenarioConfig(law=law, t_span=(0.0, 8.0), samples=160,
                                 **base))
        mins.append(min(abs(s.xdot) for s in r.samples))
        lasts.append(r.samples[-1].x)
    ok &= all(x > 1.0 for x in lasts) and all(v > 1e-3 for v in mins)
    check(ok, "criterion 10",
          f"legacy stalled at x = {rep.x_stall:.6f} (turn {rep.x_turn:.6f}); "
          f"modified laws reach {[f'{x:.3f}' for x in lasts]} with "
          f"min |xdot| {[f'{v:.3f}' for v in mins]}",
          time.perf_counter() - t0, 5.0)
