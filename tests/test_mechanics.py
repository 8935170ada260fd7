"""Tests for higher-derivative mechanics built on jet/dual evaluation.

The quantum-Lagrangian momentum oracle is hand-expanded: with
mu = hbar = 1 at a jet with (xd, xdd, xddd) = (1, 1, 0) and V = 0,

    P  = 1 - (1/4)(2*1 - 0)            = 1/2
    Pi = (1/4)*5*1 - (3/4)*1           = 1/2
    Xi = -(1/4)*1                      = -1/4
    L  = 1/2 + (1/4)(5/2)              = 9/8
    H  = P + Pi - L                    = -1/8

so the Legendre machinery is checked against arithmetic done by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmotion.jets import Dual, Jet, JetOrderError
from qmotion.kinetic_series import (
    KineticCoefficients,
    momenta_state,
    sample_jet_block,
    sample_jets,
    sample_states,
    series_momenta,
)
from qmotion.mechanics import (
    canonical_consistency,
    el_residual,
    hamiltonian,
    linear_term_demo,
    momenta,
    partials,
    quantum_lagrangian,
)
from qmotion.schrodinger import PhysParams, PotentialModel
from test_kinetic_series import Mag, seeded_lattice, series_lagrangian

PARAMS = PhysParams(hbar=1.0, mu=1.0, energy=0.0)


def classical_lagrangian(params, potential=None):
    """mu xd^2/2 - V(x), as a plain function L(x, xd, xdd, xddd, t)."""
    mu = params.mu

    def fn(x, xd, xdd, xddd, t):
        out = 0.5 * mu * xd * xd
        if potential is not None:
            out = out - potential.value(x)
        return out

    return fn


def sin_jet(t0, order=6):
    """Jet of the trajectory x = sin t at t0, from the closed-form
    derivatives sin(t0 + k pi/2)."""
    return Jet(tuple(math.sin(t0 + k * math.pi / 2) for k in range(order + 1)))


# ---------------------------------------------------------------------------
# Partial derivatives of black-box Lagrangians
# ---------------------------------------------------------------------------

def value(L, j, t=0.0):
    """L at the first four coefficients (x .. xddd) of a motion jet."""
    return float(L(*j.coeffs[:4], t))


def self_test(L, j, t=0.0, h=1e-5):
    """Worst relative mismatch of the four slot partials against central
    differences of L; O(h^2), so ~1e-10 for smooth Lagrangians."""
    p = partials(L, j, t, depth=0)
    worst = 0.0
    for s, got in enumerate((p.dx, p.dxd, p.dxdd, p.dxddd)):
        up = list(j.coeffs)
        dn = list(j.coeffs)
        up[s] += h
        dn[s] -= h
        fd = (value(L, Jet(up), t) - value(L, Jet(dn), t)) / (2.0 * h)
        worst = max(worst, abs(got.value - fd) / max(1.0, abs(fd)))
    return worst


_SELF_TEST_JET = Jet((0.2, 1.1, -0.4, 0.7, 0.3, -0.2, 0.5))
_POTENTIALS = (None, PotentialModel.harmonic(1.0))


def test_self_test_quantum():
    for potential in _POTENTIALS:
        L = quantum_lagrangian(PARAMS, potential)
        assert self_test(L, _SELF_TEST_JET) < 1e-6, potential


def test_self_test_classical():
    for potential in _POTENTIALS:
        L = classical_lagrangian(PARAMS, potential)
        assert self_test(L, _SELF_TEST_JET) < 1e-8, potential


def test_self_test_series():
    for potential in _POTENTIALS:
        L = series_lagrangian(KineticCoefficients.canonical(), PARAMS, 0.3,
                              potential)
        assert self_test(L, _SELF_TEST_JET) < 1e-6, potential


def test_partials_require_enough_order():
    L = classical_lagrangian(PARAMS)
    with pytest.raises(JetOrderError):
        partials(L, Jet((0.0, 1.0, 0.0)), depth=2)


def reference_partials(L, j, t=0.0, depth=2):
    """L and its four slot partials as jets in t, from five calls of the
    Lagrangian: one on the plain slot jets for L, then one per slot with a
    one-channel dual in that slot."""
    slots = [Jet(j.coeffs[s:s + depth + 1]) for s in range(4)]
    tj = Jet.variable(t, depth) if depth >= 1 else float(t)
    val = L(*slots, tj)
    one = Jet.constant(1.0, depth)
    parts = []
    for s in range(4):
        args = list(slots)
        args[s] = Dual(slots[s], one)
        out = L(*args, tj)
        parts.append(out.du if isinstance(out, Dual) else 0.0)
    return [v if isinstance(v, Jet) else Jet.constant(float(v), depth)
            for v in (val, *parts)]


_REF_PARAMS = PhysParams(hbar=0.8, mu=1.3, energy=0.0)
_HARMONIC = PotentialModel.harmonic(1.0)


@st.composite
def partials_case(draw):
    """(jet, t, depth): a motion jet of order depth + 3 .. depth + 5 with
    xd = +-[0.5, 2] and the rest in [-1, 1], an evaluation time, and the
    depth (0, 2 or 3)."""
    depth = draw(st.sampled_from([0, 2, 3]))
    unit = st.floats(-1.0, 1.0)
    coeffs = draw(st.lists(unit, min_size=depth + 4, max_size=depth + 6))
    coeffs[1] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.5, 2.0))
    return Jet(tuple(coeffs)), draw(unit), depth


def _partial_jets(L, j, t, depth):
    p = partials(L, j, t, depth)
    got = [p.L, p.dx, p.dxd, p.dxdd, p.dxddd]
    assert all(q.order == depth for q in got)
    return got, reference_partials(L, j, t, depth)


@pytest.mark.parametrize("L", [
    quantum_lagrangian(_REF_PARAMS), quantum_lagrangian(_REF_PARAMS, _HARMONIC),
    classical_lagrangian(_REF_PARAMS), classical_lagrangian(_REF_PARAMS, _HARMONIC),
], ids=["quantum", "quantum-harmonic", "classical", "classical-harmonic"])
@given(case=partials_case())
@settings(deadline=None, max_examples=40)
def test_partials_match_the_five_call_reference_bitwise(L, case):
    got, want = _partial_jets(L, *case)
    for g, w in zip(got, want):
        assert np.array_equal(np.array(g.coeffs, dtype=float).view(np.int64),
                              np.array(w.coeffs, dtype=float).view(np.int64))


def _rational_t_lagrangian(x, xd, xdd, xddd, t):
    return x / (1.0 + x * x) * xd * xd + t * xdd * xddd - 0.5 * xddd * xddd / xd


@pytest.mark.parametrize("L", [
    series_lagrangian(KineticCoefficients.canonical(), _REF_PARAMS, 0.3,
                      _HARMONIC),
    _rational_t_lagrangian,
], ids=["series-lam", "rational-explicit-t"])
@given(case=partials_case())
@settings(deadline=None, max_examples=40)
def test_partials_match_the_five_call_reference_to_rounding(L, case):
    # the five calls form some jet products with the operands swapped (a
    # plain jet times a dual goes through Dual.__rmul__), so the two agree
    # to rounding, relative to each partial's largest coefficient
    got, want = _partial_jets(L, *case)
    for g, w in zip(got, want):
        w = np.array(w.coeffs, dtype=float)
        scale = max(np.max(np.abs(w)), np.finfo(float).tiny)
        assert np.max(np.abs(np.array(g.coeffs, dtype=float) - w)) <= 1e-13 * scale


def test_partials_call_the_lagrangian_once():
    inner = quantum_lagrangian(PARAMS)
    calls = []

    def fn(*args):
        calls.append(args)
        return inner(*args)

    partials(fn, Jet((0.2, 1.1, -0.4, 0.7, 0.3, -0.2)), depth=2)
    assert len(calls) == 1


def test_partials_of_a_batch_of_jets_match_each_jet():
    # four jets, as many as the dual's channels, so a mix-up of the batch
    # and channel axes would broadcast instead of failing
    L = quantum_lagrangian(_REF_PARAMS, _HARMONIC)
    rng = np.random.default_rng(5)
    cols = rng.uniform(-1.0, 1.0, (6, 4))
    cols[1] = rng.uniform(0.5, 2.0, 4)
    batch = partials(L, Jet(tuple(cols)), 0.4, depth=2)
    for i in range(4):
        one = partials(L, Jet(tuple(cols[:, i])), 0.4, depth=2)
        for name in ("L", "dx", "dxd", "dxdd", "dxddd"):
            got = [np.broadcast_to(v, (4,))[i]
                   for v in getattr(batch, name).coeffs]
            assert got == list(getattr(one, name).coeffs), (i, name)


def test_partials_of_untouched_slot_are_zero():
    L = classical_lagrangian(PARAMS)  # depends on xd only (V = 0)
    p = partials(L, Jet((0.2, 1.3, 0.1, 0.4, 0.0, 0.0)), depth=2)
    assert p.dx.coeffs == (0.0, 0.0, 0.0)
    assert p.dxdd.coeffs == (0.0, 0.0, 0.0)
    assert p.dxddd.coeffs == (0.0, 0.0, 0.0)
    assert p.dxd.value == pytest.approx(1.3)


# ---------------------------------------------------------------------------
# Euler-Lagrange residuals on known solutions
# ---------------------------------------------------------------------------

def test_classical_harmonic_solution_annihilates_el():
    L = classical_lagrangian(PARAMS, PotentialModel.harmonic(1.0))
    for t0 in [0.0, 0.4, 2.0]:
        j = sin_jet(t0)
        assert el_residual(L, j) == pytest.approx(0.0, abs=1e-12)


def test_classical_free_motion_annihilates_el():
    L = classical_lagrangian(PARAMS)
    j = Jet((0.7, 1.9, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert el_residual(L, j) == 0.0


def test_el_residual_flags_non_solution():
    L = classical_lagrangian(PARAMS, PotentialModel.harmonic(1.0))
    j = Jet((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))  # x = 1 frozen: needs xdd = -1
    assert abs(el_residual(L, j)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Momenta and Hamiltonian oracles
# ---------------------------------------------------------------------------

def test_quantum_momenta_hand_oracle():
    L = quantum_lagrangian(PARAMS)
    j = Jet((0.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    p, pi, xi = momenta(L, j)
    assert p == pytest.approx(0.5, abs=1e-13)
    assert pi == pytest.approx(0.5, abs=1e-13)
    assert xi == pytest.approx(-0.25, abs=1e-13)
    assert hamiltonian(L, j) == pytest.approx(-0.125, abs=1e-13)


def test_classical_momenta():
    L = classical_lagrangian(PhysParams(hbar=1.0, mu=0.7, energy=0.0))
    j = Jet((0.0, 1.0, 0.3, -0.2, 0.1, 0.4))
    p, pi, xi = momenta(L, j)
    assert p == pytest.approx(0.7)
    assert pi == 0.0 and xi == 0.0
    assert hamiltonian(L, j) == pytest.approx(0.35)


def test_two_path_momenta_agree():
    """Legendre transform of the closed-form Lagrangian must reproduce the
    series momenta of the canonical lattice, and that of any lattice's
    series Lagrangian its closed-form series momenta."""
    L = quantum_lagrangian(PARAMS)
    c = KineticCoefficients.canonical()
    rng = np.random.default_rng(31)
    for j in sample_jets(rng, 100):
        direct = momenta(L, j)
        viaseries = series_momenta(c, j, PARAMS)
        np.testing.assert_allclose(direct, viaseries, rtol=1e-11, atol=1e-12)

    # any lattice: the Legendre momenta of its series Lagrangian, within
    # 1e-12 of the magnitude of the closed form's terms (P cancels)
    for seed in range(40):
        c = seeded_lattice(seed)
        params = PhysParams(hbar=rng.uniform(0.5, 2.0), mu=rng.uniform(0.5, 2.0),
                            energy=0.0)
        L = series_lagrangian(c, params)
        for state in sample_states(rng, 4):
            direct = np.array(momenta(L, Jet(tuple(state))))
            viaseries = np.array(series_momenta(c, Jet(tuple(state)), params))
            mag = momenta_state(c, [Mag(v) for v in state], params.mu,
                                params.hbar)
            scale = np.array([getattr(m, "v", m) for m in mag])
            assert np.all(np.abs(direct - viaseries) <= 1e-12 * scale), (
                seed, direct, viaseries)


def test_series_lagrangian_matches_closed_form():
    Ls = series_lagrangian(KineticCoefficients.canonical(), PARAMS)
    Lq = quantum_lagrangian(PARAMS)
    j = Jet((0.4, 1.2, -0.3, 0.6, 0.2, -0.1, 0.3))
    assert value(Ls, j) == pytest.approx(value(Lq, j), rel=1e-13)
    assert el_residual(Ls, j) == pytest.approx(el_residual(Lq, j), rel=1e-10)


def test_lambda_term_enters_el_linearly():
    # the (lam/2) xddd^2 regulator adds exactly lam * x^(6) to the residual
    c = KineticCoefficients.canonical()
    j = Jet((0.4, 1.2, -0.3, 0.6, 0.2, -0.1, 0.75))
    base = el_residual(series_lagrangian(c, PARAMS, lam=0.0), j)
    for lam in [1e-2, 1e-4]:
        shifted = el_residual(series_lagrangian(c, PARAMS, lam=lam), j)
        assert shifted - base == pytest.approx(lam * 0.75, rel=1e-6)


# ---------------------------------------------------------------------------
# Canonical-structure consistency
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 1e-3, 1e-6])
def test_canonical_consistency_canonical_lattice(lam):
    c = KineticCoefficients.canonical()
    rng = np.random.default_rng(7)
    worst = 0.0
    for j in sample_jets(rng, 25):
        report = canonical_consistency(c, j, PARAMS, lam)
        worst = max(worst, report.max_ratio)
    assert worst < 1e-12


def test_canonical_consistency_any_lattice():
    # the identities are structural: they hold for perturbed coefficients too
    c = KineticCoefficients.canonical().with_entry(2, 0, beta=0.0)
    j = sample_jets(np.random.default_rng(9), 1)[0]
    assert canonical_consistency(c, j, PARAMS, 1e-3).max_ratio < 1e-12
    # and for random lattices with k >= 1 entries, on
    # states whose xdd stays away from 0: the beta monomials carry negative
    # xdd powers, and near xdd = 0 their cancellation grows
    rng = np.random.default_rng(19)
    for seed in range(40):
        c = seeded_lattice(seed)
        for state in sample_states(rng, 2):
            for lam in (0.5, 1e-3, 1e-6):
                rep = canonical_consistency(c, Jet(tuple(state)), PARAMS, lam)
                assert rep.max_ratio < 1e-12, (seed, lam, rep.summary())


def test_canonical_consistency_requires_positive_lambda():
    c = KineticCoefficients.canonical()
    j = sample_jets(np.random.default_rng(9), 1)[0]
    with pytest.raises(ValueError):
        canonical_consistency(c, j, PARAMS, 0.0)


def test_canonical_report_names_all_checks():
    c = KineticCoefficients.canonical()
    j = sample_jets(np.random.default_rng(9), 1)[0]
    report = canonical_consistency(c, j, PARAMS, 0.5)
    assert list(report.checks) == ["pi_recovery", "p_recovery"]
    text = report.summary()
    for name in report.checks:
        assert name in text


@pytest.mark.parametrize("which", [0, 1, 2], ids=["P", "Pi", "Xi"])
def test_checks_see_one_scaled_momentum_coefficient(monkeypatch, which):
    """The momenta are derived from T, so the momentum checks compare two
    ways of differentiating: scaling one coefficient of the derived P, Pi
    or Xi table by 1 + 1e-6 must show in the canonical equations (whose
    rates come from jets in t) and against the Legendre momenta of the
    closed-form quantum Lagrangian."""
    import qmotion.kinetic_series as ks

    derive = ks._momentum_tables

    def scaled(c):
        tables = list(derive(c))
        key = next(iter(tables[which]))
        tables[which] = {**tables[which], key: tables[which][key] * (1 + 1e-6)}
        return tuple(tables)

    monkeypatch.setattr(ks, "_momentum_tables", scaled)
    c = KineticCoefficients.canonical()
    jets = sample_jets(np.random.default_rng(7), 20)
    for lam in (0.5, 1e-3, 1e-6):
        worst = max(canonical_consistency(c, j, PARAMS, lam).max_ratio
                    for j in jets)
        assert worst > 1e-10, lam
    L = quantum_lagrangian(PARAMS)
    gap = max(np.max(np.abs(np.subtract(series_momenta(c, j, PARAMS),
                                        momenta(L, j))))
              for j in jets)
    assert gap > 1e-10


# ---------------------------------------------------------------------------
# Stacked jets: one call over (N,) coefficient arrays against the per-jet loop
# ---------------------------------------------------------------------------

@st.composite
def jet_stacks(draw):
    """(stacked jet, the same jets one by one): N = 1 .. 12 motion jets of
    order 6 from ``sample_jet_block``, the single jets with float
    coefficients as the bench reads them from JSON."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = sample_jet_block(rng, draw(st.integers(1, 12)), order=6)
    return Jet(tuple(block.T)), [Jet(tuple(row.tolist())) for row in block]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


_STACK_LAGRANGIANS = [
    quantum_lagrangian(PARAMS), quantum_lagrangian(_REF_PARAMS, _HARMONIC),
    classical_lagrangian(_REF_PARAMS, _HARMONIC),
    series_lagrangian(KineticCoefficients.canonical(), _REF_PARAMS, 0.3,
                      _HARMONIC),
]
_STACK_IDS = ["quantum", "quantum-harmonic", "classical-harmonic", "series-lam"]


@pytest.mark.parametrize("L", _STACK_LAGRANGIANS, ids=_STACK_IDS)
@given(case=jet_stacks())
@settings(deadline=None, max_examples=30)
def test_stacked_momenta_match_the_per_jet_loop_bitwise(L, case):
    stacked, jets = case
    got = momenta(L, stacked)
    assert all(isinstance(m, np.ndarray) and m.shape == (len(jets),)
               for m in got)
    want = [momenta(L, j) for j in jets]
    assert all(isinstance(v, float) for m in want for v in m)
    assert np.array_equal(_bits(np.array(got).T), _bits(want))
    assert np.array_equal(_bits(hamiltonian(L, stacked)),
                          _bits([hamiltonian(L, j) for j in jets]))
    assert np.array_equal(_bits(el_residual(L, stacked)),
                          _bits([el_residual(L, j) for j in jets]))


@given(case=jet_stacks(), seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([0.5, 1e-3, 1e-6]))
@settings(deadline=None, max_examples=40)
def test_stacked_canonical_ratios_match_the_per_jet_loop(case, seed, lam):
    # the stacked pass raises arrays where the single jet raises floats;
    # both take their integer powers by one binary exponentiation, so the
    # ratios agree bit for bit
    stacked, jets = case
    for c in (KineticCoefficients.canonical(), seeded_lattice(seed)):
        report = canonical_consistency(c, stacked, PARAMS, lam)
        singles = [canonical_consistency(c, j, PARAMS, lam) for j in jets]
        for name, chk in report.checks.items():
            assert chk.ratio.shape == (len(jets),)
            want = [s.checks[name].ratio for s in singles]
            assert np.array_equal(_bits(chk.ratio), _bits(want)), name
        assert np.array_equal(_bits(report.max_ratio),
                              _bits([s.max_ratio for s in singles]))


def test_check_ratio_is_zero_where_the_scale_is_zero():
    from qmotion.mechanics import CheckResult, CanonicalReport

    assert CheckResult(0.0, 0.0).ratio == 0.0
    assert isinstance(CheckResult(1.0, 4.0).ratio, float)
    stacked = CheckResult(np.array([1.0, 0.0, 3.0]), np.array([4.0, 0.0, 2.0]))
    np.testing.assert_array_equal(stacked.ratio, [0.25, 0.0, 1.5])
    report = CanonicalReport(0.5, {
        "a": stacked, "b": CheckResult(np.ones(3), np.array([2.0, 1.0, 4.0]))})
    np.testing.assert_array_equal(report.max_ratio, [0.5, 1.0, 1.5])
    assert isinstance(CanonicalReport(0.5, {"a": CheckResult(1.0, 4.0)})
                      .max_ratio, float)


# ---------------------------------------------------------------------------
# Linear velocity term
# ---------------------------------------------------------------------------

def test_quadratic_exponent_is_consistent():
    rep = linear_term_demo(2, 0.5, potential=PotentialModel.harmonic(1.0))
    assert rep.consistent


@pytest.mark.parametrize("i", [3, -2])
def test_other_exponents_consistent(i):
    rep = linear_term_demo(i, 0.8, potential=PotentialModel.linear(0.3))
    assert rep.consistent


def test_linear_exponent_breaks_naive_route():
    rep = linear_term_demo(1, 1.0, potential=PotentialModel.linear(0.8))
    assert rep.naive_inconsistent is True
    assert rep.max_gradient == pytest.approx(0.8)


def test_linear_exponent_fixed_by_regulator():
    rep = linear_term_demo(1, 1.0, potential=PotentialModel.linear(0.8),
                           lam=1e-3)
    assert rep.consistent


def test_linear_exponent_flat_potential_is_vacuous():
    rep = linear_term_demo(1, 1.0)
    assert rep.naive_inconsistent is False
    assert any("flat" in n or "vacuous" in n for n in rep.notes)


def test_degenerate_exponents_rejected():
    with pytest.raises(ValueError):
        linear_term_demo(0, 1.0)
    with pytest.raises(ValueError):
        linear_term_demo(2, 1.0, lam=-1.0)
    with pytest.raises(ValueError, match="f > 0"):
        linear_term_demo(2, 0.0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.floats(0.3, 2.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=60)
def test_h_plus_l_is_kinetic_square(xd, xdd, xddd):
    """H + L = mu xd^2 for the quantum Lagrangian at V = 0."""
    L = quantum_lagrangian(PARAMS)
    j = Jet((0.1, xd, xdd, xddd, 0.2, -0.1))
    total = hamiltonian(L, j) + value(L, j)
    assert total == pytest.approx(xd * xd, rel=1e-9, abs=1e-9)


@given(st.floats(0.3, 1.5), st.floats(-0.8, 0.8))
@settings(deadline=None, max_examples=40)
def test_hamiltonian_constant_along_free_flow(c0, x0):
    """Straight-line motion x = x0 + c0 t conserves H = mu c0^2 / 2... plus
    nothing else, since all higher derivatives vanish."""
    L = quantum_lagrangian(PARAMS)
    j = Jet((x0, c0, 0.0, 0.0, 0.0, 0.0))
    assert hamiltonian(L, j) == pytest.approx(0.5 * c0 * c0, rel=1e-12)
    assert el_residual(L, Jet((x0, c0) + (0.0,) * 5)) == pytest.approx(0.0, abs=1e-12)
