"""Tests for the kinetic coefficient lattice and its determination.

The independent oracle for the momenta is a hand-expanded jet: with
mu = hbar = 1 and (xd, xdd, xddd) = (2, 3, 5),

    P  = 2 - (1/4)(2*9/32 - 5/16)            = 31/16
    Pi = (1/4)(15/16) - (3/4)(3/16)          = 3/32
    Xi = -(1/4)/8                            = -1/32

computed by hand from the closed-form momentum brackets before the
implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmotion import kinetic_series
from qmotion.kinetic_series import (
    KineticCoefficients,
    LatticeError,
    SingularityError,
    determine_coefficients,
    kinetic_term,
    level_residuals,
    master_residual,
    momenta_state,
    sample_jet_block,
    sample_jets,
    sample_states,
    series_momenta,
    term_exponents,
)
from qmotion.jets import Jet
from qmotion.schrodinger import PhysParams, PotentialModel

PARAMS = PhysParams(hbar=1.0, mu=1.0, energy=0.0)


def series_lagrangian(c: KineticCoefficients, params, lam: float = 0.0,
                      potential=None):
    """The Lagrangian T(c) + (lam/2) xddd^2 - V(x) of a lattice, as a plain
    function L(x, xd, xdd, xddd, t) for the black-box mechanics."""
    mu, hb = params.mu, params.hbar

    def fn(x, xd, xdd, xddd, t):
        out = kinetic_term(c, x, xd, xdd, xddd, mu, hb)
        if lam:
            out = out + 0.5 * lam * xddd * xddd
        if potential is not None:
            out = out - potential.value(x)
        return out

    return fn


def ds0dx_state(c: KineticCoefficients, state, mu, hbar):
    """(S0', S0'', S0''') as phase-space functions of the state (x .. x5),
    whose entries may be (N,) arrays, one column each of a batch of states:
    the sums of the lattice's own S0' tables, which the master identity
    reads.  S0' is P + Pi xdd/xd + Xi xddd/xd; the second and third
    derivatives are the exact spatial derivatives d/dx = (d/dt)/xd of its
    table.  Canonically these collapse to mu*xd, mu*xdd/xd and
    mu*(xddd*xd - xdd^2)/xd^3.
    """
    if kinetic_series._vanishes(state[1]):
        raise SingularityError("xd = 0 in action-gradient series")
    return kinetic_series._evaluate(c.derived(kinetic_series._s0_tables),
                                    state, mu, hbar)


def quantum_kinetic(xd, xdd, xddd, mu=1.0, hbar=1.0):
    """Closed-form kinetic part: classical term plus the quantum correction."""
    quart = hbar * hbar / (4.0 * mu)
    return 0.5 * mu * xd ** 2 + quart * (2.5 * xdd ** 2 / xd ** 4
                                         - xddd / xd ** 3)


# ---------------------------------------------------------------------------
# Lattice container
# ---------------------------------------------------------------------------

def test_canonical_entries():
    c = KineticCoefficients.canonical()
    assert c.entries == {(0, 0): (0.5, 0.0), (2, 0): (0.625, -0.25)}
    assert c.n_max == 2


def test_with_entry_keeps_unset_component():
    c = KineticCoefficients.canonical()
    d = c.with_entry(2, 0, alpha=0.7)
    assert d.entries[(2, 0)] == (0.7, -0.25)  # None keeps the old value
    assert c.entries[(2, 0)] == (0.625, -0.25)  # original untouched


def test_invalid_indices_rejected():
    with pytest.raises(LatticeError):
        KineticCoefficients({(-1, 0): (1.0, 0.0)})
    with pytest.raises(LatticeError):
        KineticCoefficients({(0, 2.5): (1.0, 0.0)})


def test_equality_ignores_zero_entries():
    a = KineticCoefficients({(0, 0): (0.5, 0.0), (3, 1): (0.0, 0.0)})
    b = KineticCoefficients({(0, 0): (0.5, 0.0)})
    assert a == b


def test_term_exponents_match_known_levels():
    e = term_exponents(0, 0)
    assert e["alpha"] == {"x": 0, "xd": 2, "xdd": 0, "xddd": 0}
    e2 = term_exponents(2, 0)
    assert e2["alpha"] == {"x": 0, "xd": -4, "xdd": 2, "xddd": 0}
    assert e2["beta"] == {"x": 0, "xd": -3, "xdd": 0, "xddd": 1}


# ---------------------------------------------------------------------------
# Series evaluation against the closed form
# ---------------------------------------------------------------------------

def test_canonical_series_equals_quantum_form():
    c = KineticCoefficients.canonical()
    rng = np.random.default_rng(3)
    for j in sample_jets(rng, 40):
        xd, xdd, xddd = j.coeffs[1], j.coeffs[2], j.coeffs[3]
        got = kinetic_term(c, j.coeffs[0], xd, xdd, xddd, 1.0, 1.0)
        assert got == pytest.approx(quantum_kinetic(xd, xdd, xddd), rel=1e-12)


def test_hbar_override_reaches_classical_limit():
    c = KineticCoefficients.canonical()
    j = sample_jets(np.random.default_rng(5), 1)[0]
    got = kinetic_term(c, *j.coeffs[:4], 1.0, 0.0)
    assert got == pytest.approx(0.5 * j.coeffs[1] ** 2, rel=1e-14)


def test_zero_velocity_is_singular():
    c = KineticCoefficients.canonical()
    with pytest.raises(SingularityError):
        kinetic_term(c, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0)


def test_lagrangian_series_includes_potential_and_lambda():
    c = KineticCoefficients.canonical()
    j = sample_jets(np.random.default_rng(11), 1)[0]
    lam = 0.01
    pot = PotentialModel.linear(0.3)
    base = kinetic_term(c, *j.coeffs[:4], 1.0, 1.0)
    full = series_lagrangian(c, PARAMS, lam, pot)(*j.coeffs[:4], 0.0)
    xddd = j.coeffs[3]
    assert full == pytest.approx(base + 0.5 * lam * xddd * xddd
                                 - 0.3 * j.coeffs[0], rel=1e-12)


# ---------------------------------------------------------------------------
# Momenta
# ---------------------------------------------------------------------------

def test_momenta_hand_oracle():
    c = KineticCoefficients.canonical()
    state = (0.3, 2.0, 3.0, 5.0, 0.0, 0.0)
    p, pi, xi = momenta_state(c, state, 1.0, 1.0)
    assert p == pytest.approx(31.0 / 16.0, rel=1e-14)
    assert pi == pytest.approx(3.0 / 32.0, rel=1e-14)
    assert xi == pytest.approx(-1.0 / 32.0, rel=1e-14)


def test_momenta_lambda_terms():
    c = KineticCoefficients.canonical()
    base = momenta_state(c, (0.3, 2.0, 3.0, 5.0, 7.0, 11.0), 1.0, 1.0)
    reg = momenta_state(c, (0.3, 2.0, 3.0, 5.0, 7.0, 11.0), 1.0, 1.0, lam=2.0)
    assert reg.P - base.P == pytest.approx(2.0 * 11.0)
    assert reg.Pi - base.Pi == pytest.approx(-2.0 * 7.0)
    assert reg.Xi - base.Xi == pytest.approx(2.0 * 5.0)


def test_series_momenta_accepts_jets():
    c = KineticCoefficients.canonical()
    j = sample_jets(np.random.default_rng(2), 1)[0]
    st6 = tuple(j.coeffs[:6])
    np.testing.assert_allclose(series_momenta(c, j, PARAMS),
                               momenta_state(c, st6, 1.0, 1.0), rtol=1e-13)


def test_momentum_weighted_identity():
    # P xd + Pi xdd + Xi xddd must reproduce xd dL/dxd + ... structure;
    # for the classical lattice it collapses to mu xd^2
    c = KineticCoefficients({(0, 0): (0.5, 0.0)})
    p, pi, xi = momenta_state(c, (0.0, 1.7, 0.4, -2.0, 0.3, 0.1), 1.0, 1.0)
    assert p == pytest.approx(1.7)
    assert pi == 0.0 and xi == 0.0


# ---------------------------------------------------------------------------
# Master equation and level residuals
# ---------------------------------------------------------------------------

def test_master_residual_canonical_is_tiny():
    c = KineticCoefficients.canonical()
    rng = np.random.default_rng(17)
    worst = max(master_residual(c, j, PARAMS) for j in sample_jets(rng, 200))
    assert worst < 1e-12


def test_master_residual_flags_perturbation():
    c = KineticCoefficients.canonical().with_entry(2, 0, alpha=0.625 + 0.01)
    rng = np.random.default_rng(17)
    vals = [master_residual(c, j, PARAMS) for j in sample_jets(rng, 100)]
    assert min(vals) > 1e-3


def test_level_residuals_vanish_for_canonical():
    c = KineticCoefficients.canonical()
    state = (0.4, 1.3, -0.6, 0.8, 0.2, -0.5)
    ratios, residuals, scales = level_residuals(c, state, 1.0, 1.0)
    assert ratios.max() < 1e-13
    # the classical (level 0) and first quantum (level 2) scales carry weight
    assert scales[0] > 0.1 and scales[2] > 0.01
    # odd levels are empty for this lattice
    assert scales[1] == 0.0 and scales[3] == 0.0


# ---------------------------------------------------------------------------
# Determination
# ---------------------------------------------------------------------------

def test_determination_recovers_canonical():
    # the seed draws only the confirmation states
    for seed in (20260823, 1, 2):
        lattice, report = determine_coefficients(levels=2, seed=seed)
        assert lattice == KineticCoefficients.canonical()
        assert report.unique
        # classical level must expose the sign pair and pick the nonzero root
        lvl0 = report.levels[0]
        assert len(lvl0.roots) == 2
        assert sorted(lvl0.roots) == pytest.approx([0.0, 0.5])
        assert lvl0.selected_root == pytest.approx(0.5)
        for rep in report.levels:
            assert rep.rank == rep.n_unknowns


def test_level0_reads_the_cached_unit_lattices(monkeypatch):
    # level 0 combines the series of its 10 unit lattices, which are built
    # on the first determination only; every call builds the solved lattice
    import qmotion.kinetic_series as ks

    built = []

    def counting(*args, **kwargs):
        built.append(args[1])
        return theta_lattice(*args, **kwargs)

    theta_lattice = ks._theta_lattice
    monkeypatch.setattr(ks, "_theta_lattice", counting)
    ks._unit_lattice.cache_clear()
    counts = []
    for _ in range(2):
        built.clear()
        lattice, report = determine_coefficients(levels=0)
        assert report.levels[0].selected_root == pytest.approx(0.5)
        assert lattice == KineticCoefficients({(0, 0): (0.5, 0.0)})
        counts.append(len(built))
    assert built == [0]
    assert counts == [len(ks._LABELS) + 1, 1]


def test_determination_rejects_bad_levels():
    with pytest.raises(ValueError):
        determine_coefficients(levels=5)
    with pytest.raises(ValueError):
        determine_coefficients(levels=-1)


def test_sample_jets_reproducible_and_regular():
    a = sample_jets(np.random.default_rng(42), 10)
    b = sample_jets(np.random.default_rng(42), 10)
    for ja, jb in zip(a, b):
        assert ja.coeffs == jb.coeffs
        assert ja.order == 5
        assert abs(ja.coeffs[1]) > 0.05  # bounded away from the xd = 0 wall


# ---------------------------------------------------------------------------
# Scaling properties
# ---------------------------------------------------------------------------

entry_n = st.integers(0, 3)
entry_k = st.integers(0, 3)


@given(entry_n, entry_k, st.floats(0.5, 2.0))
@settings(deadline=None, max_examples=80)
def test_hbar_scaling_per_level(n, k, hbar):
    """A single (n, k) entry contributes proportionally to hbar^n."""
    c = KineticCoefficients({(n, k): (0.8, 0.3)})
    state = (1.1, 1.4, 0.7, -0.9)
    base = kinetic_term(c, *state, 1.0, 1.0)
    scaled = kinetic_term(c, *state, 1.0, hbar)
    assert scaled == pytest.approx(base * hbar ** n, rel=1e-11)


@given(entry_n, entry_k, st.floats(0.5, 2.0))
@settings(deadline=None, max_examples=80)
def test_mu_scaling_per_level(n, k, mu):
    """A single (n, k) entry carries mu^(1-n)."""
    c = KineticCoefficients({(n, k): (0.8, 0.3)})
    state = (1.1, 1.4, 0.7, -0.9)
    base = kinetic_term(c, *state, 1.0, 1.0)
    scaled = kinetic_term(c, *state, mu, 1.0)
    assert scaled == pytest.approx(base * mu ** (1 - n), rel=1e-11)


@given(entry_n, entry_k, st.floats(0.5, 2.0))
@settings(deadline=None, max_examples=80)
def test_time_rescaling_per_level(n, k, cfac):
    """Rescaling t -> t/c maps a level-n term to c^(2-n) times itself.

    Derivatives pick up (xd, xdd, xddd) -> (c xd, c^2 xdd, c^3 xddd), and
    the exponent table makes every level-n monomial homogeneous of degree
    2 - n in c.
    """
    c = KineticCoefficients({(n, k): (0.8, 0.3)})
    x, xd, xdd, xddd = 1.1, 1.4, 0.7, -0.9
    base = kinetic_term(c, x, xd, xdd, xddd, 1.0, 1.0)
    scaled = kinetic_term(c, x, cfac * xd, cfac ** 2 * xdd, cfac ** 3 * xddd,
                          1.0, 1.0)
    assert scaled == pytest.approx(base * cfac ** (2 - n), rel=1e-10)


# ---------------------------------------------------------------------------
# Batches of states against one state at a time
# ---------------------------------------------------------------------------

class Mag:
    """Sum of the magnitudes of the terms of an expression.

    The evaluators are generic over the numeric type, so passing state
    entries of this type through them adds magnitudes where they add or
    subtract and multiplies them where they multiply: the result bounds
    the cancellation in the value, which is the scale that rounding
    differences between the batched and the per-state path live on.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = abs(v)

    @staticmethod
    def _of(other):
        return other.v if isinstance(other, Mag) else abs(other)

    def __add__(self, other):
        return Mag(self.v + Mag._of(other))

    __radd__ = __sub__ = __rsub__ = __add__

    def __mul__(self, other):
        return Mag(self.v * Mag._of(other))

    __rmul__ = __mul__

    def __pow__(self, e):
        return Mag(self.v ** e)


coef = st.floats(-1.0, 1.0)
random_lattices = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 2)), st.tuples(coef, coef),
    min_size=1, max_size=4).map(KineticCoefficients)
CANONICAL = KineticCoefficients.canonical()


def _perturbed(nk, da, db):
    al, be = CANONICAL.entries.get(nk, (0.0, 0.0))
    return CANONICAL.with_entry(*nk, alpha=al + da, beta=be + db)


perturbed_canonical = st.builds(
    _perturbed,
    st.sampled_from([(0, 0), (1, 0), (2, 0), (2, 1), (3, 0)]),
    st.floats(-0.1, 0.1), st.floats(-0.1, 0.1))
lattices = st.one_of(random_lattices, perturbed_canonical)
batches = st.builds(lambda seed, n: sample_states(np.random.default_rng(seed), n),
                    st.integers(0, 2**32 - 1), st.integers(1, 8))
positive = st.floats(0.5, 2.0)


def _assert_batch_matches(batched, single, mag, rel=1e-14):
    """Values against reference values (batched against per-state ones, or
    against another evaluation path), within rel times the magnitude of
    their terms (``mag``, a Mag, or 0.0 where no term contributes)."""
    single = np.asarray(single, dtype=float)
    batched = np.broadcast_to(batched, single.shape)
    scale = np.broadcast_to(getattr(mag, "v", mag), single.shape)
    assert np.all(np.abs(batched - single) <= rel * scale), (batched, single)


@given(lattices, batches, positive, positive, st.floats(0.0, 1.0))
@settings(deadline=None, max_examples=80)
def test_batched_values_match_per_state(c, states, mu, hbar, lam):
    """kinetic_term, momenta_state and ds0dx_state over (N,) state columns
    agree with one call per state to 1e-14 of the magnitude of their terms
    (numpy's vectorised power and libm's pow may round differently)."""
    cols = np.ascontiguousarray(states.T)
    rows = [row.tolist() for row in states]
    mags = [Mag(col) for col in cols]

    _assert_batch_matches(kinetic_term(c, *cols[:4], mu, hbar),
                          [kinetic_term(c, *r[:4], mu, hbar) for r in rows],
                          kinetic_term(c, *mags[:4], mu, hbar))
    for fn, args in ((momenta_state, (mu, hbar, lam)), (ds0dx_state, (mu, hbar))):
        want = np.array([fn(c, r, *args) for r in rows]).T
        for got, w, mag in zip(fn(c, cols, *args), want, fn(c, mags, *args)):
            _assert_batch_matches(got, w, mag)


@given(lattices, batches, positive, positive)
@settings(deadline=None, max_examples=60)
def test_batched_level_residuals_match_per_state(c, states, mu, hbar):
    """Per-level residual ratios of a batch agree with one call per state
    to 1e-13, and master_residual takes the same batch as an array, as one
    jet with array coefficients, or one jet at a time."""
    cols = np.ascontiguousarray(states.T)
    ratios, residuals, scales = level_residuals(c, cols, mu, hbar)
    assert ratios.shape == residuals.shape == scales.shape == (
        2 * c.n_max + 3, len(states))
    want = np.array([level_residuals(c, row.tolist(), mu, hbar)[0]
                     for row in states]).T
    assert np.max(np.abs(ratios - want)) <= 1e-13

    params = PhysParams(hbar=hbar, mu=mu, energy=0.0)
    jets = [Jet(tuple(row)) for row in states]
    per_jet = np.array([master_residual(c, j, params) for j in jets])
    np.testing.assert_array_equal(master_residual(c, states, params),
                                  master_residual(c, Jet(states.T), params))
    assert np.max(np.abs(master_residual(c, states, params) - per_jet)) <= 1e-13
    assert np.array_equal(ratios.max(axis=0),
                          master_residual(c, states, params))


def test_master_residual_one_jet_is_a_float():
    j = sample_jets(np.random.default_rng(4), 1)[0]
    got = master_residual(KineticCoefficients.canonical(), j, PARAMS)
    assert type(got) is float


def test_batch_with_one_zero_velocity_row_is_singular():
    c = KineticCoefficients.canonical()
    states = sample_states(np.random.default_rng(8), 5)
    cols = np.ascontiguousarray(states.T)
    kinetic_term(c, *cols[:4], 1.0, 1.0)  # regular batch
    states[3, 1] = 0.0
    cols = np.ascontiguousarray(states.T)
    with pytest.raises(SingularityError):
        kinetic_term(c, *cols[:4], 1.0, 1.0)
    with pytest.raises(SingularityError):
        momenta_state(c, cols, 1.0, 1.0)
    with pytest.raises(SingularityError):
        ds0dx_state(c, cols, 1.0, 1.0)
    with pytest.raises(SingularityError):
        level_residuals(c, cols, 1.0, 1.0)
    with pytest.raises(SingularityError):
        master_residual(c, states, PARAMS)


def test_batch_with_one_zero_acceleration_row_needs_negative_power():
    # beta_00 carries xdd^-2, the canonical lattice no negative xdd power
    states = sample_states(np.random.default_rng(8), 5)
    states[2, 2] = 0.0
    cols = np.ascontiguousarray(states.T)
    kinetic_term(KineticCoefficients.canonical(), *cols[:4], 1.0, 1.0)
    c = KineticCoefficients({(0, 0): (0.5, 0.3)})
    with pytest.raises(SingularityError):
        kinetic_term(c, *cols[:4], 1.0, 1.0)
    with pytest.raises(SingularityError):
        momenta_state(c, cols, 1.0, 1.0)
    with pytest.raises(SingularityError):
        ds0dx_state(c, cols, 1.0, 1.0)


# ---------------------------------------------------------------------------
# S0'' and S0''' against the chain rule
# ---------------------------------------------------------------------------

def seeded_lattice(seed: int) -> KineticCoefficients:
    """One to four entries at n <= 3, k <= 2, at least one of them at
    k >= 1.

    The coefficients come from numpy rather than from Hypothesis floats:
    a reference path that keeps apart terms the series merges needs them
    in general position, not at the exact ties Hypothesis favours.
    """
    rng = np.random.default_rng(seed)
    cells = [(int(rng.integers(0, 4)), int(rng.integers(0, 3)))
             for _ in range(rng.integers(0, 4))]
    cells.append((int(rng.integers(0, 4)), int(rng.integers(1, 3))))
    return KineticCoefficients(
        {cell: tuple(rng.uniform(-1.0, 1.0, 2)) for cell in cells})


seeded_lattices = st.integers(0, 2**32 - 1).map(seeded_lattice)


def chain_rule_s0(c, state, mu, hbar):
    """S0'' and S0''' from ds0dx_state's S0' alone: (dS0'/dt)/xd and
    (dS0''/dt)/xd, with S0' evaluated on time jets of the state."""
    x, xd, xdd, xddd, x4, x5 = state
    zero = 0.0 * x5
    tjets = [Jet((x, xd, xdd)), Jet((xd, xdd, xddd)), Jet((xdd, xddd, x4)),
             Jet((xddd, x4, x5)), Jet((x4, x5, zero)), Jet((x5, zero, zero))]
    s1 = ds0dx_state(c, tjets, mu, hbar)[0]
    # raw-derivative storage: dropping the value slot differentiates
    s2 = Jet(s1.coeffs[1:]) / tjets[1].truncated(1)
    return s2.value, s2.coeffs[1] / xd


@given(seeded_lattices, batches, positive, positive)
@settings(deadline=None, max_examples=80)
def test_s0_derivatives_follow_the_chain_rule(c, states, mu, hbar):
    """ds0dx_state's S0'' and S0''' equal the chain rule applied to its S0'
    to 1e-12 of the magnitude of their terms, for a batch and for each
    state of it."""
    for state in [np.ascontiguousarray(states.T)] + [r.tolist() for r in states]:
        _, mag2, mag3 = ds0dx_state(c, [Mag(v) for v in state], mu, hbar)
        _, got2, got3 = ds0dx_state(c, state, mu, hbar)
        want2, want3 = chain_rule_s0(c, state, mu, hbar)
        _assert_batch_matches(got2, want2, mag2, rel=1e-12)
        _assert_batch_matches(got3, want3, mag3, rel=1e-12)


# ---------------------------------------------------------------------------
# Tables derived from T
# ---------------------------------------------------------------------------

def test_bohm_relation_is_derived():
    """S0' = P + Pi xdd/xd + Xi xddd/xd of the canonical lattice is the
    single monomial mu xd: every quantum term of the momenta cancels."""
    import qmotion.kinetic_series as ks

    c = KineticCoefficients.canonical()
    assert ks._s0p_table(c) == {(0, (0, 1, 0, 0, 0, 0)): 1.0}
    rng = np.random.default_rng(23)
    for mu, hbar in rng.uniform(0.5, 2.0, (4, 2)).tolist():
        states = sample_states(rng, 8)
        for row in states.tolist():
            assert ds0dx_state(c, row, mu, hbar)[0] == mu * row[1]
        cols = np.ascontiguousarray(states.T)
        assert np.array_equal(ds0dx_state(c, cols, mu, hbar)[0], mu * cols[1])


@given(st.one_of(lattices, seeded_lattices))
@settings(deadline=None, max_examples=80)
def test_derived_tables_stop_at_xddd(c):
    """T is linear in xddd, so the x4 and x5 terms of d/dt Pi cancel
    exactly and no momentum or S0' table reaches past xddd."""
    import qmotion.kinetic_series as ks

    for table in (*ks._momentum_tables(c), ks._s0p_table(c)):
        assert all(e[4] == e[5] == 0 for _, e in table)


# ---------------------------------------------------------------------------
# hbar-level arrays against a jet in hbar
# ---------------------------------------------------------------------------

def jet_level_pieces(c, state, mu, hbar, order):
    """The five pieces of the master identity per hbar level, graded by
    evaluating the public series at a jet in hbar: its Taylor coefficient
    m is the level-m component.  Shape (order + 1, 5) + batch shape."""
    hb = Jet((0.0, float(hbar)) + (0.0,) * (order - 1))
    s1, s2, s3 = ds0dx_state(c, state, mu, hb)
    xd = state[1]
    t_val = kinetic_term(c, *state[:4], mu, hb)
    pieces = (xd * s1 ** 3, -(s1 ** 4) / (2.0 * mu),
              (hb * hb) * 0.375 / mu * s2 * s2,
              -(hb * hb) * 0.25 / mu * s1 * s3, -(s1 * s1 * t_val))
    vals = np.zeros((order + 1, len(pieces)) + np.shape(xd))
    for m in range(order + 1):
        for i, p in enumerate(pieces):
            vals[m, i] = (p.coeffs[m] / math.factorial(m) if isinstance(p, Jet)
                          else (p if m == 0 else 0.0))
    return vals


def level_magnitudes(c, state, mu, hbar, order):
    """Per hbar level, the largest of the five pieces' sums of term
    magnitudes, shape (order + 1,) + batch shape: the scale on which the
    rounding of two gradings differs, since one level of a series can
    cancel to far below its terms.  Level n of each series is its level-n
    entries evaluated on Mag state entries; the pieces' products add up
    their magnitudes level by level."""
    mstate = [Mag(v) for v in state]
    series = np.zeros((4, order + 1) + np.shape(state[1]))
    for n in range(min(c.n_max, order) + 1):
        cn = KineticCoefficients({nk: v for nk, v in c.entries.items()
                                  if nk[0] == n})
        vals = (*ds0dx_state(cn, mstate, mu, 1.0),
                kinetic_term(cn, *mstate[:4], mu, 1.0))
        for i, v in enumerate(vals):
            series[i, n] = getattr(v, "v", v) * hbar ** n

    def mul(a, b):
        out = np.zeros_like(a)
        for i in range(order + 1):
            out[i:] += a[i] * b[:order + 1 - i]
        return out

    s1, s2, s3, t_val = series
    s1s1 = mul(s1, s1)
    pieces = [abs(state[1]) * mul(s1s1, s1), mul(s1s1, s1s1) / (2.0 * mu),
              np.zeros_like(s1), np.zeros_like(s1), mul(s1s1, t_val)]
    pieces[2][2:] = 0.375 * hbar * hbar / mu * mul(s2, s2)[:-2]
    pieces[3][2:] = 0.25 * hbar * hbar / mu * mul(s1, s3)[:-2]
    return np.max(pieces, axis=0)


@given(seeded_lattices, batches, positive, positive)
@settings(deadline=None, max_examples=60)
def test_level_residuals_match_a_jet_in_hbar(c, states, mu, hbar):
    """level_residuals' level arrays give the residuals and scales of the
    jet-in-hbar grading to 1e-13 of the level's piece scale, or of the
    magnitude of its terms where a series' level cancels below them, for a
    batch and for each state of it, on lattices with k > 0 and beta
    entries."""
    order = 2 * c.n_max + 2
    for state in [np.ascontiguousarray(states.T)] + [r.tolist() for r in states]:
        vals = jet_level_pieces(c, state, mu, hbar, order)
        want_res = np.abs(vals.sum(axis=1))
        want_scale = np.abs(vals).max(axis=1)
        ratios, residuals, scales = level_residuals(c, state, mu, hbar)
        assert residuals.shape == want_res.shape
        bound = 1e-13 * np.maximum(want_scale,
                                   level_magnitudes(c, state, mu, hbar, order))
        assert np.all(np.abs(residuals - want_res) <= bound)
        assert np.all(np.abs(scales - want_scale) <= bound)
        assert np.all((scales > 0.0) == (want_scale > 0.0))
        want_ratio = np.divide(want_res, want_scale, out=np.zeros_like(want_res),
                               where=want_scale > 0.0)
        assert np.all(np.abs(ratios - want_ratio) * want_scale <= bound)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_probe_matrix_matches_full_lattices(n):
    """The level-n system's matrix, each unit probe's contribution to each
    monomial summed onto the base's level-0 tables only, equals the
    identity table of each full probe lattice minus the base's, and its
    right side is minus the base's own level-n identity.  The base's
    values are multiples of 1/8, so both sides are exact."""
    import qmotion.kinetic_series as ks

    rng = np.random.default_rng(100 + n)
    base = KineticCoefficients(
        {(m, k): tuple(rng.integers(-8, 9, 2) / 8.0)
         for m in range(n) for k in range(2)})

    def level_n(c):
        table = ks._identity_table(c.derived(ks._series_tables), n)
        return {key: v for key, v in table.items() if key[0] == n}

    own = level_n(base)
    probes = [level_n(ks._theta_lattice(theta, n, base))
              for theta in np.eye(len(ks._LABELS))]
    system = ks._level_system(base, n)
    assert set(system) == set(own).union(*probes)
    for key, row in system.items():
        assert row[-1] == -own.get(key, 0.0)
        assert row[:-1] == [p.get(key, 0.0) - own.get(key, 0.0) for p in probes]
    assert all(any(row[i] for row in system.values())
               for i in range(len(ks._LABELS)))


def test_unit_lattices_are_built_once_per_process(monkeypatch):
    """The determination's 10 unit lattices of a level, with the tables
    derived from them, are built on the first system of that level only,
    and a later determination returns the same lattice and report."""
    import qmotion.kinetic_series as ks

    first = determine_coefficients(levels=4)
    ks._unit_lattice.cache_clear()
    calls = []

    def counting(theta, n, base=None):
        calls.append((n, base is None))
        return theta_lattice(theta, n, base)

    theta_lattice = ks._theta_lattice
    monkeypatch.setattr(ks, "_theta_lattice", counting)
    base = KineticCoefficients.canonical()
    for _ in range(2):
        ks._level_system(base, 3)
    assert calls == [(3, True)] * len(ks._LABELS)
    assert determine_coefficients(levels=4) == first


small_lattices = st.integers(0, 2**32 - 1).map(
    lambda seed: KineticCoefficients(
        {nk: v for nk, v in seeded_lattice(seed).entries.items()
         if nk[0] <= 2}))


@given(small_lattices, batches)
@settings(deadline=None, max_examples=60)
def test_identity_table_matches_the_float_pieces(c, states):
    """The master identity built as one table by truncated table products
    and evaluated level by level equals the signed sum of the five float
    pieces from the hbar-level arrays (mu = hbar = 1), to 1e-12 of the
    level's term magnitudes, on lattices up to level 2 with k > 0 and beta
    entries."""
    import qmotion.kinetic_series as ks

    order = 2 * c.n_max + 2
    cols = np.ascontiguousarray(states.T)
    want = ks._pieces(ks._level_series(c, cols, 1.0, 1.0, order), cols[1],
                      1.0, 1.0).sum(axis=1)
    table = ks._identity_table(c.derived(ks._series_tables), order)
    levels = [{key: v for key, v in table.items() if key[0] == m}
              for m in range(order + 1)]
    got = np.array([np.broadcast_to(v, cols[1].shape)
                    for v in ks._evaluate(levels, cols, 1.0, 1.0)])
    bound = 1e-12 * level_magnitudes(c, cols, 1.0, 1.0, order)
    assert np.all(np.abs(got - want) <= bound)


def test_rank_deficit_reports_not_unique(monkeypatch, capsys):
    """With monomial rows of levels 1 and 3 dropped until their exact
    nullspaces are not zero, the determination still returns the
    canonical lattice (the free unknowns at 0), and reports the ranks and
    unique False without raising."""
    import qmotion.kinetic_series as ks
    from qmotion.cli import run

    def fewer(base, n):
        rows = level_system(base, n)
        return dict(list(rows.items())[:4]) if n % 2 else rows

    level_system = ks._level_system
    monkeypatch.setattr(ks, "_level_system", fewer)
    lattice, report = determine_coefficients(levels=4)
    assert lattice == KineticCoefficients.canonical()
    assert [r.rank for r in report.levels] == [10, 4, 10, 4, 10]
    assert not report.unique
    assert run(["coefficients", "--levels", "4"]) == 0
    out = capsys.readouterr().out
    assert "level 3: rank 4/10" in out
    assert out.endswith("unique: False\n")


def test_inconsistent_identity_raises(monkeypatch):
    """With the identity's 3/8 quantum factor changed to 0.38, the level-4
    monomial equations admit no solution: the determination raises and
    the coefficients command exits 3."""
    import qmotion.kinetic_series as ks
    from qmotion.cli import run

    def perturbed(series, top):
        s2 = series[1]
        extra = ks._tmul({(2, ks._ONE): 0.005}, ks._tmul(s2, s2, top - 2), top)
        return ks._sum((identity_table(series, top), 1, ks._ONE),
                       (extra, 1, ks._ONE))

    identity_table = ks._identity_table
    monkeypatch.setattr(ks, "_identity_table", perturbed)
    with pytest.raises(ks.DeterminationError, match="level 4: .* no solution"):
        determine_coefficients(levels=4)
    assert run(["coefficients", "--levels", "4"]) == 3


def test_confirmation_catches_a_perturbed_lattice(monkeypatch):
    """The random-state confirmation is an independent evaluation: a level
    2 solve perturbed to alpha20 = 0.635 before it raises."""
    import qmotion.kinetic_series as ks

    def perturbed(n, base):
        rep, lattice = determine_level_n(n, base)
        return rep, (lattice.with_entry(2, 0, alpha=0.635) if n == 2 else lattice)

    determine_level_n = ks._determine_level_n
    monkeypatch.setattr(ks, "_determine_level_n", perturbed)
    with pytest.raises(ks.DeterminationError, match="level 2: "):
        determine_coefficients(levels=2)


# ---------------------------------------------------------------------------
# the block draw
# ---------------------------------------------------------------------------

def _same_state(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_block_bounds(block):
    """|xd| lies in [0.5, 2] and every other entry in [-1, 1]."""
    xd = np.abs(block[:, 1])
    assert np.all((0.5 <= xd) & (xd <= 2.0))
    rest = np.delete(block, 1, axis=1)
    assert np.all((-1.0 <= rest) & (rest <= 1.0))


@pytest.mark.parametrize("seed", [3, 11, 20260823])
@pytest.mark.parametrize("count", [0, 1, 2, 999, 1000])
@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held-half"])
def test_block_draw_matches_per_jet_draw(seed, count, held):
    """One generator state gives one block, with and without a 32-bit half
    held from an earlier choice, and sample_jets hands out its rows jet by
    jet, leaving the generator where the block draw leaves it."""
    gens = [np.random.default_rng(seed) for _ in range(3)]
    if held:
        for g in gens:
            g.choice([-1.0, 1.0])
    block = sample_jet_block(gens[0], count)
    again = sample_jet_block(gens[1], count)
    jets = sample_jets(gens[2], count)
    assert block.shape == (count, 6)
    assert block.tobytes() == again.tobytes()
    assert type(jets) is list and len(jets) == count
    for jet, row in zip(jets, block):
        assert np.array(jet.coeffs).tobytes() == row.tobytes()
    for g in gens[1:]:
        assert _same_state(g.bit_generator.state, gens[0].bit_generator.state)
    _assert_block_bounds(block)


@pytest.mark.parametrize("bitgen", [np.random.PCG64DXSM, np.random.Philox,
                                    np.random.SFC64, np.random.MT19937])
def test_block_draw_matches_on_other_bit_generators(bitgen):
    for count, order in ((7, 5), (4, 2)):
        a, b = np.random.Generator(bitgen(3)), np.random.Generator(bitgen(3))
        block = sample_jet_block(a, count, order)
        jets = sample_jets(b, count, order)
        assert block.shape == (count, order + 1)
        assert [j.coeffs for j in jets] == [tuple(row) for row in block]
        assert _same_state(a.bit_generator.state, b.bit_generator.state)
        _assert_block_bounds(block)


def test_block_draw_rejects_negative_counts():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    with pytest.raises(ValueError):
        sample_jets(rng, -1)
    with pytest.raises(ValueError):
        sample_jet_block(rng, -1)
    assert rng.bit_generator.state == before
