"""Tests for stationary-wave solution pairs.

The harmonic oracle is exact: with hbar = mu = omega = 1 and E = 1/2 the
initial data (1, 0) at the origin propagate the Gaussian exp(-x^2/2) and
the data (0, 1) the function exp(x^2/2) * dawsn(x), so the Taylor march is
checked against closed forms, not against another numerical solution.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import CubicSpline
from scipy.special import dawsn

from qmotion import schrodinger
from qmotion.jets import Dual, Jet, _horner
from qmotion.reduced_action import QuantumStateParams, qshje_residual, s0p
from qmotion.schrodinger import (
    DomainError,
    PhysParams,
    PotentialModel,
    SchrodingerError,
    solve_pair,
)


def harmonic_pair(domain=(-3.0, 3.0), energy=0.5, grid_step=1e-3):
    params = PhysParams(hbar=1.0, mu=1.0, energy=energy)
    return solve_pair(PotentialModel.harmonic(1.0), params, domain,
                      anchor=0.0, grid_step=grid_step)


def wronskian(pair, x):
    p1, d1, p2, d2 = pair.eval01(x)
    return p2 * d1 - p1 * d2


# ---------------------------------------------------------------------------
# Parameters and potentials
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(hbar=0.0, mu=1.0, energy=1.0)
    with pytest.raises(ValueError):
        PhysParams(hbar=1.0, mu=-2.0, energy=1.0)


def test_kratio():
    p = PhysParams(hbar=2.0, mu=3.0, energy=0.0)
    assert p.kratio == pytest.approx(2.0 * 3.0 / 4.0)


def test_free_potential_derivs():
    pot = PotentialModel.free()
    assert pot.value(1.7) == 0.0
    assert pot.grad(1.7) == 0.0
    assert pot.derivs(0.3, 3) == [0.0, 0.0, 0.0, 0.0]


def test_linear_potential_derivs():
    pot = PotentialModel.linear(0.5)
    assert pot.value(2.0) == pytest.approx(1.0)
    assert pot.grad(-3.0) == pytest.approx(0.5)
    assert pot.derivs(2.0, 3) == pytest.approx([1.0, 0.5, 0.0, 0.0])


def test_harmonic_potential_derivs():
    pot = PotentialModel.harmonic(2.0)
    # V = stiffness x^2 / 2
    assert pot.value(3.0) == pytest.approx(9.0)
    assert pot.grad(3.0) == pytest.approx(6.0)
    assert pot.derivs(3.0, 3) == pytest.approx([9.0, 6.0, 2.0, 0.0])


def test_tabulated_potential_tracks_samples():
    xs = np.linspace(-2.0, 2.0, 81)
    pot = PotentialModel.tabulated(xs, np.cosh(xs))
    for x in [-1.3, 0.0, 0.77, 1.9]:
        assert pot.value(x) == pytest.approx(math.cosh(x), abs=1e-6)
        assert pot.grad(x) == pytest.approx(math.sinh(x), abs=1e-4)


def test_tabulated_out_of_range():
    pot = PotentialModel.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 9.0])
    with pytest.raises(DomainError):
        pot.value(5.0)


def _spline_tables():
    """The bench's 141-row table, random non-uniform tables of 80-255
    rows, and random tables of 4-6 rows, the 4-row minimum among them;
    spacings span six decades, so the elimination's row interchanges run
    too."""
    xs = np.linspace(-3.5, 3.5, 141)
    tables = [(xs, 0.5 * xs * xs)]
    rng = np.random.default_rng(35)
    for n in [int(k) for k in rng.integers(80, 256, 6)] + [4] * 20 + [
            int(k) for k in rng.integers(4, 7, 80)]:
        xs = np.cumsum(rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3, n))
        tables.append((xs - xs[n // 2], rng.normal(size=n)))
    return tables


def _same_bits(got, want):
    np.testing.assert_array_equal(_bits(got), _bits(want), strict=True)


def test_tabulated_spline_matches_scipy_bit_for_bit():
    # a tabulated run's outputs keep their bits only if the package's
    # spline gives every coefficient of scipy's CubicSpline, and every
    # value of orders 0-3, with scipy's bits: for one point (0-d) and for
    # arrays, at the knots, both ends and between them
    rng = np.random.default_rng(36)
    for xs, vs in _spline_tables():
        pot, ref = PotentialModel.tabulated(xs, vs), CubicSpline(xs, vs)
        _same_bits(pot._coeffs, ref.c)
        pts = np.concatenate((xs, rng.uniform(xs[0], xs[-1], 64)))
        for x in (pts, np.stack((pts, pts[::-1])), xs[0], xs[-1], pts[-1]):
            want = [ref(x, nu) for nu in range(4)]
            for got, w in zip(pot.derivs(x, 3), want):
                _same_bits(got, w)
            _same_bits(pot.value(x), want[0])
            _same_bits(pot.grad(x), want[1])
        # a float gives a 0-d value and gradient, and scalar derivatives
        x = float(pts[-1])
        assert pot.value(x).shape == pot.grad(x).shape == ()
        assert all(isinstance(v, np.float64) for v in pot.derivs(x, 3))


def test_tabulated_spline_rejects_what_scipy_rejects():
    # a non-finite entry, and a table whose slope system has a zero pivot
    # (scipy's LinAlgError, "singular matrix"), are rejected when built
    for xs, vs in (([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 4.0, 9.0]),
                   ([0.0, 1.0, 2.0, np.inf], [0.0, 1.0, 4.0, 9.0])):
        with pytest.raises(ValueError):
            CubicSpline(xs, vs)
        with pytest.raises(SchrodingerError, match="must be finite"):
            PotentialModel.tabulated(xs, vs)
    xs, vs = [0.0, 1000.0, 1000.0000000000001, 20001000.0], [3.0, -2.0, 2.0, 3.0]
    with pytest.raises(np.linalg.LinAlgError):
        CubicSpline(xs, vs)
    with pytest.raises(SchrodingerError, match="singular"):
        PotentialModel.tabulated(xs, vs)


def test_potential_from_csv(tmp_path):
    path = tmp_path / "table.csv"
    xs = np.linspace(0.0, 1.0, 21)
    lines = ["x,v"] + [f"{x},{x * x}" for x in xs]
    path.write_text("\n".join(lines) + "\n")
    pot = PotentialModel.from_csv(path)
    assert pot.value(0.5) == pytest.approx(0.25, abs=1e-9)


def test_unknown_kind_rejected():
    with pytest.raises(SchrodingerError):
        PotentialModel("quartic")


def test_coefficient_the_kind_does_not_use_rejected():
    # the analytic kinds share one quadratic, so a stray coefficient would
    # change V while the kind still names the old potential
    with pytest.raises(SchrodingerError):
        PotentialModel("linear", slope=1.0, stiffness=2.0)
    with pytest.raises(SchrodingerError):
        PotentialModel("free", slope=1.0)
    with pytest.raises(SchrodingerError):
        PotentialModel("harmonic", slope=1.0, stiffness=2.0)
    with pytest.raises(SchrodingerError):
        PotentialModel("tabulated", stiffness=1.0,
                       table=(np.arange(4.0), np.zeros(4)))
    assert PotentialModel("linear", slope=0.0).value(2.0) == 0.0


def _per_kind(pot, x, m):
    """(value, grad, [V, ..., V^(m)]) written out kind by kind: the oracle
    for the one quadratic that the analytic kinds share."""
    arr = isinstance(x, np.ndarray)
    if pot.kind == "free":
        value, grad, out = (0.0 * x if arr else 0.0), (0.0 * x if arr else 0.0), []
    elif pot.kind == "linear":
        value = pot.slope * x
        grad = pot.slope + 0.0 * x if arr else pot.slope
        out = [value, pot.slope]
    else:
        value, grad = 0.5 * pot.stiffness * x * x, pot.stiffness * x
        out = [value, grad, pot.stiffness]
    return value, grad, (out + [0.0] * (m + 1))[: m + 1]


_BOUNDED = st.floats(-1e100, 1e100)
_ANALYTIC = st.one_of(
    st.just(PotentialModel.free()),
    st.floats(-10.0, 10.0).map(PotentialModel.linear),
    st.floats(0.01, 10.0).map(PotentialModel.harmonic))


@given(_ANALYTIC, st.one_of(_BOUNDED, st.lists(_BOUNDED, min_size=1, max_size=5)
                            .map(np.array)))
@settings(deadline=None, max_examples=200)
def test_quadratic_matches_per_kind_formulas(pot, x):
    """Values agree (the sign of a zero may differ) on floats and arrays."""
    for m in range(5):
        value, grad, derivs = _per_kind(pot, x, m)
        assert np.array_equal(pot.value(x), value)
        assert np.array_equal(pot.grad(x), grad)
        got = pot.derivs(x, m)
        assert len(got) == m + 1
        for g, want in zip(got, derivs):
            assert np.array_equal(np.broadcast_to(g, np.shape(x)),
                                  np.broadcast_to(want, np.shape(x)))


def test_tabulated_rejects_jets_and_duals():
    pot = _table_harmonic()
    for x in (Jet((0.5, 1.0)), Dual(0.5, 1.0)):
        for call in (pot.value, pot.grad, lambda u: pot.derivs(u, 2)):
            with pytest.raises(SchrodingerError, match="not jets or duals"):
                call(x)


# ---------------------------------------------------------------------------
# Free (analytic) pair
# ---------------------------------------------------------------------------

def test_free_pair_is_sin_cos():
    params = PhysParams(hbar=1.0, mu=1.0, energy=2.0)
    pair = solve_pair(PotentialModel.free(), params, (-5.0, 5.0))
    k = math.sqrt(2.0 * 2.0)  # sqrt(2 mu E)/hbar
    assert pair.k == pytest.approx(k)
    assert pair.wronskian_ref == pytest.approx(k)
    for x in [-2.0, 0.0, 0.31, 4.9]:
        p1, d1, p2, d2 = pair.eval01(x)
        assert p1 == pytest.approx(math.sin(k * x), abs=1e-15)
        assert d1 == pytest.approx(k * math.cos(k * x), abs=1e-15)
        assert p2 == pytest.approx(math.cos(k * x), abs=1e-15)
        assert d2 == pytest.approx(-k * math.sin(k * x), abs=1e-15)


def test_free_pair_requires_positive_energy():
    params = PhysParams(hbar=1.0, mu=1.0, energy=-1.0)
    with pytest.raises(SchrodingerError):
        solve_pair(PotentialModel.free(), params, (-1.0, 1.0))


def test_free_phi_jets_derivative_tower():
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)  # k = 1
    pair = solve_pair(PotentialModel.free(), params, (-5.0, 5.0))
    j1, j2 = pair.phi_jets(0.4, 5)
    s, c = math.sin(0.4), math.cos(0.4)
    np.testing.assert_allclose(j1.coeffs, [s, c, -s, -c, s, c], atol=1e-14)
    np.testing.assert_allclose(j2.coeffs, [c, -s, -c, s, c, -s], atol=1e-14)


@pytest.mark.parametrize("which", ["free", "harmonic"])
def test_own_jets_match_the_wave_equation_at_the_true_energy(which):
    """phi'' read from the pair itself agrees with the wave equation's at
    the energy the pair was built at, on one point and on an array."""
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    pair = (solve_pair(PotentialModel.free(), params, (-5.0, 5.0))
            if which == "free" else harmonic_pair())
    xs = np.linspace(-2.5, 2.5, 41)
    own = [np.array(j.coeffs) for j in pair.own_jets(xs)]
    for mine, ref in zip(own, pair.phi_jets(xs, 2)):
        np.testing.assert_allclose(mine, ref.coeffs, rtol=0.0, atol=1e-12)
    for k, x in enumerate(xs):
        for mine, one in zip(own, pair.own_jets(float(x))):
            assert np.array_equal(mine[:, k], one.coeffs)


# ---------------------------------------------------------------------------
# Taylor-marched pair against the exact harmonic solutions
# ---------------------------------------------------------------------------

def test_harmonic_even_solution_is_gaussian():
    # and the odd one is exp(x^2/2) * dawsn(x); each solution's error is
    # measured against its own |phi| + |phi'|
    pair = harmonic_pair()
    x = np.linspace(-3.0, 3.0, 1201)
    g, e = np.exp(-0.5 * x * x), np.exp(0.5 * x * x)
    exact = (e * dawsn(x), e * (1.0 - x * dawsn(x)), g, -x * g)
    got = pair.eval01(x)
    for k in (0, 2):
        scale = abs(exact[k]) + abs(exact[k + 1])
        for j in (k, k + 1):
            assert np.max(abs(got[j] - exact[j]) / scale) <= 1e-10, j


def test_harmonic_qshje_residual_at_rounding_level():
    # criterion 5's harmonic check, at a tolerance the exact pair would meet
    pair = harmonic_pair()
    rng = np.random.default_rng(5)
    worst = max(qshje_residual(pair, QuantumStateParams(a=a, b=b), float(x))
                for a, b in zip(rng.uniform(0.5, 2.0, 5) * [1, -1, 1, -1, 1],
                                rng.uniform(-1.0, 1.0, 5))
                for x in rng.uniform(-2.5, 2.5, 25))
    assert worst <= 1e-12


def test_anchor_initial_data():
    pair = harmonic_pair()
    p1, d1, p2, d2 = pair.eval01(0.0)
    assert (p1, d1) == (0.0, 1.0)
    assert (p2, d2) == (1.0, 0.0)


def test_wronskian_is_constant_one():
    pair = harmonic_pair()
    for x in np.linspace(-2.9, 2.9, 31):
        assert wronskian(pair, float(x)) == pytest.approx(1.0, abs=1e-10)


def test_wave_equation_residual_from_jets():
    # phi'' must equal (2 mu / hbar^2)(V - E) phi for both members
    pair = harmonic_pair()
    c = pair.params.kratio
    for x in [-2.1, -0.4, 0.9, 2.5]:
        j1, j2 = pair.phi_jets(x, 3)
        factor = c * (pair.potential.value(x) - pair.params.energy)
        assert j1.coeffs[2] == pytest.approx(factor * j1.coeffs[0], abs=1e-9)
        assert j2.coeffs[2] == pytest.approx(factor * j2.coeffs[0], abs=1e-9)


def test_numerov_outside_domain_rejected():
    pair = harmonic_pair()
    with pytest.raises(DomainError):
        pair.eval01(3.5)


@pytest.mark.filterwarnings("error")
def test_edge_tolerance_scales_with_the_grid_step():
    # 5e-10 lies within 1e-9 of this stiff well's covered domain but 5e61
    # of its grid steps past it
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    pair = solve_pair(PotentialModel.harmonic(1e150), params,
                      (-1e-70, 1e-70), grid_step=1e-72)
    assert not pair.covers(5e-10)
    with pytest.raises(DomainError, match="x = 5e-10 outside"):
        pair.eval01(5e-10)
    # on the default 1e-3 grid the tolerance is 1e-9
    pair = harmonic_pair()
    hi = pair.domain[1]
    assert pair.covers(hi + 0.9e-9) and not pair.covers(hi + 1.1e-9)


def test_k_undefined_for_numerov():
    with pytest.raises(SchrodingerError):
        harmonic_pair().k


def test_phi_jets_order_cap():
    pair = harmonic_pair()
    with pytest.raises(SchrodingerError):
        pair.phi_jets(0.5, 7)


def test_forbidden_region_growth_truncates_domain():
    # classically forbidden beyond x = 1/2: the pair grows until the cap
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    pair = solve_pair(PotentialModel.linear(1.0), params, (-2.0, 20.0),
                      anchor=0.0, grid_step=1e-2)
    assert pair.truncated
    assert pair.domain[0] == pytest.approx(-2.0)
    assert 5.0 < pair.domain[1] < 15.0
    # the surviving stretch still satisfies the wave equation
    assert wronskian(pair, 4.0) == pytest.approx(1.0, rel=1e-8)


def test_overflowing_taylor_coefficients_end_the_march_without_a_warning():
    """In a well this stiff (V'' = 1e300) the wave equation's fourth
    derivative, f^2 phi + ... with f = 2(V - E), overflows one grid step
    from the anchor: that node counts as past the overflow cap but is not
    kept, so the covered domain is the anchor alone, and the march raises
    no floating-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = solve_pair(PotentialModel.harmonic(1e300),
                          PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                          (-3.0, 3.0))
        assert pair.truncated and pair.domain == (0.0, 0.0)
        assert [float(v) for v in pair.eval01(0.0)] == [0.0, 1.0, 1.0, 0.0]


def test_domain_validation():
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    with pytest.raises(DomainError):
        solve_pair(PotentialModel.harmonic(1.0), params, (1.0, -1.0))
    with pytest.raises(DomainError):
        solve_pair(PotentialModel.harmonic(1.0), params, (-1.0, 1.0), anchor=2.0)
    with pytest.raises(DomainError):
        solve_pair(PotentialModel.harmonic(1.0), params, (0.0, 4e-3),
                   grid_step=1e-3)


# ---------------------------------------------------------------------------
# Node columns, node polynomials and the reference Lagrange oracle
# ---------------------------------------------------------------------------

def marched_nodes(pair):
    """A grid pair marched to completion: its covered nodes' positions and
    Taylor coefficients, and the index of the first of them."""
    nodes = pair._nodes
    nodes.complete()
    cover = slice(nodes.lo, nodes.hi + 1)
    return (nodes.x(np.arange(nodes.lo, nodes.hi + 1)),
            nodes.taylor[:, :, nodes.cols(cover)], nodes.lo)


def node_columns(pair):
    """The node columns xs, y1, y2, d1, d2 a Taylor-marched pair keeps:
    (phi, phi') are its Taylor coefficients of orders 0 and 1."""
    xs, taylor, _ = marched_nodes(pair)
    (y1, y2), (d1, d2) = taylor[:2]
    return {"xs": xs, "y1": y1, "y2": y2, "d1": d1, "d2": d2}


def reference_eval01(pair, x):
    """Four separate 6-point Lagrange interpolations of the node columns by
    the double loop: an oracle independent of the node Taylor sums."""
    g = node_columns(pair)
    xs = g["xs"]
    i = max(0, min(int(np.searchsorted(xs, x)) - 3, len(xs) - 6))
    xw = xs[i : i + 6] - x
    out = []
    for name in ("y1", "d1", "y2", "d2"):
        yw = g[name][i : i + 6]
        acc = 0.0
        for j in range(6):
            lj = 1.0
            for m in range(6):
                if m != j:
                    lj *= xw[m] / (xw[m] - xw[j])
            acc += lj * yw[j]
        out.append(acc)
    return tuple(out)


def _table_harmonic():
    xs = np.linspace(-3.5, 3.5, 141)
    return PotentialModel.tabulated(xs, 0.5 * xs * xs)


GRID_CASES = {
    "harmonic": (PotentialModel.harmonic(1.0), (-3.0, 3.0), 0.0, 1e-3),
    "linear": (PotentialModel.linear(1.0), (-2.0, 20.0), 0.0, 1e-2),
    "tabulated": (_table_harmonic(), (-3.0, 3.0), None, 1e-3),
    "truncated-harmonic": (PotentialModel.harmonic(1.0), (-30.0, 30.0), 0.0,
                           1e-3),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _grid_case(case):
    potential, domain, anchor, h = GRID_CASES[case]
    return solve_pair(potential, PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                      domain, anchor=anchor, grid_step=h)


def node_polynomial(pair, i, s):
    """(phi1, phi1', phi2, phi2') of the Taylor polynomials of the covered
    nodes i, counted from the first, at offset s, summed by powers rather
    than by eval01's Horner rule."""
    c = marched_nodes(pair)[1][:, :, i]
    m = np.arange(len(c))[:, None, None]
    p = (c * s ** m).sum(axis=0)
    d = (c[1:] * m[1:] * s ** (m[1:] - 1)).sum(axis=0)
    return p[0], d[0], p[1], d[1]


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_node_polynomials_meet_at_midpoints(case):
    # each march step solves for the next node's (phi, phi') whose
    # polynomials meet the current node's halfway, where eval01 changes
    # node; every neighbour pair must agree there to rounding
    pair = _grid_case(case)
    h, i = pair._nodes.h, np.arange(len(marched_nodes(pair)[0]) - 1)
    got = np.array(node_polynomial(pair, i, 0.5 * h))
    want = np.array(node_polynomial(pair, i + 1, -0.5 * h))
    for k in (0, 2):
        scale = abs(want[k]) + abs(want[k + 1])
        for j in (k, k + 1):
            assert np.max(abs(got[j] - want[j]) / scale) <= 1e-14, j
    assert pair.truncated == (case in ("linear", "truncated-harmonic"))


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_eval01_returns_node_values_bitwise(case):
    pair = _grid_case(case)
    g = node_columns(pair)
    want = [g[name] for name in ("y1", "d1", "y2", "d2")]
    np.testing.assert_array_equal(_bits(pair.eval01(g["xs"])), _bits(want))
    for k, x in enumerate(g["xs"]):
        got = pair.eval01(float(x))
        np.testing.assert_array_equal(_bits(got), _bits([w[k] for w in want]))


@pytest.mark.parametrize("case", ["harmonic", "tabulated",
                                  "truncated-harmonic"])
def test_eval01_matches_lagrange_oracle(case):
    # the h = 1e-3 cases; each solution's error is measured against its
    # own |phi| + |phi'|, which never vanishes
    pair = _grid_case(case)
    lo, hi = pair.domain
    xs, h = node_columns(pair)["xs"], GRID_CASES[case][3]
    points = np.concatenate([np.linspace(lo, hi, 97), xs[:8], xs[-8:],
                             xs[len(xs) // 2 - 4 : len(xs) // 2 + 4] + h / 3])
    for x in points.clip(lo, hi):
        got = np.array(pair.eval01(float(x)))
        ref = np.array(reference_eval01(pair, float(x)))
        scale = np.repeat(abs(ref[0::2]) + abs(ref[1::2]), 2)
        assert np.all(abs(got - ref) <= 1e-10 * scale), (x, got, ref)


_GRID_PAIRS = [solve_pair(*args) for args in (
    (PotentialModel.harmonic(1.0), PhysParams(1.0, 1.0, 0.5), (-3.0, 3.0)),
    (PotentialModel.linear(0.5), PhysParams(1.0, 1.0, 0.5), (-2.0, 6.0)),
    (_table_harmonic(), PhysParams(1.0, 1.0, 0.8), (-3.0, 3.0)),
)]


@given(st.integers(0, len(_GRID_PAIRS) - 1),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
@settings(deadline=None, max_examples=60)
def test_batched_eval01_equals_scalar_bitwise(which, fractions):
    pair = _GRID_PAIRS[which]
    lo, hi = pair.domain
    x = lo + (hi - lo) * np.asarray(fractions)
    batched = np.stack(pair.eval01(x), axis=-1)
    scalar = np.array([pair.eval01(float(v)) for v in x])
    np.testing.assert_array_equal(_bits(batched), _bits(scalar))
    for m in (0, 3):
        b1, b2 = (np.array(j.coeffs) for j in pair.phi_jets(x, m))
        for k, v in enumerate(x):
            s1, s2 = (np.array(j.coeffs) for j in pair.phi_jets(float(v), m))
            np.testing.assert_array_equal(_bits(b1[:, k]), _bits(s1))
            np.testing.assert_array_equal(_bits(b2[:, k]), _bits(s2))


def test_batched_eval01_rejects_any_point_outside():
    pair = _GRID_PAIRS[0]
    with pytest.raises(DomainError, match="x = 3.5 outside solved domain"):
        pair.eval01(np.array([0.0, 3.5, -1.0]))


def test_harmonic_wide_domain_truncates_and_says_so():
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    pair = solve_pair(PotentialModel.harmonic(1.0), params, (-30.0, 30.0),
                      grid_step=1e-3)
    assert pair.truncated
    assert pair.domain == pytest.approx((-7.794, 7.794), abs=1e-12)
    assert pair.truncation_note() == (
        "Taylor-marched pair truncated at the overflow cap: requested domain "
        "[-30, 30], covered [-7.794, 7.794]")
    assert harmonic_pair().truncation_note() is None


def test_table_narrower_than_domain_rejected_before_marching():
    pot = PotentialModel.tabulated(np.linspace(-2.0, 2.0, 41),
                                   np.linspace(-2.0, 2.0, 41) ** 2)
    with pytest.raises(DomainError, match="tabulated range"):
        solve_pair(pot, PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                   (-3.0, 3.0))


def test_derivs_take_arrays():
    x = np.array([-1.0, 0.25, 2.0])
    for pot in (PotentialModel.linear(0.5), PotentialModel.harmonic(2.0),
                _table_harmonic()):
        batched = pot.derivs(x, 3)
        for k, v in enumerate(x):
            scalar = pot.derivs(float(v), 3)
            for b, s in zip(batched, scalar):
                assert np.broadcast_to(b, x.shape)[k] == s


# ---------------------------------------------------------------------------
# The blocked march against the node-by-node float loop
# ---------------------------------------------------------------------------

def reference_march(table, s, start):
    """``schrodinger._march`` as a float loop that applies the step maps
    one node at a time: the oracle for the blocked prefix product."""
    pa, da = _horner(table[:, 0, :-1], 0.5 * s, 2)
    pb, db = _horner(table[:, 1, :-1], 0.5 * s, 2)
    qa, ea = _horner(table[:, 0, 1:], -0.5 * s, 2)
    qb, eb = _horner(table[:, 1, 1:], -0.5 * s, 2)
    det = qa * eb - qb * ea
    steps = ((eb * pa - qb * da) / det, (eb * pb - qb * db) / det,
             (qa * da - ea * pa) / det, (qa * db - ea * pb) / det)
    o1, o2, o3, o4 = (memoryview(table[i, j]) for j in (0, 1) for i in (0, 1))
    y1, d1, y2, d2 = start
    n = 0
    for n, (a, b, c, e) in enumerate(zip(*map(memoryview, steps)), 1):
        y1, d1 = a * y1 + b * d1, c * y1 + e * d1
        y2, d2 = a * y2 + b * d2, c * y2 + e * d2
        o1[n], o2[n], o3[n], o4[n] = y1, d1, y2, d2
        cap = schrodinger.OVERFLOW_CAP
        if abs(y1) > cap or abs(y2) > cap:
            return n, None
    return n, (y1, d1, y2, d2)


def _pair_and_oracle(monkeypatch, potential, energy, domain, anchor, h):
    args = (potential, PhysParams(hbar=1.0, mu=1.0, energy=energy), domain)
    pair = solve_pair(*args, anchor=anchor, grid_step=h)
    with monkeypatch.context() as patch:
        patch.setattr(schrodinger, "_march", reference_march)
        oracle = solve_pair(*args, anchor=anchor, grid_step=h)
        marched_nodes(oracle)
    return pair, oracle


def _node_wronskian_gap(pair):
    (y1, y2), (d1, d2) = marched_nodes(pair)[1][:2]
    return np.max(abs(y2 * d1 - y1 * d2 - 1.0))


# the grid cases at E = 1/2, and the bench sweep's two pairs
MARCH_CASES = {**{case: (pot, 0.5, dom, anchor, h)
                  for case, (pot, dom, anchor, h) in GRID_CASES.items()},
               **{f"sweep-E{energy}": (PotentialModel.harmonic(1.0), energy,
                                       (-6.0, 6.0), None, 2.5e-4)
                  for energy in (0.5, 0.8)}}


@pytest.mark.parametrize("case", sorted(MARCH_CASES))
def test_blocked_march_matches_float_loop(case, monkeypatch):
    pair, oracle = _pair_and_oracle(monkeypatch, *MARCH_CASES[case])
    assert pair.domain == oracle.domain
    assert pair.truncated == oracle.truncated
    got, want = marched_nodes(pair)[1][:2], marched_nodes(oracle)[1][:2]
    # measured against all four of a node's values: where one solution
    # decays under the other's growth, both marches carry rounding of the
    # larger one, so the small one's own digits differ (the Gaussian of
    # the sweep's E = 1/2 pair by more than itself at x = 6)
    scale = abs(want).sum(axis=(0, 1))
    assert np.max(abs(got - want) / scale) <= 1e-13
    assert _node_wronskian_gap(pair) <= 2.0 * _node_wronskian_gap(oracle)


@pytest.mark.parametrize("case", sorted(MARCH_CASES))
def test_chunked_march_matches_one_march_per_side_bitwise(case):
    # the on-demand march cuts each side into chunks of whole blocks and
    # carries the float loop across them, so every node has the bits of
    # one blocked march over the whole side
    potential, energy, domain, anchor, h = MARCH_CASES[case]
    params = PhysParams(hbar=1.0, mu=1.0, energy=energy)
    pair = solve_pair(potential, params, domain, anchor=anchor, grid_step=h)
    nodes = pair._nodes
    nodes.complete()
    for step in (1, -1):
        k = step * np.arange(nodes.steps[step] + 1)
        table = schrodinger._unit_table(potential, params,
                                        nodes.anchor + h * k)
        n, _ = schrodinger._march(table, step * h, (0.0, 1.0, 1.0, 0.0))
        side = (slice(nodes.base + 1, nodes.hi + 1) if step > 0
                else slice(nodes.lo, nodes.base))
        marched = nodes.taylor[:2, :, nodes.cols(side)][:, :, ::step]
        assert marched.shape[2] == n
        np.testing.assert_array_equal(_bits(marched),
                                      _bits(table[:2, :, 1 : n + 1]))


@pytest.mark.parametrize("where", ["inside-first-block", "block-first-node",
                                   "block-last-node", "grid-last-node",
                                   "nowhere"])
def test_cap_crossing_matches_float_loop(where, monkeypatch):
    # anchored at x = 2, past the turning point, both solutions grow on the
    # right, so every right node's max |phi| is a new high and a cap just
    # under it makes that node the first crossing
    case = (PotentialModel.harmonic(1.0), 0.5, (-3.0, 3.0), 2.0, 1e-3)
    _, full = _pair_and_oracle(monkeypatch, *case)
    xs, taylor, _ = marched_nodes(full)
    right = xs > 2.0
    high = abs(taylor[0][:, right]).max(axis=0)
    steps, block = len(high), schrodinger._MARCH_BLOCK
    assert steps % block  # the last block is a partial one
    node = {"inside-first-block": block // 2, "block-first-node": 3 * block + 1,
            "block-last-node": 5 * block, "grid-last-node": steps,
            "nowhere": None}[where]
    if node is None:
        cap = high.max()
    else:
        assert high[node - 1] > high[: node - 1].max()
        cap = 0.5 * (high[: node - 1].max() + high[node - 1])
    monkeypatch.setattr(schrodinger, "OVERFLOW_CAP", cap)
    pair, oracle = _pair_and_oracle(monkeypatch, *case)
    assert pair.domain == oracle.domain
    assert pair.truncated == oracle.truncated
    assert np.count_nonzero(marched_nodes(pair)[0] > 2.0) == (node or steps)


def test_truncated_march_warns_nothing():
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair = solve_pair(PotentialModel.harmonic(1.0), params, (-30.0, 30.0),
                          grid_step=1e-3)
        taylor = marched_nodes(pair)[1]
    assert pair.domain == pytest.approx((-7.794, 7.794), abs=1e-12)
    assert np.isfinite(taylor).all()


# ---------------------------------------------------------------------------
# The on-demand march against a march to completion
# ---------------------------------------------------------------------------

def _assert_marched_alike(lazy, full):
    """Every covered node of the two pairs, position, Taylor row and cell
    integral, has the same bits."""
    for pair in (lazy, full):
        pair.domain  # marches every node
        pair.cell_integrals(slice(None))  # tables every node
    a, b = lazy._nodes, full._nodes
    assert (a.lo, a.hi, a.capped) == (b.lo, b.hi, b.capped)
    cover = slice(a.lo, a.hi + 1)
    np.testing.assert_array_equal(_bits(marched_nodes(lazy)[0]),
                                  _bits(marched_nodes(full)[0]))
    for name in ("taylor", "table"):
        np.testing.assert_array_equal(
            _bits(getattr(a, name)[..., a.cols(cover)]),
            _bits(getattr(b, name)[..., b.cols(cover)]))


def _read(pair, kind, where):
    """One read of a grid pair at a fraction ``where`` of its requested
    domain: a point's values, or the cells and square primitives of the
    node there, or one more chunk of a side."""
    lo, hi = pair.requested
    x = lo + (hi - lo) * where
    if kind == "march":
        pair._nodes.march(1 if where > 0.5 else -1)
    elif pair.covers(x):
        if kind == "eval":
            pair.eval01(x)
        else:
            i = pair.nearest_node(x)[0]
            pair.cell_integrals(i)
            pair.square_primitives(i)(0.0)


_READS = st.lists(st.tuples(st.sampled_from(["eval", "cells", "march"]),
                            st.floats(0.0, 1.0)), max_size=12)


@given(st.floats(0.3, 3.0), st.floats(0.5, 8.0), st.floats(0.5, 8.0),
       st.floats(0.0, 1.0), st.sampled_from([1e-3, 2.5e-3, 7e-3]), _READS)
@settings(deadline=None, max_examples=25)
def test_lazy_march_matches_full_march_bitwise(energy, left, right, where,
                                               h, reads):
    args = (PotentialModel.harmonic(1.0),
            PhysParams(hbar=1.0, mu=1.0, energy=energy), (-left, right))
    # where = 1 can round past the right end
    anchor = min(-left + (left + right) * where, right)
    full = solve_pair(*args, anchor=anchor, grid_step=h)
    full._nodes.complete()
    lazy = solve_pair(*args, anchor=anchor, grid_step=h)
    for kind, at in reads:
        _read(lazy, kind, at)
    _assert_marched_alike(lazy, full)


@pytest.mark.parametrize("case", ["linear", "truncated-harmonic"])
@pytest.mark.parametrize("order", ["left-first", "right-first", "far-jump"])
def test_lazy_march_of_truncated_pairs_matches_full_march(case, order):
    reads = {"left-first": [("eval", 0.45), ("cells", 0.3), ("eval", 0.55),
                            ("cells", 0.7)],
             "right-first": [("cells", 0.6), ("eval", 0.7), ("eval", 0.4),
                             ("march", 0.0)],
             "far-jump": [("eval", 0.99), ("cells", 0.01), ("eval", 0.5)]}
    full = _grid_case(case)
    full._nodes.complete()
    lazy = _grid_case(case)
    for kind, at in reads[order]:
        _read(lazy, kind, at)
    _assert_marched_alike(lazy, full)


def test_pair_marches_only_what_is_read():
    pair = harmonic_pair((-6.0, 6.0), grid_step=2.5e-4)
    nodes, chunk = pair._nodes, schrodinger._CHUNK
    assert (nodes.lo, nodes.hi) == (nodes.base, nodes.base)
    pair.eval01(0.3)  # the first chunk on the right
    assert (nodes.lo, nodes.hi) == (nodes.base, nodes.base + chunk)
    pair.eval01(-2.0)  # two chunks on the left
    assert (nodes.lo, nodes.hi) == (nodes.base - 2 * chunk,
                                    nodes.base + chunk)
    assert pair.truncation_note() is None and not nodes.capped
    assert pair.domain == (-6.0, 6.0)
    assert (nodes.lo, nodes.hi) == (0, 48000)


def test_ahead_marches_only_when_no_marched_node_lies_ahead():
    pair = harmonic_pair((-6.0, 6.0), grid_step=2.5e-4)
    nodes, chunk = pair._nodes, schrodinger._CHUNK
    base = nodes.base
    # nothing is marched past the anchor yet: each side marches one chunk
    np.testing.assert_array_equal(pair.ahead(base, 1),
                                  np.arange(base + 1, base + chunk + 1))
    np.testing.assert_array_equal(pair.ahead(base, -1),
                                  np.arange(base - 1, base - chunk - 1, -1))
    # marched nodes lie ahead: they are returned, and nothing is marched
    np.testing.assert_array_equal(pair.ahead(base + 10, 1),
                                  np.arange(base + 11, base + chunk + 1))
    assert (nodes.lo, nodes.hi) == (base - chunk, base + chunk)
    # past the covered domain's edges there are none
    assert pair.domain == (-6.0, 6.0)
    assert pair.ahead(nodes.hi, 1).size == 0
    assert pair.ahead(nodes.lo, -1).size == 0


def test_ahead_ends_at_the_overflow_cap():
    capped = _grid_case("truncated-harmonic")
    nodes = capped._nodes
    hi = nodes.base
    while (ahead := capped.ahead(hi, 1)).size:
        np.testing.assert_array_equal(ahead, np.arange(hi + 1, nodes.hi + 1))
        hi = int(ahead[-1])
    assert nodes.capped and hi == nodes.hi < nodes.n - 1


def test_pair_build_memory_peak():
    # the sweep's 48k-node pair: the build's temporaries stay within 0.6 of
    # the node arrays the pair keeps
    params = PhysParams(hbar=1.0, mu=1.0, energy=0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pair = solve_pair(PotentialModel.harmonic(1.0), params, (-6.0, 6.0),
                          grid_step=2.5e-4)
        xs, taylor, _ = marched_nodes(pair)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    kept = xs.nbytes + taylor.nbytes
    assert peak <= 1.6 * kept, (peak, kept)


# ---------------------------------------------------------------------------
# Cell integrals of the squares
# ---------------------------------------------------------------------------

def _squares_by_quadrature(pair, x0, lo, hi):
    """(phi1^2, phi1*phi2, phi2^2) integrated over [x0 + lo, x0 + hi] by
    8-point Gauss-Legendre, from eval01.  The width is taken from the
    offsets, which x0 + offset would round."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    half = 0.5 * (hi - lo)
    p1, _, p2, _ = pair.eval01(x0 + (lo + half + half * nodes))
    return np.array([(f @ weights) * half
                     for f in (p1 * p1, p1 * p2, p2 * p2)])


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_cell_integrals_match_quadrature_of_the_squares(case):
    # a grid cell's squares are its node's degree-10 polynomials, which
    # 8-point quadrature integrates exactly
    pair = _grid_case(case)
    xs, _, first = marched_nodes(pair)
    n = len(xs)
    nodes = first + np.array([0, 1, n // 3, n // 2, n - 2, n - 1])
    x, lo, hi = pair.cells(nodes)
    got = pair.cell_integrals(nodes)
    prim = pair.square_primitives(nodes)
    for k, i in enumerate(nodes):
        want = _squares_by_quadrature(pair, x[k], lo[k], hi[k])
        scale = want[0] + want[2]
        np.testing.assert_allclose(got[:, k], want, rtol=0.0,
                                   atol=1e-14 * scale)
        np.testing.assert_allclose(prim(hi)[:, k] - prim(lo)[:, k], want,
                                   rtol=0.0, atol=1e-14 * scale)


def test_grid_cells_tile_the_covered_domain():
    pair = harmonic_pair()
    n = len(marched_nodes(pair)[0])
    x, lo, hi = pair.cells(np.arange(n))
    assert (x[0] + lo[0], x[-1] + hi[-1]) == pair.domain
    np.testing.assert_allclose((x + hi)[:-1], (x + lo)[1:], rtol=0.0,
                               atol=1e-15)
    # built once, then read as views: every run on the pair sees one table
    table = pair.cell_integrals(slice(None))
    assert np.shares_memory(table, pair.cell_integrals(slice(None)))
    other = harmonic_pair()
    other.domain  # marches every node
    np.testing.assert_array_equal(table, other.cell_integrals(np.arange(n)))


# ---------------------------------------------------------------------------
# The pair's reads against their per-order and per-point oracles
# ---------------------------------------------------------------------------

def _square_terms(coeffs, m: int):
    """Oracle: the degree-m Taylor coefficients of (p1^2, p1*p2, p2^2) for
    the polynomial pairs whose coefficients are ``coeffs``, lowest order
    first, shape (degree + 1, 2, ...), one order at a time."""
    deg = len(coeffs) - 1
    s11 = s12 = s22 = 0.0
    for j in range(max(0, m - deg), min(m, deg) + 1):
        (a1, a2), (b1, b2) = coeffs[j], coeffs[m - j]
        s11 = s11 + a1 * b1
        s12 = s12 + a1 * b2
        s22 = s22 + a2 * b2
    return s11, s12, s22


def _square_primitives_by_order(coeffs):
    """Oracle of ``schrodinger._square_primitives``: its coefficients from
    ``_square_terms``, summed by the same Horner rule."""
    prim = [np.array(_square_terms(coeffs, m)) / (m + 1)
            for m in range(2 * len(coeffs) - 1)]

    def grid(s):
        acc = prim[-1]
        for c in prim[-2::-1]:
            acc = acc * s + c
        return acc * s

    return grid


# zeros of both signs, where the sums' +0.0 start shows, and values that
# are not dyadic, so the order of the sums shows in their rounding
_COEFFS = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-1e3, 1e3).map(lambda v: v / 3.0))
_OFFSETS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))


@st.composite
def _coefficients_and_offsets(draw):
    """Node coefficients of shape (6, 2), one node, or (6, 2, S, 16), S
    states' rows of nodes, with offsets of the nodes' shape."""
    shape = draw(st.sampled_from([(), (1, 16), (3, 16)]))
    coeffs = draw(arrays(float, (6, 2) + shape, elements=_COEFFS))
    return coeffs, draw(arrays(float, shape, elements=_OFFSETS))


def _signed_zeros(shape):
    """Coefficients -0.0 for phi1 and +0.0 for phi2: every product in
    phi1*phi2 is -0.0, and only a sum that starts from +0.0 gives +0.0."""
    return np.stack([np.full((6,) + shape, -0.0), np.zeros((6,) + shape)],
                    axis=1)


@given(_coefficients_and_offsets())
@example((_signed_zeros(()), np.array(0.25)))
@example((_signed_zeros((3, 16)), np.full((3, 16), -0.5)))
# normal draws, at which summing j downward changes a few outputs' bits
@example((np.random.default_rng(0).standard_normal((6, 2, 3, 16)),
          np.random.default_rng(1).uniform(-0.5, 0.5, (3, 16))))
@settings(deadline=None, max_examples=80)
def test_square_primitives_match_the_per_order_oracle_bitwise(drawn):
    coeffs, s = drawn
    got = schrodinger._square_primitives(coeffs)(s)
    want = _square_primitives_by_order(coeffs)(s)
    assert got.shape == (3,) + s.shape
    np.testing.assert_array_equal(_bits(got), _bits(want))


@given(st.integers(0, len(_GRID_PAIRS)),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.floats(0.5, 2.0), st.booleans(), st.floats(-1.0, 1.0))
@settings(deadline=None, max_examples=60)
def test_s0p_values_are_those_of_eval01_bitwise(which, fractions, a, flip, b):
    """s0p reads only (phi1, phi2), without the slope recursion; they and
    S0' keep eval01's bits, at one point and over an array."""
    pair = (_GRID_PAIRS + [solve_pair(PotentialModel.free(),
                                      PhysParams(1.0, 1.0, 0.8),
                                      (-8.0, 8.0))])[which]
    lo, hi = pair.domain
    q = QuantumStateParams(a=-a if flip else a, b=b)
    x = lo + (hi - lo) * np.asarray(fractions)
    for where in (x, float(x[0])):
        p1, _, p2, _ = pair.eval01(where)
        values = pair.eval01(where, slopes=False)
        np.testing.assert_array_equal(_bits(values), _bits((p1, p2)))
        lin = q.a * p1 + q.b * p2
        want = (pair.params.hbar * q.a * pair.wronskian_ref) / (
            lin * lin + p2 * p2)
        np.testing.assert_array_equal(_bits(s0p(pair, q, where)), _bits(want))


@pytest.mark.parametrize("case", ["harmonic", "linear", "truncated-harmonic"])
def test_cell_table_sums_the_end_cells_of_sides_completed_later(case):
    """The table is read before either side is complete, then after a
    march that completes the right side, then after the left: each read
    has every covered node's bits, end cells included, as a table first
    read on the completed pair, and the end cells are the half cells'
    integrals from the per-order oracle."""
    lazy, full = _grid_case(case), _grid_case(case)
    nodes = lazy._nodes
    table = lazy.cell_integrals(nodes.base)
    full._nodes.complete()
    want = full.cell_integrals(slice(None))
    half = 0.5 * nodes.h
    for step in (1, -1):
        while nodes.march(step):
            pass
        end = nodes.hi if step > 0 else nodes.lo
        table = lazy.cell_integrals(slice(nodes.lo, nodes.hi + 1))
        cover = slice(nodes.lo - full._nodes.lo, nodes.hi - full._nodes.lo + 1)
        np.testing.assert_array_equal(_bits(table), _bits(want[:, cover]))
        prim = _square_primitives_by_order(
            nodes.taylor[:, :, nodes.cols(end)])
        edge = prim(half) - prim(0.0) if step < 0 else prim(0.0) - prim(-half)
        np.testing.assert_array_equal(_bits(lazy.cell_integrals(end)),
                                      _bits(edge))
