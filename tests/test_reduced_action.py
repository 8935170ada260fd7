"""Tests for the reduced action built on a solution pair.

The free pair with a = 1, b = 0 gives S0' = hbar k exactly (constant
momentum), and a = 2, b = 0 gives S0' = 2 hbar k / (1 + 3 sin^2 kx); both
are hand-derived closed forms used as oracles below.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmotion.reduced_action import (
    QuantumStateParams,
    StateParamError,
    qshje_residual,
    s0p,
    s0p_jet,
)
from qmotion.schrodinger import PhysParams, PotentialModel, solve_pair


def free_pair(energy=0.5, hbar=1.0, mu=1.0, domain=(-8.0, 8.0)):
    return solve_pair(PotentialModel.free(),
                      PhysParams(hbar=hbar, mu=mu, energy=energy), domain)


def harmonic_pair():
    return solve_pair(PotentialModel.harmonic(1.0),
                      PhysParams(hbar=1.0, mu=1.0, energy=0.5),
                      (-3.0, 3.0), anchor=0.0)


def phi2_zeros(pair, x: float) -> int:
    """Signed number of zeros of phi2 between the pair's anchor and x
    (negative left of it): those up to the node nearest x -- on the free
    pair an extremum m*pi/k of cos kx -- plus one when phi2(x) from
    ``eval01`` has the other sign, so that the count always agrees with the
    sign eval01 gives."""
    def left_of(u: float) -> int:
        j, past = pair.nearest_node(np.asarray(u))
        if pair.source == "analytic":
            zeros, ref = int(j), (-1.0) ** j
        else:
            g = pair._nodes
            y2 = g.taylor[0, 1, min(j, g.base) : max(j, g.base) + 1]
            zeros = int(np.count_nonzero(np.diff(y2 < 0)))
            zeros = zeros if j >= g.base else -zeros
            ref = g.taylor[0, 1, j]
        if (pair.eval01(u)[2] < 0) != (ref < 0):
            zeros += 1 if past > 0 else -1
        return zeros

    return left_of(x) - left_of(pair.anchor)


def s0_eval(pair, q: QuantumStateParams, x: float) -> float:
    """Oracle: the branch-unwrapped reduced action at x.  S0/hbar is the
    phase angle of (phi2, a*phi1 + b*phi2): the principal value
    arctan(a*phi1/phi2 + b) + kappa, plus sign(a*W)*pi per zero of phi2
    between the anchor and x (``phi2_zeros``), so it is continuous and
    strictly monotone across those zeros.  On a zero itself arctan takes
    the limit sign(a*phi1)*pi/2 that the count agrees with.  The package
    reads only S0' and its derivatives; this checks them against S0."""
    p1, _, p2, _ = pair.eval01(x)
    principal = (math.atan(q.a * p1 / p2 + q.b) if p2
                 else math.copysign(0.5 * math.pi, q.a * p1))
    turns = math.copysign(1.0, q.a * pair.wronskian_ref) * phi2_zeros(pair, x)
    return pair.params.hbar * (principal + q.kappa + math.pi * turns)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

def test_zero_a_rejected():
    with pytest.raises(StateParamError):
        QuantumStateParams(a=0.0, b=1.0)


def test_defaults():
    q = QuantumStateParams(a=1.5)
    assert q.b == 0.0 and q.kappa == 0.0


# ---------------------------------------------------------------------------
# S0' closed forms on the free pair
# ---------------------------------------------------------------------------

def test_unit_state_has_constant_momentum():
    pair = free_pair()  # k = 1
    q = QuantumStateParams(a=1.0)
    for x in np.linspace(-6.0, 6.0, 25):
        j = s0p_jet(pair, q, float(x), 2)
        assert j.value == pytest.approx(1.0, abs=1e-14)
        assert j.coeffs[1] == pytest.approx(0.0, abs=1e-13)
        assert j.coeffs[2] == pytest.approx(0.0, abs=1e-13)


def test_two_state_closed_form():
    pair = free_pair()
    q = QuantumStateParams(a=2.0)
    for x in [-1.1, 0.0, math.pi / 4, 2.0]:
        want = 2.0 / (1.0 + 3.0 * math.sin(x) ** 2)
        assert s0p_jet(pair, q, x, 0).value == pytest.approx(want, rel=1e-13)


def test_s0p_positive_and_periodic():
    pair = free_pair()
    q = QuantumStateParams(a=2.0, b=-0.7)
    vals = [s0p_jet(pair, q, float(x), 0).value
            for x in np.linspace(0.0, math.pi, 40)]
    assert min(vals) > 0.0
    assert s0p_jet(pair, q, 0.3 + math.pi, 0).value == pytest.approx(
        s0p_jet(pair, q, 0.3, 0).value, rel=1e-12)


def test_negative_a_flips_momentum_sign():
    pair = free_pair()
    plus = s0p_jet(pair, QuantumStateParams(a=2.0, b=0.4), 0.9, 0).value
    minus = s0p_jet(pair, QuantumStateParams(a=-2.0, b=-0.4), 0.9, 0).value
    assert minus == pytest.approx(-plus, rel=1e-13)


def test_s0p_jet_derivatives_match_quotient():
    # derivative coefficients of hbar a W / D must agree with a separately
    # composed quotient of jets
    pair = free_pair()
    q = QuantumStateParams(a=1.7, b=0.3)
    x = 0.8
    j = s0p_jet(pair, q, x, 3)
    h = 1e-5
    fd2 = (s0p_jet(pair, q, x + h, 0).value
           - s0p_jet(pair, q, x - h, 0).value) / (2 * h)
    assert j.coeffs[1] == pytest.approx(fd2, rel=1e-8)


# ---------------------------------------------------------------------------
# Reduced action values
# ---------------------------------------------------------------------------

def test_s0_linear_for_unit_state():
    pair = free_pair()
    q = QuantumStateParams(a=1.0)
    base = s0_eval(pair, q, 0.0)
    for x in [0.5, 2.0, -3.0]:
        assert s0_eval(pair, q, x) - base == pytest.approx(x, abs=1e-10)


def test_kappa_shifts_s0_by_constant():
    pair = free_pair()
    lo = s0_eval(pair, QuantumStateParams(a=2.0, b=0.1, kappa=0.0), 1.3)
    hi = s0_eval(pair, QuantumStateParams(a=2.0, b=0.1, kappa=2.5), 1.3)
    assert hi - lo == pytest.approx(2.5, abs=1e-12)


def test_s0_continuous_across_phi2_zero():
    # phi2 = cos x vanishes at pi/2; the arctan branch must not jump
    pair = free_pair()
    q = QuantumStateParams(a=2.0, b=0.3)
    eps = 1e-4
    below = s0_eval(pair, q, math.pi / 2 - eps)
    above = s0_eval(pair, q, math.pi / 2 + eps)
    assert above > below
    assert above - below < 1e-2


def test_s0_monotone_in_x():
    pair = free_pair()
    q = QuantumStateParams(a=1.4, b=-0.6)
    xs = np.linspace(-2.0, 2.0, 17)
    vals = [s0_eval(pair, q, float(x)) for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def _zero_cells(pair):
    """Grid cells (x_j, x_j+1) across which the node column of phi2 changes
    sign."""
    nodes = pair._nodes
    nodes.complete()
    cover = slice(nodes.lo, nodes.hi + 1)
    xs, y2 = nodes.xs[cover], nodes.taylor[0, 1, cover]
    j = np.flatnonzero(np.diff(y2 < 0))
    return list(zip(xs[j], xs[j + 1]))


def _zero_of_phi2(pair, lo, hi):
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if (pair.eval01(mid)[2] < 0) == (pair.eval01(lo)[2] < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("energy,zeros", [(4.5, 4), (12.5, 8)])
@pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.8, -0.4)])
def test_s0_on_numerov_pair_is_the_unwrapped_phase(energy, zeros, a, b):
    pair = solve_pair(PotentialModel.harmonic(1.0),
                      PhysParams(hbar=1.0, mu=1.0, energy=energy),
                      (-3.0, 3.0), anchor=0.0)
    cells = _zero_cells(pair)
    assert len(cells) == zeros
    q = QuantumStateParams(a=a, b=b, kappa=0.3)
    sign = math.copysign(1.0, a)

    # the principal value at the anchor
    p1, _, p2, _ = pair.eval01(0.0)
    assert s0_eval(pair, q, 0.0) == math.atan(a * p1 / p2 + b) + 0.3

    # strictly monotone, in the direction of a*W
    xs = np.linspace(-2.99, 2.99, 601)
    vals = np.array([s0_eval(pair, q, float(x)) for x in xs])
    assert np.all(sign * np.diff(vals) > 0)

    # continuous across each zero of phi2: no pi*hbar step
    for lo, hi in cells:
        z = _zero_of_phi2(pair, lo, hi)
        for d in (1e-7, 1e-5):
            step = s0_eval(pair, q, z + d) - s0_eval(pair, q, z - d)
            assert step == pytest.approx(2 * d * s0p(pair, q, z), rel=1e-3,
                                         abs=1e-12)

    # its central difference is S0'
    d = 1e-5
    probes = np.concatenate([xs[::20], [c[0] for c in cells]])
    for x in probes:
        fd = (s0_eval(pair, q, x + d) - s0_eval(pair, q, x - d)) / (2 * d)
        assert fd == pytest.approx(s0p(pair, q, float(x)), rel=1e-7)


# ---------------------------------------------------------------------------
# Hamilton-Jacobi residual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a,b", [(1.0, 0.0), (2.0, 0.0), (0.7, -1.2), (-1.5, 0.4)])
def test_qshje_residual_free(a, b):
    pair = free_pair(energy=0.8)
    q = QuantumStateParams(a=a, b=b)
    for x in np.linspace(-5.0, 5.0, 21):
        assert qshje_residual(pair, q, float(x)) < 1e-12


def test_qshje_residual_harmonic():
    pair = harmonic_pair()
    q = QuantumStateParams(a=1.3, b=0.2)
    worst = max(qshje_residual(pair, q, float(x))
                for x in np.linspace(-2.5, 2.5, 21))
    assert worst < 1e-6


def test_qshje_residual_detects_wrong_wronskian():
    # S0' carries the pair's stated Wronskian, and phi, phi' and phi'' come
    # from the pair itself: a pair whose stated Wronskian is off by 20 %
    # must not pass
    pair = free_pair(energy=0.5)  # W = k = 1
    q = QuantumStateParams(a=1.0)
    assert qshje_residual(pair, q, 1.0) < 1e-15
    for w in (0.8, 1.2):
        wrong = dataclasses.replace(pair, wronskian_ref=w)
        assert qshje_residual(wrong, q, 1.0) > 1e-2


@pytest.mark.parametrize("make, span, rel, tol", [
    (free_pair, 6.0, 1e-6, 1e-10),
    (harmonic_pair, 2.5, 1e-4, 1e-6),
], ids=["free", "harmonic"])
def test_qshje_residual_sees_a_relabelled_energy(make, span, rel, tol):
    """phi'' is read from the pair itself, not from the wave equation at
    the stated energy, so a pair relabelled with an energy it was not built
    at fails acceptance criterion 5's tolerance for its kind on every
    state, while its true label passes."""
    pair = make()
    rng = np.random.default_rng(3)
    states = [QuantumStateParams(a=a, b=b) for a, b in zip(
        rng.uniform(0.5, 2.0, 5) * [1, -1, 1, -1, 1], rng.uniform(-1, 1, 5))]
    xs = rng.uniform(-span, span, 25)
    energy = pair.params.energy * (1.0 + rel)
    wrong = dataclasses.replace(
        pair, params=dataclasses.replace(pair.params, energy=energy))
    assert max(np.max(qshje_residual(pair, q, xs)) for q in states) <= tol
    assert min(np.max(qshje_residual(wrong, q, xs)) for q in states) > tol


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(st.floats(0.5, 2.5), st.floats(-1.5, 1.5), st.floats(-2.0, 2.0))
@settings(deadline=None, max_examples=60)
def test_qshje_residual_property(a, b, x):
    """The defect stays at rounding level across the whole state family."""
    pair = free_pair()
    q = QuantumStateParams(a=a, b=b)
    assert qshje_residual(pair, q, x) < 1e-11


_PAIRS = [free_pair(), free_pair(energy=0.8, hbar=0.7, mu=1.3),
          harmonic_pair(),
          solve_pair(PotentialModel.linear(0.5),
                     PhysParams(hbar=0.8, mu=1.2, energy=0.6), (-2.0, 6.0))]


@given(st.integers(0, len(_PAIRS) - 1), st.floats(0.5, 2.5),
       st.floats(-1.5, 1.5), st.lists(st.floats(0.0, 1.0), min_size=1,
                                      max_size=20))
@settings(deadline=None, max_examples=60)
def test_closed_form_s0p_is_jet_value_bitwise(which, a, b, fractions):
    """The closed-form S0' is the order-0 coefficient of the S0' jet, bit
    for bit, on one point and on an array of points."""
    pair = _PAIRS[which]
    q = QuantumStateParams(a=a, b=b)
    lo, hi = (-6.0, 6.0) if pair.source == "analytic" else pair.domain
    xs = lo + (hi - lo) * np.asarray(fractions)
    batched = s0p(pair, q, xs)
    np.testing.assert_array_equal(batched.view(np.int64),
                                  s0p_jet(pair, q, xs, 0).value.view(np.int64))
    for k, x in enumerate(xs):
        one = s0p(pair, q, float(x))
        assert one == s0p_jet(pair, q, float(x), 0).value == batched[k]
