"""Tests for truncated Taylor jets and dual numbers.

Oracles here are hand-computed derivatives of rational functions, so the
jet arithmetic is validated against calculus, not against itself.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmotion.jets import (
    Dual,
    Jet,
    JetDomainError,
    JetError,
    JetOrderError,
    _horner,
    flow_jet,
)


def jet_of(fn, x0, order):
    """Jet of fn(t) at t = x0 via the library's own variable seed."""
    return fn(Jet.variable(x0, order))


# ---------------------------------------------------------------------------
# Construction and accessors
# ---------------------------------------------------------------------------

def test_constant_jet_has_zero_derivatives():
    j = Jet.constant(3.5, 4)
    assert j.order == 4
    assert j.value == 3.5
    assert j.coeffs[1:] == (0.0, 0.0, 0.0, 0.0)
    assert j.coeffs[2] / math.factorial(2) == 0.0


def test_variable_jet_seeds_unit_slope():
    j = Jet.variable(2.0, 3)
    assert j.coeffs == (2.0, 1.0, 0.0, 0.0)


def test_variable_requires_first_order():
    with pytest.raises(JetError):
        Jet.variable(1.0, 0)


def test_truncated_and_derivative_shift():
    j = Jet((1.0, 2.0, 3.0, 4.0))
    assert j.truncated(1).coeffs == (1.0, 2.0)


def test_empty_coeffs_rejected():
    with pytest.raises(JetError):
        Jet(())


# ---------------------------------------------------------------------------
# Arithmetic against hand-known series
# ---------------------------------------------------------------------------

def test_product_rule_third_order():
    # d^3/dt^3 [t^2 * t^3] = d^3/dt^3 t^5 = 60 t^2 at t = 2 -> 240
    t = Jet.variable(2.0, 5)
    p = (t * t) * (t * t * t)
    assert p.coeffs[0] == pytest.approx(32.0)
    assert p.coeffs[1] == pytest.approx(80.0)
    assert p.coeffs[3] == pytest.approx(240.0)
    assert p.coeffs[5] == pytest.approx(120.0)
    # dividing out the factorial gives the Taylor coefficient
    assert p.coeffs[3] / math.factorial(3) == pytest.approx(40.0)


def test_quotient_matches_geometric_series():
    # 1/(1-t) at t=0 has all Taylor coefficients 1, so d^m/dt^m = m!
    t = Jet.variable(0.0, 6)
    g = 1.0 / (1.0 - t)
    for m in range(7):
        assert g.coeffs[m] / math.factorial(m) == pytest.approx(1.0)
        assert g.coeffs[m] == pytest.approx(math.factorial(m))


def test_division_by_zero_value_raises():
    t = Jet.variable(0.0, 3)
    with pytest.raises(JetDomainError):
        1.0 / t


def test_integer_power_negative_exponent():
    t = Jet.variable(2.0, 3)
    g = t ** -2
    # d/dx x^-2 = -2 x^-3, d2 = 6 x^-4, d3 = -24 x^-5
    assert g.value == pytest.approx(0.25)
    assert g.coeffs[1] == pytest.approx(-2.0 / 8.0)
    assert g.coeffs[2] == pytest.approx(6.0 / 16.0)
    assert g.coeffs[3] == pytest.approx(-24.0 / 32.0)


def test_mixed_order_operands_truncate():
    a = Jet((1.0, 1.0, 1.0, 1.0))
    b = Jet((2.0, 0.5))
    assert (a + b).order == 1
    assert (a * b).order == 1


def test_numpy_left_operand_gives_a_jet():
    j = Jet((2.0, 1.0, 0.5))
    arr = np.array([1.0, -3.0])
    for got in (arr * j, arr + j, arr - j, arr / j):
        assert isinstance(got, Jet)
    prod = arr * j
    for k, c in enumerate(j.coeffs):
        np.testing.assert_array_equal(prod.coeffs[k], arr * c)
    np.testing.assert_array_equal((arr - j).value, arr - 2.0)
    scaled = np.float64(3.0) * j
    assert isinstance(scaled, Jet)
    assert scaled.coeffs == (6.0, 3.0, 1.5)


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------

def test_flow_jet_exponential():
    # xdot = x gives x^(m)(0) = x0 for all m
    x0 = 1.5
    order = 5
    j = flow_jet([x0, 1.0, 0.0, 0.0, 0.0], x0, order)
    np.testing.assert_allclose(j.coeffs, [x0] * (order + 1), rtol=1e-13)


def test_flow_jet_logistic_oracle():
    # xdot = x(1-x) at x0=0.5: xd=0.25, xdd=xd(1-2x)=0, xddd=-2 xd^2 = -0.125
    j = flow_jet([0.25, 0.0, -2.0], 0.5, 3)
    np.testing.assert_allclose(j.coeffs, [0.5, 0.25, 0.0, -0.125], atol=1e-15)


@pytest.mark.parametrize("order", range(1, 7))
def test_flow_jet_is_exact_on_fractions(order):
    # xdot = x^2 has x(t) = x0/(1 - x0 t), so x^(k)(0) = k! x0^(k+1); the
    # rate's jet is (x0^2, 2 x0, 2, 0, ...), and only jet products touch it
    x0 = Fraction(2, 3)
    g = [x0 * x0, 2 * x0, Fraction(2)] + [Fraction(0)] * 3
    j = flow_jet(g[:order], x0, order)
    expected = [math.factorial(k) * x0 ** (k + 1) for k in range(order + 1)]
    assert all(isinstance(c, Fraction) for c in j.coeffs)
    assert list(j.coeffs) == expected


# ---------------------------------------------------------------------------
# Dual numbers
# ---------------------------------------------------------------------------

def test_dual_scalar_derivative():
    d = Dual(2.0, 1.0)
    out = d * d * d  # x^3, slope 3 x^2 = 12
    assert out.re == pytest.approx(8.0)
    assert out.du == pytest.approx(12.0)


def test_dual_quotient_and_functions():
    d = Dual(0.5, 1.0)
    out = d / (1.0 + d ** 2)
    # f = x/(1 + x^2), f' = (1 - x^2)/(1 + x^2)^2
    assert out.re == pytest.approx(0.5 / 1.25)
    assert out.du == pytest.approx(0.75 / 1.25 ** 2)


def test_dual_over_jet_carries_series():
    # Jet-valued dual parts: derivative of x^2 w.r.t. x along a t-jet
    t = Jet.variable(0.3, 3)
    xj = t / (1.0 + t * t)
    d = Dual(xj, Jet.constant(1.0, 3))
    out = d * d
    np.testing.assert_allclose(out.du.coeffs, (2.0 * xj).coeffs, rtol=1e-14)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

finite = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


@given(finite, finite, finite)
@settings(deadline=None, max_examples=100)
def test_multiplication_commutes(a, b, c):
    u = Jet((a, b, c))
    w = Jet((c, a, b))
    np.testing.assert_allclose((u * w).coeffs, (w * u).coeffs, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# Leibniz-rule products and quotients against the Taylor form
# ---------------------------------------------------------------------------

def _taylor(j: Jet, m: int) -> list:
    return [c / math.factorial(k) for k, c in enumerate(j.coeffs[:m + 1])]


def taylor_product(a: Jet, b: Jet) -> list:
    """Reference product in Taylor form: each coefficient divided by k!,
    Cauchy sums started from the integer 0 (sum()), then times k!."""
    m = min(a.order, b.order)
    u, w = _taylor(a, m), _taylor(b, m)
    out = [sum(u[j] * w[k - j] for j in range(k + 1)) for k in range(m + 1)]
    return [c * math.factorial(k) for k, c in enumerate(out)]


def taylor_quotient(a: Jet, b: Jet) -> list:
    """Reference quotient in Taylor form: v_k = (u_k - sum_{j<k} v_j
    w_{k-j}) / w_0 on the k!-scaled coefficients, then times k!."""
    m = min(a.order, b.order)
    u, w = _taylor(a, m), _taylor(b, m)
    v = [u[0] / w[0]]
    for k in range(1, m + 1):
        acc = u[k]
        for j in range(k):
            acc = acc - v[j] * w[k - j]
        v.append(acc / w[0])
    return [c * math.factorial(k) for k, c in enumerate(v)]


def product_terms(a: Jet, b: Jet) -> list:
    """Per coefficient k, sum_j C(k, j) |f^(j)| |g^(k-j)|: the size of the
    Leibniz terms, which bounds the rounding of either form."""
    return [sum(math.comb(k, j) * np.abs(a.coeffs[j]) * np.abs(b.coeffs[k - j])
                for j in range(k + 1))
            for k in range(min(a.order, b.order) + 1)]


def quotient_terms(a: Jet, b: Jet, v: list) -> list:
    """Per coefficient k, (|u^(k)| + sum_{j<k} C(k, j) |v^(j)| |w^(k-j)|) /
    |w|: the size of the quotient recurrence's terms."""
    return [(np.abs(a.coeffs[k])
             + sum(math.comb(k, j) * np.abs(v[j]) * np.abs(b.coeffs[k - j])
                   for j in range(k))) / np.abs(b.value)
            for k in range(len(v))]


# entries in [-3, 3], none subnormal, none so small that a product of two
# is (the Taylor form's halving of a subnormal rounds), zeros of both signs
coefficient = st.floats(-3.0, 3.0, allow_subnormal=False).map(
    lambda v: v if abs(v) >= 1e-100 else 0.0 * v)
divisor_value = st.builds(lambda s, v: s * v, st.sampled_from([-1.0, 1.0]),
                          st.floats(0.5, 3.0))

# coefficient shapes of the two operands: floats, the dual's (4,) channels,
# (N,) stacked jets, and (4, 1) channels over (N,) stacked jets
_SHAPES = [((), ()), ((), (4,)), ((4,), ()), ((4,), (4,)), ((), "N"),
           ("N", ()), ("N", "N"), ((4, 1), "N"), ("N", (4, 1))]


@st.composite
def jet_pairs(draw, orders, divisor=False):
    """Two jets, one of an order in ``orders`` and the other up to two
    orders longer, so truncation is exercised too."""
    m = draw(st.integers(*orders))
    longer, extra = draw(st.integers(0, 1)), draw(st.integers(0, 2))
    n = draw(st.integers(1, 5))
    pair = []
    for i, shape in enumerate(draw(st.sampled_from(_SHAPES))):
        shape = (n,) if shape == "N" else shape
        size = math.prod(shape)
        coeffs = []
        for k in range(m + (extra if i == longer else 0) + 1):
            entry = divisor_value if divisor and i == 1 and k == 0 else coefficient
            vals = draw(st.lists(entry, min_size=size, max_size=size))
            coeffs.append(np.reshape(vals, shape) if shape else vals[0])
        pair.append(Jet(coeffs))
    return tuple(pair)


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _assert_bitwise(got: Jet, want: list):
    assert got.order == len(want) - 1
    for g, w in zip(got.coeffs, want):
        assert np.shape(g) == np.shape(w)
        assert np.array_equal(_bits(g), _bits(w))


def _assert_within(got: Jet, want: list, terms: list):
    # 1e-14 of the largest term: the largest result coefficient alone is too
    # small a scale for quotients, whose recurrence cancels (the two forms
    # differed by up to 1.6e-14 of it in 20000 random order 3-6 quotients)
    assert got.order == len(want) - 1
    scale = np.max(np.abs(terms), axis=0)
    for g, w in zip(got.coeffs, want):
        assert np.shape(g) == np.shape(w)
        assert np.all(np.abs(np.subtract(g, w)) <= 1e-14 * scale)


@given(pair=jet_pairs((0, 2)))
@settings(deadline=None, max_examples=300)
def test_products_are_the_taylor_form_bit_for_bit_to_order_2(pair):
    # the factorials 1, 1 and 2 are powers of two, so scaling by them is
    # exact and the two forms round alike, zero signs included
    a, b = pair
    _assert_bitwise(a * b, taylor_product(a, b))


@given(pair=jet_pairs((0, 2), divisor=True))
@settings(deadline=None, max_examples=300)
def test_quotients_are_the_taylor_form_bit_for_bit_to_order_2(pair):
    a, b = pair
    _assert_bitwise(a / b, taylor_quotient(a, b))


@given(pair=jet_pairs((3, 6)))
@settings(deadline=None, max_examples=200)
def test_products_match_the_taylor_form_to_rounding_at_orders_3_to_6(pair):
    a, b = pair
    _assert_within(a * b, taylor_product(a, b), product_terms(a, b))


@given(pair=jet_pairs((3, 6), divisor=True))
@settings(deadline=None, max_examples=200)
def test_quotients_match_the_taylor_form_to_rounding_at_orders_3_to_6(pair):
    a, b = pair
    want = taylor_quotient(a, b)
    _assert_within(a / b, want, quotient_terms(a, b, want))


def test_a_negative_zero_product_is_positive_zero():
    # the Leibniz sums start from the integer 0, as sum() does
    for got in ((Jet((-0.0, 1.0)) * Jet((1.0, 0.0))).coeffs[0],
                (Jet((np.array([-0.0, 2.0]),)) * Jet((1.0,))).coeffs[0]):
        assert not np.any(np.signbit(got))


def test_truncating_to_the_same_order_returns_the_jet():
    j = Jet((1.0, 2.0, 3.0))
    assert j.truncated(2) is j
    assert j.truncated(1).coeffs == (1.0, 2.0)


# ---------------------------------------------------------------------------
# The shared Taylor sum against the three loops it replaced

def integrator_loop(a, tau, n):
    """The Taylor integrator's former sum: from zeros, over every
    coefficient, then scaled by d!."""
    vals = [0.0] * n
    for c in a[::-1]:
        for d in range(n - 1, 0, -1):
            vals[d] = vals[d] * tau + vals[d - 1]
        vals[0] = vals[0] * tau + c
    return [v * math.factorial(d) for d, v in enumerate(vals)]


def pair_loop(coeffs, s, slopes=True):
    """The solution pair's former sum over (degree + 1, 2, ...) node
    coefficients, both solutions in one loop: (p1, p1', p2, p2'), or
    (p1, p2) unless ``slopes``."""
    (p1, p2), d1, d2 = coeffs[-1], 0.0, 0.0
    for c1, c2 in coeffs[-2::-1]:
        if slopes:
            d1, d2 = d1 * s + p1, d2 * s + p2
        p1, p2 = p1 * s + c1, p2 * s + c2
    return (p1, d1, p2, d2) if slopes else (p1, p2)


def primitive_loop(prim, s):
    """The square primitives' former sum, times s."""
    acc = prim[-1]
    for c in prim[-2::-1]:
        acc = acc * s + c
    return acc * s


# signed zeros, where the start of a sum shows, and values that are not
# dyadic, so the order of the updates shows in their rounding
_TAYLOR_COEFFS = st.one_of(st.sampled_from([0.0, -0.0]),
                           st.floats(-1e3, 1e3).map(lambda v: v / 3.0))
_TAYLOR_OFFSETS = st.one_of(st.sampled_from([0.0, -0.0]),
                            st.floats(-0.5, 0.5))


@st.composite
def taylor_tables(draw):
    """(coeffs, tau, n): coefficients of shape (K, 2) + tau's shape, the
    two solutions of a node table, for K in (2, 6, 25); tau 0-d, (256,),
    or (S, T) with the coefficients fancy-indexed from an (K, 2, 8) node
    table as the pair reads them; n in (1, 2, 4).  Entries are picked from
    small drawn pools, so whole runs of signed zeros are common, and the
    top coefficient is -0.0 in half the draws."""
    coeff_pool = np.array(draw(st.lists(_TAYLOR_COEFFS, min_size=1,
                                        max_size=6)))
    offset_pool = np.array(draw(st.lists(_TAYLOR_OFFSETS, min_size=1,
                                         max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.sampled_from([2, 6, 25]))
    kind = draw(st.sampled_from(["0-d", "vector", "table"]))
    if kind == "table":
        shape = (draw(st.integers(1, 6)), draw(st.integers(1, 16)))
        nodes = rng.choice(coeff_pool, (k, 2, 8))
        coeffs = nodes[:, :, rng.integers(0, 8, shape)]
    else:
        shape = () if kind == "0-d" else (256,)
        coeffs = rng.choice(coeff_pool, (k, 2) + shape)
    if draw(st.booleans()):
        coeffs[-1] = -0.0
    tau = np.array(rng.choice(offset_pool, shape))
    return coeffs, tau, draw(st.sampled_from([1, 2, 4]))


# every coefficient -0.0: only a sum that starts from the top coefficient
# keeps the sign, where one started from zeros gives +0.0
_NEGATIVE_ZEROS = (np.full((6, 2), -0.0), np.array(0.25), 2)


@given(taylor_tables())
@example(_NEGATIVE_ZEROS)
@settings(deadline=None, max_examples=150)
def test_shared_sum_is_the_pair_loop_bit_for_bit(drawn):
    """The pair's values and slopes, each solution summed apart, are its
    former loop's over both solutions, with and without the slopes."""
    coeffs, s, _ = drawn
    p1, d1 = _horner(coeffs[:, 0], s, 2)
    p2, d2 = _horner(coeffs[:, 1], s, 2)
    np.testing.assert_array_equal(_bits([p1, d1, p2, d2]),
                                  _bits(pair_loop(coeffs, s)))
    values = _horner(coeffs[:, 0], s, 1) + _horner(coeffs[:, 1], s, 1)
    np.testing.assert_array_equal(_bits(values),
                                  _bits(pair_loop(coeffs, s, False)))


@given(taylor_tables())
@example(_NEGATIVE_ZEROS)
@settings(deadline=None, max_examples=150)
def test_shared_sum_is_the_primitive_loop_bit_for_bit(drawn):
    coeffs, s, _ = drawn
    prim = coeffs[:, 0]
    np.testing.assert_array_equal(_bits(_horner(prim, s, 1)[0] * s),
                                  _bits(primitive_loop(prim, s)))


@given(taylor_tables())
@example(_NEGATIVE_ZEROS)
@settings(deadline=None, max_examples=150)
def test_shared_sum_is_the_integrator_loop_bit_for_bit(drawn):
    """The integrator's loop started from zeros, so its top coefficient
    entered as 0.0*tau + a[-1]: a -0.0 top became +0.0 where tau has no
    sign bit.  With that one entry, its every derivative is the shared
    sum's; on coefficient lists of floats too, as a step passes them."""
    coeffs, tau, n = drawn
    a = coeffs[:, 0]
    entered = list(a[:-1]) + [0.0 * tau + a[-1]]
    want = integrator_loop(a, tau, n)
    np.testing.assert_array_equal(_bits(_horner(entered, tau, n)),
                                  _bits(want))
    if tau.ndim == 0:
        floats, t = [float(c) for c in entered], float(tau)
        np.testing.assert_array_equal(
            _bits(_horner(floats, t, n)),
            _bits(integrator_loop([float(c) for c in a], t, n)))


def test_shared_sum_is_the_value_and_scaled_derivatives():
    # 1 + 2t + 3t^2 + 4t^3 at t = 0.5: f = 3.25, f' = 8, f'' = 18, f''' = 24
    assert _horner([1.0, 2.0, 3.0, 4.0], 0.5, 4) == [3.25, 8.0, 18.0, 24.0]
