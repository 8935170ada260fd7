"""Truncated Taylor jets with raw-derivative storage.

A jet of order m carries the values (f, f', f'', ..., f^(m)) of a smooth
function at a single point.  Coefficients are stored as *raw derivatives*,
and products and quotients work on them directly: a product by the Leibniz
rule (fg)^(k) = sum_j C(k, j) f^(j) g^(k-j), a quotient by the recurrence
that rule gives for v = u/w, v^(k) = (u^(k) - sum_{j<k} C(k, j) v^(j)
w^(k-j)) / w, both weighted by one table of binomial rows.  This is the
module's one jet arithmetic: the time jet of a flow dx/dt = g(x)
(`flow_jet`) is formed from the rate's spatial jet by the chain rule d/dt
= g d/dx, with these products alone.  Coefficient entries may be floats
or numpy arrays of a common shape, so the same recurrences serve scalar
evaluation and batched evaluation over many sample points.

The module also provides a forward-mode perturbation (`Dual`) layered on
top of jets, used to extract partial derivatives of black-box scalar
functions along a trajectory jet; a perturbation whose coefficients are
vectors carries one channel per entry, so one evaluation yields several
partials.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "Jet",
    "Dual",
    "JetError",
    "JetOrderError",
    "JetDomainError",
    "SingularityError",
    "flow_jet",
]

_FACT = [math.factorial(k) for k in range(32)]
# binomial rows C(k, 0) .. C(k, k): the Leibniz weights of products and
# quotients
_BINOM = [[math.comb(k, j) for j in range(k + 1)] for k in range(32)]


class JetError(ValueError):
    """Malformed jet or invalid jet operation."""


class JetOrderError(JetError):
    """A jet's order is too low for the requested operation (extending by
    truncation, too few outer derivatives)."""


class JetDomainError(JetError):
    """Operation left its mathematical domain (division by a jet with zero
    value)."""


class SingularityError(ZeroDivisionError):
    """A state component sits on the singular locus (xd = 0, or xdd = 0
    while a negative xdd power is required)."""


def _is_scalar(v) -> bool:
    # float first: it is the common case, and the Number check is slower
    return isinstance(v, (float, np.ndarray, np.generic, numbers.Number))


class Jet:
    """Raw-derivative truncated Taylor jet.

    ``coeffs[k]`` is the k-th derivative of the represented function at the
    expansion point.  Binary arithmetic between jets of unequal order
    truncates to the smaller order; plain numbers promote to constant jets.
    """

    __slots__ = ("coeffs",)
    # numpy operands hand binary operations to the jet's reflected methods,
    # so ndarray * Jet is a jet with array coefficients, not an object array
    __array_ufunc__ = None

    def __init__(self, coeffs):
        cs = tuple(coeffs)
        if not cs:
            raise JetError("a jet needs at least the order-0 coefficient")
        self.coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        if order < 0:
            raise JetError("jet order must be >= 0")
        zero = value * 0
        return cls((value,) + (zero,) * order)

    @classmethod
    def variable(cls, value, order: int) -> "Jet":
        """Jet of the identity function: value, slope 1, rest 0."""
        if order < 1:
            raise JetError("a variable jet needs order >= 1")
        zero = value * 0
        one = zero + 1
        return cls((value, one) + (zero,) * (order - 1))

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self):
        return self.coeffs[0]

    def truncated(self, order: int) -> "Jet":
        """The jet cut to ``order``; ``self`` when it has that order (jets
        are immutable, so no copy is needed)."""
        m = len(self.coeffs) - 1
        if order > m:
            raise JetOrderError("cannot extend a jet by truncation")
        return self if order == m else Jet(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return f"Jet({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            m = min(len(self.coeffs), len(other.coeffs)) - 1
            return self.truncated(m), other.truncated(m)
        if _is_scalar(other):
            return self, Jet.constant(other, self.order)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Jet(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Jet(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Jet(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if _is_scalar(other):
                return Jet(tuple(c * other for c in self.coeffs))
            return NotImplemented
        u, w = (j.coeffs for j in self._coerce(other))
        out = []
        for k, row in enumerate(_BINOM[:len(u)]):
            # from the integer 0, as sum() does, so a -0.0 total is +0.0
            acc = 0
            for j, c in enumerate(row):
                t = u[j] * w[k - j]
                acc = acc + (t if c == 1 else c * t)
            out.append(acc)
        return Jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            if _is_scalar(other):
                return Jet(tuple(c / other for c in self.coeffs))
            return NotImplemented
        a, b = self._coerce(other)
        return a._div(b)

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return Jet.constant(other, self.order)._div(self)
        return NotImplemented

    def _div(self, w: "Jet") -> "Jet":
        _check_nonzero(w.value, "division by a jet with zero value")
        u, w = self.coeffs, w.coeffs
        v = [u[0] / w[0]]
        for k in range(1, len(u)):
            row = _BINOM[k]
            acc = u[k]
            for j in range(k):
                t = v[j] * w[k - j]
                acc = acc - (t if row[j] == 1 else row[j] * t)
            v.append(acc / w[0])
        return Jet(v)

    def __pow__(self, p):
        if not isinstance(p, numbers.Integral):
            return NotImplemented
        n = int(p)
        if n == 0:
            return Jet.constant(self.value * 0 + 1.0, self.order)
        return _power(1.0 / self if n < 0 else self, abs(n))


def _power(base, n: int):
    """base**n for an integer n >= 1 by binary exponentiation, alike for a
    Jet, a float or an array, so a float gets the bits of an array entry."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return out


def _check_nonzero(v, msg: str) -> None:
    if (np.asarray(v) == 0).any():
        raise JetDomainError(msg)


def _horner(a, tau, n: int) -> list:
    """f, f', ..., f^(n-1) at offsets tau of the polynomials whose Taylor
    coefficients f^(k)/k!, lowest first, run along the first axis of ``a``:
    Horner's rule from the top coefficient, run for the value and its
    Taylor shifts together, each shift updated before the one below it;
    the value alone (n = 1), the most frequent call, takes a plain loop.
    It is the package's one Taylor sum, for the solution pair and its
    march (``schrodinger``) and for the integrator's steps (``ode``)."""
    if n == 1:
        acc = a[-1]
        for c in a[-2::-1]:
            acc = acc * tau + c
        return [acc]
    vals = [a[-1]] + [0.0] * (n - 1)
    for c in a[-2::-1]:
        for d in range(n - 1, 0, -1):
            vals[d] = vals[d] * tau + vals[d - 1]
        vals[0] = vals[0] * tau + c
    return vals[:2] + [v * _FACT[d] for d, v in enumerate(vals[2:], 2)]


def _inverse(d1, d2, d3):
    """The first three derivatives of a function's inverse from its own
    d1 != 0, d2 and d3: floats, or arrays under the caller's errstate."""
    r = 1.0 / d1
    return r, -d2 * r ** 3, (3.0 * d2 * d2 - d1 * d3) * r ** 5


# -- autonomous flows --------------------------------------------------


def flow_jet(g_derivs, x0, order: int) -> Jet:
    """Time jet of the solution of dx/dt = g(x) with x(0) = x0.

    ``g_derivs`` lists the spatial derivatives g, g', ..., g^(order-1)
    evaluated at x0.  The returned jet has the requested order, with
    coefficient k equal to d^k x/dt^k at t = 0.  By the chain rule d/dt =
    g d/dx, x^(k) is the value of F_k, with F_1 = g and F_{k+1} = g F_k',
    each F_k a spatial jet at x0 one order shorter than the last.
    """
    if order < 1:
        raise JetError("flow jet order must be >= 1")
    if len(g_derivs) < order:
        raise JetOrderError(
            f"need {order} spatial derivatives of the rate, got {len(g_derivs)}"
        )
    f = g = Jet(g_derivs[:order])
    out = [x0, f.value]
    for _ in range(order - 1):
        f = g * Jet(f.coeffs[1:])
        out.append(f.value)
    return Jet(out)


class Dual:
    """Value plus an infinitesimal perturbation (eps^2 = 0).

    Both components may be plain numbers or jets; arithmetic follows the
    usual forward-mode rules, so evaluating a generic scalar expression with
    a unit epsilon in one slot yields the partial derivative with respect to
    that slot alongside the primal value.  With vector perturbations (unit
    vector s in slot s) one evaluation yields every slot's partial, one per
    vector entry.
    """

    __slots__ = ("re", "du")

    def __init__(self, re, du):
        self.re = re
        self.du = du

    def __repr__(self) -> str:
        return f"Dual({self.re!r}, {self.du!r})"

    def _split(self, other):
        if isinstance(other, Dual):
            return other.re, other.du
        return other, 0.0

    def __add__(self, other):
        re, du = self._split(other)
        return Dual(self.re + re, self.du + du)

    __radd__ = __add__

    def __sub__(self, other):
        re, du = self._split(other)
        return Dual(self.re - re, self.du - du)

    def __rsub__(self, other):
        re, du = self._split(other)
        return Dual(re - self.re, du - self.du)

    def __neg__(self):
        return Dual(-self.re, -self.du)

    def __mul__(self, other):
        re, du = self._split(other)
        return Dual(self.re * re, self.du * re + self.re * du)

    __rmul__ = __mul__

    def __truediv__(self, other):
        re, du = self._split(other)
        val = self.re / re
        return Dual(val, (self.du - val * du) / re)

    def __rtruediv__(self, other):
        re, du = self._split(other)
        val = re / self.re
        return Dual(val, (du - val * self.du) / self.re)

    def __pow__(self, p):
        if not isinstance(p, numbers.Integral):
            return NotImplemented
        n = int(p)
        if n == 0:
            return Dual(self.re * 0 + 1.0, self.du * 0)
        return Dual(self.re**n, n * self.re ** (n - 1) * self.du)
