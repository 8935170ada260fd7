"""Truncated Taylor jets with raw-derivative storage.

A jet of order m carries the values (f, f', f'', ..., f^(m)) of a smooth
function at a single point.  Coefficients are stored as *raw derivatives*;
the factorial weights of the Taylor form are applied inside each operation.
Coefficient entries may be floats, complex numbers, or numpy arrays of a
common shape, so the same recurrences serve scalar evaluation and batched
evaluation over many sample points.

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
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "atan",
    "compose",
    "flow_jet",
]

_FACT = [math.factorial(k) for k in range(32)]


class JetError(ValueError):
    """Malformed jet or invalid jet operation."""


class JetOrderError(JetError):
    """A jet's order is too low for the requested operation (differentiating
    an order-0 jet, extending by truncation, too few outer derivatives)."""


class JetDomainError(JetError):
    """Operation left its mathematical domain (division by zero jet, log of
    a non-positive value, ...)."""


class SingularityError(ZeroDivisionError):
    """A state component sits on the singular locus (xd = 0, or xdd = 0
    while a negative xdd power is required)."""


def _is_scalar(v) -> bool:
    return isinstance(v, (numbers.Number, np.ndarray, np.generic))


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

    def taylor(self, m: int):
        """Taylor coefficient f^(m)/m!."""
        return self.coeffs[m] / _FACT[m]

    def derivative(self) -> "Jet":
        """Jet of the derivative function (order drops by one)."""
        if self.order == 0:
            raise JetOrderError("cannot differentiate an order-0 jet")
        return Jet(self.coeffs[1:])

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise JetOrderError("cannot extend a jet by truncation")
        return Jet(self.coeffs[: order + 1])

    def __repr__(self) -> str:
        return f"Jet({list(self.coeffs)!r})"

    # -- Taylor-form helpers ------------------------------------------

    def _tay(self):
        return [c / _FACT[k] for k, c in enumerate(self.coeffs)]

    @staticmethod
    def _from_tay(tay) -> "Jet":
        return Jet(tuple(c * _FACT[k] for k, c in enumerate(tay)))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            m = min(self.order, other.order)
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
        if _is_scalar(other):
            return Jet(tuple(c * other for c in self.coeffs))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        u, w = a._tay(), b._tay()
        out = [sum(u[j] * w[k - j] for j in range(k + 1)) for k in range(len(u))]
        return Jet._from_tay(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if _is_scalar(other):
            return Jet(tuple(c / other for c in self.coeffs))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._div(b)

    def __rtruediv__(self, other):
        if _is_scalar(other):
            return Jet.constant(other, self.order)._div(self)
        return NotImplemented

    def _div(self, w: "Jet") -> "Jet":
        _check_nonzero(w.value, "division by a jet with zero value")
        u, wt = self._tay(), w._tay()
        v = [u[0] / wt[0]]
        for k in range(1, len(u)):
            acc = u[k]
            for j in range(k):
                acc = acc - v[j] * wt[k - j]
            v.append(acc / wt[0])
        return Jet._from_tay(v)

    def __pow__(self, p):
        if isinstance(p, numbers.Integral):
            n = int(p)
            if n == 0:
                return Jet.constant(self.value * 0 + 1.0, self.order)
            if n < 0:
                return (1.0 / self) ** (-n)
            out = None
            base = self
            while n:
                if n & 1:
                    out = base if out is None else out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        if isinstance(p, numbers.Real):
            return exp(p * log(self))
        return NotImplemented


def _check_nonzero(v, msg: str) -> None:
    bad = np.any(np.asarray(v) == 0)
    if bad:
        raise JetDomainError(msg)


def _check_positive(v, msg: str) -> None:
    arr = np.asarray(v)
    if np.iscomplexobj(arr):
        _check_nonzero(v, msg)
        return
    if np.any(arr <= 0):
        raise JetDomainError(msg)


# -- elementary functions (generic over Jet / Dual / plain numerics) ---


def sin(u):
    if isinstance(u, Jet):
        s, _ = _sincos(u)
        return s
    if isinstance(u, Dual):
        return Dual(sin(u.re), cos(u.re) * u.du)
    return np.sin(u)


def cos(u):
    if isinstance(u, Jet):
        _, c = _sincos(u)
        return c
    if isinstance(u, Dual):
        return Dual(cos(u.re), -sin(u.re) * u.du)
    return np.cos(u)


def _sincos(u: Jet):
    ut = u._tay()
    m = len(ut)
    s = [np.sin(ut[0])]
    c = [np.cos(ut[0])]
    for k in range(1, m):
        sk = sum(j * ut[j] * c[k - j] for j in range(1, k + 1)) / k
        ck = -sum(j * ut[j] * s[k - j] for j in range(1, k + 1)) / k
        s.append(sk)
        c.append(ck)
    return Jet._from_tay(s), Jet._from_tay(c)


def exp(u):
    if isinstance(u, Jet):
        ut = u._tay()
        v = [np.exp(ut[0])]
        for k in range(1, len(ut)):
            v.append(sum(j * ut[j] * v[k - j] for j in range(1, k + 1)) / k)
        return Jet._from_tay(v)
    if isinstance(u, Dual):
        e = exp(u.re)
        return Dual(e, e * u.du)
    return np.exp(u)


def log(u):
    if isinstance(u, Jet):
        _check_positive(u.value, "log of a jet with non-positive value")
        ut = u._tay()
        v = [np.log(ut[0])]
        for k in range(1, len(ut)):
            acc = k * ut[k]
            for j in range(1, k):
                acc = acc - j * v[j] * ut[k - j]
            v.append(acc / (k * ut[0]))
        return Jet._from_tay(v)
    if isinstance(u, Dual):
        return Dual(log(u.re), u.du / u.re)
    return np.log(u)


def sqrt(u):
    if isinstance(u, Jet):
        _check_positive(u.value, "sqrt of a jet with non-positive value")
        ut = u._tay()
        v = [np.sqrt(ut[0])]
        for k in range(1, len(ut)):
            acc = ut[k]
            for j in range(1, k):
                acc = acc - v[j] * v[k - j]
            v.append(acc / (2 * v[0]))
        return Jet._from_tay(v)
    if isinstance(u, Dual):
        r = sqrt(u.re)
        return Dual(r, u.du / (2 * r))
    return np.sqrt(u)


def atan(u):
    if isinstance(u, Jet):
        w = (1.0 / (1.0 + u * u))._tay()
        ut = u._tay()
        v = [np.arctan(ut[0])]
        for k in range(1, len(ut)):
            v.append(sum(j * ut[j] * w[k - j] for j in range(1, k + 1)) / k)
        return Jet._from_tay(v)
    if isinstance(u, Dual):
        return Dual(atan(u.re), u.du / (1.0 + u.re * u.re))
    return np.arctan(u)


# -- composition and autonomous flows ---------------------------------


def compose(g_derivs, u: Jet) -> Jet:
    """Jet of g(u(t)) from raw derivatives of g at the point u.value.

    ``g_derivs`` lists g, g', g'', ... evaluated at u.value; at least
    ``u.order + 1`` entries are used (extra entries are ignored).
    """
    m = u.order
    if len(g_derivs) < m + 1:
        raise JetOrderError(
            f"need {m + 1} derivatives of the outer function, got {len(g_derivs)}"
        )
    gt = [g_derivs[j] / _FACT[j] for j in range(m + 1)]
    w = u - u.value  # zero constant term
    acc = Jet.constant(gt[m] + 0.0 * u.value, m)
    for j in range(m - 1, -1, -1):
        acc = acc * w + gt[j]
    return acc


def flow_jet(g_derivs, x0, order: int) -> Jet:
    """Time jet of the solution of dx/dt = g(x) with x(0) = x0.

    ``g_derivs`` lists the spatial derivatives g, g', ..., g^(order-1)
    evaluated at x0.  The returned jet has the requested order, with
    coefficient k equal to d^k x/dt^k at t = 0.
    """
    if order < 1:
        raise JetError("flow jet order must be >= 1")
    if len(g_derivs) < order:
        raise JetOrderError(
            f"need {order} spatial derivatives of the rate, got {len(g_derivs)}"
        )
    tay = [x0]
    for m in range(order):
        xj = Jet._from_tay(tay)  # order m
        gj = compose(g_derivs[: m + 1], xj)
        tay.append(gj.taylor(m) / (m + 1))
    return Jet._from_tay(tay)


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
        if isinstance(p, numbers.Integral):
            n = int(p)
            if n == 0:
                return Dual(self.re * 0 + 1.0, self.du * 0)
            return Dual(self.re**n, n * self.re ** (n - 1) * self.du)
        if isinstance(p, numbers.Real):
            return Dual(self.re**p, p * self.re ** (p - 1.0) * self.du)
        return NotImplemented
