"""Bracketed scalar root finding for inverting monotone maps.

The solver is plain bisection, run until the bracket's ends are adjacent
floats: every iterate stays inside the current sign-change bracket, so it
converges for any continuous function with a sign change, and the answer is
the better of the two floats that straddle the root.  There is no secant
step and no residual stopping rule, so there is no tolerance to choose.
"""
from __future__ import annotations

import numpy as np

__all__ = ["BracketError", "RootConvergenceError", "invert_monotone", "expand_bracket"]

# geometric widening of expand_bracket: factor per try, and tries
_GROW = 2.0
_MAX_EXPANSIONS = 60


class BracketError(ValueError):
    """The supplied interval does not bracket the target value."""


class RootConvergenceError(RuntimeError):
    """An iterative root search did not converge within its step budget."""


def invert_monotone(f, target: float, bracket) -> float:
    """Solve f(x) = target for x inside a bracketing interval.

    Bisects until the bracket's ends are adjacent floats and returns the
    end with the smaller |f(x) - target|, or a point where f hits target
    exactly.  The function need only be continuous with a sign change of
    f - target across the bracket; monotonicity makes the root unique but
    is not verified.
    """
    a, b = float(bracket[0]), float(bracket[1])
    if not b > a:
        raise BracketError(f"empty bracket ({a}, {b})")
    fa = f(a) - target
    fb = f(b) - target
    if fa == 0:
        return a
    if fb == 0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise BracketError(
            f"no sign change over ({a}, {b}): f-target = ({fa:.3e}, {fb:.3e})"
        )
    while True:
        mid = 0.5 * (a + b)
        if mid in (a, b):
            return a if abs(fa) <= abs(fb) else b
        fm = f(mid) - target
        if fm == 0:
            return mid
        if np.sign(fm) == np.sign(fa):
            a, fa = mid, fm
        else:
            b, fb = mid, fm


def expand_bracket(f, target: float, start: float, step: float):
    """Geometrically widen an interval from ``start`` until it brackets target.

    Searches in the direction of ``step`` (sign included), doubling the
    step up to 60 times.  Returns the bracketing pair (a, b) with a < b,
    or raises BracketError.
    """
    if step == 0:
        raise ValueError("step must be nonzero")
    a = start
    fa = f(a) - target
    if fa == 0:
        return (a, a + abs(step) * 1e-9) if step > 0 else (a - abs(step) * 1e-9, a)
    h = step
    for _ in range(_MAX_EXPANSIONS):
        b = a + h
        fb = f(b) - target
        if np.sign(fb) != np.sign(fa):
            return (a, b) if b > a else (b, a)
        h *= _GROW
    raise BracketError(
        f"no sign change found from {start} in direction {np.sign(step):+.0f} "
        f"after {_MAX_EXPANSIONS} expansions"
    )
