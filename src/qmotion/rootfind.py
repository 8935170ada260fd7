"""Bracketed scalar root finding for inverting monotone maps.

``invert_monotone`` is plain bisection, run until the bracket's ends are
adjacent floats: every iterate stays inside the current sign-change
bracket, so it converges for any continuous function with a sign change,
and the answer is the better of the two floats that straddle the root.
There is no secant step and no residual stopping rule, so there is no
tolerance to choose; it solves the legacy law's V = E in the cell where
its clock meets a turning point.  ``newton`` solves many monotone maps at
once, elementwise over arrays, by Newton steps kept inside each bracket:
the trajectory laws' positions, and the newton law's distances, at their
sample times.
"""
from __future__ import annotations

import numpy as np

__all__ = ["BracketError", "RootConvergenceError", "invert_monotone", "newton"]


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


def newton(target, elapsed, step, v, lo, hi, tol, max_steps: int):
    """Solve elapsed(v) = target in the brackets [lo, hi] elementwise by
    Newton steps ``step(target - elapsed(v), v)``, bisecting where one does
    not land strictly inside (the last steps meet rounding noise), until the
    step or bracket is below ``tol``.  An element stops changing once it
    converges, so each one's iterates do not depend on the others.  Returns
    v and the mask of elements still open after ``max_steps`` steps."""
    open_ = np.ones(v.shape, dtype=bool)
    for _ in range(max_steps):
        dv = step(target - elapsed(v), v)
        lo, hi = np.where(dv > 0, v, lo), np.where(dv < 0, v, hi)
        new = v + dv
        small = np.abs(dv) <= tol
        new = np.where(small | ((lo < new) & (new < hi)),
                       np.clip(new, lo, hi), 0.5 * (lo + hi))
        v = np.where(open_, new, v)
        open_ &= ~(small | (hi - lo <= tol))
        if not open_.any():
            break
    return v, open_
