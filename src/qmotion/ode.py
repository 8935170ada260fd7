"""Taylor-series integration of x^(n) = f(x, x', ..., x^(n-1)) with dense
output: each step is a polynomial of degree ``ORDER`` whose coefficients
the caller's recurrence gives (Griewank and Walther, *Evaluating
Derivatives*, ch. 13), half as long as the radius that its last two
coefficients give (Jorba and Zou, *Experimental Mathematics* 14, 2005).
A step's end state, its wall crossing and the dense output are that
polynomial summed by ``jets._horner``, the package's one Taylor sum.
"""
from __future__ import annotations

import math

import numpy as np

from .jets import _horner
from .rootfind import invert_monotone

__all__ = [
    "DenseSolution",
    "IntegrationFailure",
    "integrate_ivp",
]

# degree of every step's polynomial
ORDER = 24
# the share of the estimated step that is taken: the estimate from two
# coefficients can be far off, and the full step lets the error grow
_STEP_SHARE = 0.5
# the step rule's tolerances and a run's step budget (``integrate_ivp``)
REL_TOL = 1e-10
ABS_TOL = 1e-12
MAX_STEPS = 1_000_000
# component d's degree-(k - d) coefficient is a_k k!/(k - d)!: for each d,
# the step rule's k, k!/(k - d)! and 1/(k - d) for the last two k
_RULE = [[(k, math.perm(k, d), 1.0 / (k - d)) for k in (ORDER - 1, ORDER)]
         for d in range(ORDER - 1)]


class DenseSolution:
    """The steps' edges and polynomials; called with a time, or an array of
    times, it returns the state (x, ..., x^(n-1)) there, in one pass."""

    def __init__(self, ts, coeffs, y_end):
        self._ts = np.array(ts, dtype=float)
        self._a = np.array(coeffs, dtype=float)
        self.t0, self.t1 = float(self._ts[0]), float(self._ts[-1])
        self.y_end = np.array(y_end, dtype=float)

    @property
    def n_steps(self) -> int:
        return len(self._a)

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        outside = ~((self.t0 - 1e-12 <= flat) & (flat <= self.t1 + 1e-12))
        if outside.any():
            raise ValueError(f"time {flat[outside][0]} outside integrated "
                             f"span [{self.t0}, {self.t1}]")
        # the step whose right edge is the first at or after each time
        k = np.minimum(np.searchsorted(self._ts[1:], flat, side="left"),
                       self.n_steps - 1)
        out = np.array(_horner(self._a[k].T, flat - self._ts[k],
                               self.y_end.size)).T
        return out[0] if ts.ndim == 0 else out


class IntegrationFailure(RuntimeError):
    """Integration stopped before reaching the end of the span."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def integrate_ivp(series, y0, t_span, stop=None) -> DenseSolution:
    """Integrate x^(n) = f(x, ..., x^(n-1)) over t_span from y0 = (x, ...,
    x^(n-1)), with dense output.

    ``series(t, y, order)``, called once per step, returns the coefficients
    x^(k)(t)/k!, k = 0..order, and the x at which they stop holding (a
    ``wall``, or None): a step that would pass it ends on it.  A step keeps
    the last two terms of each component y_d below ABS_TOL + REL_TOL*|y_d|,
    and a run fails after MAX_STEPS steps.  ``stop(y)``, when given, is
    asked after each step; once it holds, the solution ends there.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = [float(v) for v in np.ravel(y0)]
    if not y or not all(map(math.isfinite, y)):
        raise ValueError("the initial state must be a finite 1-d vector")
    ts, steps, t = [t0], [], t0
    while t < t1:
        if len(steps) >= MAX_STEPS:
            raise IntegrationFailure(f"step budget of {MAX_STEPS} "
                                     f"exhausted at t = {t}")
        a, wall = series(t, y, ORDER)
        if not all(map(math.isfinite, a)):
            raise IntegrationFailure(f"non-finite derivative at t = {t}")
        h = min([t1 - t] + [
            _STEP_SHARE * ((ABS_TOL + REL_TOL * abs(v)) / (abs(a[k]) * f)) ** e
            for v, rule in zip(y, _RULE) for k, f, e in rule if a[k]])
        x_of = lambda tau: _horner(a, tau, 1)[0]
        walled = wall is not None and (x_of(h) - wall) * (wall - a[0]) >= 0
        if walled:
            h = invert_monotone(x_of, wall, (0.0, h))
        t_new = t1 if h == t1 - t else t + h
        if not t_new > t:
            raise IntegrationFailure(f"step size underflow at t = {t}")
        y = _horner(a, h, len(y))
        if walled:
            y[0] = wall
        ts.append(t_new)
        steps.append(a)
        t = t_new
        if stop is not None and stop(y):
            break
    return DenseSolution(ts, steps, y)
