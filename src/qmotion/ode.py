"""Adaptive initial-value integration with dense output.

An embedded Runge-Kutta 5(4) stepper (Dormand-Prince) that needs only
numpy.  Its tableau, initial step, error norm and step-size controller are
those of scipy's RK45 (Hairer, Norsett and Wanner, *Solving ODEs I*, sec.
II.4), and its stage sums are formed on the same array shapes, so it takes
the same steps; the step control runs on Python floats.  The accepted
steps' stages are kept and turned into one continuously queryable solution
by the pair's own quartic interpolant (sec. II.6).  Step-size underflow, a
non-finite initial derivative and step-budget exhaustion become a
structured failure carrying the last valid state.  The failure payload is
what lets callers diagnose trajectories that grind to a halt, e.g. the
legacy velocity law approaching a classical turning point.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorSettings",
    "DenseSolution",
    "IntegrationFailure",
    "integrate_ivp",
]

_CONTROL_MARGIN = 50.0

# Dormand-Prince 5(4) as in scipy's RK45: stage nodes C, stage weights A,
# fifth-order weights B (stage 7 sits at the new state, so it is the next
# step's first: FSAL), error weights E (fifth- minus fourth-order) and the
# quartic dense-output matrix P, one row per stage
_C = (0.0, 1/5, 3/10, 4/5, 8/9, 1.0)
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])

# step-size controller: the error estimate is of order 4, so the step
# scales as error**(-1/5)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EXPONENT = -1 / 5


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and budgets for adaptive integration, checked when built."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")


class DenseSolution:
    """Piecewise quartic interpolant of an integrated trajectory.

    Built from the step edges ``ts`` (m + 1 times), the states there ``ys``
    (m + 1 rows) and the seven stages of each of the m steps.  Calling the
    object with a time inside the covered span returns the state vector
    there; an array of times returns a (len(t), dim) array, evaluated in
    one pass over all the times.
    """

    def __init__(self, ts, ys, stages):
        self._ts = np.array(ts, dtype=float)
        m = self._ts.size - 1
        ys = np.array(ys, dtype=float).reshape(m + 1, -1)
        self.t0, self.t1 = float(self._ts[0]), float(self._ts[-1])
        self._h = np.diff(self._ts)
        self._y = ys[:-1]
        self.y_end = ys[-1]
        # Q = K^T P of every step, stored as (power, step, component)
        k = np.asarray(stages, dtype=float).reshape(m, 7, -1)
        self._q = np.einsum("skn,kp->psn", k, _P)

    @property
    def n_steps(self) -> int:
        return self._h.size

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
        h = self._h[k]
        x = ((flat - self._ts[k]) / h)[:, None]
        x2 = x * x
        x3 = x2 * x
        q = self._q[:, k]
        out = (h[:, None] * (q[0] * x + q[1] * x2 + q[2] * x3 + q[3] * (x3 * x))
               + self._y[k])
        return out[0] if ts.ndim == 0 else out


class IntegrationFailure(RuntimeError):
    """Integration stopped before reaching the end of the span.

    Attributes carry the last accepted time and state plus the dense
    solution over the portion that was completed.
    """

    def __init__(self, reason: str, t_last: float, y_last, partial: DenseSolution | None):
        super().__init__(reason)
        self.reason = reason
        self.t_last = t_last
        self.y_last = np.asarray(y_last)
        self.partial = partial

    def __reduce__(self):
        # rebuilt from the constructor arguments when it crosses a process
        # boundary; the partial solution stays behind
        return type(self), (self.reason, self.t_last, self.y_last, None)


def _rms(v) -> float:
    """Root mean square of a vector, formed as scipy's RK45 forms it."""
    return math.sqrt(v.dot(v)) / v.size ** 0.5


def _initial_step(fun, t0, y0, f0, span, max_step, rtol, atol) -> float:
    """The first step size, by the rule of sec. II.4 as scipy applies it."""
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    d = max(d1, d2)  # d1 when d2 is NaN, as in scipy
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        # d = 0 when f0 = 0 and f1 is NaN; scipy's 0.01/d is then inf
        h1 = (0.01 / d) ** (1 / 5) if d > 0 else math.inf
    return min(100 * h0, h1, span, max_step)


def integrate_ivp(rhs, y0, t_span, settings: IntegratorSettings | None = None,
                  stop=None) -> DenseSolution:
    """Integrate dy/dt = rhs(t, y) over t_span with dense output.

    ``rhs`` gets the state as a 1-d float array and returns a sequence of
    its derivatives.  The local error per step is controlled by
    ``settings.rel_tol`` / ``settings.abs_tol``; the returned solution
    interpolates between steps with the stepper's own quartic interpolant.
    ``rhs`` is called twice for the initial step, then six times per
    attempted step.  ``stop(y)``, when given, is asked after each accepted
    step; once it holds, the solution ends at that step (its ``t1`` falls
    short of t_span's end).
    """
    settings = settings or IntegratorSettings()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.array(y0, dtype=float, ndmin=1)
    if y.ndim != 1 or not np.isfinite(y).all():
        raise ValueError("the initial state must be a finite 1-d vector")

    # The embedded pair's controlled quantity is the local error estimate;
    # secular accumulation over long spans lands near 150x the tolerance on
    # oscillatory problems.  Driving the controller a fixed factor below the
    # requested tolerance keeps global drift within a small multiple of it.
    rtol = max(settings.rel_tol / _CONTROL_MARGIN, 2.5e-14)
    atol = settings.abs_tol / _CONTROL_MARGIN
    max_step, max_steps = settings.max_step, settings.max_steps

    def fun(t, y):
        return np.asarray(rhs(t, y), dtype=float)

    f = fun(t0, y)
    if not np.isfinite(f).all():
        raise IntegrationFailure(f"non-finite derivative at t = {t0}", t0, y,
                                 None)
    h_abs = _initial_step(fun, t0, y, f, t1 - t0, max_step, rtol, atol)

    # The stages of the step being tried, one row each.  The dot products
    # over them are formed on the same array shapes as scipy's, so they
    # round alike: the error estimate is a cancellation, and a different
    # summation order would move every step size.
    K = np.empty((7, y.size))
    stage_inputs = [(s, K[:s].T, _A[s, :s], _C[s]) for s in range(1, 6)]
    k_b, k_e = K[:-1].T, K.T
    ts, ys, stages = array("d", [t0]), array("d", y.tobytes()), array("d")

    def fail(reason: str) -> IntegrationFailure:
        partial = DenseSolution(ts, ys, stages) if len(ts) > 1 else None
        return IntegrationFailure(f"{reason} at t = {t}", t, y, partial)

    t = t0
    while t < t1:
        if len(ts) > max_steps:
            raise fail(f"step budget of {max_steps} exhausted")
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        if h_abs > max_step:
            h_abs = max_step
        elif h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # a NaN step fails this test too
                raise fail("step size underflow")
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            K[0] = f
            for s, k, a, c in stage_inputs:
                K[s] = fun(t + c * h, y + k.dot(a) * h)
            y_new = y + h * k_b.dot(_B)
            f_new = K[6] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(k_e.dot(_E) * h / scale)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        stages.frombytes(K.tobytes())
        ts.append(t_new)
        ys.frombytes(y_new.tobytes())
        t, y, f = t_new, y_new, f_new
        if stop is not None and stop(y):
            break
    return DenseSolution(ts, ys, stages)
