"""Adaptive initial-value integration with dense output.

A thin driver around an embedded Runge-Kutta 5(4) stepper (Dormand-Prince,
via scipy) that collects the per-step interpolants into one continuously
queryable solution and converts step-size underflow or step-budget
exhaustion into a structured failure carrying the last valid state.  The
failure payload is what lets callers diagnose trajectories that grind to a
halt, e.g. the legacy velocity law approaching a classical turning point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntegratorSettings",
    "DenseSolution",
    "IntegrationFailure",
    "integrate_ivp",
]

_CONTROL_MARGIN = 50.0


@dataclass(frozen=True)
class IntegratorSettings:
    """Tolerances and budgets for adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    max_steps: int = 1_000_000

    def validate(self) -> None:
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if not self.max_steps > 0:
            raise ValueError("max_steps must be positive")


class DenseSolution:
    """Piecewise polynomial interpolant of an integrated trajectory.

    Calling the object with a time inside the covered span returns the state
    vector there; an array of times returns a (len(t), dim) array, each
    step's interpolant evaluated once on all the times that fall in it.
    """

    def __init__(self, t0: float, t1: float, breakpoints, segments, y_end):
        self.t0 = t0
        self.t1 = t1
        self._breaks = np.asarray(breakpoints)  # right edges of the segments
        self._segments = segments
        self.y_end = np.asarray(y_end)

    @property
    def n_steps(self) -> int:
        return len(self._segments)

    def __call__(self, t):
        ts = np.asarray(t, dtype=float)
        flat = ts.reshape(-1)
        lo, hi = min(self.t0, self.t1), max(self.t0, self.t1)
        outside = ~((lo - 1e-12 <= flat) & (flat <= hi + 1e-12))
        if outside.any():
            raise ValueError(f"time {flat[outside][0]} outside integrated "
                             f"span [{lo}, {hi}]")
        idx = np.minimum(np.searchsorted(self._breaks, flat, side="left"),
                         len(self._segments) - 1)
        out = np.empty((flat.size, self.y_end.size))
        for k in np.unique(idx):
            sel = idx == k
            out[sel] = self._segments[k](flat[sel]).T
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


def integrate_ivp(rhs, y0, t_span, settings: IntegratorSettings | None = None) -> DenseSolution:
    """Integrate dy/dt = rhs(t, y) over t_span with dense output.

    The local error per step is controlled by ``settings.rel_tol`` /
    ``settings.abs_tol``; the returned solution interpolates between steps
    with the stepper's own quartic interpolant.
    """
    from scipy.integrate import RK45  # deferred: scipy is slow to import

    settings = settings or IntegratorSettings()
    settings.validate()
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))

    # The embedded pair's controlled quantity is the local error estimate;
    # secular accumulation over long spans lands near 150x the tolerance on
    # oscillatory problems.  Driving the controller a fixed factor below the
    # requested tolerance keeps global drift within a small multiple of it.
    rtol = max(settings.rel_tol / _CONTROL_MARGIN, 2.5e-14)
    atol = settings.abs_tol / _CONTROL_MARGIN
    stepper = RK45(
        rhs,
        t0,
        y0,
        t_bound=t1,
        rtol=rtol,
        atol=atol,
        max_step=settings.max_step,
    )
    breaks: list[float] = []
    segments = []

    def partial() -> DenseSolution | None:
        if not segments:
            return None
        return DenseSolution(t0, breaks[-1], breaks, segments, stepper.y)

    n = 0
    try:
        while stepper.status == "running":
            if n >= settings.max_steps:
                raise IntegrationFailure(
                    f"step budget of {settings.max_steps} exhausted at "
                    f"t = {stepper.t}",
                    stepper.t,
                    stepper.y,
                    partial(),
                )
            stepper.step()
            n += 1
            if stepper.status == "failed":
                raise IntegrationFailure(
                    f"step size underflow at t = {stepper.t}",
                    stepper.t,
                    stepper.y,
                    partial(),
                )
            segments.append(stepper.dense_output())
            breaks.append(stepper.t)
    finally:
        # the stepper's closures over itself form a reference cycle that
        # would keep rhs, and everything rhs holds (such as a solution pair),
        # alive until the next cyclic garbage collection
        stepper.fun = stepper.fun_vectorized = None

    return DenseSolution(t0, t1, breaks, segments, stepper.y)
