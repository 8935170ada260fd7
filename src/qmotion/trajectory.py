"""Quantum trajectories x(t) under the three candidate laws of motion.

The primary law is first order: mu dx/dt = dS0/dx, with the action gradient
supplied by a solution pair of the stationary wave equation.  Because the
gradient never vanishes, x(t) is strictly monotone and high-order time jets
of the motion follow from the spatial jets of dS0/dx by the chain rule --
that is how consistent initial data for the fourth-order form of the law is
produced, and how the closed-form observables (H, P, Q) are sampled
along a run.

Both first-order laws separate, t - t0 = integral of dx/(dx/dt): summed
over the pair's cells it gives t at every cell exit, and each sample is a
Newton solve of t(x) = t_k in its cell, so no ODE is solved for them.  A
grid pair is marched on demand (``schrodinger``), so the velocity law
sums each state's cells, marching the pair on, only until the state
passes t1; a state that runs out of cells first has reached the covered
domain's edge, at a time known before sampling.  The fourth-order law is
stepped by its own Taylor series (``ode``), and its steps march the pair
out as they go.

Sampling the velocity law is one array pass per batch of states (a, b)
on one pair: the positions at every sample time of every state are found
at once, and the spatial jets, the motion jets (``state_jet_from_x``,
``flow_jet``) and the observables are jets whose coefficients are arrays
with one row per state and one entry per sample.  A single run is the
batch of one.  The legacy law samples its one state the same way.

A sweep hands each energy's cells to ``state_maxima``, under any law: the
velocity law runs them as one batch, the other laws one at a time.

The legacy first-order law xd = 2(E - V)/S0' is kept for comparison; it
freezes at classical turning points, which integrate_legacy_law detects and
reports instead of treating as an integration failure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from operator import mul
from typing import NamedTuple

import numpy as np

from .jets import Jet, JetOrderError, SingularityError, flow_jet
from .ode import IntegrationFailure, integrate_ivp
from .reduced_action import QuantumStateParams, inverse_s0p, s0p, s0p_jet
from .rootfind import RootConvergenceError, expand_bracket, invert_monotone
from .schrodinger import (DomainError, PhysParams, PotentialModel,
                          SolutionPair, solve_pair)

__all__ = [
    "DomainEdgeError",
    "LegacyReport",
    "ObservableSet",
    "ScenarioConfig",
    "SingularObservables",
    "TrajectoryResult",
    "TrajectorySample",
    "VelocityFloorError",
    "integrate_legacy_law",
    "integrate_newton_law",
    "integrate_velocity_law",
    "observables",
    "run_scenario",
    "state_jet_from_x",
    "state_maxima",
    "summarize",
    "write_csv",
    "write_summary",
]

LAWS = ("velocity", "newton", "legacy")
_VELOCITY_FLOOR = 1e-12
# Newton steps allowed per sample of a first-order law; bisection inside a
# cell reaches rounding level in about 60
_NEWTON_STEPS = 100


class VelocityFloorError(RuntimeError):
    """|xd| fell below the floor that the theory forbids reaching."""

    def __init__(self, t: float, state):
        super().__init__(
            f"|xd| below {_VELOCITY_FLOOR:g} at t = {t:.6g} (state {state}); "
            "the law of motion excludes xd = 0, so this is a numerical abort")
        self.t = t
        self.state = tuple(state)

    def __reduce__(self):
        # rebuilt from the constructor arguments when it crosses a process
        # boundary; the state goes back as the array it was raised with, so
        # the message reads the same
        return type(self), (self.t, np.asarray(self.state))


class DomainEdgeError(DomainError):
    """A run reaches the edge of the pair's covered domain before the end
    of the time span.  ``partial`` holds the run's result for the samples
    up to the edge, with a note naming the edge and the time at which it
    is reached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial

    def __reduce__(self):
        # rebuilt from the message when it crosses a process boundary; the
        # partial result, which holds the pair, stays behind
        return type(self), (str(self), None)


class SingularObservables(SingularityError):
    """The observables are undefined at some samples: xd vanishes there, a
    power of xd under- or overflows, or a value is not finite.  ``partial``
    holds the observable set with NaN in those rows."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class TrajectorySample(NamedTuple):
    t: float
    x: float
    xdot: float
    xddot: float
    xdddot: float
    H: float
    P: float
    Q: float
    s0p: float


CSV_HEADER = ",".join(TrajectorySample._fields)


class ObservableSet(NamedTuple):
    H: float
    P: float
    Q: float


@dataclass
class ScenarioConfig:
    """One trajectory run: which law, over which span, from which state.

    ``domain``, two finite numbers lo < hi, bounds the wave-pair
    construction for numerically solved potentials; the free pair is
    closed-form and ignores it.  ``pair`` may be supplied prebuilt (it is
    cached after the first build either way).
    The field defaults are those of a config document that omits the key.
    """

    potential: PotentialModel
    params: PhysParams
    q: QuantumStateParams
    x_start: float = 0.0
    t_span: tuple = (0.0, 10.0)
    law: str = "velocity"
    samples: int = 256
    domain: tuple | None = None
    grid_step: float = 1e-3
    pair: SolutionPair | None = None

    def __post_init__(self):
        t0, t1 = self.t_span
        if not t1 > t0:
            raise ValueError(f"empty time span {self.t_span}")
        if self.law not in LAWS:
            raise ValueError(f"law must be one of {LAWS}, got {self.law!r}")
        if self.samples < 2:
            raise ValueError("need at least two output samples")
        if not math.isfinite(self.x_start):
            raise ValueError(f"x_start must be finite, got {self.x_start}")
        if not 0.0 < self.grid_step < math.inf:
            raise ValueError("grid_step must be finite and positive, "
                             f"got {self.grid_step}")
        dom = self.domain
        if dom is not None and not (len(dom) == 2 and dom[0] < dom[1]
                                    and all(map(math.isfinite, dom))):
            raise ValueError("domain must be two finite numbers lo < hi, "
                             f"got {list(dom)}")
        if self.potential.kind == "free" and not self.params.energy > 0:
            raise ValueError("the free pair needs positive energy")

    def build_pair(self) -> SolutionPair:
        if self.pair is None:
            dom = self.domain
            if dom is None:
                dom = (self.x_start - 10.0, self.x_start + 10.0)
            self.pair = solve_pair(self.potential, self.params, dom,
                                   grid_step=self.grid_step)
        if not self.pair.covers(self.x_start):
            lo, hi = self.pair.domain
            raise ValueError(
                f"x_start = {self.x_start} outside pair domain [{lo}, {hi}]")
        return self.pair


@dataclass
class LegacyReport:
    """Stall diagnostics for the legacy first-order law."""

    stalled: bool
    threshold: float
    t_stall: float | None = None
    x_stall: float | None = None
    x_turn: float | None = None
    velocity_gap: float = 0.0
    notes: list = field(default_factory=list)


@dataclass
class TrajectoryResult:
    """One run's samples.  The velocity law also keeps ``time_of_x``, its
    t(x)."""

    config: ScenarioConfig
    law: str
    samples: list
    notes: list = field(default_factory=list)
    time_of_x: _Clock | None = None

    def arrival_time(self, x_target: float) -> float:
        """First time at which x(t) reaches x_target, from the velocity
        law's t(x) (x is monotone under it, so the crossing is unique)."""
        if self.time_of_x is None:
            raise ValueError("arrival_time needs the velocity law's t(x); "
                             f"this run used the {self.law} law")
        return self.time_of_x(x_target)

    def columns(self) -> np.ndarray:
        return np.array([tuple(s) for s in self.samples])


# ---------------------------------------------------------------------------
# observables and chain-rule jets

def observables(j: Jet, params: PhysParams, potential=None) -> ObservableSet:
    """Closed-form (H, P, Q) at a motion jet of order >= 3.

    The jet's coefficients are floats, or arrays with one entry per sample.
    Q is the quantum potential -(hbar^2/4 mu)[(5/2) xdd^2/xd^4 - xddd/xd^3]
    and H = mu xd^2/2 + Q + V.  Rows where xd vanishes, a power of xd
    under- or overflows, or a value is not finite raise SingularObservables,
    whose ``partial`` carries NaN in those rows.
    """
    obs, singular = _observables(j, params, potential)
    if singular.any():
        raise SingularObservables(
            _singular_message(singular.sum(), singular.size), obs)
    return obs


def _observables(j: Jet, params: PhysParams, potential):
    """``observables`` with NaN in the singular rows, and their mask."""
    if j.order < 3:
        raise JetOrderError("observables need x..xdddot")
    xd, xdd, xddd = (np.asarray(c, dtype=float) for c in j.coeffs[1:4])
    mu = params.mu
    quart = params.hbar ** 2 / (4.0 * mu)
    if potential is None:
        V = 0.0
    else:
        V = np.asarray(potential.value(j.coeffs[0]), dtype=float)
    with np.errstate(all="ignore"):
        p3, p4, p5 = xd ** 3, xd ** 4, xd ** 5
        Q = -quart * (2.5 * xdd * xdd / p4 - xddd / p3)
        H = 0.5 * mu * xd * xd + Q + V
        P = mu * xd - quart * (2.0 * xdd * xdd / p5 - xddd / p4)
        # an overflowing power (xd**5 first) divides to a finite 0, so it
        # is flagged apart from the non-finite values
        singular = np.isinf(p5) | ~(np.isfinite(H) & np.isfinite(P))
    return ObservableSet(*(np.where(singular, np.nan, v)[()]
                           for v in (H, P, Q))), singular


def _singular_message(count: int, size: int) -> str:
    return (f"observables undefined at {int(count)} of {int(size)} samples "
            "(xd = 0, or its powers under- or overflow)")


def state_jet_from_x(pair: SolutionPair, q: QuantumStateParams,
                     params: PhysParams, x, order: int = 6) -> Jet:
    """Time jet (x, xd, xdd, ...) of the first-order law at position x, a
    float or an array of positions (then each coefficient is an array).

    With g(x) = dS0/dx / mu, the jet is the Taylor flow of xd = g(x), so
    every coefficient is exact given the spatial derivatives of the action
    gradient (which the wave equation supplies in closed recursion).
    """
    if not 1 <= order <= 6:
        raise ValueError("state jets support orders 1..6")
    sp = s0p_jet(pair, q, x, order - 1)
    g = [c / params.mu for c in sp.coeffs]
    return flow_jet(g, x, order)


def _samples(ts: np.ndarray, j: Jet, obs: ObservableSet, s0p_values) -> list:
    """One TrajectorySample of plain floats per sample time."""
    cols = (ts, *j.coeffs[:4], obs.H, obs.P, obs.Q, s0p_values)
    return [TrajectorySample(*row) for row in zip(*(c.tolist() for c in cols))]


def _pair_notes(pair: SolutionPair) -> list:
    note = pair.truncation_note()
    return [note] if note else []


# ---------------------------------------------------------------------------
# the three laws

class _States(NamedTuple):
    """A batch of S reduced actions, in the place of a QuantumStateParams:
    a and b of shape (S, 1), which ``reduced_action`` broadcasts against
    arrays of points with one row per state."""

    a: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, states) -> _States:
        return cls(np.array([[q.a] for q in states], dtype=float),
                   np.array([[q.b] for q in states], dtype=float))


class _Clock:
    """t(x) = t0 + integral of dx/(dx/dt) of a first-order law on one pair,
    for the states ``q`` (a _States of states that move the same way, or
    the legacy law's one QuantumStateParams), summed over the pair's cells
    (``SolutionPair.cells``) from x_start in the direction of motion
    ``step``: ``t_exit`` holds one row per state of the time at each cell
    exit, and inside a cell the time runs from its entry.  On a grid pair a
    row runs until the state passes t1, marching the pair on as far as
    that takes, and grows when t(x) is asked beyond it; a row that holds
    the covered domain's last cell reaches that edge at its entry of
    ``t_edge`` (inf for the other rows), and the edge's position is
    ``edge``.  The free pair's periods run on as far as ``t_span`` needs,
    so there the rows differ in length.  Three hooks carry the law, here
    the velocity law mu dx/dt = S0': ``_dx`` (dx/dt times a time lag),
    ``_entry_time`` (time from a cell's entry, from the squares'
    primitives) and ``_exit_times`` (each state's row, from the pair's cell
    integrals, a table kept on a grid pair).
    """

    def __init__(self, s: ScenarioConfig, step: int, q):
        pair, self.mu = s.pair, s.params.mu
        self.pair, self.q, self.t0, self.step = pair, q, s.t_span[0], step
        self.i0, self.s0 = pair.nearest_node(np.asarray(s.x_start, dtype=float))
        self.t_exit, self.at_edge = (list(v) for v in zip(
            *self._exit_times(s.t_span)))
        self.t_edge = np.array([self.t0 + float(t[-1]) if edge else math.inf
                                for t, edge in zip(self.t_exit, self.at_edge)])

    @property
    def edge(self) -> float:
        """The covered domain's edge in the direction of motion; reading it
        marches the whole pair."""
        return self.pair.domain[self.step > 0]

    def _dx(self, lag, x):
        return lag * s0p(self.pair, self.q, x) / self.mu

    def _entry_time(self, node, s_in):
        prim = self.pair.square_primitives(node)
        base = prim(s_in)
        return lambda s: self.mu * inverse_s0p(self.pair, self.q,
                                               prim(s) - base)

    def _exit_times(self, t_span):
        t0, t1 = t_span
        pair, mu, step = self.pair, self.mu, self.step
        starts = np.ravel(self._start_crossing()).tolist()
        self.states = [QuantumStateParams(a, b) for a, b in zip(
            np.ravel(self.q.a).tolist(), np.ravel(self.q.b).tolist())]
        for q, start in zip(self.states, starts):
            if pair.source != "analytic":
                yield self._sum_cells(
                    q, np.array([start]),
                    lambda t: t[-1] > t1 - t0 and t0 + t[-1] >= t1)
                continue
            period = mu * step * inverse_s0p(pair, q,
                                             pair.cell_integrals(self.i0))
            count = 1 + int((t1 - t0) // period)
            rest = pair.cell_integrals(
                self.i0 + step * np.arange(1, count + 1))
            crossings = (step * mu) * inverse_s0p(pair, q, rest)
            yield np.cumsum(np.concatenate([[start], crossings])), False

    def _sum_cells(self, q, t_exit, done):
        """Extend state q's row t_exit across the marched cells past it,
        marching the pair a chunk on when they run out, until done(t_exit)
        or the covered domain's last cell; returns the row and whether it
        holds that cell.  The times run on as one cumulative sum, so a row
        has the same bits however far it was taken at a time."""
        pair, step = self.pair, self.step
        while not done(t_exit):
            node = self.i0 + step * (t_exit.size - 1)
            if node == pair.outermost(step) and not pair.march(step):
                return t_exit, True
            end = pair.outermost(step)
            cells = (pair.cell_integrals(slice(node + 1, end + 1)) if step > 0
                     else pair.cell_integrals(slice(end, node))[:, ::-1])
            crossings = (step * self.mu) * inverse_s0p(pair, q, cells)
            more = np.cumsum(np.concatenate([t_exit[-1:], crossings]))
            t_exit = np.concatenate([t_exit, more[1:]])
        return t_exit, False

    def _cells(self, cell):
        """Node, entry and exit offsets of the run's cells (0 starts it)."""
        node = self.i0 + self.step * cell
        _, lo, hi = self.pair.cells(node)
        s_in, s_out = (lo, hi) if self.step > 0 else (hi, lo)
        return node, np.where(cell == 0, self.s0, s_in), s_out

    def _start_crossing(self):
        _, _, s_out = self._cells(np.asarray(0))
        return self._entry_time(self.i0, self.s0)(s_out)

    def __call__(self, x):
        """t at x, a float or an array of points on the path of a clock of
        one state."""
        xa = np.asarray(x, dtype=float)
        node, s = self.pair.nearest_node(xa)
        cell = self.step * (node - self.i0)
        on_path = np.all(self.pair.covers(xa)) and np.all(cell >= 0)
        (t_exit,), (at_edge,) = self.t_exit, self.at_edge
        if on_path and np.any(cell >= t_exit.size) and not at_edge and (
                self.pair.source != "analytic"):
            (state,), last = self.states, int(np.max(cell))
            t_exit, at_edge = self._sum_cells(state, t_exit,
                                              lambda t: t.size > last)
            self.t_exit[0], self.at_edge[0] = t_exit, at_edge
        if not on_path or np.any(cell >= t_exit.size):
            raise ValueError(f"x = {x} is not on the run's path")
        node, s_in, _ = self._cells(cell)
        t_in = np.where(cell > 0, t_exit[cell - 1], 0.0)
        # a one-state _States adds a leading axis of length 1
        tau = np.reshape(t_in + self._entry_time(node, s_in)(s), xa.shape)
        if np.any(tau < 0):
            raise ValueError(f"x = {x} lies behind the run's start")
        t = self.t0 + tau
        return float(t) if t.ndim == 0 else t

    def sample(self, s: ScenarioConfig):
        """The sample times ts of s, and each state's x at them: (ts, x,
        valid, unconverged), the last three of shape (S, len(ts)) with one
        row per state.  ``valid`` marks the times up to the state's domain
        edge (later ones are solved at t0), ``unconverged`` those valid
        times at which ``_newton`` did not find x."""
        ts = np.linspace(s.t_span[0], s.t_span[1], s.samples)
        valid = ts <= self.t_edge[:, None]
        x, unconverged = self.positions(np.where(valid, ts - self.t0, 0.0))
        return ts, x, valid, unconverged & valid

    def positions(self, tau: np.ndarray):
        """x at the elapsed times tau, one row per state (within its summed
        cells), each solved in its cell by ``_newton`` with the step dx =
        (tau - t(x)) * dx/dt; returns x and the mask of unconverged times."""
        rows = []
        for t_exit, row in zip(self.t_exit, tau):
            c = np.minimum(np.searchsorted(t_exit, row, side="right"),
                           t_exit.size - 1)
            rows.append((c, np.where(c > 0, t_exit[c - 1], 0.0), t_exit[c]))
        cell, t_in, t_out = (np.array(v) for v in zip(*rows))
        node, s_in, s_out = self._cells(cell)
        xn = self.pair.cells(node)[0]
        lo, hi = np.minimum(s_in, s_out), np.maximum(s_in, s_out)
        width = t_out - t_in
        frac = np.divide(tau - t_in, width, out=np.zeros_like(tau),
                         where=width > 0)
        s = s_in + (s_out - s_in) * np.clip(frac, 0.0, 1.0)
        v, unconverged = _newton(
            tau - t_in, self._entry_time(node, s_in),
            lambda lag, s: self._dx(lag, xn + s), s, lo, hi,
            4.0 * np.finfo(float).eps * (np.abs(xn) + hi - lo))
        return xn + v, unconverged


def _newton(target, elapsed, step, v, lo, hi, tol):
    """Solve elapsed(v) = target in the brackets [lo, hi] elementwise by
    Newton steps ``step(target - elapsed(v), v)``, bisecting where one does
    not land strictly inside (the last steps meet rounding noise), until the
    step or bracket is below ``tol``.  An element stops changing once it
    converges, so each one's iterates do not depend on the others.  Returns
    v and the mask of elements still open after _NEWTON_STEPS steps."""
    open_ = np.ones(v.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
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


def _not_found(t: float) -> RootConvergenceError:
    return RootConvergenceError(f"x(t) at t = {t:.6g} not found in "
                                f"{_NEWTON_STEPS} Newton steps")


class _LegacyClock(_Clock):
    """t(x) of the legacy law, dx/dt = w = 2(E - V)/S0'.  On the free pair
    t is the rise of S0 over 2E; on a grid pair a cell's time is an 8-point
    Gauss-Legendre sum of 1/w.  A path ends at a turning point x_turn, whose
    cell takes infinite time; at a simple one, 1/w has the pole c/(x_turn -
    x), c = S0'/(2V') at x_turn, which is summed in closed form instead."""

    def __init__(self, s: ScenarioConfig, step: int, x_turn: float | None):
        self.energy, self.hbar = s.params.energy, s.params.hbar
        self.potential = s.potential
        # x_turn lies ahead of x_start: covers marches out past it, or to
        # the edge short of it, and the outermost node then bounds it
        # exactly (covers alone takes points up to _EDGE_TOL grid steps
        # past it)
        on_path = x_turn is not None and bool(s.pair.covers(x_turn)) and (
            step * (float(s.pair.cells(s.pair.outermost(step))[0]) - x_turn)
            >= 0)
        self.x_turn = x_turn if on_path else None
        slope = float(s.potential.grad(x_turn)) if on_path else 0.0
        # a double root (slope 0) has a pole of order 2: none is subtracted
        self.c = (float(s0p(s.pair, s.q, x_turn)) / (2.0 * slope) if slope
                  else 0.0)
        super().__init__(s, step, s.q)

    def _dx(self, lag, x):
        return lag * 2.0 * (self.energy - self.potential.value(x)) / s0p(
            self.pair, self.q, x)

    def _entry_time(self, node, s_in, x0=None):
        # offsets from the nodes, or from x0 where it is given
        if self.pair.source == "analytic":
            k, a, b = self.pair.k, self.q.a, self.q.b

            def theta(s):  # arctan(a tan ks + b), with cos ks >= 0
                c = np.maximum(np.cos(k * s), 0.0)
                return np.arctan2(a * np.sin(k * s) + b * c, c)

            scale, theta_in = self.hbar / (2.0 * self.energy), theta(s_in)
            return lambda s: scale * (theta(s) - theta_in)
        nodes, weights = _gauss_legendre_8()
        x0 = np.asarray(self.pair.cells(node)[0] if x0 is None else x0)
        r = self.x_turn - x0 if self.c else 0.0

        def elapsed(s):
            half = 0.5 * (s - s_in)
            x = (x0 + s_in + half)[..., None] + half[..., None] * nodes
            f = 1.0 / self._dx(1.0, x)
            if not self.c:
                return half * (f @ weights)
            # the pole c/(x_turn - x), integrated in closed form
            f = f - self.c / (self.x_turn - x)
            return half * (f @ weights) + self.c * np.log((r - s_in) / (r - s))

        return elapsed

    def _exit_times(self, t_span):
        """The one row: up to x_turn, whose cell never ends, or else to the
        covered domain's edge, which marches the whole side."""
        pair, step = self.pair, self.step
        if pair.source == "analytic":
            period = math.pi * self.hbar / (2.0 * self.energy)
            count = 1 + int((t_span[1] - t_span[0]) // period)
            yield np.cumsum(np.append(self._start_crossing(),
                                      np.full(count, period))), False
            return
        while self.x_turn is None and pair.march(step):
            pass
        node, s_in, s_out = self._cells(
            np.arange(step * (pair.outermost(step) - self.i0) + 1))
        if self.x_turn is None:
            yield np.cumsum(self._entry_time(node, s_in)(s_out)), True
            return
        xn = pair.cells(node)[0]
        m = int(np.argmax((xn + s_out - self.x_turn) * step >= 0))
        yield np.cumsum(np.append(
            self._entry_time(node[:m], s_in[:m])(s_out[:m]), math.inf)), False

    def positions(self, tau: np.ndarray):
        """x at the elapsed times tau, one row as the clock has one state.
        In x_turn's cell, where t grows like -c ln d (d = |x_turn - x|),
        Newton runs on ln d up to the last float before x_turn, which takes
        the later samples."""
        if self.x_turn is None:
            return super().positions(tau)
        (t_exit,), (tau,) = self.t_exit, tau
        m = t_exit.size - 1
        t_in = float(t_exit[m - 1]) if m else 0.0
        x = np.empty_like(tau)
        unconverged = np.zeros(tau.shape, dtype=bool)
        early = tau < t_in
        x_early, open_early = super().positions(tau[early][None])
        x[early], unconverged[early] = x_early[0], open_early[0]
        node, s_in, _ = self._cells(np.asarray(m))
        turn, step = self.x_turn, self.step
        s_in = self.pair.cells(node)[0] + s_in - turn
        d_last = step * (turn - math.nextafter(turn, -step * math.inf))
        elapsed = self._entry_time(node, s_in, turn)
        later = tau >= t_in + elapsed(-step * d_last)
        x[later] = turn - step * d_last
        rest = (tau >= t_in) & ~later
        tr = tau[rest] - t_in
        lo = np.full(tr.shape, math.log(d_last))
        hi = np.full(tr.shape, math.log(-step * s_in))
        u = np.clip(hi - tr / self.c if self.c else lo, lo, hi)
        u, unconverged[rest] = _newton(
            tr, lambda u: elapsed(-step * np.exp(u)),
            lambda lag, u: -step * self._dx(
                lag, turn - step * np.exp(u)) / np.exp(u), u, lo, hi,
            4.0 * np.finfo(float).eps * np.maximum(np.abs(u), 1.0))
        x[rest] = turn - step * np.exp(u)
        return x[None], unconverged[None]


def _edge_message(s: ScenarioConfig, edge: float, t_edge: float) -> str:
    lo, hi = s.pair.domain
    return (f"the run reaches x = {edge:.6g} at t = {t_edge:.6g}, before t1 = "
            f"{s.t_span[1]:.6g}; later positions are outside solved domain "
            f"[{lo:.6g}, {hi:.6g}]")


def _edge_ahead(clock: _Clock, s: ScenarioConfig) -> float | None:
    """The edge that the clock's one state reaches before t1, or None.
    Reading it marches the whole pair, so a run that reaches an edge notes
    a truncation on either side (``_pair_notes``)."""
    return clock.edge if clock.t_edge[0] < s.t_span[1] else None


def _edge_reached(result: TrajectoryResult, edge: float, t_edge: float):
    """Note the run's reaching the domain edge, and raise DomainEdgeError."""
    result.notes.append(f"domain edge x = {edge:.9g} reached at "
                        f"t = {t_edge:.9g}; no samples after it")
    raise DomainEdgeError(_edge_message(result.config, edge, t_edge), result)


class _VelocityRuns:
    """The velocity law mu xd = dS0/dx run for a batch of states ``q`` (a
    _States) on scenario s's pair, start and sample times, as one array
    pass: every array has one row per state.  The states split by the sign
    of a*W, since the two signs walk the pair's cells in opposite
    directions; each direction has its own ``_Clock``, and all of them share
    one pass of ``state_jet_from_x`` and the observables.  A state's run
    fails where x was not found at a sample time or the observables are
    undefined at a sample (``error``), and its samples end at its domain
    edge, reached at ``t_edge`` (``edge``)."""

    def __init__(self, s: ScenarioConfig, q: _States):
        forward = q.a[:, 0] * s.pair.wronskian_ref > 0
        shape = (forward.size, s.samples)
        self.x, self.valid = np.empty(shape), np.empty(shape, dtype=bool)
        self.unconverged = np.empty(shape, dtype=bool)
        self.t_edge, self.forward = np.empty(forward.size), forward
        self.clocks = {}
        for step, rows in ((1, forward), (-1, ~forward)):
            if rows.any():
                clock = _Clock(s, step, _States(q.a[rows], q.b[rows]))
                (self.ts, self.x[rows], self.valid[rows],
                 self.unconverged[rows]) = clock.sample(s)
                self.t_edge[rows] = clock.t_edge
                self.clocks[step] = clock
        self.jet = state_jet_from_x(s.pair, q, s.params, self.x, order=3)
        self.obs, self.singular = _observables(self.jet, s.params, s.potential)

    def error(self, k: int):
        """The error that state k's run raises first, or None."""
        valid = self.valid[k]
        if self.unconverged[k].any():
            return _not_found(self.ts[self.unconverged[k]][0])
        singular = self.singular[k] & valid
        if singular.any():
            return SingularObservables(
                _singular_message(singular.sum(), valid.sum()),
                ObservableSet(*(v[k][valid] for v in self.obs)))
        return None

    def edge(self, k: int) -> float:
        """The domain edge ahead of state k (``_Clock.edge``)."""
        return self.clocks[1 if self.forward[k] else -1].edge


def integrate_velocity_law(s: ScenarioConfig) -> TrajectoryResult:
    """Sample mu xd = dS0/dx at evenly spaced times, from its t(x).

    t(x) is summed over the pair's cells (``_Clock``) and each sample's x
    solves t(x) = t_k; no ODE is integrated.  The run is the batch of one
    state of ``_VelocityRuns``, the array pass that a sweep runs for many
    states at once.  A run that reaches the edge of a grid pair's covered
    domain before t1 raises DomainEdgeError, whose ``partial`` result holds
    the samples up to the edge.
    """
    pair = s.build_pair()
    run = _VelocityRuns(s, _States.of([s.q]))
    error = run.error(0)
    if error is not None:
        raise error
    valid = run.valid[0]
    j = Jet(tuple(c[0][valid] for c in run.jet.coeffs))
    obs = ObservableSet(*(v[0][valid] for v in run.obs))
    (clock,) = run.clocks.values()
    # the law itself is Bohm's relation, so s0p = mu*xd by construction;
    # summarize checks it in its integral form
    samples = _samples(run.ts[valid], j, obs, s.params.mu * j.coeffs[1])
    edge = _edge_ahead(clock, s)
    result = TrajectoryResult(s, "velocity", samples, _pair_notes(pair), clock)
    dx = np.diff(j.coeffs[0])
    if not (np.all(dx > 0) or np.all(dx < 0)):
        result.notes.append("sampled x is not strictly monotone")
    if edge is not None:
        _edge_reached(result, edge, clock.t_edge[0])
    return result


def state_maxima(s: ScenarioConfig, states) -> dict:
    """``summarize``'s maxima of the run of s's law from each of ``states``
    (QuantumStateParams) on scenario s's pair, start and sample times: a
    dict of lists with one entry per state.  The velocity law runs the
    states as one array pass (``_VelocityRuns``); the newton and legacy
    laws run them one at a time, and give every ``summarize`` value.  The
    error raised is the one that running the states one at a time, in
    order, would raise first."""
    s.build_pair()
    if s.law != "velocity":
        runs = [summarize(run_scenario(replace(s, q=q))[0]) for q in states]
        return {key: [one[key] for one in runs] for key in runs[0]}
    q = _States.of(states)
    run = _VelocityRuns(s, q)
    for k in range(len(states)):
        error = run.error(k)
        if error is None and run.t_edge[k] < s.t_span[1]:
            error = DomainEdgeError(
                _edge_message(s, run.edge(k), run.t_edge[k]))
        if error is not None:
            raise error
    # no state reached its edge, so every row holds every sample
    j, obs = run.jet, run.obs
    cols = TrajectorySample(np.broadcast_to(run.ts, run.x.shape), *j.coeffs,
                            *obs, s.params.mu * j.coeffs[1])
    maxima = _maxima(s, q, "velocity", cols)
    return {key: v.tolist() for key, v in maxima.items()}


def _newton_series(s: ScenarioConfig):
    """The law's series for ``ode.integrate_ivp``: a_{k+4} of x(t + tau) =
    sum a_k tau^k from a_0..a_{k+3}, with V'(x) quadratic about a point xm
    of the potential's piece (exact for the analytic kinds; a spline's next
    knot is the step's wall).  With z = x''/x' the law reads
    x'''' = z (8 x''' - 10 z x'') - (4 mu x'^4/hbar^2)(mu x'' + V'), so each
    order takes six Cauchy sums: the quotient recurrence for z and the
    newest coefficients of z x'', z (8 x''' - 10 z x''), x'^2, x'^4 and
    x'^4 (mu x'' + V'); a seventh, of (x - xm)^2, only where V''' != 0."""
    mu = s.params.mu
    coef = 4.0 * mu / s.params.hbar ** 2
    knots = s.potential.knots

    def series(t, y, order):
        x, xd, xdd, xddd = y
        if abs(xd) < _VELOCITY_FLOOR:
            raise VelocityFloorError(t, np.array(y))
        wall, xm = None, x
        if knots is not None:
            i = int(np.searchsorted(knots, x, "right" if xd > 0 else "left"))
            i = min(max(i, 1), knots.size - 1)
            lo, hi = float(knots[i - 1]), float(knots[i])
            wall, xm = (hi if xd > 0 else lo), 0.5 * (lo + hi)
        g0, g1, g2 = (float(v) for v in s.potential.derivs(xm, 3)[1:])
        a = [x, xd, 0.5 * xdd, xddd / 6.0]
        p, q, z, u, e, p2, p4, m = ([] for _ in range(8))
        for k in range(order - 3):
            p.append((k + 1) * a[k + 1])
            q.append((k + 1) * (k + 2) * a[k + 2])
            z.append(0.0)  # a zero in z_k's place keeps it out of the sum
            z[k] = (q[k] - sum(map(mul, p, reversed(z)))) / xd
            u.append(8.0 * ((k + 1) * (k + 2) * (k + 3) * a[k + 3])
                     - 10.0 * sum(map(mul, z, reversed(q))))
            e.append(x - xm if k == 0 else a[k])
            p2.append(sum(map(mul, p, reversed(p))))
            p4.append(sum(map(mul, p2, reversed(p2))))
            m.append(mu * q[k] + g1 * e[k]
                     + (0.5 * g2 * sum(map(mul, e, reversed(e))) if g2
                        else 0.0) + (g0 if k == 0 else 0.0))
            a.append((sum(map(mul, z, reversed(u)))
                      - coef * sum(map(mul, p4, reversed(m))))
                     / ((k + 1) * (k + 2) * (k + 3) * (k + 4)))
        return a, wall

    return series


def integrate_newton_law(s: ScenarioConfig, init=None) -> TrajectoryResult:
    """Integrate the fourth-order law of motion by its Taylor series,
    x4 = -(4 mu xd^4/hbar^2)(mu xdd + V') - 10 xdd^3/xd^2 + 8 xdd xddd/xd.

    The default initial (x, xd, xdd, xddd) is the consistent jet of the
    first-order law at x_start; an explicit 4-tuple overrides it (the
    sampled H then differs from params.energy).  |xd| reaching the 1e-12
    floor aborts: the law cannot cross xd = 0 on consistent data.  On a grid
    pair the integration stops at the first step that ends outside the
    covered domain, and DomainEdgeError's ``partial`` result holds the
    samples up to the time at which x reaches the edge.
    """
    pair = s.build_pair()
    if init is None:
        y0 = list(state_jet_from_x(pair, s.q, s.params, s.x_start, 3).coeffs)
        if not all(map(math.isfinite, y0)):
            # S0' under- or overflows at x_start
            raise IntegrationFailure(
                f"the consistent initial jet at x = {s.x_start:.6g} is not"
                f" finite: {[float(v) for v in y0]}")
    else:
        y0 = [float(v) for v in init]
        if len(y0) != 4:
            raise ValueError("init must supply (x, xd, xdd, xddd)")
    if not pair.covers(y0[0]):  # only an explicit init can start outside
        raise DomainError(f"initial x = {y0[0]} outside solved domain "
                          f"{list(pair.domain)}")
    # x is monotone (xd never crosses 0), so once outside it stays outside
    stop = None if pair.source == "analytic" else (
        lambda y: not pair.covers(y[0]))
    dense = integrate_ivp(_newton_series(s), y0, s.t_span, stop=stop)
    t_end, edge = dense.t1, None
    if not pair.covers(dense.y_end[0]):
        lo, hi = pair.domain
        edge = hi if dense.y_end[0] > hi else lo
        t_end = invert_monotone(lambda t: dense(t)[0], edge,
                                (dense.t0, dense.t1))
    ts = np.linspace(s.t_span[0], s.t_span[1], s.samples)
    ts = ts[ts <= t_end]
    j = Jet(tuple(dense(ts).T))
    obs = observables(j, s.params, s.potential)
    # S0' at the sampled x is independent of the sampled xd
    result = TrajectoryResult(s, "newton",
                              _samples(ts, j, obs, s0p(pair, s.q, j.coeffs[0])),
                              _pair_notes(pair))
    if edge is not None:
        _edge_reached(result, edge, t_end)
    return result


def _turning_point(potential: PotentialModel, energy: float, x0: float,
                   direction: float):
    """Nearest solution of V(x) = energy beyond x0 in the motion direction."""
    try:
        bracket = expand_bracket(potential.value, energy, x0,
                                 0.25 * direction)
        return invert_monotone(potential.value, energy, bracket)
    except ValueError:
        return None


def integrate_legacy_law(s: ScenarioConfig):
    """Sample xd = 2(E - V)/S0' at evenly spaced times, from its t(x), and
    watch for turning-point stalls.

    Returns (TrajectoryResult, LegacyReport).  t(x) is summed over the
    pair's cells (``_LegacyClock``), with no ODE, up to the turning point
    ahead, which x approaches without reaching it; a run that starts on one
    stays there.  A stall is flagged when |xd| stays below 1e-6 of its
    initial size for three successive output samples while x keeps creeping
    toward the turning point.  Samples where the observables are undefined
    carry NaN for H, P and Q.  Reaching the edge of a grid pair's domain
    raises DomainEdgeError, as for the velocity law.
    """
    pair = s.build_pair()
    mu = s.params.mu
    E = s.params.energy
    step = int(np.sign((E - s.potential.value(s.x_start))
                       * s0p(pair, s.q, s.x_start)))
    x_turn = None
    if s.potential.kind != "free":
        x_turn = _turning_point(s.potential, E, s.x_start, float(step))
    ts = np.linspace(s.t_span[0], s.t_span[1], s.samples)
    xs = np.full(ts.shape, float(s.x_start))  # on a turning point
    if step:
        clock = _LegacyClock(s, step, x_turn)
        ts, (xs,), (valid,), (unconverged,) = clock.sample(s)
        if unconverged.any():
            raise _not_found(ts[unconverged][0])
        ts, xs = ts[valid], xs[valid]
    edge = _edge_ahead(clock, s) if step else None
    sp = s0p_jet(pair, s.q, xs, 2)
    vj = Jet(tuple(s.potential.derivs(xs, 2)))
    wj = 2.0 * (E - vj) / sp          # (w, w', w'') as a spatial jet
    j = flow_jet(wj.coeffs, xs, 3)    # (x, xd, xdd, xddd) under this law
    obs = _observables(j, s.params, s.potential)[0]
    gap = float(np.max(np.abs(j.coeffs[1] - sp.coeffs[0] / mu), initial=0.0))
    out = _samples(ts, j, obs, sp.coeffs[0])
    result = TrajectoryResult(s, "legacy", out, _pair_notes(pair))
    if edge is not None:
        _edge_reached(result, edge, clock.t_edge[0])

    v0 = abs(out[0].xdot) if out else 0.0
    threshold = 1e-6 * v0
    report = LegacyReport(stalled=False, threshold=threshold,
                          velocity_gap=gap, x_turn=x_turn)
    run = 0
    for p in out:
        slow = abs(p.xdot) < threshold
        closing = x_turn is None or abs(p.x - x_turn) <= abs(s.x_start - x_turn)
        run = run + 1 if (slow and closing) else 0
        if run >= 3:
            report.stalled = True
            report.t_stall = p.t
            report.x_stall = p.x
            break
    if report.stalled:
        report.notes.append(
            f"xd below {threshold:.3e} from t = {report.t_stall:.6g} on; "
            f"x pinned near {report.x_stall:.9g}"
            + (f" (turning point {x_turn:.9g})" if x_turn is not None else ""))
    return result, report


def run_scenario(s: ScenarioConfig):
    """Integrate a scenario under its law: (TrajectoryResult, LegacyReport
    for the legacy law, else None)."""
    if s.law == "legacy":
        return integrate_legacy_law(s)
    law = integrate_velocity_law if s.law == "velocity" else integrate_newton_law
    return law(s), None


# ---------------------------------------------------------------------------
# artifacts

def write_csv(samples, path) -> None:
    fmt = ",".join(["%.17g"] * len(TrajectorySample._fields)) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for p in samples:
            fh.write(fmt % p)


@functools.cache
def _gauss_legendre_8():
    """Nodes and weights of 8-point Gauss-Legendre quadrature on [-1, 1],
    from the eigenvectors of the Legendre recurrence's Jacobi matrix
    (Golub and Welsch)."""
    k = np.arange(1.0, 8.0)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


def _interval_time_gap(s: ScenarioConfig, q, t, x):
    """The velocity law's Bohm gap in integral form: the worst relative gap
    between a sample interval t_{k+1} - t_k and mu * integral of dx/S0'
    over [x_k, x_{k+1}], by 8-point Gauss-Legendre quadrature of the
    closed-form S0' (``reduced_action.s0p``), apart from the cell sums
    that placed the samples.  t and x have one row per state of q."""
    nodes, weights = _gauss_legendre_8()
    half = 0.5 * np.diff(x)
    points = (x[:, :-1] + half)[..., None] + half[..., None] * nodes
    sp = s0p(s.pair, q, points.reshape(len(x), -1)).reshape(points.shape)
    quad = s.params.mu * half * ((1.0 / sp) @ weights)
    dt = np.diff(t)
    return np.max(np.abs(quad - dt) / np.abs(dt), axis=-1, initial=0.0)


def _maxima(s: ScenarioConfig, q, law: str, cols: TrajectorySample) -> dict:
    """``summarize``'s maxima, each an array with one entry per row of the
    columns ``cols`` (one row of samples per state of q), reduced over the
    sample axis."""
    E, mu = s.params.energy, s.params.mu
    h_abs = np.nanmax(np.abs(cols.H - E), axis=-1)
    xd = cols.xdot
    if law == "velocity":
        bohm = _interval_time_gap(s, q, cols.t, cols.x)
    else:
        bohm = np.nanmax(np.abs(mu * xd - cols.s0p)
                         / np.maximum(np.abs(mu * xd), 1e-30), axis=-1)
    p0 = cols.P[:, 0]
    p_drift = (np.nanmax(np.abs(cols.P - p0[:, None]), axis=-1)
               / np.maximum(np.abs(p0), 1e-30))
    min_xd = np.min(np.abs(xd), axis=-1)
    return {
        "x_last": cols.x[:, -1],
        "max_energy_drift_abs": h_abs,
        "max_energy_drift_rel": h_abs / max(abs(E), 1e-30),
        "max_bohm_gap_rel": bohm,
        "max_principal_drift_rel": p_drift,
        "min_abs_xdot": min_xd,
        "energy_conserved": h_abs <= max(1e-8 * abs(E), 1e-10),
        "no_node": min_xd > 0.0,
    }


def summarize(result: TrajectoryResult) -> dict:
    """Drift maxima and invariant verdicts for one run.

    ``t_span`` is the span the samples cover: short of the requested one
    when a run reached the domain edge.  ``max_bohm_gap_rel`` compares the
    sampled motion with S0': for the velocity law, whose samples satisfy
    mu*xd = S0' by construction, in integral form (``_interval_time_gap``);
    for the other laws, pointwise between mu*xd and the sampled S0'.  The
    maxima are those of ``_maxima``, which a sweep takes for many runs at
    once."""
    s = result.config
    cols = TrajectorySample(*result.columns().T[:, None])
    maxima = _maxima(s, s.q, result.law, cols)
    return {
        "law": result.law,
        "samples": len(result.samples),
        "t_span": [float(cols.t[0, 0]), float(cols.t[0, -1])],
        "x_first": float(cols.x[0, 0]),
        **{key: v[0].item() for key, v in maxima.items()},
        "notes": list(result.notes),
    }


def write_summary(result: TrajectoryResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(summarize(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
