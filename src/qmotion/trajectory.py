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
Newton solve of t(x) = t_k in its cell, so no ODE is solved for them.
Both sum each state's cells in one loop, on demand (``_Clock._sum_cells``
over ``SolutionPair.ahead``), from the start cell until the state passes
t1; a state that runs out of cells first has reached the covered domain's
edge (``_Clock.edge``), at a time known before sampling.  The fourth-order
law is stepped by its own Taylor series (``ode``) as t(x), and each sample
is a Newton solve in its step.

Sampling the velocity law is one array pass per batch of states (a, b)
on one pair, each state walking the pair's cells in its own direction:
the positions at every sample time of every state are found at once (one
``_Clock``), and the spatial jets, the motion jets (``state_jet_from_x``,
``flow_jet``) and the observables are jets whose coefficients are arrays
with one row per state and one entry per sample.  A single run is the
batch of one.  The legacy law samples its one state the same way.

A sweep hands each energy's cells to ``state_maxima``, under any law: the
laws in ``BATCHED_LAWS`` (the velocity law) run them as one batch, the other
laws one at a time.  So a sweep forks its process pool for the other laws,
and for a batched law only when an energy's cells are many enough that a
second core repays the child.

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

from .jets import (Jet, JetOrderError, SingularityError, _horner, _inverse,
                   flow_jet)
from .ode import ORDER, IntegrationFailure, integrate_ivp
from .reduced_action import (QuantumStateParams, _s0p_of, inverse_s0p, s0p,
                             s0p_jet)
from .rootfind import (RootConvergenceError, expand_bracket, invert_monotone,
                       newton as _newton)
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
# the laws that state_maxima runs as one array pass over a batch of states;
# a sweep of these laws forks no process pool for small energy groups
BATCHED_LAWS = ("velocity",)
_VELOCITY_FLOOR = 1e-12
# Newton steps allowed per sample; bisection inside a cell reaches rounding
# level in about 60
_NEWTON_STEPS = 100
# _RISE[n][k] = (k + 1)(k + 2)...(k + n): the k-th Taylor coefficient of a
# function's n-th derivative is _RISE[n][k] times the function's (k + n)-th
_RISE = [[float(math.perm(k + n, n)) for k in range(ORDER)] for n in range(5)]


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
    """One run's samples as ``table`` (``columns()``), a float array with
    one row per sample time in TrajectorySample's field order; ``samples``
    reads its rows as a read-only tuple of TrajectorySamples, built on each
    read.  The velocity law also keeps ``time_of_x``, its t(x)."""

    config: ScenarioConfig
    law: str
    table: np.ndarray
    notes: list = field(default_factory=list)
    time_of_x: _Clock | None = None

    @property
    def samples(self) -> tuple:
        return tuple(map(TrajectorySample._make, self.table.tolist()))

    def arrival_time(self, x_target: float) -> float:
        """First time at which x(t) reaches x_target, from the velocity
        law's t(x) (x is monotone under it, so the crossing is unique)."""
        if self.time_of_x is None:
            raise ValueError("arrival_time needs the velocity law's t(x); "
                             f"this run used the {self.law} law")
        return self.time_of_x(x_target)

    def columns(self) -> np.ndarray:
        return self.table


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

    With g(x) = dS0/dx / mu the law is xd = g(x), and the chain rule d/dt =
    g d/dx turns the spatial jet of g into the time jet (``flow_jet``), so
    every coefficient is exact given the spatial derivatives of the action
    gradient (which the wave equation supplies in closed recursion).
    """
    if not 1 <= order <= 6:
        raise ValueError("state jets support orders 1..6")
    with np.errstate(all="ignore"):  # the callers check for a non-finite jet
        sp = s0p_jet(pair, q, x, order - 1)
        return flow_jet([c / params.mu for c in sp.coeffs], x, order)


def _table(ts: np.ndarray, j: Jet, obs: ObservableSet, s0p_values):
    """A run's table: one row per sample time, in TrajectorySample's order."""
    return np.column_stack((ts, *j.coeffs[:4], *obs, s0p_values))


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
    for the states ``q`` (a _States, or the legacy law's one
    QuantumStateParams), summed over the pair's cells (``SolutionPair.cells``)
    from x_start, each state's in its own direction of motion: ``step`` is
    an (S, 1) array of +-1 for a _States (the sign of a*W), an int for the
    legacy law's state, and ``steps`` lists them.  ``t_exit`` holds one row
    per state of the time at each cell exit, and inside a cell the time
    runs from its entry.  A row starts empty, is summed on demand
    (``_sum_cells``) from the start cell until the state passes t1, and
    grows when t(x) is asked beyond it; a row that holds the covered
    domain's last cell reaches that edge at its entry of ``t_edge`` (inf for
    the other rows), and ``edge(k)`` is None unless state k reaches it
    before t1.  Three hooks carry the law, here the velocity law mu dx/dt =
    S0': ``_entry_time`` (the time from a cell's entry, from the squares'
    primitives, and dx/dt times a time lag, from ``SolutionPair.node_values``:
    both functions of the offset from the cell's node, on polynomials
    gathered once), ``_crossings`` (time to cross cells, from the pair's
    cell integrals, a table kept on a grid pair, but the start cell's from
    x_start, by its squares' primitives) and ``_guess`` (where a position's
    Newton solve starts in its cell).
    """

    def __init__(self, s: ScenarioConfig, step: int | np.ndarray, q):
        pair, self.mu = s.pair, s.params.mu
        self.pair, self.q, self.step = pair, q, step
        self.t0, self.t1 = t0, t1 = s.t_span
        self.i0, self.s0 = pair.nearest_node(np.asarray(s.x_start, dtype=float))
        self.states = [QuantumStateParams(a, b) for a, b in zip(
            np.ravel(q.a).tolist(), np.ravel(q.b).tolist())]
        self.steps = np.ravel(step).tolist()
        rows = [self._sum_cells(state, way, np.empty(0),
                                lambda n, t: t > t1 - t0 and t0 + t >= t1)
                for state, way in zip(self.states, self.steps)]
        self.t_exit = [t for t, _ in rows]
        self.t_edge = np.array([t0 + float(t[-1]) if edge else math.inf
                                for t, edge in rows])

    def edge(self, k: int) -> float | None:
        """The covered domain's edge in state k's direction of motion if the
        state reaches it before t1, else None.  Only then is the whole pair
        marched, so a run that reaches an edge notes a truncation on either
        side (``_pair_notes``)."""
        return (self.pair.domain[self.steps[k] > 0] if self.t_edge[k] < self.t1
                else None)

    def _entry_time(self, node, s_in):
        pair, q, mu = self.pair, self.q, self.mu
        prim, phi = pair.square_primitives(node), pair.node_values(node)
        base = prim(s_in)
        return (lambda s: mu * inverse_s0p(pair, q, prim(s) - base),
                lambda lag, s: lag * _s0p_of(pair, q, *phi(s)) / mu)

    def _crossings(self, q, step, nodes):
        first, last = sorted((nodes[0], nodes[-1]))
        cells = self.pair.cell_integrals(slice(first, last + 1))[:, ::step]
        if nodes[0] == self.i0:  # a new array: cells may view the table
            cells = np.concatenate([self._start_cell[step], cells[:, 1:]], 1)
        return (step * self.mu) * inverse_s0p(self.pair, q, cells)

    @functools.cached_property
    def _start_cell(self) -> dict:
        """The squares' integrals over the start cell from x_start, as a
        column for each direction of motion: every state shares them."""
        _, lo, hi = self.pair.cells(self.i0)
        prim = self.pair.square_primitives(self.i0)
        f0 = prim(self.s0)
        return {-1: (f0 - prim(lo))[:, None], 1: (prim(hi) - f0)[:, None]}

    def _sum_cells(self, q, step, t_exit, done):
        """Extend the row t_exit of state q, moving in the direction step,
        across the cells past it, the nodes that the pair has ahead
        (``SolutionPair.ahead``), until done(row length, last time) or the
        covered domain's last cell; returns the row and whether it holds
        that cell.  The times run on as one cumulative sum, each chunk's
        seeded by the last time before it, so a row has the same bits
        however far it was taken at a time; the chunks are joined once, so
        a row grows in time linear in its length."""
        chunks, size = [t_exit], t_exit.size
        while not (size and done(size, chunks[-1][-1])):
            if size:
                nodes = self.pair.ahead(self.i0 + step * (size - 1), step)
            else:  # the start cell, and the cells the pair has past it
                nodes = np.append(self.i0, self.pair.ahead(self.i0, step))
            if not nodes.size:
                return np.concatenate(chunks), True
            seed = chunks[-1][-1:]  # none before a row's first cell
            more = np.cumsum(np.concatenate(
                [seed, self._crossings(q, step, nodes)]))
            chunks.append(more[seed.size:])
            size += chunks[-1].size
        return np.concatenate(chunks), False

    def _cells(self, cell, step):
        """Node, entry and exit offsets of the cells of states moving in
        the directions step (cell 0 starts a run), broadcast together."""
        node = self.i0 + step * cell
        _, lo, hi = self.pair.cells(node)
        forward = step > 0
        return (node, np.where(cell == 0, self.s0, np.where(forward, lo, hi)),
                np.where(forward, hi, lo))

    def __call__(self, x):
        """t at x, a float or an array of points on the path of a clock of
        one state."""
        xa = np.asarray(x, dtype=float)
        (t_exit,), (state,), (step,) = self.t_exit, self.states, self.steps
        node, s = self.pair.nearest_node(xa)
        cell = step * (node - self.i0)
        on_path = np.all(self.pair.covers(xa)) and np.all(cell >= 0)
        if on_path and np.any(cell >= t_exit.size):
            last = int(np.max(cell))
            t_exit = self.t_exit[0] = self._sum_cells(
                state, step, t_exit, lambda n, t: n > last)[0]
        if not on_path or np.any(cell >= t_exit.size):
            raise ValueError(f"x = {x} is not on the run's path")
        node, s_in, _ = self._cells(cell, step)
        t_in = np.where(cell > 0, t_exit[cell - 1], 0.0)
        # a one-state _States adds a leading axis of length 1
        tau = np.reshape(t_in + self._entry_time(node, s_in)[0](s), xa.shape)
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
        (tau - t(x)) * dx/dt, both read from the cells' own polynomials
        (``_entry_time``), which the solve gathers once; returns x and the
        mask of unconverged times."""
        rows = []
        for t_exit, row in zip(self.t_exit, tau):
            c = np.minimum(np.searchsorted(t_exit, row, side="right"),
                           t_exit.size - 1)
            rows.append((c, np.where(c > 0, t_exit[c - 1], 0.0), t_exit[c]))
        cell, t_in, t_out = (np.array(v) for v in zip(*rows))
        node, s_in, s_out = self._cells(cell, self.step)
        xn = self.pair.cells(node)[0]
        lo, hi = np.minimum(s_in, s_out), np.maximum(s_in, s_out)
        width = t_out - t_in
        frac = np.divide(tau - t_in, width, out=np.zeros_like(tau),
                         where=width > 0)
        s = self._guess(xn, s_in, s_out, np.clip(frac, 0.0, 1.0))
        v, unconverged = _newton(
            tau - t_in, *self._entry_time(node, s_in), s, lo, hi,
            4.0 * np.finfo(float).eps * (np.abs(xn) + hi - lo), _NEWTON_STEPS)
        return xn + v, unconverged

    def _guess(self, xn, s_in, s_out, frac):
        """Newton's start in the cells of nodes at xn: x linear in t from
        the entry offsets s_in to the exits s_out."""
        return s_in + (s_out - s_in) * frac


def _not_found(t: float) -> RootConvergenceError:
    return RootConvergenceError(f"x(t) at t = {t:.6g} not found in "
                                f"{_NEWTON_STEPS} Newton steps")


class _LegacyClock(_Clock):
    """t(x) of the legacy law, dx/dt = w = 2(E - V)/S0'.  On the free pair
    t is the rise of S0 over 2E; on a grid pair a cell's time is an 8-point
    Gauss-Legendre sum of 1/w.  A path ends at a turning point x_turn, whose
    cell takes infinite time; at a simple one, 1/w has the pole c/(x_turn -
    x), c = S0'/(2V') at x_turn, which is summed in closed form instead.
    The Gauss-Legendre points and the Newton steps read w from the cells'
    own polynomials (``SolutionPair.node_values``), gathered once per sum or
    solve."""

    def __init__(self, s: ScenarioConfig, step: int, x_turn: float | None):
        self.energy, self.hbar = s.params.energy, s.params.hbar
        self.potential = s.potential
        # x_turn lies ahead of x_start: covers marches out to the node
        # nearest it, or to the edge short of it, and takes points up to
        # _EDGE_TOL grid steps past that edge, which x_turn must not pass
        on_path = x_turn is not None and bool(s.pair.covers(x_turn))
        if on_path:
            i, d = s.pair.nearest_node(x_turn)
            on_path = step * d <= 0 or s.pair.ahead(i, step).size > 0
        self.x_turn = x_turn if on_path else None
        slope = float(s.potential.grad(x_turn)) if on_path else 0.0
        # a double root (slope 0) has a pole of order 2: none is subtracted
        self.c = (float(s0p(s.pair, s.q, x_turn)) / (2.0 * slope) if slope
                  else 0.0)
        super().__init__(s, step, s.q)

    def _entry_time(self, node, s_in, x0=None):
        # elapsed takes offsets from the nodes, or from x0 where it is
        # given, and rate from the nodes; the nodes' polynomials are
        # gathered with a last axis of length 1, along which the
        # Gauss-Legendre points run
        pair, q, energy = self.pair, self.q, self.energy
        xn = pair.cells(node)[0][..., None]
        phi = pair.node_values(np.asarray(node)[..., None])

        def dx(lag, s):  # lag times dx/dt at offsets s from the nodes
            return lag * 2.0 * (energy - self.potential.value(xn + s)) / (
                _s0p_of(pair, q, *phi(s)))

        def rate(lag, s):
            return dx(np.asarray(lag)[..., None], s[..., None])[..., 0]

        if pair.source == "analytic":
            k, a, b = pair.k, q.a, q.b

            def theta(s):  # arctan(a tan ks + b), with cos ks >= 0
                c = np.maximum(np.cos(k * s), 0.0)
                return np.arctan2(a * np.sin(k * s) + b * c, c)

            scale, theta_in = self.hbar / (2.0 * energy), theta(s_in)
            return lambda s: scale * (theta(s) - theta_in), rate
        nodes, weights = _gauss_legendre_8()
        x0 = xn[..., 0] if x0 is None else np.asarray(x0)
        r = self.x_turn - x0 if self.c else 0.0

        def elapsed(s):
            half = 0.5 * (s - s_in)
            x = (x0 + s_in + half)[..., None] + half[..., None] * nodes
            f = 1.0 / dx(1.0, x - xn)
            if not self.c:
                return half * (f @ weights)
            # the pole c/(x_turn - x), integrated in closed form; a log of
            # the ratio, near 1 short of x_turn, would lose an ulp a cell
            f = f - self.c / (self.x_turn - x)
            pole = self.c * np.log1p((s - s_in) / (r - s))
            return half * (f @ weights) + pole

        return elapsed, rate

    def _crossings(self, q, step, nodes):
        """The cells' Gauss-Legendre sums, the start cell's from x_start;
        x_turn's cell never ends, so a row ends there with the time inf.  On
        the free pair each cell is a period, pi hbar/(2E)."""
        node, s_in, s_out = self._cells(step * (nodes - self.i0), step)
        if self.pair.source == "analytic":
            times = np.full(nodes.size, math.pi * self.hbar / (2.0 * self.energy))
            if nodes[0] == self.i0:
                times[0] = self._entry_time(node[0], s_in[0])[0](s_out[0])
            return times
        if self.x_turn is None:
            return self._entry_time(node, s_in)[0](s_out)
        short = (self.pair.cells(node)[0] + s_out - self.x_turn) * step < 0
        times = self._entry_time(node[short], s_in[short])[0](s_out[short])
        return times if short.all() else np.append(times, math.inf)

    def _guess(self, xn, s_in, s_out, frac):
        """In the cells short of x_turn, ln(x_turn - x) linear in t, which
        is exact for the pole c/(x_turn - x) alone."""
        if self.x_turn is None:
            return super()._guess(xn, s_in, s_out, frac)
        r = self.x_turn - xn
        d_in, d_out = np.abs(r - s_in), np.abs(r - s_out)
        return r - self.step * d_in * (d_out / d_in) ** frac

    def positions(self, tau: np.ndarray):
        """x at the elapsed times tau, one row as the clock has one state.
        In x_turn's cell, where t grows like -c ln d (d = |x_turn - x|),
        Newton runs on u = ln d up to the last float before x_turn, which
        takes the later samples, with the step dt/du = -c - step d (1/w(x)
        - c/(x_turn - x)): its pole part -c is exact in d, so the steps
        converge where x = x_turn - step d has rounded.  A double root (c =
        0) has no pole part, and the step is -step d/w(x)."""
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
        turn, step, c = self.x_turn, self.step, self.c
        node, s_in, _ = self._cells(np.asarray(m), step)
        xn = self.pair.cells(node)[0]
        s_in = xn + s_in - turn
        d_last = step * (turn - math.nextafter(turn, -step * math.inf))
        elapsed, rate = self._entry_time(node, s_in, turn)
        later = tau >= t_in + elapsed(-step * d_last)
        x[later] = turn - step * d_last
        rest = (tau >= t_in) & ~later
        tr = tau[rest] - t_in
        lo = np.full(tr.shape, math.log(d_last))
        hi = np.full(tr.shape, math.log(-step * s_in))
        u = np.clip(hi - tr / c if c else lo, lo, hi)
        # the steps stop below the resolution of u or, as t carries the
        # rounding of V near x_turn, of x: 4 eps |x_turn| over d in u, with
        # d at the pole's start, near the root
        scale = np.maximum(np.abs(u), 1.0)
        if c:
            scale = np.maximum(scale, abs(turn) * np.exp(-u))

        def du(lag, u):
            d = np.exp(u)
            xu = turn - step * d
            if not c:
                return -step * rate(lag, xu - xn) / d
            pole = c / (turn - xu)
            return lag / (-c - step * d * (1.0 / rate(1.0, xu - xn) - pole))

        u, unconverged[rest] = _newton(
            tr, lambda u: elapsed(-step * np.exp(u)), du, u, lo, hi,
            4.0 * np.finfo(float).eps * scale, _NEWTON_STEPS)
        x[rest] = turn - step * np.exp(u)
        return x[None], unconverged[None]


def _edge_message(s: ScenarioConfig, edge: float, t_edge: float) -> str:
    lo, hi = s.pair.domain
    return (f"the run reaches x = {edge:.6g} at t = {t_edge:.6g}, before t1 = "
            f"{s.t_span[1]:.6g}; later positions are outside solved domain "
            f"[{lo:.6g}, {hi:.6g}]")


def _edge_reached(result: TrajectoryResult, edge: float, t_edge: float):
    """Note the run's reaching the domain edge, and raise DomainEdgeError."""
    result.notes.append(f"domain edge x = {edge:.9g} reached at "
                        f"t = {t_edge:.9g}; no samples after it")
    raise DomainEdgeError(_edge_message(result.config, edge, t_edge), result)


class _VelocityRuns:
    """The velocity law mu xd = dS0/dx run for a batch of states ``q`` (a
    _States) on scenario s's pair, start and sample times, as one array
    pass: every array has one row per state.  One ``_Clock`` serves the
    batch, each state walking the pair's cells in its own direction, the
    sign of a*W, and the states share one pass of ``state_jet_from_x`` and
    the observables.  A state's run fails where x was not found at a sample
    time or the observables are undefined at a sample (``error``), and its
    samples end at its domain edge, reached at the clock's ``t_edge``."""

    def __init__(self, s: ScenarioConfig, q: _States):
        step = np.where(q.a * s.pair.wronskian_ref > 0, 1, -1)
        self.clock = _Clock(s, step, q)
        self.ts, self.x, self.valid, self.unconverged = self.clock.sample(s)
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


def integrate_velocity_law(s: ScenarioConfig) -> TrajectoryResult:
    """Sample mu xd = dS0/dx at evenly spaced times, from its t(x).

    t(x) is summed over the pair's cells (``_Clock``) and each sample's x
    solves t(x) = t_k; no ODE is integrated.  The run is the batch of one
    state of ``_VelocityRuns``, the array pass that a sweep runs for many
    states at once.  A run that reaches the edge of a grid pair's covered
    domain before t1 raises DomainEdgeError, whose ``partial`` result holds
    the samples up to the edge.
    """
    pair = _checked_pair(s)
    run = _VelocityRuns(s, _States.of([s.q]))
    error = run.error(0)
    if error is not None:
        raise error
    valid = run.valid[0]
    j = Jet(tuple(c[0][valid] for c in run.jet.coeffs))
    obs = ObservableSet(*(v[0][valid] for v in run.obs))
    clock = run.clock
    # the law itself is Bohm's relation, so s0p = mu*xd by construction;
    # summarize checks it in its integral form
    table = _table(run.ts[valid], j, obs, s.params.mu * j.coeffs[1])
    edge = clock.edge(0)
    result = TrajectoryResult(s, "velocity", table, _pair_notes(pair), clock)
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
    laws run them one at a time, and give every ``summarize`` value, and so
    does the velocity law when a state's S0' at x_start under- or
    overflows.  The error raised is the one that running the states one at
    a time, in order, would raise first."""
    s.build_pair()
    if (s.law not in BATCHED_LAWS
            or _start_failure(s, _States.of(states)) is not None):
        runs = [summarize(run_scenario(replace(s, q=q))[0]) for q in states]
        return {key: [one[key] for one in runs] for key in runs[0]}
    q = _States.of(states)
    run = _VelocityRuns(s, q)
    for k in range(len(states)):
        error = run.error(k)
        if error is None and (edge := run.clock.edge(k)) is not None:
            error = DomainEdgeError(_edge_message(s, edge, run.clock.t_edge[k]))
        if error is not None:
            raise error
    # no state reached its edge, so every row holds every sample
    j, obs = run.jet, run.obs
    cols = TrajectorySample(np.broadcast_to(run.ts, run.x.shape), *j.coeffs,
                            *obs, s.params.mu * j.coeffs[1])
    maxima = _maxima(s, q, "velocity", cols)
    return {key: v.tolist() for key, v in maxima.items()}


def _newton_series(s: ScenarioConfig, x0: float, sign: float):
    """The law's series for ``ode.integrate_ivp`` in the distance travelled
    d = sign (x - x0): a_{k+4} of t(d + h) = sum a_k h^k from a_0..a_{k+3}.
    With ' = d/dd, z = t''/t' and y = z/t' the law reads t'''' = sign (4
    mu/hbar^2) V' t' - (4 mu^2/hbar^2) y + z (2 t''' - z t''): four Cauchy
    sums an order, with V'(x) quadratic about a point xm of the potential's
    piece (exact for the analytic kinds).  A step's wall is the piece's
    end, or less (see the return)."""
    c1 = 4.0 * s.params.mu / s.params.hbar ** 2
    c2, sc1, t1 = c1 * s.params.mu, sign * c1, s.t_span[1]
    knots = s.potential.knots
    if knots is not None:  # the knots in x and in d, ascending in d
        xs = knots[::int(sign)]
        ks = sign * (xs - x0)
    _, f1, f2, f3, f4 = _RISE
    # the last xm and (V', V'', V''') there: the steps inside one spline
    # piece share its midpoint, so they read the potential once
    piece = [None, ()]

    def series(d, y, order):
        t, tp, tpp, tppp = y
        x = xm = x0 + sign * d
        wall = math.inf
        if not tp * _VELOCITY_FLOOR < 1.0:  # |xd| = 1/t'
            raise VelocityFloorError(t, np.array(
                [x, *(sign * v for v in _inverse(tp, tpp, tppp))]))
        if knots is not None:
            i = min(max(int(np.searchsorted(ks, d, "right")), 1), ks.size - 1)
            wall = float(ks[i]) if ks[i] > d else wall
            xm = 0.5 * float(xs[i - 1] + xs[i])
        if xm != piece[0]:
            piece[:] = xm, [float(v) for v in s.potential.derivs(xm, 3)[1:]]
        g0, g1, g2 = piece[1]
        e = x - xm
        v = [sc1 * (g0 + e * (g1 + 0.5 * g2 * e)), c1 * (g1 + g2 * e),
             0.5 * sc1 * g2]
        a = [t, tp, 0.5 * tpp, tppp / 6.0]
        # against a list one shorter, reversed(p) leaves out the divisor t'
        p, q, z, zy, zq, m = ([] for _ in range(6))
        for k in range(order - 3):
            p.append(f1[k] * a[k + 1])
            q.append(f2[k] * a[k + 2])
            z.append((q[k] - sum(map(mul, reversed(p), z))) / tp)
            zy.append((z[k] - sum(map(mul, reversed(p), zy))) / tp)
            zq.append(sum(map(mul, z, reversed(q))))
            m.append(2.0 * (f3[k] * a[k + 3]) - zq[k])
            a.append((sum(map(mul, reversed(p), v)) - c2 * zy[k]
                      + sum(map(mul, z, reversed(m)))) / f4[k])
        # the quotients' rounding grows as (h/r)^k past r, z's radius (the
        # root test on its last two terms); a linear t passes t1 twice over
        n = len(z) - 1
        return a, min([wall, d + 2.0 * (t1 - t) / tp] + [
            d + abs(z[j]) ** (-1.0 / j) for j in (n - 1, n) if z[j]])

    return series


def integrate_newton_law(s: ScenarioConfig, init=None) -> TrajectoryResult:
    """Integrate the fourth-order law of motion,
    x4 = -(4 mu xd^4/hbar^2)(mu xdd + V') - 10 xdd^3/xd^2 + 8 xdd xddd/xd,
    as t(d), d = sign(xd)(x - x0) (``_newton_series``): x is monotone, and
    t(d) has a far wider radius than x(t) (Floyd, Phys. Rev. D 26, 1982).
    The steps end once t passes t1 or at a grid pair's requested edge.

    The default initial (x, xd, xdd, xddd) is the consistent jet of the
    first-order law at x_start; an explicit 4-tuple overrides it (the
    sampled H then differs from params.energy).  |xd| reaching the 1e-12
    floor aborts: the law cannot cross xd = 0 on consistent data.  A run
    whose t at the covered domain's edge comes before t1 raises
    DomainEdgeError, whose ``partial`` result holds the samples up to it.
    """
    pair = s.build_pair()
    if init is None:
        _checked_pair(s)
        y0 = list(state_jet_from_x(pair, s.q, s.params, s.x_start, 3).coeffs)
        if not all(map(math.isfinite, y0)):
            # _checked_pair has passed S0', so S0'' or S0''' is not finite
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
    (x0, xd, *_), (t0, t1) = y0, s.t_span
    if abs(xd) < _VELOCITY_FLOOR:
        raise VelocityFloorError(t0, np.array(y0))
    sign = math.copysign(1.0, xd)
    edge = pair.requested[sign > 0]
    # the free pair covers every x; a start on the edge is there at t0, and
    # takes one tiny step for the sample there
    span = math.inf if pair.source == "analytic" else sign * (edge - x0)
    try:
        dense = integrate_ivp(
            _newton_series(s, x0, sign),
            [t0, *_inverse(*(sign * v for v in y0[1:]))],
            (0.0, max(span, 5e-324)),
            stop=lambda y: y[0] >= t1)
    except IntegrationFailure as exc:  # ode names the d of a failure
        what = exc.reason.rpartition(" at t = ")[0]
        raise IntegrationFailure(f"{what} at t = {exc.y[0]}", exc.y) from None
    t_end = dense.y_end[0] if span > 0.0 else t0
    if not pair.covers(x0 + sign * dense.t1):  # the pair is truncated
        edge = pair.domain[sign > 0]
        t_end = dense(sign * (edge - x0))[0]
    ts = np.linspace(t0, t1, s.samples)
    ts = ts[ts <= t_end]
    # each sample's d in its step, by Newton steps lag/t' from the series'
    # inverse to second order; a step reuses the t' of the elapsed time
    # just taken at the same d
    edges, a = dense._ts, dense._a
    k = np.maximum(np.searchsorted(a[:, 0], ts, "right") - 1, 0)
    c, width, lag = a[k].T, np.diff(edges)[k], ts - a[k, 0]
    tp, u = [None], lag / c[1]

    def elapsed(h):
        t, tp[0] = _horner(c, h, 2)
        return t - c[0]

    h, unconverged = _newton(
        lag, elapsed, lambda lag, h: lag / tp[0],
        np.clip(u - c[2] / c[1] * u * u, 0.0, width), 0.0 * width, width,
        4.0 * np.finfo(float).eps * edges[k + 1], _NEWTON_STEPS)
    if unconverged.any():
        raise _not_found(ts[unconverged][0])
    with np.errstate(all="ignore"):  # observables checks the jet
        j = Jet((x0 + sign * (edges[k] + h),
                 *(sign * v for v in _inverse(*_horner(c, h, 4)[1:]))))
    obs = observables(j, s.params, s.potential)
    # S0' at the sampled x is independent of the sampled xd
    result = TrajectoryResult(s, "newton",
                              _table(ts, j, obs, s0p(pair, s.q, j.coeffs[0])),
                              _pair_notes(pair))
    if t_end < t1:
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
    pair = _checked_pair(s)
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
    edge = clock.edge(0) if step else None
    with np.errstate(all="ignore"):
        sp = s0p_jet(pair, s.q, xs, 2)
        vj = Jet(tuple(s.potential.derivs(xs, 2)))
        wj = 2.0 * (E - vj) / sp          # (w, w', w'') as a spatial jet
        j = flow_jet(wj.coeffs, xs, 3)    # (x, xd, xdd, xddd) under this law
    bad = ~np.isfinite(j.coeffs).all(axis=0)
    if bad.any():
        raise SingularityError(f"the motion jet (x, xd, xdd, xddd) is not "
                               f"finite at {bad.sum()} of {bad.size} samples")
    obs = _observables(j, s.params, s.potential)[0]
    gap = float(np.max(np.abs(j.coeffs[1] - sp.coeffs[0] / mu), initial=0.0))
    result = TrajectoryResult(s, "legacy", _table(ts, j, obs, sp.coeffs[0]),
                              _pair_notes(pair))
    if edge is not None:
        _edge_reached(result, edge, clock.t_edge[0])

    x, xd = j.coeffs[:2]
    threshold = 1e-6 * float(abs(xd[0])) if xd.size else 0.0
    stall = _stall(ts, x, xd, threshold, x_turn, s.x_start)
    report = LegacyReport(stall is not None, threshold,
                          *(stall or (None, None)), x_turn, gap)
    if report.stalled:
        report.notes.append(
            f"xd below {threshold:.3e} from t = {report.t_stall:.6g} on; "
            f"x pinned near {report.x_stall:.9g}"
            + (f" (turning point {x_turn:.9g})" if x_turn is not None else ""))
    return result, report


def _stall(ts, x, xd, threshold: float, x_turn, x_start: float):
    """(t, x) that ends the first three successive samples both slow, |xd| <
    threshold, and no farther from x_turn than x_start; None if none."""
    hit = np.abs(xd) < threshold
    if x_turn is not None:
        hit &= np.abs(x - x_turn) <= abs(x_start - x_turn)
    k = np.flatnonzero(hit[2:] & hit[1:-1] & hit[:-2]) + 2
    return (float(ts[k[0]]), float(x[k[0]])) if k.size else None


def _start_failure(s: ScenarioConfig, q: _States):
    """The SingularityError that names S0' at x_start, where every law
    starts from it, for the first state of q whose S0' there is 0 or not
    finite; None when there is none.  S0' is formed under np.errstate, so
    its under- or overflow prints no warning."""
    with np.errstate(all="ignore"):
        v = np.ravel(s0p(s.build_pair(), q, s.x_start))
    bad = v[~np.isfinite(v) | (v == 0)]
    if bad.size:
        return SingularityError(f"S0' at x_start = {s.x_start:.6g} is "
                                f"{bad[0]:g}: it under- or overflows")
    return None


def _checked_pair(s: ScenarioConfig) -> SolutionPair:
    """s's pair, once ``_start_failure`` finds no error to raise."""
    error = _start_failure(s, _States.of([s.q]))
    if error is not None:
        raise error
    return s.pair


def run_scenario(s: ScenarioConfig):
    """Integrate a scenario under its law: (TrajectoryResult, LegacyReport
    for the legacy law, else None).  A state whose S0' at x_start under- or
    overflows raises SingularityError."""
    if s.law == "legacy":
        return integrate_legacy_law(s)
    law = integrate_velocity_law if s.law == "velocity" else integrate_newton_law
    return law(s), None


# ---------------------------------------------------------------------------
# artifacts

def write_csv(samples, path) -> None:
    """Write a run's table (``TrajectoryResult.columns()``), or its rows,
    as CSV: every value "%.17g", the whole table in one % operation."""
    table = np.asarray(samples, dtype=float)
    row = ",".join(["%.17g"] * len(TrajectorySample._fields)) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.write(row * len(table) % tuple(table.ravel().tolist()))


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
    cols = TrajectorySample(*result.table.T[:, None])
    maxima = _maxima(s, s.q, result.law, cols)
    return {
        "law": result.law,
        "samples": len(result.table),
        "t_span": [float(cols.t[0, 0]), float(cols.t[0, -1])],
        "x_first": float(cols.x[0, 0]),
        **{key: v[0].item() for key, v in maxima.items()},
        "notes": list(result.notes),
    }


def write_summary(result: TrajectoryResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(summarize(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
