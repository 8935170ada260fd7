"""Real solution pairs of the stationary Schrodinger equation.

For a particle of mass mu with energy E in a potential V, the module
produces two real, linearly independent solutions (phi1, phi2) of

    phi'' = (2*mu/hbar^2) * (V(x) - E) * phi

normalized at an anchor point by phi1 = 0, phi1' = 1, phi2 = 1, phi2' = 0,
so their Wronskian phi2*phi1' - phi1*phi2' equals 1 there (and everywhere).
The free potential gets the closed-form pair sin(kx), cos(kx) with
Wronskian k.  Every other catalog entry is solved on a uniform grid by the
wave equation alone, which gives every derivative at a node as a linear
function of the node's (phi, phi'): one ``_wave_derivatives`` call gives
each node's Taylor coefficients phi^(m)/m!, m = 0..5, for the unit data
(1, 0) and (0, 1); 2x2 step maps built from them, each making two
neighbouring nodes' polynomials meet at the midpoint, carry (phi, phi') out
from the anchor as prefix products, formed by a scan within short blocks of
steps and a float loop from block to block; the marched values then turn
the unit coefficients into those of both solutions, which the pair keeps.
Nothing is differenced.

The march is on demand: ``solve_pair`` only sets up the grid, and each
side is marched out from the anchor a chunk of ``_MARCH_BLOCK`` blocks at a
time, when a reader asks for a node further out (``_Nodes``).  The blocks
are cut from the anchor as in a march over the whole side, and the float
loop carries on from chunk to chunk, so every node gets the same bits
whatever order the nodes are asked for in.  A run therefore marches only
the nodes its path reaches; reading ``domain`` or ``truncated`` marches
the rest.

Evaluation is array-first: ``SolutionPair.eval01``, ``phi_jets`` and
``PotentialModel.derivs`` accept one point or an array of points.  eval01
is the Horner sum from the nearest node, so a node gives back its stored
(phi, phi'); a point gives bit for bit its value inside an array.  The
Horner sum runs its slope recursion only for the readers of phi'
(``eval01`` and the jets); ``reduced_action.s0p`` reads the values alone.
The squares (phi1^2, phi1*phi2, phi2^2) of a node's polynomials are formed
in one array pass over their coefficients (``_square_primitives``), and
the table of their cell integrals is brought up to the marched nodes only
when a march has added nodes since it was last read.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .jets import Jet, Dual

if TYPE_CHECKING:
    from scipy.interpolate import CubicSpline

__all__ = [
    "PhysParams",
    "PotentialModel",
    "SolutionPair",
    "SchrodingerError",
    "DomainError",
    "solve_pair",
    "OVERFLOW_CAP",
]

OVERFLOW_CAP = 1e12
_MAX_PHI_ORDER = 6
# node Taylor coefficients phi^(m)/m! for m = 0..5, so phi' is a quartic; a
# higher degree does not bring eval01 closer on the h = 1e-3 grids
_TAYLOR_DEGREE = 5
# steps per block of the march's prefix product: a product over many more
# steps mixes the growing solution into the decaying one and loses the
# Wronskian
_MARCH_BLOCK = 64
# steps per chunk of the on-demand march, whole blocks; also the nodes per
# block of the cell-integral table, so its temporaries stay small
_CHUNK = _MARCH_BLOCK * _MARCH_BLOCK
_FACTORIALS = np.array([math.factorial(m) for m in range(_TAYLOR_DEGREE + 1)],
                       dtype=float)
# how far past a grid pair's covered domain eval01 still evaluates, in grid
# steps (1e-9 on the default 1e-3 grid)
_EDGE_TOL = 1e-6


class SchrodingerError(ValueError):
    """Invalid physical parameters or solver configuration."""


class DomainError(SchrodingerError):
    """Evaluation outside the solved domain, or an unsolvable domain."""


@dataclass(frozen=True)
class PhysParams:
    """Mass, Planck constant and total energy in consistent units."""

    hbar: float
    mu: float
    energy: float

    def __post_init__(self):
        if not (self.hbar > 0 and self.mu > 0):
            raise SchrodingerError("hbar and mu must be positive")
        if not math.isfinite(self.energy):
            raise SchrodingerError("energy must be finite")

    @property
    def kratio(self) -> float:
        """2*mu/hbar^2, the prefactor of (V - E) in the wave equation."""
        return 2.0 * self.mu / self.hbar**2


class PotentialModel:
    """One-dimensional potential from a small catalog.

    The analytic kinds (free, linear, harmonic) are one quadratic, V =
    slope*x + stiffness*x^2/2, in which a coefficient the kind does not
    use must be 0 (linear uses the slope, harmonic the stiffness); it
    evaluates exactly on floats, arrays, jets and dual numbers.  Tabulated potentials interpolate a strictly
    increasing (x, V) table with a cubic spline, whose derivative is used
    for dV/dx so value and gradient always come from the same interpolant;
    they take floats or arrays only.
    """

    def __init__(self, kind: str, *, slope: float = 0.0, stiffness: float = 0.0,
                 table: tuple[np.ndarray, np.ndarray] | None = None):
        if kind not in ("free", "linear", "harmonic", "tabulated"):
            raise SchrodingerError(f"unknown potential kind {kind!r}")
        self.kind = kind
        self.slope = float(slope)
        self.stiffness = float(stiffness)
        self._spline: CubicSpline | None = None
        for name, user in (("slope", "linear"), ("stiffness", "harmonic")):
            if kind != user and getattr(self, name) != 0.0:
                raise SchrodingerError(f"{kind} potential takes no {name}")
        if kind == "harmonic" and not self.stiffness > 0:
            raise SchrodingerError("harmonic potential needs positive stiffness")
        if kind == "tabulated":
            if table is None:
                raise SchrodingerError("tabulated potential needs a table")
            xs, vs = (np.asarray(a, dtype=float) for a in table)
            if xs.ndim != 1 or xs.shape != vs.shape or len(xs) < 4:
                raise SchrodingerError("table needs matching 1-d arrays, >= 4 rows")
            if not np.all(np.diff(xs) > 0):
                raise SchrodingerError("table x values must be strictly increasing")
            from scipy.interpolate import CubicSpline  # deferred: slow import

            self._spline = CubicSpline(xs, vs)

    # -- constructors --------------------------------------------------

    @classmethod
    def free(cls) -> "PotentialModel":
        return cls("free")

    @classmethod
    def linear(cls, slope: float) -> "PotentialModel":
        return cls("linear", slope=slope)

    @classmethod
    def harmonic(cls, stiffness: float) -> "PotentialModel":
        return cls("harmonic", stiffness=stiffness)

    @classmethod
    def tabulated(cls, xs, vs) -> "PotentialModel":
        return cls("tabulated", table=(xs, vs))

    @classmethod
    def from_csv(cls, path) -> "PotentialModel":
        """Two-column CSV (x, V); a single non-numeric header row is allowed."""
        xs, vs = [], []
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) < 2:
                    raise SchrodingerError(f"CSV row {row!r} needs two columns")
                try:
                    x, v = float(row[0]), float(row[1])
                except ValueError:
                    if not xs:  # header line
                        continue
                    raise SchrodingerError(f"non-numeric CSV row {row!r}")
                xs.append(x)
                vs.append(v)
        return cls.tabulated(np.asarray(xs), np.asarray(vs))

    # -- evaluation ----------------------------------------------------

    def value(self, x):
        if self._spline is None:
            return self.slope * x + 0.5 * self.stiffness * x * x
        self._check_table_range(x)
        return self._spline(x)

    def grad(self, x):
        if self._spline is None:
            return self.slope + self.stiffness * x
        self._check_table_range(x)
        return self._spline(x, 1)

    @property
    def knots(self):
        """The spline's breakpoints, where the third derivative jumps; None
        for the analytic kinds."""
        return None if self._spline is None else self._spline.x

    def derivs(self, x, m: int) -> list:
        """[V, V', ..., V^(m)] at x, a float or an array of points; entries
        beyond the quadratic's, or the spline's cubic, degree are zero."""
        if self._spline is None:
            out = [self.value(x), self.grad(x), self.stiffness]
        else:
            self._check_table_range(x)
            out = [self._spline(x, j)[()] for j in range(min(m, 3) + 1)]
        return (out + [0.0] * m)[: m + 1]

    def _check_table_range(self, x) -> None:
        if isinstance(x, (Jet, Dual)):
            raise SchrodingerError(
                "tabulated potentials take floats or arrays, not jets or duals")
        xs = self._spline.x
        if np.any(np.asarray(x) < xs[0]) or np.any(np.asarray(x) > xs[-1]):
            raise DomainError(
                f"x outside tabulated range [{xs[0]}, {xs[-1]}]"
            )


@dataclass
class SolutionPair:
    """Two independent real wave solutions sharing one energy.

    ``domain`` is the interval actually covered (it may be narrower than
    ``requested`` when the solution magnitude hit the overflow cap, in which
    case ``truncated`` is set); on a grid pair reading either marches every
    node.  ``wronskian_ref`` is the pair's constant Wronskian: k for the
    analytic free pair, 1 for Taylor-marched pairs.  A grid pair's nodes
    are indexed from the first node of the requested domain.
    """

    potential: PotentialModel
    params: PhysParams
    anchor: float
    requested: tuple[float, float]
    wronskian_ref: float
    source: str  # "analytic" | "taylor"
    _nodes: _Nodes | None = field(default=None, repr=False)
    _k: float | None = field(default=None, repr=False)

    # wave number, defined for the free analytic pair
    @property
    def k(self) -> float:
        if self.source != "analytic":
            raise SchrodingerError("wave number is defined for the free pair only")
        return self._k

    @property
    def domain(self) -> tuple[float, float]:
        if self._nodes is None:
            return self.requested
        g = self._nodes
        g.complete()
        return float(g.xs[g.lo]), float(g.xs[g.hi])

    @property
    def truncated(self) -> bool:
        if self._nodes is None:
            return False
        self._nodes.complete()
        return self._nodes.capped

    def truncation_note(self) -> str | None:
        """The line reporting a march stopped at the overflow cap, naming
        the requested and the covered domain; None while the march has not
        met the cap.  Only a note marches the rest of the pair, to name the
        covered domain."""
        if self._nodes is None or not self._nodes.capped:
            return None
        (r0, r1), (c0, c1) = self.requested, self.domain
        return (f"Taylor-marched pair truncated at the overflow cap: requested"
                f" domain [{r0:.6g}, {r1:.6g}], covered [{c0:.6g}, {c1:.6g}]")

    def march(self, step: int) -> bool:
        """March a grid pair one chunk further in the direction step (1
        right, -1 left); False, marching nothing, once that side is
        complete, and always on the free pair."""
        return self._nodes is not None and self._nodes.march(step)

    def outermost(self, step: int) -> int:
        """Index of the outermost node of a grid pair marched so far in the
        direction step."""
        return self._nodes.hi if step > 0 else self._nodes.lo

    def eval01(self, x):
        """(phi1, phi1', phi2, phi2') at x, a float or an array of points.

        On a Taylor-marched pair both solutions are the Taylor polynomials of
        the grid node nearest the point, summed by Horner's rule together
        with their derivatives; at a node they give back its stored (phi,
        phi').
        """
        return self._eval(x, slopes=True)

    def _eval(self, x, slopes: bool):
        """``eval01``, or only its values (phi1, phi2) unless ``slopes``:
        a grid pair's Horner sum then skips the slope recursion, which
        leaves the values' bits as they are."""
        x = np.asarray(x, dtype=float)
        if self.source == "analytic":
            k = self._k
            s, c = np.sin(k * x), np.cos(k * x)
            return (s, k * c, c, -k * s) if slopes else (s, c)
        outside = ~self.covers(np.atleast_1d(x))
        if outside.any():
            raise DomainError(f"x = {np.atleast_1d(x)[outside][0]} outside "
                              f"solved domain {list(self.domain)}")
        i, s = self._nodes.nearest(x)  # covers marched out to x
        return _horner(self._nodes.taylor[:, :, i], s, slopes)

    def covers(self, x):
        """Whether eval01 accepts x, elementwise for an array: every x on
        the analytic pair, x within _EDGE_TOL grid steps of the covered
        domain on a grid pair, which is marched out to x first."""
        if self.source == "analytic":
            return np.full(np.shape(x), True)
        lo, hi = self._nodes.reach(x)
        tol = _EDGE_TOL * self._nodes.h
        return (lo - tol <= x) & (x <= hi + tol)

    def nearest_node(self, x):
        """Index of the node nearest x and x's offset from it.  The free
        pair's nodes are the points m*pi/k, one per period of its squares,
        for every integer m."""
        if self.source == "analytic":
            h = math.pi / self.k
            i = np.rint(np.asarray(x) / h).astype(np.intp)
            return i, x - i * h
        self._nodes.reach(x)
        return self._nodes.nearest(x)

    def cells(self, i):
        """(x_i, lo, hi): the positions of the nodes i and the offsets from
        them that bound their cells [x_i - h/2, x_i + h/2].  A grid pair's
        two end cells stop at the covered domain's edges, once the march
        has reached them; the free pair's cells are its periods pi/k."""
        i = np.asarray(i)
        if self.source == "analytic":
            h = math.pi / self.k
            half = np.full(i.shape, 0.5 * h)
            return i * h, -half, half
        g = self._nodes
        i = g.at(i)
        first, last = g.ends()
        half = 0.5 * g.h
        return (g.xs[i], np.where(i == first, 0.0, -half),
                np.where(i == last, 0.0, half))

    def cell_integrals(self, i):
        """Integrals of (phi1^2, phi1*phi2, phi2^2) over the cells of nodes
        i (see ``cells``), shape (3,) + shape(i).  On a grid pair i may be
        a slice of the nodes, cut to the covered ones; the result is then a
        view of the table.

        A grid pair sums its node polynomials' squares over every marched
        cell once, on first use, and keeps the table, so every run on the
        pair reads the same values.  The free pair's cells are all alike:
        (h/2, 0, h/2) with h = pi/k.
        """
        if self.source == "analytic":
            h = math.pi / self.k
            return np.multiply.outer((0.5 * h, 0.0, 0.5 * h),
                                     np.ones(np.shape(i)))
        i = self._nodes.at(i)
        return self._nodes.cell_table()[:, i]

    def square_primitives(self, i):
        """F with F(s) = integral from 0 to s of (phi1^2, phi1*phi2,
        phi2^2)(x_i + u) du, shape (3,) + shape(i), for offsets s from the
        nodes i (see ``nearest_node``).  On a grid pair the squares are the
        products of the node polynomials, all their coefficients formed at
        once and integrated term by term; on the free pair, where they are
        sin^2, sin*cos and cos^2 of k*s, F is closed form."""
        if self.source == "analytic":
            k = self.k

            def free(s):
                s = np.asarray(s, dtype=float)
                wave = np.sin(2.0 * k * s) / (4.0 * k)
                return np.array((0.5 * s - wave, np.sin(k * s) ** 2 / (2.0 * k),
                                 0.5 * s + wave))

            return free
        return _square_primitives(self._nodes.taylor[:, :, self._nodes.at(i)])

    def phi_jets(self, x, order: int) -> tuple[Jet, Jet]:
        """Spatial jets of (phi1, phi2) at x (a float or an array of
        points) to the given order: orders 0 and 1 from ``eval01``, higher
        ones from the wave equation's recursion (``_wave_derivatives``), so
        nothing is differenced numerically."""
        if not 0 <= order <= _MAX_PHI_ORDER:
            raise SchrodingerError(f"order must be in [0, {_MAX_PHI_ORDER}]")
        p1, d1, p2, d2 = self.eval01(x)
        tower = [np.array((p1, p2)), np.array((d1, d2))] + [None] * (order - 1)
        rows = np.asarray(
            _wave_derivatives(self.potential, self.params, x, tower)[: order + 1])
        return Jet(tuple(rows[:, 0])), Jet(tuple(rows[:, 1]))

    def own_jets(self, x) -> tuple[Jet, Jet]:
        """Order-2 spatial jets of (phi1, phi2) at x (a float or an array
        of points), every order read from the pair itself: sin kx and cos
        kx at the pair's k, or the nearest node's polynomials.  Unlike
        ``phi_jets``, phi'' does not come from the wave equation at
        ``params.energy``, so it carries the energy the pair was built
        at."""
        p1, d1, p2, d2 = self.eval01(x)
        if self.source == "analytic":
            k2 = self.k * self.k
            dd1, dd2 = -k2 * p1, -k2 * p2
        else:
            i, s = self.nearest_node(np.asarray(x, dtype=float))
            # phi''/m! has the coefficients m (m - 1) c_m, m >= 2
            m = np.arange(2, _TAYLOR_DEGREE + 1)
            dd1, _, dd2, _ = _horner(
                (self._nodes.taylor[2:, :, i].T * (m * (m - 1))).T, s)
        return Jet((p1, d1, dd1)), Jet((p2, d2, dd2))


class _Nodes:
    """A grid pair's nodes, marched out from the anchor on demand.

    Node j sits at anchor + h*(j - base) for j = 0..n-1, the grid over the
    requested domain, with base the anchor's index; the arrays hold every
    node, but only the nodes lo..hi have been marched.  ``march`` takes a
    side one chunk of _CHUNK steps further: the chunk's unit table, read
    again at its first node, its step maps and block scan (``_march``), and
    the float loop carried on from the side's last block.  A side is
    complete at the requested edge or at the first node past the overflow
    cap (then ``capped`` is set).  The cell integrals are tabled for the
    marched nodes when they are read (``cell_table``).
    """

    def __init__(self, potential, params, anchor: float, h: float,
                 n_left: int, n_right: int):
        self.potential, self.params, self.anchor, self.h = (
            potential, params, anchor, h)
        n = n_left + n_right + 1
        self.base = self.lo = self.hi = n_left
        self.x_ref = anchor + h * -n_left  # node 0
        self.xs = np.empty(n)
        self.taylor = np.empty((_TAYLOR_DEGREE + 1, 2, n))
        # the table of cell integrals, and the (lo, hi, ends()) it was
        # brought up to: none yet
        self.table, self.moments = None, None
        self.tabled = n_left + 1, n_left, (-1, -1)
        # each side's steps, and the (phi1, phi1', phi2, phi2') of its
        # outermost node, None once the side is complete
        self.steps = {-1: n_left, 1: n_right}
        self.carry = {step: (0.0, 1.0, 1.0, 0.0) if self.steps[step] else None
                      for step in (-1, 1)}
        self.capped = False
        # the anchor: its unit table, turned by the anchor data
        xs = anchor + h * np.arange(1)
        unit = _unit_table(potential, params, xs)
        unit[:2, :, 0] = (0.0, 1.0), (1.0, 0.0)
        self.xs[n_left] = xs[0]
        self._store(slice(n_left, n_left + 1), unit)

    def _store(self, cols: slice, unit: np.ndarray) -> None:
        """Keep the nodes ``cols``, given by a unit table whose rows 0 and 1
        hold the solutions' (phi, phi'): its unit coefficients become those
        of (phi1, phi2)."""
        for row in unit[2:]:
            row[:] = row[:1] * unit[0] + row[1:] * unit[1]
        self.taylor[:, :, cols] = unit
        self.x_lo, self.x_hi = float(self.xs[self.lo]), float(self.xs[self.hi])

    def march(self, step: int) -> bool:
        """March side ``step`` one chunk further; False once it is
        complete."""
        start = self.carry[step]
        if start is None:
            return False
        done = self.hi - self.base if step > 0 else self.base - self.lo
        k = step * np.arange(done, min(done + _CHUNK, self.steps[step]) + 1)
        xs = self.anchor + self.h * k
        unit = _unit_table(self.potential, self.params, xs)
        n, end = _march(unit, step * self.h, start)
        short = done + n < self.steps[step]
        self.carry[step] = end if short else None
        self.capped |= end is None and short
        if step > 0:
            cols, new = slice(self.hi + 1, self.hi + n + 1), slice(1, n + 1)
            self.hi += n
        else:
            cols, new = slice(self.lo - n, self.lo), slice(n, 0, -1)
            self.lo -= n
        self.xs[cols] = xs[new]
        self._store(cols, unit[:, :, new])
        return True

    def reach(self, x) -> tuple[float, float]:
        """March each side out past the points x (NaN aside), or to its
        end; returns the positions of the outermost marched nodes."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            near = far = float(x)
        elif x.size:
            near = np.fmin.reduce(x, axis=None)
            far = np.fmax.reduce(x, axis=None)
        else:
            return self.x_lo, self.x_hi
        while self.x_hi < far and self.march(1):
            pass
        while self.x_lo > near and self.march(-1):
            pass
        return self.x_lo, self.x_hi

    def nearest(self, x):
        """``SolutionPair.nearest_node`` among the marched nodes."""
        i = np.rint((x - self.x_ref) / self.h).astype(np.intp)
        i = np.minimum(np.maximum(i, self.lo), self.hi)
        return i, x - self.xs[i]

    def at(self, i):
        """The node indices i, an array or a slice of step 1, once both
        sides are marched out to them; a slice is cut to the covered
        nodes, and an array past them raises IndexError."""
        if isinstance(i, slice):
            first, stop, _ = i.indices(self.xs.size)
            last = stop - 1
        else:
            i = np.asarray(i)
            first, last = (int(i.min()), int(i.max())) if i.size else (0, -1)
        while self.hi < last and self.march(1):
            pass
        while self.lo > first and first <= last and self.march(-1):
            pass
        if isinstance(i, slice):
            return slice(max(first, self.lo), min(stop, self.hi + 1))
        if i.size and (first < self.lo or last > self.hi):
            raise IndexError(f"nodes {first}..{last} outside the covered"
                             f" nodes {self.lo}..{self.hi}")
        return i

    def complete(self) -> None:
        """March both sides to their ends."""
        for step in (-1, 1):
            while self.march(step):
                pass

    def ends(self) -> tuple[int, int]:
        """Indices of the covered domain's first and last nodes, -1 for a
        side the march has not completed."""
        return (self.lo if self.carry[-1] is None else -1,
                self.hi if self.carry[1] is None else -1)

    def cell_table(self) -> np.ndarray:
        """The table of cell integrals, brought up to the marched nodes.
        Over a cell [-h/2, h/2] the integral of p*q for two node
        polynomials is the quadratic form sum_jk p_j M_jk q_k with the
        moments M_jk = integral of s^(j+k) ds, zero for odd j + k, formed
        with the table; it runs over blocks of nodes, so temporaries stay
        small.  A complete side's end cell stops at the node, and is summed
        apart.  The table is returned as it is while no node and no end
        has been marched since the last call."""
        state = self.lo, self.hi, self.ends()
        if state == self.tabled:
            return self.table
        half = 0.5 * self.h
        a, b, tabled_ends = self.tabled
        if self.table is None:
            self.table = np.empty((3, self.xs.size))
            m = np.arange(_TAYLOR_DEGREE + 1)
            power = m[:, None] + m
            self.moments = np.where(power % 2, 0.0,
                                    2.0 * half ** (power + 1) / (power + 1))
        for lo, hi in ((self.lo, a), (b + 1, self.hi + 1)):
            for start in range(lo, hi, _CHUNK):
                block = slice(start, min(start + _CHUNK, hi))
                p = self.taylor[:, :, block]
                mp = np.tensordot(self.moments, p, 1)
                for row, (u, v) in zip(self.table, ((0, 0), (0, 1), (1, 1))):
                    row[block] = np.einsum("jb,jb->b", p[:, u], mp[:, v])
        for end, old, (s_lo, s_hi) in zip(state[2], tabled_ends,
                                          ((0.0, half), (-half, 0.0))):
            if end >= 0 and end != old:
                prim = _square_primitives(self.taylor[:, :, end])
                self.table[:, end] = prim(s_hi) - prim(s_lo)
        self.tabled = state
        return self.table


def solve_pair(potential: PotentialModel, params: PhysParams,
               domain: tuple[float, float], anchor: float | None = None,
               grid_step: float = 1e-3) -> SolutionPair:
    """Build the normalized solution pair over ``domain``.

    The free potential returns the closed-form pair.  Everything else is
    marched with the nodes' own Taylor polynomials over a grid of step
    ``grid_step``, in both directions from the anchor, as far as its
    readers ask (see the module docstring).
    """
    lo, hi = float(domain[0]), float(domain[1])
    if not hi > lo:
        raise DomainError(f"empty domain ({lo}, {hi})")
    if anchor is None:
        anchor = 0.5 * (lo + hi)
    anchor = float(anchor)
    if not (lo <= anchor <= hi):
        raise DomainError(f"anchor {anchor} outside domain ({lo}, {hi})")

    if potential.kind == "free":
        if not params.energy > 0:
            raise SchrodingerError("free-particle pair needs positive energy")
        k = math.sqrt(2.0 * params.mu * params.energy) / params.hbar
        return SolutionPair(potential, params, anchor, (lo, hi), k, "analytic",
                            _k=k)

    if not grid_step > 0:
        raise SchrodingerError("grid_step must be positive")

    h = grid_step
    n_left = int(math.ceil((anchor - lo) / h - 1e-9))
    n_right = int(math.ceil((hi - anchor) / h - 1e-9))
    if n_left + n_right < 8:
        raise DomainError("domain too narrow for the requested grid step")
    # a table must span the grid's two end nodes, checked before any march
    potential.value(anchor + h * np.array([-n_left, n_right]))
    return SolutionPair(potential, params, anchor, (lo, hi), 1.0, "taylor",
                        _Nodes(potential, params, anchor, h, n_left, n_right))


def _unit_table(potential: PotentialModel, params: PhysParams,
                xs: np.ndarray) -> np.ndarray:
    """Every node's phi^(m)/m! for the node data (phi, phi') = (1, 0) in
    column 0 and (0, 1) in column 1, shape (degree + 1, 2, len(xs))."""
    table = np.zeros((_TAYLOR_DEGREE + 1, 2, len(xs)))
    table[0, 0] = table[1, 1] = 1.0
    _wave_derivatives(potential, params, xs, table)
    table /= _FACTORIALS[:, None, None]
    return table


def _march(table: np.ndarray, s: float, start):
    """March both solutions over a unit table's nodes, a step s apart, from
    ``start``, their (phi1, phi1', phi2, phi2') at the first node; each step
    solves for the (phi, phi') whose polynomials meet the last node's at the
    midpoint.  Writes them to rows 0 and 1 past the first node and returns
    the step count, up to and including the first node with a phi past
    OVERFLOW_CAP, and the state at the last node, None when the march
    stopped short of it at the cap.

    The nodes' values are the prefix products of the 2x2 step maps applied
    to the start.  The maps are cut into blocks of _MARCH_BLOCK steps (the
    last one padded with identities); a doubling scan forms every block's
    prefix products at once, then a float loop carries both solutions from
    block to block, stopping after the first block whose end passes the
    cap, and one product writes the covered blocks' nodes.
    """
    m = table.shape[2] - 1
    blocks = -(-m // _MARCH_BLOCK)
    pa, da, pb, db = _horner(table[:, :, :-1], 0.5 * s)
    qa, ea, qb, eb = _horner(table[:, :, 1:], -0.5 * s)
    det = qa * eb - qb * ea
    # every step's map [[a, b], [c, e]], one row per entry, identities past
    # the last step; formed in place, so one temporary is alive at a time
    maps = np.empty((4, blocks * _MARCH_BLOCK))
    maps[:, m:] = ((1.0,), (0.0,), (0.0,), (1.0,))
    for entry, (u, v, w, z) in zip(maps[:, :m], (
            (eb, pa, qb, da), (eb, pb, qb, db), (qa, da, ea, pa),
            (qa, db, ea, pb))):
        np.multiply(u, v, out=entry)
        entry -= w * z
        entry /= det
    del pa, da, pb, db, qa, ea, qb, eb, det
    maps = maps.reshape(2, 2, blocks, _MARCH_BLOCK)
    spare = np.empty_like(maps)
    # products in blocks past the cap may overflow; they are never kept
    with np.errstate(over="ignore", invalid="ignore"):
        d = 1
        while d < _MARCH_BLOCK:  # each node's map times its block's earlier ones
            np.einsum("ijkb,jlkb->ilkb", maps[..., d:], maps[..., :-d],
                      out=spare[..., d:])
            spare[..., :d] = maps[..., :d]
            maps, spare, d = spare, maps, 2 * d
        # the state at each block's first node, columns (phi, phi') of both
        # solutions, up to the first block that ends past the cap
        y1, d1, y2, d2 = start
        starts, capped = [], False
        for a, b, c, e in zip(*maps[:, :, :, -1].reshape(4, blocks).tolist()):
            starts.append((y1, y2, d1, d2))
            y1, d1 = a * y1 + b * d1, c * y1 + e * d1
            y2, d2 = a * y2 + b * d2, c * y2 + e * d2
            if not (abs(y1) <= OVERFLOW_CAP and abs(y2) <= OVERFLOW_CAP):
                capped = True
                break
        k = len(starts)
        starts = np.array(starts).T.reshape(2, 2, k)
        np.einsum("ijkb,jlk->ilkb", maps[:, :, :k], starts,
                  out=spare[:, :, :k])
    n = min(k * _MARCH_BLOCK, m)
    table[:2, :, 1 : n + 1] = spare.reshape(2, 2, -1)[:, :, :n]
    past = (abs(table[0, :, 1 : n + 1]) > OVERFLOW_CAP).any(axis=0)
    if past.any():
        return int(past.argmax()) + 1, None
    return n, None if capped else (y1, d1, y2, d2)


def _square_primitives(coeffs):
    """``SolutionPair.square_primitives`` of the node polynomials whose
    Taylor coefficients are ``coeffs``, shape (degree + 1, 2, ...).

    The squares' 2*degree + 1 coefficients are formed at once, one shifted
    multiply-add per coefficient j of the first factor: the coefficient m
    of p*q sums p_j q_(m-j) over j upward from +0.0."""
    deg = len(coeffs) - 1
    first, second = coeffs[:, (0, 0, 1)], coeffs[:, (0, 1, 1)]
    terms = np.zeros((2 * deg + 1,) + second.shape[1:])
    for j, c in enumerate(first):
        terms[j : j + deg + 1] += c * second
    prim = (terms.T / np.arange(1.0, 2 * deg + 2)).T

    def grid(s):
        acc = prim[-1]
        for c in prim[-2::-1]:
            acc = acc * s + c
        return acc * s

    return grid


def _horner(coeffs, s: float, slopes: bool = True):
    """(p1, p1', p2, p2') at offset s of the polynomial pairs whose Taylor
    coefficients are ``coeffs``, lowest order first, shape (degree + 1, 2,
    ...); (p1, p2) alone, without the slope recursion, unless ``slopes``."""
    (p1, p2), d1, d2 = coeffs[-1], 0.0, 0.0
    for c1, c2 in coeffs[-2::-1]:
        if slopes:
            d1, d2 = d1 * s + p1, d2 * s + p2
        p1, p2 = p1 * s + c1, p2 * s + c2
    return (p1, d1, p2, d2) if slopes else (p1, p2)


def _wave_derivatives(potential: PotentialModel, params: PhysParams, x,
                      tower):
    """Fill ``tower[2:]`` with phi'', phi''', ... at x from tower[0] = phi
    and tower[1] = phi', by phi'' = f phi with f = (2 mu/hbar^2)(V - E) and
    its Leibniz descendants phi^(m) = sum_j C(m-2, j) f^(j) phi^(m-2-j).
    Entries broadcast against x, so one call serves both solutions."""
    top = len(tower) - 1
    if top < 2:
        return tower
    c = params.kratio
    fd = potential.derivs(x, top - 2)
    fd = [c * (fd[0] - params.energy)] + [c * v for v in fd[1:]]
    for m in range(2, top + 1):
        acc = 0.0
        for j in range(m - 1):
            acc += math.comb(m - 2, j) * fd[j] * tower[m - 2 - j]
        tower[m] = acc
    return tower
