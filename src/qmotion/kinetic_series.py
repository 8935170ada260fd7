"""hbar-graded series machinery for third-order kinetic Lagrangians.

The kinetic term is modeled as a double series over levels n (powers of
hbar) and spatial weights k,

    T = sum_{n,k} (hbar^n / mu^(n-1)) [ alpha_nk x^k xdd^(n+k) / xd^(3n+2k-2)
                                  + beta_nk x^k xdd^(n+k-2) xddd / xd^(3n+2k-3) ],

with the convention that any factor carrying exponent zero is skipped
(0^0 = 1), so entries with n+k = 2 never divide by xdd.  On top of T the
module provides: the regularized Lagrangian T + (lam/2) xddd^2 - V, the
three conjugate momenta of the third-order formalism, the action-gradient
series dS0/dx together with its second and third spatial derivatives, the
master identity tying these to the quantum stationary Hamilton-Jacobi
equation, and the level-by-level determination of the physical
coefficient values, which matches the identity's monomial coefficients
exactly.

Each series is a table of monomials, and T's is the only one written
down: every other table is derived from it exactly, once per lattice.
The momenta follow Ostrogradsky's construction, Xi = dT/dxddd,
Pi = dT/dxdd - d/dt Xi and P = dT/dxd - d/dt Pi.  In the stationary case
S0' = (L + H)/xd = P + Pi xdd/xd + Xi xddd/xd, which the canonical
lattice reduces to Bohm's relation S0' = mu xd.  S0'', S0''' and the
Hamiltonian's gradient sums are derivatives of these tables.

All evaluators are generic over the numeric type of the state entries
(floats, jets, dual numbers, or numpy arrays holding one column of a batch
of states).  The master identity is graded by hbar on level arrays: a
term's hbar power is its table key n, so each series is held as a
(levels,) + batch array whose row n is its level-n terms, and the
identity's pieces are truncated products of such arrays (Taylor
arithmetic over arrays, Griewank and Walther, *Evaluating Derivatives*,
ch. 13).  A single state is the same computation on floats.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import NamedTuple

import numpy as np

from .jets import Dual, Jet, SingularityError, _power

__all__ = [
    "LatticeError",
    "DeterminationError",
    "KineticCoefficients",
    "Momenta",
    "kinetic_term",
    "series_momenta",
    "momenta_state",
    "master_residual",
    "level_residuals",
    "term_exponents",
    "sample_jet_block",
    "sample_jets",
    "sample_states",
    "determine_coefficients",
    "LevelReport",
    "DeterminationReport",
]


class LatticeError(ValueError):
    """Malformed coefficient lattice."""


class DeterminationError(RuntimeError):
    """The master identity's monomial equations admit no solution, or the
    determined lattice fails its confirmation at random states."""


# ---------------------------------------------------------------------------
# generic monomial evaluation

def _vanishes(v) -> bool:
    """Whether the leading numeric value of a float/Jet/Dual is zero, at any
    state of a batch when it is an array; for singularity checks."""
    while not isinstance(v, float):  # floats first: the scalar paths are hot
        if isinstance(v, Jet):
            v = v.value
        elif isinstance(v, Dual):
            v = v.re
        elif isinstance(v, np.ndarray):
            return bool((v == 0).any())
        else:
            break
    return v == 0


def _ipow(base, e: int):
    """base**e for integer e with the 0^0 = 1 skip convention; floats and
    arrays by ``jets._power``, so a float gets the bits of an array entry."""
    if e == 0:
        return 1
    if e < 0 and _vanishes(base):
        raise SingularityError("negative power of a vanishing state component")
    if isinstance(base, (float, np.ndarray)):
        return _power(1.0 / base if e < 0 else base, abs(e))
    return base ** e


def _mono(vals, e, powers: dict):
    """prod vals[i]^e[i] over the slots (x, xd, xdd, xddd, x4, x5) that
    ``e`` reaches, the xd factor first (e[1] is usually < 0); ``powers``
    keeps each vals[i]^p for the other monomials of one evaluation."""
    val = None
    for i in (1, 0, 2, 3, 4, 5):
        p = e[i]
        if p or i == 1:
            f = powers.get((i, p))
            if f is None:
                f = powers[(i, p)] = _ipow(vals[i], p)
            val = f if val is None else val * f
    return val


def _prefactor(mu, hbar, n: int):
    """hbar^n / mu^(n-1) with exponent-zero skips (classical level keeps a
    bare mu and no hbar factor, so hbar = 0 is admissible)."""
    val = _ipow(mu, 1 - n)
    if n:
        val = _ipow(hbar, n) * val
    return val


# ---------------------------------------------------------------------------
# monomial tables
#
# A series over the state is held as a table {(n, e): coef} of the terms
#
#     coef * hbar^n / mu^(n-1) * x^e[0] xd^e[1] xdd^e[2] xddd^e[3] x4^e[4] x5^e[5],
#
# so a derivative of a series is an exact rewrite of its exponent tuples
# (Taylor arithmetic on exponents, Griewank and Walther, *Evaluating
# Derivatives*, ch. 13) and one evaluator serves every series.

def _partial(table: dict, slot: int) -> dict:
    """Partial derivative of a table with respect to one state slot."""
    out = {}
    for (n, e), coef in table.items():
        if e[slot]:
            d = list(e)
            d[slot] -= 1
            out[(n, tuple(d))] = coef * e[slot]
    return out


def _sum(*parts) -> dict:
    """Sum of tables, each times a monomial: ``parts`` are (table, coef,
    exponents) triples, the exponents added to every term's; terms that
    cancel are dropped."""
    out = {}
    for table, scale, shift in parts:
        for (n, e), coef in table.items():
            key = (n, tuple(map(add, e, shift)))
            out[key] = out.get(key, 0.0) + scale * coef
    return {key: coef for key, coef in out.items() if coef}


_ONE = (0, 0, 0, 0, 0, 0)
_NEXT = ((0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
         (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1))


def _d_dt(table: dict) -> dict:
    """Total time derivative of a table: the sum over slots of the partial
    derivative times the next slot (no term may carry x5)."""
    return _sum(*((_partial(table, s), 1, _NEXT[s]) for s in range(5)))


def _d_dx(table: dict) -> dict:
    """d/dx = (d/dt)/xd of a table."""
    return _sum((_d_dt(table), 1, (0, -1, 0, 0, 0, 0)))


def _evaluate(tables, state, mu, hbar) -> tuple:
    """Sums of the tables' terms at a state (x, xd, ...) of floats, jets,
    duals or (N,) arrays, one per table, in one pass that shares powers and
    prefactors; the state needs only the slots the tables reach."""
    prefs, powers = {}, {}
    totals = []
    for table in tables:
        total = 0.0
        for (n, e), coef in table.items():
            if n not in prefs:
                prefs[n] = _prefactor(mu, hbar, n)
            total = total + coef * prefs[n] * _mono(state, e, powers)
        totals.append(total)
    return tuple(totals)


# ---------------------------------------------------------------------------
# coefficient lattice

class KineticCoefficients:
    """Sparse lattice (n, k) -> (alpha, beta), n >= 0, k >= 0.

    Entry (n, k) weighs T's two monomials at level n with the spatial
    factor x^k (see ``term_exponents``); zero entries are dropped.
    """

    def __init__(self, entries: dict | None = None):
        clean: dict[tuple[int, int], tuple[float, float]] = {}
        for key, val in (entries or {}).items():
            n, k = key
            if n < 0 or k < 0 or n != int(n) or k != int(k):
                raise LatticeError(f"invalid lattice index {key!r}")
            al, be = float(val[0]), float(val[1])
            if al != 0.0 or be != 0.0:
                clean[(int(n), int(k))] = (al, be)
        self.entries = clean
        self._derived = {}

    @classmethod
    def canonical(cls) -> "KineticCoefficients":
        return cls({(0, 0): (0.5, 0.0), (2, 0): (0.625, -0.25)})

    @property
    def n_max(self) -> int:
        return max((n for n, _ in self.entries), default=0)

    def with_entry(self, n: int, k: int, alpha: float | None = None,
                   beta: float | None = None) -> "KineticCoefficients":
        """Copy with one lattice point replaced (None keeps the old value)."""
        new = dict(self.entries)
        old = new.get((n, k), (0.0, 0.0))
        new[(n, k)] = (old[0] if alpha is None else alpha,
                       old[1] if beta is None else beta)
        return KineticCoefficients(new)

    def derived(self, build):
        """``build(self)``, computed on the first call and kept, so each
        monomial table is derived once per lattice (``entries`` never
        changes after construction; with_entry copies)."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KineticCoefficients):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        cells = ", ".join(
            f"({n},{k}): a={a:g}, b={b:g}"
            for (n, k), (a, b) in sorted(self.entries.items())
        )
        return f"KineticCoefficients({{{cells}}})"


def term_exponents(n: int, k: int) -> dict:
    """Exponent bookkeeping of the two monomials at lattice point (n, k)."""
    return {
        "alpha": {"x": k, "xdd": n + k, "xd": -(3 * n + 2 * k - 2), "xddd": 0},
        "beta": {"x": k, "xdd": n + k - 2, "xd": -(3 * n + 2 * k - 3), "xddd": 1},
    }


# ---------------------------------------------------------------------------
# tables derived from T

def _kinetic_table(c: KineticCoefficients) -> dict:
    """T as a monomial table, the one series written out term by term."""
    table = {}
    for (n, k), coefs in sorted(c.entries.items()):
        for e, coef in zip(term_exponents(n, k).values(), coefs):
            if coef:
                table[(n, (e["x"], e["xd"], e["xdd"], e["xddd"], 0, 0))] = coef
    return table


def _momentum_tables(c: KineticCoefficients) -> tuple:
    """(P, Pi, Xi) as monomial tables, by Ostrogradsky's construction:
    Xi = dT/dxddd, Pi = dT/dxdd - d/dt Xi and P = dT/dxd - d/dt Pi.  T is
    linear in xddd, so the x4 and x5 terms cancel."""
    t = c.derived(_kinetic_table)
    xi = _partial(t, 3)
    pi = _sum((_partial(t, 2), 1, _ONE), (_d_dt(xi), -1, _ONE))
    p = _sum((_partial(t, 1), 1, _ONE), (_d_dt(pi), -1, _ONE))
    return p, pi, xi


def _s0p_table(c: KineticCoefficients) -> dict:
    """S0' = (L + H)/xd = P + Pi xdd/xd + Xi xddd/xd as a monomial table;
    the canonical lattice leaves mu xd alone (Bohm's relation)."""
    p, pi, xi = c.derived(_momentum_tables)
    return _sum((p, 1, _ONE), (pi, 1, (0, -1, 1, 0, 0, 0)),
                (xi, 1, (0, -1, 0, 1, 0, 0)))


def _s0_tables(c: KineticCoefficients) -> tuple:
    """S0' and its first two spatial derivatives as monomial tables; the
    derivatives follow from S0' by d/dx."""
    s1 = c.derived(_s0p_table)
    s2 = _d_dx(s1)
    return s1, s2, _d_dx(s2)


def _series_tables(c: KineticCoefficients) -> tuple:
    """The tables of S0', S0'', S0''' and T, the series of the master
    identity."""
    return c.derived(_s0_tables) + (c.derived(_kinetic_table),)


# ---------------------------------------------------------------------------
# kinetic term and Lagrangian

def kinetic_term(c: KineticCoefficients, x, xd, xdd, xddd, mu, hbar):
    """T evaluated on generic state components (floats, jets, duals, or
    (N,) arrays of a batch of states)."""
    if _vanishes(xd):
        raise SingularityError("xd = 0 in kinetic series")
    return _evaluate((c.derived(_kinetic_table),), (x, xd, xdd, xddd),
                     mu, hbar)[0]


def _state_from_jet(j: Jet) -> tuple:
    """The state (x .. x5) of a motion jet of order >= 5."""
    if j.order < 5:
        raise LatticeError(
            f"jet carries {j.order + 1} derivatives, need at least 6")
    return j.coeffs[:6]


# ---------------------------------------------------------------------------
# conjugate momenta

class Momenta(NamedTuple):
    """Principal momentum and the two secondary ones."""

    P: float
    Pi: float
    Xi: float


def momenta_state(c: KineticCoefficients, state, mu, hbar, lam=0.0) -> Momenta:
    """(P, Pi, Xi) from the full state (x .. x5), in one pass over the
    momentum tables derived from T.

    The six state entries may be (N,) arrays, one column each of a batch
    of states; the momenta are then arrays too.  The regulator adds
    lam*x5 to P, -lam*x4 to Pi and lam*xddd to Xi.
    """
    x, xd, xdd, xddd, x4, x5 = state
    if _vanishes(xd):
        raise SingularityError("xd = 0 in momentum series")
    p_tot, pi_tot, xi_tot = _evaluate(c.derived(_momentum_tables), state,
                                      mu, hbar)
    if lam:
        p_tot = p_tot + lam * x5
        pi_tot = pi_tot - lam * x4
        xi_tot = xi_tot + lam * xddd
    return Momenta(p_tot, pi_tot, xi_tot)


def series_momenta(c: KineticCoefficients, j: Jet, params,
                   lam: float = 0.0) -> Momenta:
    """(P, Pi, Xi) at a motion jet of order >= 5."""
    return momenta_state(c, _state_from_jet(j), params.mu, params.hbar, lam)


# ---------------------------------------------------------------------------
# master identity

def _columns(states) -> np.ndarray:
    """An (N, 6) array of states as six contiguous (N,) columns x .. x5."""
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 6:
        raise ValueError(f"expected an (N, 6) array of states, got {arr.shape}")
    return np.ascontiguousarray(arr.T)


def _level_series(c, state, mu, hbar, order: int) -> np.ndarray:
    """S0', S0'', S0''' and T as hbar-level arrays, shape (4, order + 1) +
    batch shape.  Row n holds a series' level-n terms, evaluated by
    ``_evaluate`` at hbar = 1 and scaled by hbar^n, so the rows sum to the
    series at hbar.  One evaluation serves the four series, sharing the
    powers of the state."""
    if _vanishes(state[1]):
        raise SingularityError("xd = 0 in action-gradient series")
    tables = {}  # (series, level) -> the level's terms
    for j, table in enumerate(c.derived(_series_tables)):
        for key, coef in table.items():
            if key[0] <= order:
                tables.setdefault((j, key[0]), {})[key] = coef
    vals = _evaluate(tables.values(), state, mu, 1.0)
    batch = np.broadcast_shapes(np.shape(state[1]), *map(np.shape, vals))
    out = np.zeros((4, order + 1) + batch)
    for key, v in zip(tables, vals):
        out[key] = v * hbar ** key[1]
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two hbar polynomials held as (levels,) + batch arrays,
    truncated to their levels; a's empty levels are skipped."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i in np.flatnonzero(a.reshape(len(a), -1).any(axis=1)):
        out[i:] += a[i] * b[:len(a) - i]
    return out


def _pieces(series: np.ndarray, xd, mu, hbar) -> np.ndarray:
    """hbar-level components of the five additive pieces of the master
    identity (see level_residuals), shape (levels, 5) + batch shape, from
    the (4, levels) + batch level arrays of S0', S0'', S0''' and T."""
    s1, s2, s3, t_val = series
    s1s1 = _mul(s1, s1)
    # the two hbar^2 pieces: level m takes the products' level m - 2
    quantum = np.zeros((2,) + s1.shape)
    quantum[0, 2:] = (0.375 * hbar * hbar / mu) * _mul(s2, s2)[:-2]
    quantum[1, 2:] = (-0.25 * hbar * hbar / mu) * _mul(s1, s3)[:-2]
    return np.stack((xd * _mul(s1s1, s1), -_mul(s1s1, s1s1) / (2.0 * mu),
                     quantum[0], quantum[1], -_mul(s1s1, t_val)), axis=1)


def level_residuals(c: KineticCoefficients, state, mu, hbar, order: int | None = None):
    """Per-hbar-level scaled residuals of the master identity.

    The identity reads

        xd*S0'^3 - S0'^4/(2 mu) + (hbar^2/4 mu)[(3/2) S0''^2 - S0' S0''']
            = S0'^2 * T.

    Each series is held as an array of its hbar levels, row n the terms of
    hbar power n, so every additive piece, a truncated product of such
    arrays, splits into level components.  Level m's residual is scaled by
    the largest piece magnitude at that level, which keeps the measure
    meaningful both where the classical terms dominate and deep in the
    quantum tail.  ``state`` holds floats, or (N,) array columns of a batch
    of states.  Returns (ratios, residuals, scales) indexed by level; with
    (N,) array state columns each has shape (order + 1, N).
    """
    if order is None:
        order = 2 * c.n_max + 2
    vals = _pieces(_level_series(c, state, mu, hbar, order), state[1], mu,
                   hbar)
    residuals = np.abs(vals.sum(axis=1))
    scales = np.abs(vals).max(axis=1)
    ratios = np.divide(residuals, scales, out=np.zeros_like(residuals),
                       where=scales > 0.0)
    return ratios, residuals, scales


def master_residual(c: KineticCoefficients, j, params):
    """Worst per-level scaled residual of the master identity.

    ``j`` is one motion jet of order >= 5, giving a float, or the same jet
    with (N,) array coefficients or an (N, 6) array of states x .. x5,
    giving an (N,) array with one residual per state, all evaluated in one
    pass.
    """
    state = _state_from_jet(j) if isinstance(j, Jet) else _columns(j)
    ratios, _, _ = level_residuals(c, state, params.mu, params.hbar)
    worst = ratios.max(axis=0)
    return worst if worst.ndim else float(worst)


# ---------------------------------------------------------------------------
# samplers

def sample_jet_block(rng: np.random.Generator, count: int,
                     order: int = 5) -> np.ndarray:
    """The coefficients of ``count`` random motion jets as one
    (count, order + 1) array, xd bounded away from zero: xd is uniform on
    +-[0.5, 2], all other components uniform on [-1, 1]."""
    if count < 0:
        raise ValueError(f"cannot draw {count} jets")
    block = rng.uniform(-1.0, 1.0, (count, order + 1))
    block[:, 1] = rng.choice([-1.0, 1.0], count) * rng.uniform(0.5, 2.0, count)
    return block


def sample_jets(rng: np.random.Generator, count: int, order: int = 5) -> list[Jet]:
    """Random motion jets: the rows of ``sample_jet_block``."""
    return [Jet(tuple(row)) for row in sample_jet_block(rng, count, order)]


def sample_states(rng: np.random.Generator, count: int) -> np.ndarray:
    """States for the confirmation of a determined lattice: x, xd and xdd
    all bounded away from zero (some monomials carry negative xdd
    exponents), higher components uniform on [-1, 1]."""
    states = rng.uniform(-1.0, 1.0, (count, 6))
    for col in (0, 1, 2):
        states[:, col] = (rng.choice([-1.0, 1.0], count)
                          * rng.uniform(0.5, 2.0, count))
    return states


# ---------------------------------------------------------------------------
# level-by-level coefficient determination

@dataclass
class LevelReport:
    level: int
    values: dict
    rank: int
    n_unknowns: int
    roots: list = field(default_factory=list)
    selected_root: float | None = None
    notes: list = field(default_factory=list)


@dataclass
class DeterminationReport:
    levels: list
    unique: bool

    def summary(self) -> str:
        lines = []
        for rep in self.levels:
            lines.append(f"level {rep.level}: rank {rep.rank}/{rep.n_unknowns}")
            solved = ", ".join(f"{lab}={v:g}"
                               for lab, v in sorted(rep.values.items()) if v)
            lines.append("  solved: " + (solved or "all zero"))
            if rep.roots:
                lines.append(
                    f"  quadratic roots {sorted(rep.roots)}; "
                    f"selected {rep.selected_root:g} (nonzero root keeps the "
                    "classical kinetic term)")
            for note in rep.notes:
                lines.append("  " + note)
        return "\n".join(lines)


# the unknowns of a level: spatial weights k = 0 .. _K_MAX, one per (alpha or
# beta, k)
_K_MAX = 4
_LABELS = tuple([("alpha", k) for k in range(_K_MAX + 1)]
                + [("beta", k) for k in range(_K_MAX + 1)])
_XD = (0, 1, 0, 0, 0, 0)
_HBAR2 = {(2, _ONE): 1.0}  # hbar^2 / mu at mu = 1, as a table


def _theta_lattice(theta, n: int,
                   base: KineticCoefficients | None = None) -> KineticCoefficients:
    """``base`` with level n set to theta, the values of ``_LABELS`` in order."""
    entries = dict(base.entries) if base is not None else {}
    for k in range(_K_MAX + 1):
        al, be = theta[k], theta[_K_MAX + 1 + k]
        if al or be:
            entries[(n, k)] = (al, be)
    return KineticCoefficients(entries)


def _level_values(n: int, theta) -> dict:
    """The level-n unknowns by their lattice names, alpha{n}{k} and beta{n}{k}."""
    return {f"{kind}{n}{k}": float(v) for (kind, k), v in zip(_LABELS, theta)}


@functools.cache
def _unit_lattice(n: int, i: int) -> KineticCoefficients:
    """The lattice whose one entry is the level-n unknown ``_LABELS[i]`` at
    1, kept per process with its derived tables (at most 50: levels 0-4)."""
    return _theta_lattice(np.eye(len(_LABELS))[i], n)


def _tmul(a: dict, b: dict, top: int) -> dict:
    """Product of two tables at mu = 1, where a level-n term carries
    hbar^n, keeping the levels up to ``top``."""
    out = {}
    for (n, e), u in a.items():
        for (m, f), v in b.items():
            if n + m <= top:
                key = (n + m, tuple(map(add, e, f)))
                out[key] = out.get(key, 0.0) + u * v
    return out


def _identity_table(series, top: int) -> dict:
    """The master identity's left side minus its right (see
    level_residuals) at mu = 1, as one table of the levels up to ``top``,
    from the tables of S0', S0'', S0''' and T."""
    s1, s2, s3, t = series
    s1s1 = _tmul(s1, s1, top)
    quantum = _sum((_tmul(s2, s2, top - 2), 0.375, _ONE),
                   (_tmul(s1, s3, top - 2), -0.25, _ONE))
    return _sum((_tmul(s1s1, s1, top), 1, _XD),
                (_tmul(s1s1, s1s1, top), -0.5, _ONE),
                (_tmul(_HBAR2, quantum, top), 1, _ONE),
                (_tmul(s1s1, t, top), -1, _ONE))


def _gauss_jordan(rows, n: int) -> tuple:
    """Exact Gauss-Jordan reduction of the rows [a_1 .. a_n | b] of a
    linear system in n unknowns, in Fractions.  Returns (rank, solution,
    consistent), the solution with the free unknowns at 0."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        head = rows[r] = [v / rows[r][col] if v else v for v in rows[r]]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                rows[i] = [a - f * h if h else a for a, h in zip(row, head)]
        pivots.append(col)
    solution = [Fraction(0)] * n
    for row, col in zip(rows, pivots):
        solution[col] = row[n]
    consistent = not any(row[n] for row in rows[len(pivots):])
    return len(pivots), solution, consistent


def _rows(tables, keep=lambda key: True) -> dict:
    """{monomial: row} over the sorted monomials of ``tables`` that ``keep``
    admits, a row holding each table's coefficient there as a Fraction.
    The conversion is exact, and so are the tables' float products while
    the lattice values are dyadic, as the determined ones are."""
    keys = sorted({key for t in tables for key in t if keep(key)})
    return {key: [Fraction(t[key]) if key in t else 0 for t in tables]
            for key in keys}


def _determine_level0():
    """The classical level, matched monomial by monomial on the divided
    form of the master identity, R = xd*S0' - S0'^2/2 - T = 0 (mu = 1).

    S0' and T are linear in the level-0 unknowns theta, sums of the unit
    lattices' tables.  (a) S0' may carry no xddd; then neither does S0'^2,
    so (b) R's xddd monomials are linear in theta too: (a) and (b) are one
    exact homogeneous system, whose nullspace must be the (alpha00,
    alpha01) plane.  On it, theta = (s, u), each monomial of R weighs a
    quadratic in s and u with no constant term.  (c) A weight of u^2
    alone sets u = 0, and the common roots in s of the weights at u = 0
    are 0 and the classical root.  Returns the report and the lattice.
    """
    n_unk = len(_LABELS)
    units = [_unit_lattice(0, i).derived(_series_tables) for i in range(n_unk)]
    s1 = [u[0] for u in units]
    linear = [_sum((u[0], 1, _XD), (u[3], -1, _ONE)) for u in units]
    rows = [row + [0] for tabs in (s1, linear)
            for row in _rows(tabs, lambda key: key[1][3]).values()]
    rank = _gauss_jordan(rows, n_unk)[0]
    if rank != n_unk - 2 or any(row[0] or row[1] for row in rows):
        raise DeterminationError("the xddd monomials do not leave exactly "
                                 "the (alpha00, alpha01) plane")

    # R(s, u) = s*L0 + u*L1 - (s*A + u*B)^2/2, per monomial the weights of
    # L0, L1, A^2, A*B and B^2; at u = 0 a weight s*L0 - s^2*A^2/2 has the
    # roots 0 and 2*L0/A^2
    a, b = s1[0], s1[1]
    weights = _rows((linear[0], linear[1], _tmul(a, a, 0), _tmul(a, b, 0),
                     _tmul(b, b, 0))).values()
    if not any(w[4] and not any(w[:4]) for w in weights):
        raise DeterminationError("no monomial weight is a multiple of u^2 alone")
    at_u0 = [(w[0], w[2]) for w in weights if w[0] or w[2]]
    roots = {Fraction(0)} | {
        r for r in (2 * l0 / aa for l0, aa in at_u0 if aa)
        if all(2 * l0 == aa * r for l0, aa in at_u0)}
    if len(roots) != 2:
        raise DeterminationError("no nonzero classical root")
    selected = max(roots, key=abs)
    theta = [selected] + [0] * (n_unk - 1)
    report = LevelReport(
        level=0, values=_level_values(0, theta), rank=rank + 2,  # u and s
        n_unknowns=n_unk, roots=sorted(float(r) for r in roots),
        selected_root=float(selected),
        notes=[f"xddd monomials of S0' and R: rank {rank}, leaving the "
               "(alpha00, alpha01) plane",
               "a weight of u^2 alone -> alpha01 = 0"])
    return report, _theta_lattice(theta, 0)


def _level_system(base: KineticCoefficients, n: int) -> dict:
    """The exact rows [a_1 .. a_10 | b] of the level-n unknowns, keyed by
    the monomials of the master identity's level-n part, given the lower
    levels in ``base``.  The identity is affine in the level-n entries (a
    term with two of them lies at level 2n), so a_i is the identity of
    base plus the unit entry ``_LABELS[i]``, its cached tables summed onto
    base's, less base's own, and b is minus base's own.
    """
    below = base.derived(_series_tables)
    cols = [_identity_table(
        tuple(_sum((b, 1, _ONE), (u, 1, _ONE)) for b, u in
              zip(below, _unit_lattice(n, i).derived(_series_tables))), n)
        for i in range(len(_LABELS))]
    rows = _rows(cols + [_identity_table(below, n)], lambda key: key[0] == n)
    return {key: [a - row[-1] for a in row[:-1]] + [-row[-1]]
            for key, row in rows.items()}


def _determine_level_n(n: int, base: KineticCoefficients):
    """The level-n unknowns given the lower levels in ``base``, by exact
    Gauss-Jordan on the monomial rows of ``_level_system``.  A rank below
    the number of unknowns leaves the free ones at 0; rows that admit no
    solution raise.  Returns the report and ``base`` with level n added."""
    n_unk = len(_LABELS)
    rows = _level_system(base, n).values()
    rank, theta, consistent = _gauss_jordan(rows, n_unk)
    if not consistent:
        raise DeterminationError(
            f"level {n}: the monomial equations admit no solution")
    report = LevelReport(level=n, values=_level_values(n, theta), rank=rank,
                         n_unknowns=n_unk)
    return report, _theta_lattice(theta, n, base)


def determine_coefficients(levels: int = 2, *, seed: int = 20260823):
    """Level-by-level recovery of the kinetic coefficients.

    Matches the master identity's monomial coefficients exactly: the
    classical level, then levels 1..levels, each given the levels below.
    ``unique`` is False when some level's exact nullspace is not zero.
    ``level_residuals``, an independent evaluation, then confirms the
    lattice at 30 ``sample_states`` drawn from ``seed``: a scaled residual
    above 1e-8 raises DeterminationError, as does a level with no
    solution.  Levels above 4 are outside the certified truncation.
    Returns (coefficients, report).
    """
    if not 0 <= levels <= 4:
        raise ValueError("levels must lie in 0..4 (certified truncation)")
    rep, lattice = _determine_level0()
    reports = [rep]
    for n in range(1, levels + 1):
        rep, lattice = _determine_level_n(n, lattice)
        reports.append(rep)
    states = _columns(sample_states(np.random.default_rng(seed), 30))
    ratios, _, _ = level_residuals(lattice, states, 1.0, 1.0, order=levels)
    for rep, worst in zip(reports, ratios.max(axis=1)):
        if worst > 1e-8:
            raise DeterminationError(
                f"level {rep.level}: determined lattice leaves scaled "
                f"residual {worst:.2e}")
        rep.notes.append(f"confirmation residual on random states {worst:.2e}")
    unique = all(r.rank >= r.n_unknowns for r in reports)
    return lattice, DeterminationReport(reports, unique)
