"""Higher-derivative mechanics for Lagrangians of (x, xd, xdd, xddd, t).

The model Lagrangians treated by this package depend on time derivatives of
the coordinate up to third order, so the variational calculus brings in a
generalized Euler-Lagrange equation with total time derivatives up to
d^3/dt^3, three conjugate momenta and a Hamiltonian built from all of them.
A Lagrangian is a plain function ``L(x, xd, xdd, xddd, t)``, and the
closed-form quantum one (``quantum_lagrangian``) is built as such.
Everything here treats it as a black box: ``partials`` makes one call of
it on four-channel duals over jets in t and gets L and its four slot
partials (vector forward mode, Griewank and Walther, *Evaluating
Derivatives*, ch. 3), so total time derivatives are exact rather than
finite differences.

The module also carries two consistency demonstrations: the two rate
equations of the regulated series Hamiltonian (Pi and P recovered from the
rates of Xi and Pi) checked as identities along arbitrary jets, and the
classical pathology of a Lagrangian whose velocity enters linearly (the
case that motivates the x3dot^2 regulator in the first place), whose one
probe is the potential's sampled slope.  The momenta and the Hamiltonian's
partial derivatives in xd and xdd are exact derivatives of the kinetic
series' monomial table of T, derived once per lattice; the momentum rates
the canonical equations are checked with come from evaluating the momenta
on jets in t, not from differentiating their tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Dual, Jet, JetOrderError
from .kinetic_series import (
    KineticCoefficients,
    Momenta,
    _evaluate,
    _ipow,
    _kinetic_table,
    _momentum_tables,
    _partial,
    momenta_state,
)

__all__ = [
    "CanonicalReport",
    "CheckResult",
    "LagrangianPartials",
    "LinearTermReport",
    "canonical_consistency",
    "el_residual",
    "hamiltonian",
    "linear_term_demo",
    "momenta",
    "partials",
    "quantum_lagrangian",
]

_SLOTS = 4  # x, xd, xdd, xddd


@dataclass(frozen=True)
class LagrangianPartials:
    """L and its four slot partials, each as a jet in t."""

    L: Jet
    dx: Jet
    dxd: Jet
    dxdd: Jet
    dxddd: Jet


def _as_tjet(v, depth: int) -> Jet:
    if isinstance(v, Jet):
        return v.truncated(depth)
    return Jet.constant(float(v), depth)


def _per_jet(v, j: Jet):
    """A float for a jet with float coefficients; for a stacked jet, whose
    coefficients are (N,) arrays, an (N,) array, one entry per jet."""
    shape = np.shape(j.value)
    return np.full(shape, v, dtype=float) if shape else float(v)


def _plain(v):
    """A 0-d result as a float, an array result as it is."""
    return v if np.ndim(v) else float(v)


def partials(L: Callable, j: Jet, t: float = 0.0,
             depth: int = 2) -> LagrangianPartials:
    """L and its four slot partials as jets in t of order ``depth``.

    ``L(x, xd, xdd, xddd, t)`` must be generic over the argument types
    (plain floats, jets, duals-over-jets); any closed arithmetic expression
    qualifies.  L is called once: slot s is a dual whose perturbation is a
    jet of 4-vectors, unit in channel s, and partial s is channel s of the
    result's perturbation.
    """
    need = depth + _SLOTS - 1
    if j.order < need:
        raise JetOrderError(
            f"depth-{depth} partials draw on x^({need}); jet order {j.order}")
    # channels lead, so array coefficients (a batch of jets) broadcast
    rows = np.eye(_SLOTS)[(...,) + (None,) * np.ndim(j.value)]
    slots = [Dual(Jet(j.coeffs[s:s + depth + 1]), Jet.constant(row, depth))
             for s, row in enumerate(rows)]
    tj = Jet.variable(t, depth) if depth >= 1 else float(t)
    out = L(*slots, tj)
    if not isinstance(out, Dual):
        return LagrangianPartials(_as_tjet(out, depth),
                                  *(_as_tjet(0.0, depth),) * _SLOTS)
    return LagrangianPartials(
        _as_tjet(out.re, depth),
        *(_as_tjet(Jet([c[s] for c in out.du.coeffs]), depth)
          for s in range(_SLOTS)))


def el_residual(L: Callable, j: Jet, t: float = 0.0) -> float | np.ndarray:
    """Generalized Euler-Lagrange residual at a motion jet of order 6.

    d^3/dt^3 (dL/dxddd) - d^2/dt^2 (dL/dxdd) + d/dt (dL/dxd) - dL/dx,
    zero on true trajectories.  The triple total derivative is why the
    jet must carry x through x^(6).  A stacked jet gives one residual per
    jet, as an array.
    """
    if j.order < 6:
        raise JetOrderError("el_residual needs a jet of order 6")
    p = partials(L, j, t, depth=3)
    return _per_jet(p.dxddd.coeffs[3] - p.dxdd.coeffs[2]
                    + p.dxd.coeffs[1] - p.dx.coeffs[0], j)


def _momenta(p: LagrangianPartials) -> Momenta:
    """P, Pi and Xi from the depth-2 partials of L."""
    return Momenta(p.dxd.coeffs[0] - p.dxdd.coeffs[1] + p.dxddd.coeffs[2],
                   p.dxdd.coeffs[0] - p.dxddd.coeffs[1],
                   p.dxddd.coeffs[0])


def momenta(L: Callable, j: Jet, t: float = 0.0) -> Momenta:
    """Conjugate momenta at a motion jet of order >= 5.

    P  = dL/dxd - d/dt dL/dxdd + d^2/dt^2 dL/dxddd
    Pi = dL/dxdd - d/dt dL/dxddd
    Xi = dL/dxddd

    A stacked jet (coefficients of shape (N,)) runs through one call of L
    and gives each momentum as an (N,) array, entry by entry as the jets
    one at a time would.
    """
    if j.order < 5:
        raise JetOrderError("momenta need a jet of order 5")
    return Momenta(*(_per_jet(m, j)
                     for m in _momenta(partials(L, j, t, depth=2))))


def hamiltonian(L: Callable, j: Jet, t: float = 0.0) -> float | np.ndarray:
    """H = P xd + Pi xdd + Xi xddd - L; conserved when L has no explicit t.
    A stacked jet gives one H per jet, as an array."""
    if j.order < 5:
        raise JetOrderError("hamiltonian needs a jet of order 5")
    p = partials(L, j, t, depth=2)
    P, Pi, Xi = _momenta(p)
    xd, xdd, xddd = j.coeffs[1:4]
    return _per_jet(P * xd + Pi * xdd + Xi * xddd - p.L.coeffs[0], j)


# ---------------------------------------------------------------------------
# the closed-form quantum Lagrangian

def quantum_lagrangian(params, potential=None) -> Callable:
    """Closed-form quantum Lagrangian: the classical kinetic term plus the
    hbar^2 correction (5/2) xdd^2/xd^4 - xddd/xd^3, minus the potential.

    Its Euler-Lagrange equation is the fourth-order quantum law of motion,
    and its momenta coincide with the canonical series momenta at lam = 0.
    Singular where xd = 0.
    """
    mu = params.mu
    qc = params.hbar ** 2 / (4.0 * mu)

    def fn(x, xd, xdd, xddd, t):
        out = 0.5 * mu * xd * xd + qc * (
            2.5 * xdd * xdd / _ipow(xd, 4) - xddd / _ipow(xd, 3))
        if potential is not None:
            out = out - potential.value(x)
        return out

    return fn


# ---------------------------------------------------------------------------
# canonical equations of the regulated series Hamiltonian

@dataclass(frozen=True)
class CheckResult:
    """A check's |discrepancy| and scale: floats, or (N,) arrays with one
    entry per jet of a stacked jet."""

    discrepancy: float
    scale: float

    @property
    def ratio(self):
        """discrepancy / scale, 0 where the scale is 0."""
        pos = np.asarray(self.scale) > 0.0
        return _plain(np.where(
            pos, self.discrepancy / np.where(pos, self.scale, 1.0), 0.0))


@dataclass
class CanonicalReport:
    lam: float
    checks: dict

    @property
    def max_ratio(self):
        """The largest check ratio, per jet for a stacked jet."""
        return _plain(np.max([c.ratio for c in self.checks.values()], axis=0))

    def summary(self) -> str:
        lines = [f"canonical-equation identities at lam = {self.lam:g}"]
        for name, chk in self.checks.items():
            lines.append(f"  {name:24s} ratio {chk.ratio:.3e} "
                         f"(|disc| {chk.discrepancy:.3e} / scale {chk.scale:.3e})")
        return "\n".join(lines)


def _gradient_tables(c: KineticCoefficients) -> tuple:
    """-d/dxd and d/dxdd, each of T's alpha rows and of dT/dxddd (the bare
    beta sum of Xi), as monomial tables."""
    alpha = {key: v for key, v in c.derived(_kinetic_table).items()
             if not key[1][3]}
    rows = (alpha, c.derived(_momentum_tables)[2])
    return tuple({key: sign * v for key, v in _partial(t, slot).items()}
                 for slot, sign in ((1, -1), (2, 1)) for t in rows)


def canonical_consistency(c: KineticCoefficients, j: Jet, params,
                          lam: float) -> CanonicalReport:
    """Check the rate equations of the regulated Hamiltonian as identities
    along an arbitrary motion jet.

    Two checks, each reported as |discrepancy| over the summed magnitude
    of its contributing terms (the 1/lam-amplified bracket pieces enter the
    scale individually, so a small regulator does not inflate the ratio):

    * pi_recovery -- the time derivative of the series Xi, fed through
      the Xi-rate canonical equation, reproduces the series Pi;
    * p_recovery  -- the time derivative of the series Pi, fed through
      the Pi-rate canonical equation, reproduces the series P.

    Each compares the momentum tables' symbolic derivatives with rates
    carried on jets in t, so a wrong momentum coefficient shows.  The other
    two canonical equations are not checked, since on an arbitrary jet they
    hold by construction: Xi is formed as its bare beta sum plus lam*xddd,
    so the Xi equation gives back xddd and the P-rate equation's dL/dx =
    -dH/dx compares that xddd with itself.  Both checks hold for any
    coefficient lattice, not only the canonical one.
    lam must be positive (the Hamiltonian divides by it).  A stacked jet
    (coefficients of shape (N,)) is checked in one pass, and each check
    then holds one discrepancy and scale per jet.
    """
    if not lam > 0.0:
        raise ValueError("canonical consistency needs lam > 0: "
                         "the Hamiltonian bracket divides by the regulator")
    if j.order < 5:
        raise JetOrderError("canonical_consistency needs a jet of order >= 5")
    mu, hbar = params.mu, params.hbar
    x, xd, xdd = j.coeffs[:3]
    # momenta as (value, rate) jets in t: the values for the recoveries, the
    # rates for the two rate equations
    jstate = tuple(Jet(j.coeffs[i:i + 2]) for i in range(5)) + (j.coeffs[5],)
    jtrip = momenta_state(c, jstate, mu, hbar, lam)
    trip = Momenta(*(m.value if isinstance(m, Jet) else m for m in jtrip))
    xi_dot = jtrip.Xi.coeffs[1]
    pi_dot = jtrip.Pi.coeffs[1]
    # the bare beta sum dT/dxddd, in Xi and in the regulated bracket
    core = _evaluate(c.derived(_momentum_tables)[2:], (x, xd, xdd), mu,
                     hbar)[0]
    gap = (trip.Xi - core) / lam
    big = (abs(trip.Xi) + abs(core)) / lam
    # -d/dxd and d/dxdd of T's alpha rows (_a) and of dT/dxddd (_b)
    mdxd_a, mdxd_b, dxdd_a, dxdd_b = _evaluate(
        c.derived(_gradient_tables), (x, xd, xdd), mu, hbar)

    checks = {}
    pi_pred = dxdd_a + gap * dxdd_b - xi_dot
    checks["pi_recovery"] = CheckResult(
        abs(pi_pred - trip.Pi),
        abs(dxdd_a) + big * abs(dxdd_b) + abs(xi_dot) + abs(trip.Pi))

    p_pred = -pi_dot - mdxd_a - gap * mdxd_b
    checks["p_recovery"] = CheckResult(
        abs(p_pred - trip.P),
        abs(pi_dot) + abs(mdxd_a) + big * abs(mdxd_b) + abs(trip.P))
    return CanonicalReport(lam, checks)


# ---------------------------------------------------------------------------
# first-order Lagrangian with a linear velocity term

@dataclass
class LinearTermReport:
    """Outcome of the linear-velocity-term demonstration."""

    i: int
    lam: float
    consistent: bool
    max_gradient: float = 0.0
    naive_inconsistent: bool | None = None
    notes: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [f"velocity-exponent demo: i = {self.i}, lam = {self.lam:g}"]
        lines += [f"  {n}" for n in self.notes]
        lines.append(f"  consistent: {self.consistent}")
        return "\n".join(lines)


_PROBES = 32
_PROBE_SPAN = 1.5


def linear_term_demo(i: int, f: float, potential=None, lam: float = 0.0, *,
                     seed: int = 20260823) -> LinearTermReport:
    """The Hamiltonian formulation of L = f xd^i - V(x), f a constant.

    For i not in {0, 1} the momentum P = i f xd^(i-1) is a monotone
    function of xd > 0 when f > 0, so the Legendre map is invertible and
    the canonical equations of H = P xd - L are the Euler-Lagrange
    equation rewritten; the report says so without probes, which could
    only invert the formulas they were built from.

    For i = 1 the momentum P = f carries no velocity information: the
    naive canonical route fixes xd = 0 and P-rate = -V', while the
    equation of motion collapses to V' = 0.  The one probe is the
    potential's slope over random points, and the report flags the
    incompatibility whenever it is sampled nonzero.  With lam > 0 the
    quadratic regulator (lam/2) xd^2 makes P = lam xd + f invertible, so
    both formulations give lam xdd + V' = 0, whose lam -> 0 limit enforces
    the constraint.
    """
    if i == 0:
        raise ValueError("the velocity exponent must be nonzero")
    if lam < 0.0:
        raise ValueError("the regulator strength cannot be negative")
    report = LinearTermReport(i=i, lam=lam, consistent=True)

    if i != 1:
        if not f > 0.0:
            raise ValueError("eliminating xd needs f > 0")
        report.notes.append(
            f"P = i f xd^(i-1) is monotone in xd > 0 for i = {i}, f > 0, so "
            f"the Legendre map is invertible and the canonical equations "
            f"restate the second-order equation of motion")
        return report

    # i == 1: P = f is velocity-blind
    xs = np.random.default_rng(seed).uniform(-_PROBE_SPAN, _PROBE_SPAN,
                                             size=_PROBES)
    grads = 0.0 if potential is None else potential.grad(xs)
    report.max_gradient = float(np.max(np.abs(grads)))
    report.naive_inconsistent = report.max_gradient > 1e-10
    if report.naive_inconsistent:
        report.notes.append(
            "naive canonical route fixes xd = 0 while the equation of motion "
            f"requires dV/dx = 0; sampled |dV/dx| up to {report.max_gradient:.3e}")
    else:
        report.notes.append(
            "potential is flat over the probes, so even the naive canonical "
            "route is vacuously consistent")

    if lam > 0.0:
        report.notes.append(
            "regularized Lagrangian makes P = lam*xd + f invertible, so both "
            "formulations give lam*xdd + dV/dx = 0; the lam -> 0 limit pins "
            "the gradient constraint")
    else:
        report.consistent = not report.naive_inconsistent
    return report
