"""The reduced action built from a real solution pair.

Given two independent real wave solutions (phi1, phi2) with constant
Wronskian W, the one-parameter family of reduced actions is

    S0(x) = hbar * arctan(a * phi1/phi2 + b) + hbar * kappa,      a != 0,

whose spatial derivative has the closed form

    S0' = hbar * a * W / D,     D = (a*phi1 + b*phi2)^2 + phi2^2 > 0.

D is a sum of squares that never vanishes for admissible parameters, so S0'
keeps one sign (that of a*W) and S0 is strictly monotone.  The laws of
motion read only S0' and its derivatives, never S0 itself.  All higher
derivatives of S0 are evaluated through jet arithmetic on the pair's
derivative stacks, which the wave equation supplies exactly; only
``qshje_residual`` reads phi'' from the pair itself, so that it can see the
energy.  ``s0p`` evaluates S0' itself in closed form, on a point or an
array of points (as the laws' cell sums do), with the order-0 arithmetic
of ``s0p_jet``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet
from .schrodinger import SolutionPair

__all__ = [
    "QuantumStateParams",
    "StateParamError",
    "s0p",
    "s0p_jet",
    "inverse_s0p",
    "qshje_residual",
]


class StateParamError(ValueError):
    """Inadmissible reduced-action parameters."""


@dataclass(frozen=True)
class QuantumStateParams:
    """Parameters (a, b, kappa) selecting one reduced action of the family.

    ``kappa`` shifts S0 by a constant and never influences dynamics.
    """

    a: float
    b: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.a, self.b, self.kappa)):
            raise StateParamError("state parameters must be finite")
        if self.a == 0:
            raise StateParamError("parameter a must be nonzero")


def _s0p_of(pair: SolutionPair, q: QuantumStateParams, j1, j2):
    """S0' = hbar*a*W/D from jets of (phi1, phi2), or from their values."""
    lin = q.a * j1 + q.b * j2
    return (pair.params.hbar * q.a * pair.wronskian_ref) / (lin * lin + j2 * j2)


def s0p(pair: SolutionPair, q: QuantumStateParams, x):
    """S0' = hbar*a*W / ((a*phi1 + b*phi2)^2 + phi2^2) at x, a float or an
    array of points; bit for bit ``s0p_jet(pair, q, x, 0).value``.  It
    reads only the pair's values (phi1, phi2), not their slopes."""
    return _s0p_of(pair, q, *pair._eval(x, slopes=False))


def inverse_s0p(pair: SolutionPair, q: QuantumStateParams, squares):
    """1/S0' = D/(hbar*a*W) from the squares (phi1^2, phi1*phi2, phi2^2)
    stacked along the first axis of ``squares``, since D = a^2 phi1^2 +
    2ab phi1 phi2 + (1 + b^2) phi2^2.  The map is linear, so integrals of
    the squares give the integral of dx/S0' over the same interval."""
    s11, s12, s22 = squares
    a, b = q.a, q.b
    return ((a * a * s11 + 2.0 * a * b * s12 + (1.0 + b * b) * s22)
            / (pair.params.hbar * a * pair.wronskian_ref))


def s0p_jet(pair: SolutionPair, q: QuantumStateParams, x, order: int) -> Jet:
    """Spatial jet of S0' at x: coefficients (S0', S0'', ..., S0^(order+1)),
    each a float or, for an array of points, an array."""
    return _s0p_of(pair, q, *pair.phi_jets(x, order))


def qshje_residual(pair: SolutionPair, q: QuantumStateParams, x):
    """Scaled defect of the stationary quantum Hamilton-Jacobi equation at
    x, a float or an array of points.

    Evaluates (S0')^2/(2 mu) + V - E - (hbar^2/4 mu) * ((3/2)(S0''/S0')^2
    - S0'''/S0'), normalized by |E| + |V| + (S0')^2/(2 mu).  S0', S0'' and
    S0''' are formed from the pair's own phi, phi' and phi''
    (``SolutionPair.own_jets``), not from the wave equation at the stated
    energy E, so the defect sees an energy the pair was not built at as
    well as a Wronskian at x that differs from the pair's stated one.
    """
    params = pair.params
    s1, s2, s3 = _s0p_of(pair, q, *pair.own_jets(x)).coeffs
    v = pair.potential.value(x)
    kin = s1 * s1 / (2.0 * params.mu)
    quant = (params.hbar**2 / (4.0 * params.mu)) * (
        1.5 * (s2 / s1) ** 2 - s3 / s1
    )
    resid = kin + v - params.energy - quant
    scale = np.abs(params.energy) + np.abs(v) + kin
    return np.abs(resid) / np.maximum(scale, 1e-300)
