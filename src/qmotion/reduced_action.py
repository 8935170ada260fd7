"""The reduced action built from a real solution pair.

Given two independent real wave solutions (phi1, phi2) with constant
Wronskian W, the one-parameter family of reduced actions is

    S0(x) = hbar * arctan(a * phi1/phi2 + b) + hbar * kappa,      a != 0,

whose spatial derivative has the closed form

    S0' = hbar * a * W / D,     D = (a*phi1 + b*phi2)^2 + phi2^2 > 0.

D is a sum of squares that never vanishes for admissible parameters, so S0'
keeps one sign (that of a*W) and S0 is strictly monotone: S0/hbar is the
phase angle of (phi2, a*phi1 + b*phi2), unwrapped by counting the zeros of
phi2 from the anchor, where the principal arctan jumps.  All higher
derivatives of S0 are evaluated through jet arithmetic on the pair's
derivative stacks, which the wave equation supplies exactly.  ``s0p``
evaluates S0' itself in closed form, on a float or an array of points, with
the same operations as the order-0 coefficient of ``s0p_jet``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jets import Jet, exp as jexp, sqrt as jsqrt
from .schrodinger import SolutionPair

__all__ = [
    "QuantumStateParams",
    "WaveCoefficients",
    "StateParamError",
    "s0_eval",
    "s0p",
    "s0p_jet",
    "inverse_s0p",
    "qshje_residual",
    "wavefunction",
    "compensated_params",
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


@dataclass(frozen=True)
class WaveCoefficients:
    """Complex weights of the two phase branches of the wave function."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        if self.alpha == 0 and self.beta == 0:
            raise StateParamError("alpha and beta cannot both vanish")


def _denominator_jet(pair: SolutionPair, q: QuantumStateParams, x,
                     order: int) -> Jet:
    j1, j2 = pair.phi_jets(x, order)
    lin = q.a * j1 + q.b * j2
    return lin * lin + j2 * j2


def s0p(pair: SolutionPair, q: QuantumStateParams, x):
    """S0' = hbar*a*W / ((a*phi1 + b*phi2)^2 + phi2^2) at x, a float or an
    array of points; bit for bit ``s0p_jet(pair, q, x, 0).value``."""
    p1, _, p2, _ = pair.eval01(x)
    lin = q.a * p1 + q.b * p2
    return (pair.params.hbar * q.a * pair.wronskian_ref) / (lin * lin + p2 * p2)


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
    dj = _denominator_jet(pair, q, x, order)
    return (pair.params.hbar * q.a * pair.wronskian_ref) / dj


def s0_eval(pair: SolutionPair, q: QuantumStateParams, x: float) -> float:
    """Branch-unwrapped reduced action at x: the principal value
    hbar*(arctan(a*phi1/phi2 + b) + kappa), plus sign(a*W)*pi*hbar per zero
    of phi2 between the anchor and x (``SolutionPair.phi2_zeros``), so it is
    continuous and strictly monotone across those zeros.  On a zero itself
    arctan takes the limit sign(a*phi1)*pi/2 that the count agrees with.
    """
    p1, _, p2, _ = pair.eval01(x)
    principal = (math.atan(q.a * p1 / p2 + q.b) if p2
                 else math.copysign(0.5 * math.pi, q.a * p1))
    turns = math.copysign(1.0, q.a * pair.wronskian_ref) * pair.phi2_zeros(x)
    return pair.params.hbar * (principal + q.kappa + math.pi * turns)


def qshje_residual(pair: SolutionPair, q: QuantumStateParams, x):
    """Scaled defect of the stationary quantum Hamilton-Jacobi equation at
    x, a float or an array of points.

    Evaluates (S0')^2/(2 mu) + V - E - (hbar^2/4 mu) * ((3/2)(S0''/S0')^2
    - S0'''/S0'), normalized by |E| + |V| + (S0')^2/(2 mu).  S0'' and
    S0''' come from the wave equation at the pair's own energy, so the
    defect measures how far the Wronskian of (phi1, phi2) at x is from the
    pair's stated one.
    """
    params = pair.params
    s1, s2, s3 = s0p_jet(pair, q, x, 2).coeffs
    v = pair.potential.value(x)
    kin = s1 * s1 / (2.0 * params.mu)
    quant = (params.hbar**2 / (4.0 * params.mu)) * (
        1.5 * (s2 / s1) ** 2 - s3 / s1
    )
    resid = kin + v - params.energy - quant
    scale = np.abs(params.energy) + np.abs(v) + kin
    return np.abs(resid) / np.maximum(scale, 1e-300)


def wavefunction(pair: SolutionPair, q: QuantumStateParams,
                 wc: WaveCoefficients, x: float):
    """Wave value (S0')^(-1/2) (alpha e^{i S0/hbar} + beta e^{-i S0/hbar})
    and its scaled wave-equation residual at x.

    When a*W < 0 the prefactor uses |S0'|^(-1/2); the overall sign
    convention is absorbed into alpha, beta.
    """
    hbar = pair.params.hbar
    s0 = s0_eval(pair, q, x)
    sj = s0p_jet(pair, q, x, 2)  # (S0', S0'', S0''')
    s0_jet = Jet((s0 + 0j,) + tuple(complex(c) for c in sj.coeffs))  # order 3
    sp_jet = Jet(tuple(complex(c) for c in sj.coeffs))  # order 2
    sign = 1.0 if sj.value.real >= 0 else -1.0
    amp = 1.0 / jsqrt(sign * sp_jet)
    phase = jexp(1j * s0_jet / hbar)
    psi = amp * (wc.alpha * phase + wc.beta / phase)
    value, _, second = psi.coeffs[0], psi.coeffs[1], psi.coeffs[2]
    f = pair.params.kratio * (pair.potential.value(x) - pair.params.energy)
    resid = abs(second - f * value) / (1.0 + abs(f * value))
    return value, resid


def compensated_params(theta01, hbar: float, s0p_target, probes) -> tuple:
    """Re-anchor state parameters on a different basis pair.

    ``theta01(x)`` returns (theta1, theta1', theta2, theta2') of the new
    pair; ``s0p_target(x)`` returns the S0' values to reproduce.  Matching
    at three probe points turns the denominator expansion into a linear
    system for (a, 2b, (b^2+1)/a); the returned triple is (a, b, defect)
    where the defect measures how well the quadratic constraint closes.
    """
    xs = list(probes)
    if len(xs) < 3:
        raise StateParamError("need at least three probe points")
    rows, rhs = [], []
    t1v, t1d, t2v, t2d = theta01(xs[0])
    wref = t2v * t1d - t1v * t2d
    for x in xs[:3]:
        t1, _, t2, _ = theta01(x)
        rows.append([t1 * t1, t1 * t2, t2 * t2])
        rhs.append(hbar * wref / s0p_target(x))
    sol = np.linalg.solve(np.asarray(rows), np.asarray(rhs))
    a_new = sol[0]
    if a_new == 0:
        raise StateParamError("degenerate probe system: new a vanishes")
    b_new = 0.5 * sol[1]
    defect = abs(sol[2] * a_new - (b_new**2 + 1.0)) / (b_new**2 + 1.0)
    return a_new, b_new, defect
