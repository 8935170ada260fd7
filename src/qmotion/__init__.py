"""qmotion: quantum trajectories driven by a reduced-action phase.

The library builds real solution pairs of the stationary Schrodinger
equation, assembles the reduced action S0 = hbar*arctan(a*phi1/phi2 + b) and
its derivatives, and integrates the resulting equations of motion three
ways (first-order velocity law, fourth-order Newton-type law, and the
legacy law that stalls at classical turning points).  A kinetic-series
module reconstructs the unique coefficient lattice of the underlying
higher-derivative Lagrangian and cross-checks the associated canonical
structure.
"""
from .jets import Jet, Dual, JetError, JetOrderError, JetDomainError
from .ode import IntegratorSettings, DenseSolution, IntegrationFailure, integrate_ivp
from .rootfind import BracketError, invert_monotone
from .schrodinger import PhysParams, PotentialModel, SolutionPair, solve_pair
from .reduced_action import (
    QuantumStateParams,
    WaveCoefficients,
    qshje_residual,
    s0_eval,
    s0p,
    s0p_jet,
    wavefunction,
)
from .kinetic_series import (
    KineticCoefficients,
    determine_coefficients,
    master_residual,
    series_momenta,
)
from .mechanics import (
    canonical_consistency,
    el_residual,
    hamiltonian,
    linear_term_demo,
    momenta,
    quantum_lagrangian,
    series_lagrangian,
)
from .trajectory import (
    ScenarioConfig,
    classical_limit_factor,
    free_time_of_x,
    free_x_of_time,
    integrate_legacy_law,
    integrate_newton_law,
    integrate_velocity_law,
    observables,
    state_jet_from_x,
)

__version__ = "0.1.0"
