"""qmotion: quantum trajectories driven by a reduced-action phase.

The library builds real solution pairs of the stationary Schrodinger
equation, assembles the reduced action S0 = hbar*arctan(a*phi1/phi2 + b) and
its derivatives, and integrates the resulting equations of motion three
ways (first-order velocity law, fourth-order Newton-type law, and the
legacy law that stalls at classical turning points).  A kinetic-series
module reconstructs the unique coefficient lattice of the underlying
higher-derivative Lagrangian and cross-checks the associated canonical
structure.

The package re-exports nothing: import each name from its module, so that a
program loads only the modules it uses.
"""
