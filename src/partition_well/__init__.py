"""Quantum-statistical force on a Dirichlet/Neumann partition in a 1D well.

The package evaluates the net force on the dividing wall of a partitioned
quantum well for Bose-Einstein and Fermi-Dirac statistics at any reduced
temperature, through an error-controlled numerical oracle, and provides the
closed-form approximations valid in the high, medium and low temperature
regimes together with equilibrium observables (partition shift, particle
transfer) and a sweep/report CLI.
"""

__version__ = "0.1.0"

from .model import (
    BOSON,
    FERMION,
    W_MINUS,
    W_PLUS,
    PhysicalConfig,
    Statistics,
    WellSide,
    energy_level,
    physical_force,
    reduced_temperature,
)
from .numerics import DEFAULT_POLICY, PrecisionPolicy, RootResult
from .oracle import (
    CurvePoint,
    OccupancySolution,
    force_side,
    locate_inflections,
    locate_minimum,
    net_force,
    occupancy,
    solve_alpha,
    sweep_curve,
)

__all__ = [
    "__version__",
    "BOSON",
    "FERMION",
    "W_MINUS",
    "W_PLUS",
    "PhysicalConfig",
    "Statistics",
    "WellSide",
    "energy_level",
    "physical_force",
    "reduced_temperature",
    "DEFAULT_POLICY",
    "PrecisionPolicy",
    "RootResult",
    "CurvePoint",
    "OccupancySolution",
    "force_side",
    "locate_inflections",
    "locate_minimum",
    "net_force",
    "occupancy",
    "solve_alpha",
    "sweep_curve",
]
