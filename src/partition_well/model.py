"""Physical configuration of the partitioned well.

A hard wall at the centre of a 1D box imposes a Dirichlet condition on one
face and a Neumann condition on the other, so the two half wells carry
different level ladders:

    right half well (plus):  e_n = (n - 1/2)^2
    left  half well (minus): e_n = n^2

in units of the level energy scale ``E_unit = (hbar^2/2m) (pi/l)^2`` of a
half well of width ``l``.  Everything downstream works in reduced units
(reduced temperature ``t = k_B T / E_unit`` and the dimensionless force per
spin state).  The CLI works in reduced units only; :class:`PhysicalConfig`
converts to SI for library callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

__all__ = [
    "Statistics",
    "WellSide",
    "PhysicalConfig",
    "BOSON",
    "FERMION",
    "W_PLUS",
    "W_MINUS",
    "energy_level",
    "physical_force",
    "reduced_temperature",
    "as_mpf",
]


def as_mpf(value) -> mpf:
    """Convert a real-like value (including Fraction) to mpf exactly."""
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


@dataclass(frozen=True)
class Statistics:
    """Particle statistics selector.

    ``eta`` is +1 for Bose-Einstein and -1 for Fermi-Dirac occupancies; it is
    the sign that enters the occupation factor 1/(exp(alpha + b*e_n) - eta).
    """

    kind: str
    eta: int

    def __post_init__(self):
        if (self.kind, self.eta) not in (("boson", 1), ("fermion", -1)):
            raise ValueError(f"inconsistent statistics: kind={self.kind!r}, eta={self.eta}")

    @property
    def is_boson(self) -> bool:
        return self.eta == 1


@dataclass(frozen=True)
class WellSide:
    """Half-well selector carrying the level-law offset ``tau`` and the
    Poisson-summation constant ``sigma``."""

    side: str
    tau: Fraction
    sigma: int

    def __post_init__(self):
        expected = {"plus": (Fraction(1, 2), 0), "minus": (Fraction(0), 1)}
        if self.side not in expected or (self.tau, self.sigma) != expected[self.side]:
            raise ValueError(f"inconsistent well side: {self.side!r}, tau={self.tau}, sigma={self.sigma}")

    @property
    def e1(self) -> Fraction:
        """Lowest level e_1 = (1 - tau)^2 as an exact rational."""
        return (1 - self.tau) ** 2


BOSON = Statistics("boson", 1)
FERMION = Statistics("fermion", -1)
W_PLUS = WellSide("plus", Fraction(1, 2), 0)
W_MINUS = WellSide("minus", Fraction(0), 1)


def energy_level(side: WellSide, n: int) -> Fraction:
    """Reduced level energy e_n = (n - tau)^2 of half well ``side``.

    Exact rational; strictly increasing in n with linearly growing spacing.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"level index must be a positive integer, got {n!r}")
    return (n - side.tau) ** 2


@dataclass(frozen=True)
class PhysicalConfig:
    """SI constants of a concrete realisation of the well.

    ``half_width_l`` is the width of one half well.  ``spin_s`` enters only
    through the degeneracy factor 2s+1.
    """

    hbar: float = 1.054571817e-34        # J s
    mass: float = 9.1093837015e-31       # kg (electron)
    half_width_l: float = 1.0e-9         # m
    boltzmann_kB: float = 1.380649e-23   # J/K
    spin_s: Fraction = Fraction(0)

    def __post_init__(self):
        for name in ("hbar", "mass", "half_width_l", "boltzmann_kB"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        two_s = 2 * Fraction(self.spin_s)
        if two_s.denominator != 1 or two_s < 0:
            raise ValueError(f"spin must be a non-negative half-integer, got {self.spin_s}")

    @property
    def unit_energy(self) -> mpf:
        """Level energy scale (hbar^2/2m)(pi/l)^2 in joules."""
        h = mpf(self.hbar)
        e = h * h / (2 * mpf(self.mass)) * (mp.pi / mpf(self.half_width_l)) ** 2
        if not (e > 0 and mp.isfinite(e)):
            raise ValueError("unit energy is not positive and finite")
        return e

    @property
    def degeneracy(self) -> int:
        return int(2 * Fraction(self.spin_s)) + 1


def physical_force(cfg: PhysicalConfig, reduced_f) -> mpf:
    """Force in newtons corresponding to a reduced one-side force."""
    return cfg.degeneracy * 2 * cfg.unit_energy / mpf(cfg.half_width_l) * mpf(reduced_f)


def reduced_temperature(cfg: PhysicalConfig, kelvin_T) -> mpf:
    """Reduced temperature t = k_B T / E_unit of a temperature in kelvin."""
    kelvin_T = mpf(kelvin_T)
    if not kelvin_T > 0:
        raise ValueError("temperature must be positive")
    return mpf(cfg.boltzmann_kB) * kelvin_T / cfg.unit_energy
