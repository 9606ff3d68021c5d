"""Zero-temperature values and low-temperature models.

At t = 0 bosons condense into the ground level and fermions fill the lowest
N levels, giving exact rational forces per side.  Slightly above zero only
the levels adjacent to the ground state (bosons) or to the Fermi edge
(fermions) deviate from their t = 0 occupancies, which yields the closed
two-level models, the fermionic semi-four-level refinement, and the
inflection points that frame the small step in the fermionic curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .model import Statistics, WellSide, as_mpf, energy_level
from .numerics import DEFAULT_POLICY, find_root_bracketed

__all__ = [
    "ZeroTemperatureForces",
    "zero_temperature_forces",
    "boson_two_level_net_force",
    "boson_alpha_low_temperature",
    "fermion_two_level_alpha",
    "fermion_step_net_force",
    "step_inflection_points",
    "STEP_MODELS",
]

STEP_MODELS = ("two_level", "semi_four_level")


@dataclass(frozen=True)
class ZeroTemperatureForces:
    """Exact t = 0 forces: all occupied levels contribute their e_n."""

    stat: Statistics
    N: int
    f_plus: Fraction
    f_minus: Fraction
    delta_f: Fraction


def zero_temperature_forces(stat: Statistics, N: int) -> ZeroTemperatureForces:
    """Exact rational zero-temperature forces of both sides.

    Bosons: N times the ground level, so f+ = N/4, f- = N.  Fermions: sums
    over the lowest N levels, f+ = N(4N^2-1)/12 and f- = N(N+1)(2N+1)/6.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    if stat.is_boson:
        f_plus = Fraction(N, 4)
        f_minus = Fraction(N)
    else:
        f_plus = Fraction(N * (4 * N * N - 1), 12)
        f_minus = Fraction(N * (N + 1) * (2 * N + 1), 6)
    return ZeroTemperatureForces(stat, N, f_plus, f_minus, f_minus - f_plus)


def boson_two_level_net_force(N: int, t) -> mpf:
    """Bosonic net force with only the two lowest levels active per side.

    delta_f = (3/4) N + 3 exp(-3/t) - 2 exp(-2/t); the correction starts to
    bite at t of order 1 regardless of N.  Low-t model, advisory validity
    t <~ 3.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        t = mpf(t)
        if not t > 0:
            raise ValueError("t must be positive")
        return mpf(3 * N) / 4 + 3 * mp.exp(-3 / t) - 2 * mp.exp(-2 / t)


def boson_alpha_low_temperature(side: WellSide, N: int, b) -> mpf:
    """Low-temperature occupancy parameter -b e_1 + ln(1 + 1/N).

    Follows from nearly all particles occupying the ground level.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        return -mpf(b) * as_mpf(side.e1) + mp.log(1 + mpf(1) / N)


def fermion_two_level_alpha(side: WellSide, N: int, b) -> mpf:
    """Fermionic occupancy parameter -(b/2)(e_N + e_{N+1}).

    Places the Fermi edge symmetrically between the last filled and first
    empty level, making their occupancies sum to one exactly.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        eN = as_mpf(energy_level(side, N))
        eN1 = as_mpf(energy_level(side, N + 1))
        return -mpf(b) / 2 * (eN + eN1)


def _step_correction(x: mpf, model: str) -> mpf:
    # x = b N = N/t; stable via exp(-x) so that x -> inf degrades gracefully
    e1 = mp.exp(-x)
    s1 = e1 / (1 + e1)
    d1 = x * e1 / (1 + e1) ** 2
    if model == "two_level":
        return s1 - d1
    e3 = mp.exp(-3 * x)
    s3 = 3 * e3 / (1 + e3)
    d3 = 13 * x * e3 / (1 + e3) ** 2
    return s1 + s3 - d1 - d3


def fermion_step_net_force(N: int, t, model: str = "semi_four_level") -> mpf:
    """Fermionic low-temperature net force around the step.

    Both models depend on (N, t) only through x = N/t and differ from the
    zero-temperature value by an O(1) amount:

    * ``two_level``       adds 1/(e^x+1) - x e^x/(e^x+1)^2;
    * ``semi_four_level`` also activates the next level pair while keeping
      the two-level occupancy parameter, adding 3/(e^{3x}+1) and
      -13 x e^{3x}/(e^{3x}+1)^2.
    """
    if model not in STEP_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {STEP_MODELS}")
    with mp.workdps(DEFAULT_POLICY.dps):
        t = mpf(t)
        if not t > 0:
            raise ValueError("t must be positive")
        df0 = as_mpf(Fraction(N * (2 * N + 1), 4))
        return df0 + _step_correction(mpf(N) / t, model)


def step_inflection_points(model: str = "semi_four_level", window=(mpf("0.1"), mpf("0.6"))):
    """Inflection pair (t_begin/N, t_end/N) of the step model.

    Zeros of the second derivative of the model with respect to v = t/N,
    located in the step window.  Outside that window the quadratic model
    develops further spurious curvature changes, so the scan is clamped to
    the step itself.
    """
    if model not in STEP_MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {STEP_MODELS}")
    with mp.workdps(DEFAULT_POLICY.dps):
        corr = lambda v: _step_correction(1 / mpf(v), model)
        second = lambda v: mp.diff(corr, mpf(v), 2)
        lo, hi = mpf(window[0]), mpf(window[1])
        m = 60
        h = (hi - lo) / m
        grid = [lo + i * h for i in range(m + 1)]
        signs = [mp.sign(second(v)) for v in grid]
        crossings = [i for i in range(1, m + 1) if signs[i] != signs[i - 1]]
        if len(crossings) < 2:
            raise RuntimeError(
                f"expected two curvature sign changes in the window, found {len(crossings)}")
        return tuple(find_root_bracketed(second, grid[i - 1], grid[i]).root
                     for i in crossings[:2])
