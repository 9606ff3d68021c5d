"""High-temperature fugacity expansion of the net force.

For small ``b = 1/t`` the occupancies are expanded in powers of the
fugacity ``q = exp(-alpha)`` and each level sum is Poisson-resummed into a
rapidly converging theta series (the oracle sums the levels themselves,
on a strided lattice with certified aliasing and truncation bounds).
Matching the particle-number constraint order by order gives ``q`` to
second order and, from it, the leading and next-to-leading behaviour of
the net force,

    delta_f = (N/2) sqrt(t/pi) - (N/pi) [(sqrt(2)-1) eta N - 1/2] + O(t^-1/2),

whose leading square-root growth is the same for both statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .model import Statistics, WellSide
from .numerics import DEFAULT_POLICY

__all__ = [
    "FugacityExpansion",
    "fugacity_expansion",
    "net_force_asymptote",
]


@dataclass(frozen=True)
class FugacityExpansion:
    """Truncated small-b expansion of the fugacity q = exp(-alpha)."""

    order: int
    q_value: mpf
    b: mpf
    N: int
    eta: int
    sigma: int
    within_validity: bool  # advisory: leading term still small


def fugacity_expansion(stat: Statistics, side: WellSide, N: int, b,
                       order: int = 2) -> FugacityExpansion:
    """Small-b fugacity q to first or second order.

    Order 1 is the statistics- and side-independent 2 N sqrt(b/pi); order 2
    adds 2 N [sigma - eta sqrt(2) N] b/pi.  The expansion degrades once the
    leading term stops being small; ``within_validity`` flags q <= 0.3 but
    no error is raised.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    with mp.workdps(DEFAULT_POLICY.dps):
        b = mpf(b)
        q1 = 2 * N * mp.sqrt(b / mp.pi)
        q = q1
        if order == 2:
            q = q + 2 * N * (side.sigma - stat.eta * mp.sqrt(2) * N) * b / mp.pi
        return FugacityExpansion(order, q, b, N, stat.eta, side.sigma,
                                 within_validity=bool(q1 <= mpf("0.3")))


def net_force_asymptote(N: int, t, order: str = "leading",
                        stat: Statistics | None = None) -> mpf:
    """High-temperature asymptote of the net force.

    ``order="leading"`` gives (N/2) sqrt(t/pi), identical for both
    statistics; ``order="next"`` adds the constant term, which depends on
    the statistics through eta, so ``stat`` is required there.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        t = mpf(t)
        lead = N / mpf(2) * mp.sqrt(t / mp.pi)
        if order == "leading":
            return lead
        if order != "next":
            raise ValueError("order must be 'leading' or 'next'")
        if stat is None:
            raise ValueError("the next-order constant depends on the statistics")
        return lead - N / mp.pi * ((mp.sqrt(2) - 1) * stat.eta * N - mpf(1) / 2)

