"""Equilibrium observables: partition shift and particle transfer.

A freely sliding partition moves until the physical forces balance.  With
the plus side narrowed to l(1-xi) and the minus side widened to l(1+xi),
each side's level scale grows by (1 -+ xi)^{-2}, its reduced temperature
becomes t (1 -+ xi)^2, and the physical prefactor contributes another
(1 -+ xi)^{-1}, so equilibrium reads

    f_minus(N, t (1+xi)^2) / (1+xi)^3  =  f_plus(N, t (1-xi)^2) / (1-xi)^3.

At zero temperature this closes to xi = (r - 1)/(r + 1) with
r = (f_minus(0)/f_plus(0))^(1/3).  Alternatively, holding the partition
fixed and moving particles instead, the zero-temperature balance condition
determines the redistributed pair (N_plus, N_minus).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from mpmath import mp, mpf

from .model import Statistics, W_MINUS, W_PLUS
from .numerics import DEFAULT_POLICY, PrecisionPolicy, find_root_bracketed
from .lowtemp import fermion_filled_forces, zero_temperature_forces
from . import oracle

__all__ = [
    "ShiftResult",
    "TransferSplit",
    "shift_zero_temperature",
    "shift_finite_temperature",
    "transfer_zero_temperature",
]


@dataclass(frozen=True)
class ShiftResult:
    """Equilibrium fractional displacement of the partition."""

    xi: mpf
    r_ratio: mpf
    t: mpf
    method: str

    def __post_init__(self):
        if not (-1 < self.xi < 1):
            raise ValueError("xi must lie in (-1, 1)")


class TransferSplit(NamedTuple):
    """Redistributed particle numbers with N_plus + N_minus = 2N."""

    n_plus: mpf
    n_minus: mpf

    def rounded(self):
        """Nearest integer split, for physical interpretation."""
        return int(mp.nint(self.n_plus)), int(mp.nint(self.n_minus))


def shift_zero_temperature(stat: Statistics, N: int) -> ShiftResult:
    """Closed-form zero-temperature shift.

    Bosons: r = 4^(1/3) independently of N, so xi ~= 0.227, nearly a quarter
    of the half width.  Fermions: r = (2(N+1)/(2N-1))^(1/3), giving the
    small shift xi -> 1/(4N).
    """
    zt = zero_temperature_forces(stat, N)
    with mp.workdps(DEFAULT_POLICY.dps):
        ratio = zt.f_minus / zt.f_plus
        r = (mpf(ratio.numerator) / ratio.denominator) ** (mpf(1) / 3)
        return ShiftResult((r - 1) / (r + 1), r, mpf(0), "zero_t_closed_form")


def shift_finite_temperature(stat: Statistics, N: int, t,
                             policy: PrecisionPolicy = DEFAULT_POLICY) -> ShiftResult:
    """Finite-temperature shift from the vanishing of the net physical force.

    Each side's reduced force is re-evaluated by the exact oracle at its
    rescaled reduced temperature t (1 -+ xi)^2 and weighted by the geometric
    factor (1 -+ xi)^{-3}; the root in xi is bracketed on (0, 1) by
    overshooting Newton steps from xi = 0 (where delta_f must be positive,
    else :class:`~partition_well.oracle.BracketFailure` is raised) and found
    by safeguarded Newton, its slope from each side's df/dt:

        B'(xi) = [2 t f_-'/(1 + xi)^2 - 3 f_-/(1 + xi)^4
                  + 2 t f_+'/(1 - xi)^2 - 3 f_+/(1 - xi)^4] / scale.
    """
    t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    with mp.workdps(policy.dps):
        memo: dict = {}

        def forces(xi):
            # the bracket ends are also the root finder's end points
            if xi not in memo:
                f_m, _, (df_m, _), _ = oracle.force_side(
                    stat, W_MINUS, N, t * (1 + xi) ** 2, policy, derivatives=True)
                f_p, _, (df_p, _), _ = oracle.force_side(
                    stat, W_PLUS, N, t * (1 - xi) ** 2, policy, derivatives=True)
                memo[xi] = f_m, f_p, df_m, df_p
            return memo[xi]

        scale = sum(forces(mpf(0))[:2])

        def balance(xi):
            f_m, f_p, df_m, df_p = forces(xi)
            wide, narrow = 1 + xi, 1 - xi
            return ((f_m / wide ** 3 - f_p / narrow ** 3) / scale,
                    (2 * t * df_m / wide ** 2 - 3 * f_m / wide ** 4
                     + 2 * t * df_p / narrow ** 2 - 3 * f_p / narrow ** 4) / scale)

        # the upper end: a quarter beyond each Newton step from xi = 0, where
        # balance(0) = delta_f / scale > 0, until the balance turns negative
        lo, hi = mpf(0), None
        value, slope = balance(lo)
        if not value > 0:
            # at t of about 1e200 delta_f has no digit left and reads 0
            raise oracle.BracketFailure(
                f"no force balance: delta_f at xi = 0 is {mp.nstr(value * scale, 6)}, "
                "not positive")
        while hi is None:
            step = -value / slope * 5 / 4 if slope < 0 else mp.inf
            x = lo + min(step, (1 - lo) / 2)
            if 1 - x < mpf("1e-9"):
                raise oracle.BracketFailure("no force balance found below xi = 1")
            v, dv = balance(x)
            if v > 0:
                lo, value, slope = x, v, dv
            else:
                hi = x
        root_policy = policy if policy.target_abs_error <= 1e-7 \
            else replace(policy, target_abs_error=1e-8)
        xi = find_root_bracketed(balance, lo, hi, root_policy, derivative=True).root
        f_m, f_p = forces(xi)[:2]
        return ShiftResult(xi, (f_m / f_p) ** (mpf(1) / 3), t, "finite_t_solve")


def transfer_zero_temperature(stat: Statistics, N: int) -> TransferSplit:
    """Particle split (N_plus, N_minus) that balances the forces at t = 0.

    Bosons: the force ratio fixes N_plus/N_minus = 4 exactly, so the split
    is (8N/5, 2N/5); 60 percent of one side's particles must move.
    Fermions: the cubic balance of the filled-band forces is solved
    numerically; asymptotically N_plus/N_minus -> 1 + 1/(2N), so moving a
    single particle already overshoots the balance.
    """
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    with mp.workdps(DEFAULT_POLICY.dps):
        if stat.is_boson:
            return TransferSplit(mpf(8 * N) / 5, mpf(2 * N) / 5)

        def balance(n_plus):
            return fermion_filled_forces(2 * N - n_plus)[1] - fermion_filled_forces(n_plus)[0]

        res = find_root_bracketed(balance, mpf(N), mpf(2 * N) - mpf("0.5"),
                                  PrecisionPolicy(target_abs_error=1e-15,
                                                  target_rel_error=1e-18))
        return TransferSplit(res.root, 2 * N - res.root)
