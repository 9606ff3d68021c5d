"""Temperature derivatives of one side's force, with certified bounds.

Along the constraint sum_n N_n = N, with D = N (1 + eta N) = -n'(x) and
n'' = D (1 + 2 eta N), d alpha/d b = -S_1/S_0 (S_k = sum e^k D, so S_0 =
-dnumber and S_1 = -dforce of the final level-sum pass), and the
derivatives of f = sum e_n N_n in t = 1/b are moments of the level
energies under the weight D:

    df/dt = b^2 V,    d^2f/dt^2 = -2 b^3 V - b^4 V_b,

with V = S_2 - S_1^2/S_0 = sum (e - r)^2 D and V_b = dV/db =
-sum (e - r)^3 n'', r = S_1/S_0 the D-weighted mean level.  :func:`moment_sums`
sums about the computed mean over the points and cut that pass recorded, with
no walk of its own; :func:`side_derivatives` bounds the result.  :mod:`.oracle`
imports this module only when a caller asks for derivatives.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from mpmath import mp, mpf

from .oracle import _LevelSums, _LevelTable, _strip, power_tails

__all__ = ["Moments", "moment_sums", "side_derivatives"]


def gauss_moment_factor(k: int, s: mpf, b: mpf) -> mpf:
    """sqrt(b/pi) times the integral of (x^2 + s)^k e^(-b x^2) over the real
    line: sum_i C(k, i) s^(k-i) (2i - 1)!!/(2b)^i."""
    total, moment = mpf(0), mpf(1)
    for i in range(k + 1):
        total += math.comb(k, i) * s ** (k - i) * moment
        moment *= (2 * i + 1) / (2 * b)
    return total


class Moments(NamedTuple):
    """Level sums about a centre c, w_n = e_n - c, n(x) = 1/(e^x - eta),
    D = -n' = N (1 + eta N) and n'' = D (1 + 2 eta N), and bounds on the
    distance of each from the full level sum at the same alpha (truncation,
    plus aliasing at m >= 2)."""

    c: mpf
    c2: mpf      # sum_n w_n^2 D_n
    c4: mpf      # sum_n w_n^4 D_n
    b3: mpf      # sum_n w_n^3 n''_n
    tail_c2: mpf
    tail_c4: mpf
    tail_b3: mpf


def moment_sums(table: _LevelTable, alpha: mpf, sums: _LevelSums) -> Moments:
    """The sums of :class:`Moments` over the points (e, N) and the cut that
    ``sums`` recorded, about c = S_1/S_0 (S_0 = -dnumber, S_1 = -dforce),
    the D-weighted mean level: the variance-like sums the temperature
    derivatives need then carry no cancellation.

    Tails: beyond the cut x >= 1, so D <= 2 N and |n''| <= 3 D, and
    |w|^k <= (e + |c|)^k; :func:`.oracle.power_tails` at the recorded cut
    then bounds them.  Aliasing at m >= 2, from the strip of :func:`.oracle._strip`:
    |y^2 - c| <= x^2 + a^2 + |c|, |n'| <= e^(-Re x)/(1 - e^(-delta))^2 and
    |n''| <= 2 e^(-Re x)/(1 - e^(-delta))^3, so each integrates to M times
    the moment factor of :func:`gauss_moment_factor` at s = a^2 + |c|,
    times 1/(1 - e^(-delta)) per alpha-derivative (twice for n'').
    """
    m = sums.stride
    one, fermion, eta = mpf(1), table.eta < 0, table.eta
    c = sums.dforce / sums.dnumber
    # per point w^2 D, w^2 and w n''/D; the sums are exact dot products
    q2, w2, w3 = [], [], []
    for en, occ in sums.points:
        w = en - c
        w2.append(w * w)
        q2.append(w2[-1] * occ * (one - occ if fermion else one + occ))
        w3.append(w * (one - 2 * occ if fermion else one + 2 * occ))
    c2, c4, b3 = mp.fsum(q2), mp.fdot(q2, w2), mp.fdot(q2, w3)
    ealpha = mp.exp(-alpha)
    r = power_tails(table, table.lattice(m), ealpha, *sums.cut, 4)
    # tails of sum m (e + |c|)^k 2 e^(-x), k = 2..4
    p = {k: sum(math.comb(k, i) * abs(c) ** (k - i) * r[i] for i in range(k + 1))
         for k in (2, 3, 4)}
    tail_c2, tail_c4, tail_b3 = 2 * p[2], 2 * p[4], 6 * p[3]
    if m == 1:
        return Moments(c, c2, c4, b3, tail_c2, tail_c4, tail_b3)
    # the points y = m, 2m, ... carry weight m; y = 0 carries (m - sigma)/2
    half = mpf(m - table.sigma) / 2
    occ = ealpha / (1 - eta * ealpha)
    docc = occ * (1 + eta * occ)
    d2occ = docc * (1 + 2 * eta * occ)
    c2 = half * c * c * docc + m * c2
    c4 = half * c ** 4 * docc + m * c4
    b3 = -half * c ** 3 * d2occ + m * b3
    # the dnumber aliasing bound is that of D; n'' has 2/(1 - e^(-delta)) more
    d_alias = table.aliasing(alpha, m)[1]
    a, _, shortfall, _ = _strip(alpha, table.b)
    d2_alias = 2 * d_alias / shortfall
    spread = a * a + abs(c)
    tail_c2 += d_alias * gauss_moment_factor(2, spread, table.b)
    tail_c4 += d_alias * gauss_moment_factor(4, spread, table.b)
    tail_b3 += d2_alias * gauss_moment_factor(3, spread, table.b)
    return Moments(c, c2, c4, b3, tail_c2, tail_c4, tail_b3)


def side_derivatives(table: _LevelTable, alpha: mpf, sums: _LevelSums,
                     alpha_error: mpf) -> tuple:
    """((df/dt, bound), (d^2f/dt^2, bound)) of one side's force, from the
    final level sums ``sums`` at the root ``alpha``.

    About the centre c of :func:`moment_sums`, with d = r - c = C_1/S_0 and
    C_k, B_k the D- and n''-weighted sums of (e - c)^k,

        V = C_2 - d^2 S_0,   V_b = -(B_3 - 3 d B_2 + 3 d^2 B_1 - d^3 B_0),

    exact for every c; the computed C_1 = S_1 - c S_0 vanishes, so V = C_2
    and V_b = -B_3 up to the bounds.  Each sum is off the full sum at the
    root alpha* by its tail and by its change over |alpha - alpha*| <=
    ``alpha_error`` = delta.  There, with kappa = 1 for fermions and
    1 + 2 N_1 for bosons (N_1 the first level's occupancy), |n''| <= kappa D
    and |n'''| = D |1 + 6 eta D| <= D (1 + 6 D_1 for bosons); while
    kappa delta <= 1/8 these hold over the interval with kappa and D_1 at
    most 1.14 and 1.3 times their values at alpha, and every D-weighted sum
    of positive weights moves by at most rho = 2 kappa delta of itself.  So

    * C_2, S_0: rho times themselves;
    * C_1: delta 2 kappa A_1, and B_3: delta L A_3, with A_k = sum |w|^k D
      and L = 2 (fermions) or 2 (1 + 8 D_1); A_1 and A_3 are bounded by
      Cauchy-Schwarz from S_0, C_2 and C_4;
    * |B_k| <= 2 kappa A_k at the root, for the terms in d of V_b.

    Beyond kappa delta = 1/8 the bounds are infinite: no sign is certified.
    """
    b = table.b
    mom = moment_sums(table, alpha, sums)
    v, vb = mom.c2, -mom.b3
    occ1 = 1 / (mp.exp(alpha + b * (1 - table.tau) ** 2) - table.eta)
    boson = table.eta > 0
    kappa = 1 + 2 * occ1 if boson else mpf(1)
    lip = 2 * (1 + 8 * occ1 * (1 + occ1)) if boson else mpf(2)
    delta = alpha_error
    rho = 2 * kappa * delta
    s0, tail_s0 = -sums.dnumber, sums.tail_dnumber
    s0_hat, c2_hat = s0 + tail_s0, mom.c2 + mom.tail_c2
    err_s0 = tail_s0 + rho * s0_hat
    if kappa * delta <= mpf(1) / 8 and s0 > err_s0:
        a = (s0_hat, mp.sqrt(s0_hat * c2_hat), c2_hat,
             mp.sqrt(c2_hat * (mom.c4 + mom.tail_c4)))  # A_k = sum |w|^k D
        c1 = -sums.dforce + mom.c * sums.dnumber
        c1_err = abs(c1) + sums.tail_dforce + abs(mom.c) * tail_s0 \
            + 2 * kappa * delta * a[1]
        d = c1_err / (s0 - err_s0)  # bounds |r - c| at the root
        v_err = mom.tail_c2 + rho * c2_hat + d * d * (1 + rho) * s0_hat
        vb_err = mom.tail_b3 + delta * lip * a[3] \
            + 2 * kappa * (3 * d * a[2] + 3 * d * d * a[1] + d ** 3 * a[0])
    else:
        v_err = vb_err = mp.inf
    b2, b3, b4 = b * b, b ** 3, b ** 4
    return ((b2 * v, b2 * v_err),
            (-2 * b3 * v - b4 * vb, 2 * b3 * v_err + b4 * vb_err))
