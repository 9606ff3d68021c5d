"""Exact numerical evaluation of the net force on the partition.

For each half well the occupancy parameter ``alpha`` is solved from the
particle-number constraint

    N = sum_n 1 / (exp(alpha + b e_n) - eta),        b = 1/t,

and the reduced force ``f = sum_n N_n e_n`` is evaluated at the solution.
Every sum is truncated with a certified tail bound and every reported value
carries an error bound combining truncation and root residual, so the
routines here serve as the oracle against which all closed-form regime
approximations are validated.

The constraint is solved by safeguarded Newton inside a sign-change bracket
on number-only sums (the constraint sum and its alpha-derivative, without
the force sums); one full evaluation at the root then gives the force and
the certificates.  Iteration and final evaluation truncate at the same
depth, ``target_abs_error * min(1, b) / 8192``, so that the force
sensitivity, which grows like t, does not amplify a mismatch between them.

The bracket comes in closed form from one classical level sum
Theta_0 = sum_n e^(-b e_n) and w = e^(-b e_1).  Boltzmann occupancy e^(-x)
lies above the Fermi occupancy 1/(e^x + 1) and below the Bose occupancy
1/(e^x - 1); dividing it by 1 + e^(-x_1) or 1 - e^(-x_1) bounds each from
the other side.  Summed over the levels this puts the root between
log(Theta_0/N - w) and log(Theta_0/N) for fermions, and between
log(Theta_0/N) and log(Theta_0/N + w) for bosons (the lower ends where
Theta_0 > N w).  Near the Bose pole the first level's capacity,
x_1 = log(1 + 1/N), gives the lower end instead; for a sharp Fermi step
both ends are those of a window around the filled levels; for a soft one
the Fermi integral I(alpha) of :mod:`.fermion_medium` bounds the sum from
below.  Each end is padded outward by 10^(4 - dps) max(1, |alpha|), a few
units of the working precision: with a single occupied level the bound is
tight.  No end is found by evaluating the constraint.

Every level sum runs one strided walk over points y_j = y_0 + m j with
weight m, the fixed-point kernel :func:`~.numerics.fixed_point_walk`.
Stride m = 1 with y_0 = 1 - tau sums every level y = n - tau.
Where alpha > 0, f(y) = 1/(e^(alpha + b y^2) - eta) is analytic in a strip
around the real axis, and by Poisson summation m times the sum over every
m-th point of mZ, plus the closed term (m - sigma) f(0)/2, equals the level
sum up to a certified aliasing bound.  The stride is the largest one whose
aliasing stays within half the truncation target: at small b a few dozen
points replace thousands of levels.  alpha <= 0 keeps m = 1.

Within one solve b is fixed and only alpha changes, so each solve builds a
level table (:class:`_LevelTable`) that the bracket ends, every Newton step
and the final evaluation read from.  It owns the alpha-independent terms:
Theta_0(b) with its error, the strip of :func:`_strip` at the last alpha
asked, per stride the ratios of successive point weights e^(-b y_j^2) as
integers (Theta_0 walks those of stride 1), formed on first use and
extended in chunks, and, per cut point, z, e^(-z^2) and the Gaussian tail
bound formed from it.  A level sum at a new alpha then costs e^(-alpha),
the one or two exponentials that start the walk at the Fermi edge, and,
per point, a few integer operations on one binary scale: u = e^(-x) steps
outward from the Fermi edge by the ratios, the holes e^x step inward from
it, and every floor and shift is counted into a rounding bound that each
tail adds.  At stride 1 the number sum is unrounded, so that the residual
|sum - N| of a sharp Fermi step, of order e^(-x) at the edge, is resolved.
The final pass hands e^(-alpha) and its dnumber aliasing on with its sums.
The table is dropped when the solve returns; nothing is cached across
solves.

Asked for ``derivatives``, a solve adds df/dt and d^2f/dt^2 of its side,
each with a certified bound, from the points, cut, e^(-alpha) and aliasing
that the final evaluation recorded, with no second walk; only the first
level's occupancy is evaluated anew.  Along the constraint sum_n N_n = N,
with D = N (1 + eta N) = -n'(x) and n'' = D (1 + 2 eta N), d alpha/d b =
-S_1/S_0 (S_k = sum e^k D, so S_0 = -dnumber and S_1 = -dforce of the
final level-sum pass), and the derivatives of f = sum e_n N_n in t = 1/b
are moments of the level energies under the weight D:

    df/dt = b^2 V,    d^2f/dt^2 = -2 b^3 V - b^4 V_b,

with V = S_2 - S_1^2/S_0 = sum (e - r)^2 D and V_b = dV/db =
-sum (e - r)^3 n'', r = S_1/S_0 the D-weighted mean level.
:func:`moment_sums` sums about the computed mean and :func:`side_derivatives`
bounds the result.  The searches find the roots of these derivatives where
their signs are certified, and return each location with a half-width
whose ends carry opposite certified signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Sequence

from mpmath import mp, mpf

from .fermion_medium import fermi_integral_ends
from .model import Statistics, W_MINUS, W_PLUS, WellSide, as_mpf
from .numerics import (
    DEFAULT_POLICY,
    MaxIterations,
    NumericFailure,
    PrecisionExhausted,
    FixedPointLattice,
    PrecisionPolicy,
    find_root_bracketed,
    fixed_point_walk,
    gaussian_tail_factor,
    pad_outward,
)

__all__ = [
    "OccupancySolution",
    "CurvePoint",
    "Minimum",
    "Inflections",
    "BracketFailure",
    "NotUnimodal",
    "StepNotFound",
    "SweepFailure",
    "solve_alpha",
    "occupancy",
    "force_side",
    "net_force",
    "sweep_curve",
    "locate_minimum",
    "locate_inflections",
]

_THETA_POISSON_MAX_BETA = mpf("1.5")


class BracketFailure(NumericFailure):
    """No sign-changing bracket could be constructed for the constraint."""


class _SlopeLost(PrecisionExhausted):
    """The constraint derivative at the root is not resolved above its tail
    bound; more working digits can resolve it."""


class NotUnimodal(NumericFailure):
    """Probe points do not show a single interior minimum."""

    def __init__(self, message, probes):
        super().__init__(message)
        self.probes = probes


class StepNotFound(NumericFailure):
    """Fewer than two inflection points detected in the search window."""


class SweepFailure(RuntimeError):
    """One or more sweep points failed; carries the completed points."""

    def __init__(self, failures, points):
        super().__init__("; ".join(f"t={t}: {msg}" for _, t, msg in failures))
        self.failures = failures
        self.points = points


@dataclass(frozen=True)
class OccupancySolution:
    """Solved occupancy parameter with its certified error budget."""

    alpha: mpf
    q_fugacity: mpf
    alpha_error: mpf
    n_trunc: int
    digits_used: int
    residual_bound: mpf  # certified |sum_n N_n(alpha) - N|


@dataclass(frozen=True)
class CurvePoint:
    t: mpf
    alpha_plus: mpf
    alpha_minus: mpf
    f_plus: mpf
    f_minus: mpf
    delta_f: mpf
    delta_f_error: mpf
    # filled by net_force(..., derivatives=True) only
    d_delta_f_dt: mpf = None
    d_delta_f_dt_error: mpf = None
    d2_delta_f_dt2: mpf = None
    d2_delta_f_dt2_error: mpf = None


class Minimum(NamedTuple):
    """The minimiser of the net force, certified to lie within
    ``t_min -+ t_min_error``, and the net force there."""

    t_min: mpf
    delta_f_min: mpf
    t_min_error: mpf


class Inflections(NamedTuple):
    """The two inflection temperatures of the fermionic step, each certified
    to lie within its value -+ its error."""

    t_begin: mpf
    t_end: mpf
    t_begin_error: mpf
    t_end_error: mpf


class _LevelSums(NamedTuple):
    number: mpf          # sum_n N_n
    dnumber: mpf         # d/d alpha of the above (negative)
    force: mpf           # sum_n e_n N_n
    dforce: mpf          # d/d alpha of the above (negative)
    tail_number: mpf
    tail_dnumber: mpf
    tail_force: mpf
    tail_dforce: mpf
    terms: int           # points summed
    stride: int
    walk: tuple          # the FixedPointSums of the walk, for the moment sums
    cut: tuple           # (y_j, u_(j+1)) of the last summed point
    ealpha: mpf          # e^(-alpha)
    alias_dnumber: mpf   # the dnumber aliasing within tail_dnumber (0 at m = 1)


def _theta0(lattice: FixedPointLattice, w1: mpf, sigma: int, eps: mpf):
    """sum_{n>=1} exp(-beta e_n) with certified error below eps, beta = b of
    the stride-1 ``lattice``; from beta = 1.5 on, walked over its points as
    w1 = e^(-beta e_1) times the sum of e^(-beta (e_n - e_1)) <= 1: a ratio
    table shared with the level sums, and no deep scale however small w1 is."""
    beta = lattice.b
    if beta >= _THETA_POISSON_MAX_BETA:
        # level spacing grows, so every ratio is at most the first
        shortfall = -mp.expm1(-beta * (2 * lattice.y0 + 1))
        rel = eps / w1

        def cut(j, u, u_next):
            tail = u_next / shortfall
            return tail < rel and (tail,)

        walk = fixed_point_walk(lattice, 0, -beta * lattice.y0 ** 2, rel, mpf(2), cut)
        (total, _), (rounding, _) = walk.scaled(walk.totals[:2]), walk.scaled(walk.bounds[:2])
        return w1 * total, w1 * (walk.cut[0] + rounding)
    pref = mp.sqrt(mp.pi / (4 * beta))
    g = mp.exp(-mp.pi ** 2 / beta)
    sgn = 2 * sigma - 1
    s = mpf(1)
    m = 1
    while True:
        s += 2 * (sgn ** m) * g ** (m * m)
        tail = pref * 2 * g ** ((m + 1) ** 2) / (1 - g)
        if tail < eps:
            return pref * s - mpf(sigma) / 2, tail
        m += 1


def _strip(alpha, b):
    """(a, M, 1 - e^(-delta), 1/(2b) + a^2) of f(y) = 1/(e^(alpha + b y^2) - eta)
    at alpha > 0.

    With delta = alpha/16, Re(alpha + b y^2) >= delta + b x^2 on the strip
    |Im y| <= a = sqrt((alpha - delta)/b), y = x + i s.  So, for both
    statistics, |f| <= e^(-delta - b x^2)/(1 - e^(-delta)) there, and |f|
    integrates to at most M = sqrt(pi/b) e^(-delta)/(1 - e^(-delta)) along
    every line of the strip.  The alpha-derivative of f has one more factor
    1/(1 - e^(-delta)); |y^2| <= x^2 + a^2 multiplies M by 1/(2b) + a^2.
    """
    delta = alpha / 16
    a = mp.sqrt((alpha - delta) / b)
    shortfall = -mp.expm1(-delta)
    return a, mp.sqrt(mp.pi / b) * mp.exp(-delta) / shortfall, shortfall, 1 / (2 * b) + a * a


class _LevelTable:
    """The alpha-independent parts of the level sums of one constraint solve.

    Built from (stat, side, b, eps), extended lazily, and dropped with the
    solve.  It holds Theta_0(b) for the closed-form bracket ends, summed to
    10^(-dps) w_1 (w_1 = e^(-b e_1), the weight of the first level), one
    :class:`~.numerics.FixedPointLattice` per stride used (the levels
    y = n - tau for m = 1, the points y = m, 2m, ... for m >= 2, whose
    integer ratios are formed on the first walk), and the Gaussian terms of
    :meth:`gauss` at every cut point asked.  A level sum at alpha then costs
    e^(-alpha), the exponentials that start the walk at the Fermi edge, and
    integer operations.
    """

    def __init__(self, stat: Statistics, side: WellSide, b: mpf, eps: mpf):
        self.eta, self.sigma, self.b, self.eps = stat.eta, side.sigma, b, eps
        self.tau = tau = as_mpf(side.tau)
        self.sqrt_b = mp.sqrt(b)
        self.w1 = mp.exp(-b * (1 - tau) ** 2)
        self._log_b, self._log_eps = float(mp.log(b)), float(mp.log(eps))
        self._lattices, self._gauss = {}, {}
        self._theta0 = None
        self._last_strip = None, None  # (alpha, _strip(alpha, b))

    def lattice(self, m: int) -> FixedPointLattice:
        if m not in self._lattices:
            self._lattices[m] = FixedPointLattice(self.b, 1 - self.tau if m == 1 else mpf(m), m)
        return self._lattices[m]

    def gauss(self, y: mpf) -> tuple:
        """(z, e^(-z^2), G_0) at z = sqrt(b) y, G_0 = e^(-z^2) times
        :func:`~.numerics.gaussian_tail_factor`, an upper bound on the tail
        integral of e^(-s^2) from z."""
        if y not in self._gauss:
            z = self.sqrt_b * y
            ez = mp.exp(-z * z)
            self._gauss[y] = z, ez, ez * gaussian_tail_factor(z)
        return self._gauss[y]

    def theta0(self) -> tuple:
        """(Theta_0(b), its certified error)."""
        if self._theta0 is None:
            self._theta0 = _theta0(self.lattice(1), self.w1, self.sigma,
                                   self.w1 * mpf(10) ** (-mp.dps))
        return self._theta0

    def strip(self, alpha: mpf) -> tuple:
        """:func:`_strip` at ``alpha``, evaluated once for the last alpha
        asked: the aliasing and moment bounds of one evaluation share it."""
        if alpha != self._last_strip[0]:
            self._last_strip = alpha, _strip(alpha, self.b)
        return self._last_strip[1]

    def stride(self, alpha: mpf) -> int:
        """The largest stride whose :meth:`aliasing` stays within half the
        truncation target of each sum (eps/2 for the number and the force,
        eps for their alpha-derivatives), chosen in floating point; 1 where
        alpha <= 0 (a Bose pole near the axis, or a degenerate Fermi sea).

        The choice is formed from logarithms of the quantities of
        :meth:`strip`: M/eps itself overflows a float from t ~ 1e100 on,
        and eps underflows near t = 1e308.
        """
        x, log_b, log_eps = float(alpha), self._log_b, self._log_eps
        # a float precheck: stride 2 needs e^(pi a) above M/eps, about 1/eps
        if not (0 < x < math.inf and 2 * math.pi * math.exp(
                min((math.log(x) - log_b) / 2, 700)) > -log_eps):
            return 1
        delta = x / 16
        shortfall = -math.expm1(-delta)
        if not shortfall > 0:  # alpha/16 underflows
            return 1
        log_a = (math.log(x - delta) - log_b) / 2
        # the largest M/budget of the four sums, with room for rounding
        log_ratio = ((math.log(math.pi) - log_b) / 2 - delta - math.log(shortfall) - log_eps
                     + math.log(max(2, 1 / shortfall))
                     + max(0, math.log(0.5 + x - delta) - log_b) - math.log1p(-1e-6))
        # the stride-1 aliasing share 1/(e^(2 pi a) - 1) must leave room
        # = 1/ratio - 1/(e^(2 pi a) - 1) > 0 to stride m
        two_pi_a = 2 * math.pi * math.exp(min(log_a, 700))
        log_alias = -two_pi_a - math.log(-math.expm1(-two_pi_a))
        if not log_alias < -log_ratio:
            return 1
        log_room = math.log(-math.expm1(log_alias + log_ratio)) - log_ratio
        # m = min(2 pi a / log1p(1/room), a)
        log1p_inv_room = max(-log_room, 0) + math.log1p(math.exp(-abs(log_room)))
        log_m = log_a - math.log(max(1, log1p_inv_room / (2 * math.pi)))
        return max(1, int(math.exp(log_m))) if log_m < 700 else int(mp.exp(log_m))

    def aliasing(self, alpha: mpf, m: int) -> tuple:
        """Bounds on |sum_(n>=1) F(n - tau) - S_m| for F in the number,
        dnumber, force and dforce sums, S_m = (m - sigma) F(0)/2 +
        m sum_(j>=1) F(m j).

        By Poisson summation (Trefethen & Weideman, SIAM Rev. 56 (2014) 385,
        Thm 5.1) h times a lattice sum of step h is within 2 M/(e^(2 pi a/h)
        - 1) of the integral of F, with a and M from :meth:`strip`.  F is
        even: the level sum is half its sum over Z + tau (less F(0)/2 if
        sigma = 1), and S_m half of m times its sum over mZ; each is within
        half that bound of half the integral, at h = 1 and at h = m.
        """
        a, bound, shortfall, weight = self.strip(alpha)
        g = 1 / mp.expm1(2 * mp.pi * a / m) + 1 / mp.expm1(2 * mp.pi * a)
        dbound = bound / shortfall
        return bound * g, dbound * g, bound * weight * g, dbound * weight * g


def power_tails(table: _LevelTable, ealpha: mpf, m: int, y: mpf, u_next: mpf,
                k_max: int) -> list:
    """[R_0, ..., R_k_max]: bounds on the sums of m e^k 2 e^(-x) over the
    points of stride ``m`` after ``y``, for a cut where x >= ln 2 (N <= 2
    e^(-x)), with u_next >= e^(-x) at the next point y + m.  R_0 and R_1
    bound the number and force tails, R_2 to R_4 the moment tails of
    :func:`moment_sums`.

    y^(2k) e^(-b y^2) rises up to y^2 = k/b and falls beyond, so the sum over
    points of spacing m from y + m on is at most m times its largest value
    there plus its integral from y + m: with z = sqrt(b) (y + m) that
    integral is e^(-alpha) b^(-k-1/2) G_2k(z), G_0 the Gaussian tail of
    :meth:`_LevelTable.gauss` and G_2k(z) = z^(2k-1) e^(-z^2)/2 + (2k - 1)/2
    G_2k-2(z).
    """
    b, sqrt_b, y_next = table.b, table.sqrt_b, y + m
    z, ez, g = table.gauss(y_next)
    # k = 0 peaks at the first dropped point
    tails = [2 * (m * u_next + ealpha / sqrt_b * g)]
    e_next = y_next ** 2
    e_k, b_k = 1, sqrt_b  # e_next^k and b^(k + 1/2)
    for k in range(1, k_max + 1):
        g = z ** (2 * k - 1) * ez / 2 + mpf(2 * k - 1) / 2 * g
        e_k, b_k = e_k * e_next, b_k * b
        peak = m * e_k * u_next if b * e_next >= k else m * (k / (b * mp.e)) ** k * ealpha
        tails.append(2 * (peak + ealpha / b_k * g))
    return tails


def _origin_terms(table: _LevelTable, ealpha: mpf, m: int) -> tuple:
    """(m - sigma) F(0)/2 of the number sum and of its alpha-derivative,
    F(0) = 1/(e^alpha - eta); the force sums have F(0) = 0."""
    occ0 = ealpha / (1 - table.eta * ealpha)
    half = mpf(m - table.sigma) / 2
    return half * occ0, -half * occ0 * (1 + table.eta * occ0)


def _walk(table: _LevelTable, alpha: mpf, m: int, full: bool = True):
    """:func:`~.numerics.fixed_point_walk` over the points of stride ``m``,
    and e^(-alpha).  The walk's cut is where b y^2 >= 2, x >= 1 and R_0 and
    R_1 of :func:`power_tails`, the number and force tails (the
    alpha-derivatives have twice these), are both below the target; it
    keeps them and (y_j, u_(j+1)).  A full walk records its points for
    :func:`moment_sums`; a number walk (``full`` unset) at m = 1 stops on
    R_0 alone."""
    lattice, b = table.lattice(m), table.b
    # stride m >= 2 leaves half the target to the aliasing
    eps = table.eps if m == 1 else table.eps / 2
    ealpha = mp.exp(-alpha)
    weighted = full or m > 1

    def cut(j, u, u_next):
        y = lattice.y0 + m * j
        en = y * y
        if not weighted:
            return alpha + b * en >= 1 and power_tails(table, ealpha, m, y, u_next, 0)[0] < eps
        # cheap prechecks before the closed-form bounds: R_1 exceeds its
        # integral part, (y + m) u_(j+1)/b, which u_next bounds within half
        if not (m * u * (en + 1) * 4 < eps and alpha + b * en >= 1 and b * en >= 2
                and u_next * (y + m) < 2 * eps * b):
            return None
        tail_n, tail_f = power_tails(table, ealpha, m, y, u_next, 1)
        return tail_n < eps and tail_f < eps and ((tail_n, tail_f), (y, u_next))

    # u < eps/(4 m), or where weighted 4 m u (e + 1) < eps, is a necessary
    # condition of either cut
    return fixed_point_walk(lattice, table.eta, alpha, eps / m, eps / 4 / m, cut, m,
                            weighted, full), ealpha


def _number_sums(table: _LevelTable, alpha: mpf):
    """(sum_n N_n, its alpha-derivative), within ``table.eps`` and
    2 ``table.eps`` of the full sums: the walk of :func:`_level_sums`, for
    the constraint iteration.  At m = 1 it stops on the number tail R_0 of
    :func:`power_tails` alone, and its number is unrounded; at m >= 2 where
    :func:`_level_sums` stops, so that the root is found on the number sums
    of the final evaluation.
    """
    m = table.stride(alpha)
    walk, ealpha = _walk(table, alpha, m, False)
    number, dnumber = walk.scaled(walk.totals[:2])
    if m == 1:
        return number, -dnumber
    origin_n, origin_dn = _origin_terms(table, ealpha, m)
    return origin_n + number, origin_dn - dnumber


def _level_sums(table: _LevelTable, alpha: mpf, m: int = None) -> _LevelSums:
    """All level sums and their tail bounds over the points of stride ``m``
    (by default :meth:`_LevelTable.stride`); ``table`` carries the
    alpha-independent work of the solve from call to call.  m = 1 sums
    every level y = n - tau.  m >= 2 sums m F(y) at y = m, 2m, ... and adds
    (m - sigma) F(0)/2; its tails add :meth:`_LevelTable.aliasing` to the
    truncation bounds of the cut of :func:`_walk`, which take half the
    target.  Every tail adds the walk's counted rounding.  The sums carry
    e^(-alpha) and the dnumber aliasing on to the moment sums.
    """
    if m is None:
        m = table.stride(alpha)
    walk, ealpha = _walk(table, alpha, m)
    s_n, s_dn, s_f, s_df = walk.scaled(walk.totals)
    r_n, r_dn, r_f, r_df = walk.scaled(walk.bounds)
    (tail_n, tail_f), cut = walk.cut
    # m = 1 has no aliasing and no origin term
    a_n = a_dn = a_f = a_df = 0
    number, dnumber = s_n, -s_dn
    if m > 1:
        a_n, a_dn, a_f, a_df = table.aliasing(alpha, m)
        origin_n, origin_dn = _origin_terms(table, ealpha, m)
        number, dnumber = origin_n + s_n, origin_dn - s_dn
    return _LevelSums(number, dnumber, s_f, -s_df,
                      tail_n + a_n + r_n, 2 * tail_n + a_dn + r_dn,
                      tail_f + a_f + r_f, 2 * tail_f + a_df + r_df,
                      walk.terms, m, walk, cut, ealpha, a_dn)


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
    |w|^k <= (e + |c|)^k; :func:`power_tails` at the recorded cut then
    bounds them.  Aliasing at m >= 2, from the dnumber aliasing of ``sums``
    and :meth:`_LevelTable.strip`:
    |y^2 - c| <= x^2 + a^2 + |c|, |n'| <= e^(-Re x)/(1 - e^(-delta))^2 and
    |n''| <= 2 e^(-Re x)/(1 - e^(-delta))^3, so each integrates to M times
    the moment factor of :func:`gauss_moment_factor` at s = a^2 + |c|,
    times 1/(1 - e^(-delta)) per alpha-derivative (twice for n'').
    Rounding: the walk's per-point bounds on D and n'' times the sums of
    |w|^k over the points it recorded, a filled plateau included.
    """
    m, walk, eta = sums.stride, sums.walk, table.eta
    c = sums.dforce / sums.dnumber
    # with 4 c 2^k = C an integer, w = 4 2^k (e - c) = 4e 2^k - C at each
    # point; the sums are exact integer dot products on the walk's scale
    sign, man, exp, _ = c._mpf_
    k = max(0, -exp - 2)
    centre, one, bits = (-1) ** sign * man << (exp + 2 + k), 1 << walk.bits, walk.bits
    # next to them the sums of w^2, |w|^3 and w^4, for the rounding
    s2 = s4 = s3 = a2 = a3 = a4 = 0
    for e4, occ, docc in walk.points:
        w = (e4 << k) - centre
        w2 = w * w
        q2 = w2 * docc
        s2 += q2
        s4 += q2 * w2
        s3 += q2 * w * (one + 2 * eta * occ)
        a2 += w2
        a3 += w2 * abs(w)
        a4 += w2 * w2
    c2 = mp.ldexp(s2, -bits - 2 * (k + 2))
    c4 = mp.ldexp(s4, -bits - 4 * (k + 2))
    b3 = mp.ldexp(s3, -2 * bits - 3 * (k + 2))
    ealpha = sums.ealpha
    r = power_tails(table, ealpha, m, *sums.cut, 4)
    # tails of sum m (e + |c|)^k 2 e^(-x), k = 2..4
    p = {k: sum(math.comb(k, i) * abs(c) ** (k - i) * r[i] for i in range(k + 1))
         for k in (2, 3, 4)}
    # the rounding: the walk's per-point errors of D and n'', times |w|^k
    d_err, d2_err = walk.scaled(walk.per_point)
    tail_c2 = 2 * p[2] + m * mp.ldexp(a2, -2 * (k + 2)) * d_err
    tail_c4 = 2 * p[4] + m * mp.ldexp(a4, -4 * (k + 2)) * d_err
    tail_b3 = 6 * p[3] + m * mp.ldexp(a3, -3 * (k + 2)) * d2_err
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
    d_alias = sums.alias_dnumber
    a, _, shortfall, _ = table.strip(alpha)
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


def _closed_form_ends(stat: Statistics, side: WellSide, N: int,
                      table: _LevelTable) -> tuple:
    """Closed-form bracket ends ``(lo, hi)`` for the constraint.

    With Theta_0 = sum_n e^(-b e_n), w = e^(-b e_1) and x_n = alpha + b e_n,
    Boltzmann occupancy bounds the quantum occupancies level by level:

    * fermions: e^(-x)/(1 + e^(-x_1)) <= 1/(e^x + 1) < e^(-x), so the sum is
      below N at ``log(Theta_0/N)`` and, when Theta_0 > N w, at least N at
      ``log(Theta_0/N - w)``;
    * bosons: e^(-x) < 1/(e^x - 1) <= e^(-x)/(1 - e^(-x_1)), so the sum is at
      most N at ``log(Theta_0/N + w)``, which lies above the pole -b e_1, and,
      when Theta_0 > N w, above N at ``log(Theta_0/N)``, then also above the
      pole.

    Two more ends replace these where they are poor.  For bosons the first
    level alone holds N particles at x_1 = log(1 + 1/N), the tighter lower
    end near the pole.  For fermions whose Fermi step is sharp, half a level
    gap h = b (N + 1/2 - tau) of at least 2, both ends are those of the
    filled-levels window, centre -+ width: alpha = centre puts x = 0
    midway between x_N and x_(N+1), and width = max(1, 4 b (N + 1)).  At
    the lower end x_(N+1) <= -3h, so the holes in the first N + 1 levels sum
    to less than one; at the upper end x_N >= 3h, so the particles from
    level N up sum to less than one.  The Boltzmann ends would lie on the
    flank of the step, where Newton crawls towards the root by about one
    unit of x per step; from the window's ends the root finder bisects
    straight onto the plateau between the levels.

    A soft Fermi step takes its lower end from the Fermi integral
    I(alpha) = integral_0^inf dy/(e^(alpha + y^2) + 1).  The occupancy
    f(y) = 1/(e^(alpha + b y^2) + 1) decreases in y >= 0 and stays below 1,
    and the levels y = n - tau are spaced by 1, so

        sum_n f(n - tau) >= integral_(1 - tau)^inf f dy
                          > integral_0^inf f dy - (1 - tau)
                          = sqrt(t) I(alpha) - (1 - tau).

    The sum thus exceeds N wherever I(alpha) > (N + 1 - tau) sqrt(b): at
    and below the lower end of :func:`~.fermion_medium.fermi_integral_ends`
    for that target.  Where Theta_0 > N w the larger of it and the
    Boltzmann end is taken.

    Theta_0 and w come from the solve's level table, Theta_0 summed to a
    relative error of 10^(-dps); it is widened by 10^(4 - dps) in the
    direction that keeps each bound valid.  Each end is padded outward by
    10^(4 - dps) max(1, |alpha|): with a single occupied level a bound is
    tight, and rounding alone could put the end on the wrong side of the
    root.
    """
    b, tau, e1, w = table.b, table.tau, as_mpf(side.e1), table.w1
    # Theta_0 >= w, so its truncation error is a relative one
    theta, _ = table.theta0()
    rel = mpf(10) ** (4 - mp.dps)
    theta_lo, theta_hi = theta * (1 - rel), theta * (1 + rel)
    classical = theta_lo > N * w
    if stat.is_boson:
        hi = mp.log(theta_hi / N + w)
        lo = -b * e1 + mp.log1p(mpf(1) / N)
        if classical:
            lo = max(lo, mp.log(theta_lo / N))
    elif b * (N + mpf(1) / 2 - tau) >= 2:
        centre = -(b / 2) * ((N - tau) ** 2 + (N + 1 - tau) ** 2)
        width = max(mpf(1), 4 * b * (N + 1))
        lo, hi = centre - width, centre + width
    else:
        hi = mp.log(theta_hi / N)
        lo = fermi_integral_ends((N + 1 - tau) * table.sqrt_b)[0]
        if classical:
            lo = max(lo, mp.log(theta_lo / N - w))
    lo, hi = pad_outward(lo, hi)
    if stat.is_boson and not lo + b * e1 > 0:
        raise BracketFailure("no bracket above the bosonic pole")
    return lo, hi


def solve_alpha(stat: Statistics, side: WellSide, N: int, t,
                policy: PrecisionPolicy = DEFAULT_POLICY) -> OccupancySolution:
    """Solve the particle-number constraint for the occupancy parameter.

    The constraint sum is strictly decreasing in alpha, so a sign-changing
    bracket always exists; for bosons the search stays above the pole at
    ``-b e_1``.  The returned ``alpha_error`` follows from the certified
    residual divided by the derivative of the constraint sum, and the
    precision escalates (up to ``max_digits``) if the tolerance cannot be
    met at the working precision.
    """
    return _solve_side(stat, side, N, t, policy)[0]


def _solve_side(stat: Statistics, side: WellSide, N: int, t,
                policy: PrecisionPolicy, derivatives: bool = False):
    # every oracle entry point solves through here
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    if derivatives not in (False, True):
        raise ValueError("derivatives must be False or True (0 or 1)")
    t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    while True:
        try:
            return _solve_side_at(stat, side, N, t, policy, derivatives)
        except (MaxIterations, _SlopeLost):
            policy = policy.escalate()  # raises PrecisionExhausted at the cap


def _sum_target(policy: PrecisionPolicy, b: mpf) -> mpf:
    # the iteration and the final evaluation truncate at one depth, scaled
    # with b: their mismatch enters the force error through a sensitivity
    # that grows like t
    return mpf(policy.target_abs_error) / 8 * min(1, b) / 1024


def _solve_side_at(stat: Statistics, side: WellSide, N: int, t: mpf,
                   policy: PrecisionPolicy, derivatives: bool = False):
    """(solution, (force, error)), with ``derivatives`` followed by the
    (value, bound) pairs of df/dt and d^2f/dt^2 of :func:`side_derivatives`."""
    with mp.workdps(policy.dps):
        b = 1 / mpf(t)
        table = _LevelTable(stat, side, b, _sum_target(policy, b))

        def g(alpha):
            number, dnumber = _number_sums(table, alpha)
            return number - N, dnumber

        lo, hi = _closed_form_ends(stat, side, N, table)
        root = find_root_bracketed(g, lo, hi, policy, derivative=True).root
        sums = _level_sums(table, root)
        # |sum - N| exact and the tail added upward: a bound even where it is all residual
        residual = mp.fadd(abs(mp.fsub(sums.number, N, exact=True)), sums.tail_number,
                           rounding="u")
        slope = abs(sums.dnumber) - sums.tail_dnumber
        if not slope > 0:
            raise _SlopeLost("constraint derivative lost below its tail bound")
        alpha_error = residual / slope
        sol = OccupancySolution(
            alpha=root,
            q_fugacity=sums.ealpha,
            alpha_error=alpha_error,
            n_trunc=sums.terms,
            digits_used=policy.working_digits,
            residual_bound=residual,
        )
        # force error: truncation plus the sensitivity to the alpha residual
        f_err = sums.tail_force + (abs(sums.dforce) + sums.tail_dforce) * alpha_error
        force = (sums.force, f_err)
        if derivatives:
            force += side_derivatives(table, root, sums, alpha_error)
        return sol, force


def occupancy(stat: Statistics, side: WellSide, sol: OccupancySolution,
              b, n: int) -> mpf:
    """Occupancy N_n = 1/(exp(alpha + b e_n) - eta) of level n at a solution."""
    if not (isinstance(n, int) and n >= 1):
        raise ValueError("level index must be a positive integer")
    b = mpf(b)
    x1 = sol.alpha + b * as_mpf(side.e1)
    if stat.is_boson and not x1 > 0:
        raise ValueError("bosonic occupancy pole: alpha + b e_1 must be positive")
    x = sol.alpha + b * (n - as_mpf(side.tau)) ** 2
    u = mp.exp(-x)
    return u / (1 - stat.eta * u)


def force_side(stat: Statistics, side: WellSide, N: int, t,
               policy: PrecisionPolicy = DEFAULT_POLICY, derivatives: bool = False):
    """Reduced force of one half well: (value, certified error bound), then
    with ``derivatives`` set the (value, bound) pairs of df/dt and
    d^2f/dt^2."""
    return _solve_side(stat, side, N, t, policy, derivatives)[1]


def net_force(stat: Statistics, N: int, t, policy: PrecisionPolicy = DEFAULT_POLICY,
              derivatives: bool = False) -> CurvePoint:
    """Net reduced force on the partition at one temperature; with
    ``derivatives`` set also d delta_f/dt and d^2 delta_f/dt^2, each with
    its certified bound."""
    sol_m, (f_m, err_m, *d_m) = _solve_side(stat, W_MINUS, N, t, policy, derivatives)
    sol_p, (f_p, err_p, *d_p) = _solve_side(stat, W_PLUS, N, t, policy, derivatives)
    t = mpf(t)
    with mp.workdps(policy.dps):
        extra = {}
        for name, (v_m, e_m), (v_p, e_p) in zip(("d_delta_f_dt", "d2_delta_f_dt2"), d_m, d_p):
            extra[name], extra[name + "_error"] = v_m - v_p, e_m + e_p
        return CurvePoint(
            t=t,
            alpha_plus=sol_p.alpha,
            alpha_minus=sol_m.alpha,
            f_plus=f_p,
            f_minus=f_m,
            delta_f=f_m - f_p,
            delta_f_error=err_m + err_p,
            **extra,
        )


def _sweep_point(stat: Statistics, N: int, policy: PrecisionPolicy, each, t):
    # module level so that a process pool can pickle it; positional
    # arguments, so that wrappers of net_force see (stat, N, t) as args[0..2]
    try:
        point = net_force(stat, N, t, policy)
    except NumericFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    return point if each is None else (point, each(point))


def sweep_curve(stat: Statistics, N: int, grid: Sequence,
                policy: PrecisionPolicy = DEFAULT_POLICY, map=map,
                each: Callable = None) -> list:
    """Evaluate the curve on a strictly increasing temperature grid.

    Points are independent and are handed to ``map`` (the builtin by
    default; ``Executor.map`` of a process pool runs them in parallel) and
    come back in grid order.  A point whose solve fails numerically (a
    :class:`~partition_well.numerics.NumericFailure`) is recorded with its
    index while the remaining points are still computed, after which a
    :class:`SweepFailure` carrying the completed points is raised.  Any
    other exception propagates.

    ``each``, if given, is applied to every computed point inside the same
    mapped call, so that a process pool spreads its work too (it must then
    be picklable); every entry, of the result and of
    :attr:`SweepFailure.points`, is then the pair ``(point, each(point))``.
    """
    ts = [mpf(t) for t in grid]
    if any(not t > 0 for t in ts):
        raise ValueError("grid temperatures must be positive")
    if any(b >= a for a, b in zip(ts[1:], ts)):
        raise ValueError("grid must be strictly increasing")
    results = list(map(partial(_sweep_point, stat, N, policy, each), ts))
    failures = [(i, t, r) for i, (t, r) in enumerate(zip(ts, results))
                if isinstance(r, str)]
    if failures:
        raise SweepFailure(failures, [r for r in results if not isinstance(r, str)])
    return results


# the searches refine in x = log t to this width: a relative precision in t
_SEARCH_LOG_T_TOL = 1e-8
# the uniform grid on which locate_inflections certifies curvature signs
_INFLECTION_GRID = 16


def _scaled_derivative(point: CurvePoint, order: int) -> tuple:
    """(t^k d^k delta_f/dt^k, its bound) at k = ``order`` of a point that
    :func:`net_force` evaluated with ``derivatives=True``."""
    if order == 1:
        return point.t * point.d_delta_f_dt, point.t * point.d_delta_f_dt_error
    t2 = point.t * point.t
    return t2 * point.d2_delta_f_dt2, t2 * point.d2_delta_f_dt2_error


def _certified_sign(point: CurvePoint, order: int) -> int:
    """+1 or -1 where the derivative of ``order`` exceeds its bound, else 0."""
    value, bound = _scaled_derivative(point, order)
    return (value > bound) - (value < -bound)


def _probe_scan(stat: Statistics, N: int, policy: PrecisionPolicy, order: int,
                temperatures) -> tuple:
    """The probes (net_force with derivatives at each temperature), the
    certified signs of their derivative of ``order`` and the scale
    max |t^k d^k delta_f/dt^k| by which the refine divides it."""
    probes = [net_force(stat, N, t, policy, derivatives=True) for t in temperatures]
    signs = [_certified_sign(p, order) for p in probes]
    return probes, signs, max(abs(_scaled_derivative(p, order)[0]) for p in probes)


def _refine_sign_change(stat: Statistics, N: int, policy: PrecisionPolicy,
                        order: int, left: CurvePoint, right: CurvePoint, scale: mpf) -> tuple:
    """Root of g(x) = t^k d^k delta_f/dt^k / ``scale`` (k = ``order``,
    x = log t) between the probes ``left`` and ``right``, whose certified
    signs of g are opposite; refined to ``_SEARCH_LOG_T_TOL`` in x with the
    slope t delta_f' + t^2 delta_f'' for k = 1 and secant slopes for k = 2.

    Returns (t, delta_f at t, half-width): t is the evaluated point of least
    |g|, and t -+ half-width covers the tightest bracket around it whose
    ends carry certified opposite signs of g (the two probes at worst).
    """
    # every point by its x; the root finder's first calls are at the probes
    seen = {mp.log(p.t): p for p in (left, right)}

    def g(x):
        if x not in seen:
            # positional (stat, N, t): wrappers of net_force read them as args[0..2]
            seen[x] = net_force(stat, N, mp.exp(x), policy, derivatives=True)
        value = _scaled_derivative(seen[x], order)[0] / scale
        if order == 2:
            return value
        return value, value + _scaled_derivative(seen[x], 2)[0] / scale

    find_root_bracketed(g, mp.log(left.t), mp.log(right.t),
                        replace(policy, target_abs_error=_SEARCH_LOG_T_TOL),
                        derivative=order == 1)
    best = min(seen.values(), key=lambda p: abs(_scaled_derivative(p, order)[0]))
    left_sign = _certified_sign(left, order)
    t_left = max(p.t for p in seen.values()
                 if p.t <= best.t and _certified_sign(p, order) == left_sign)
    t_right = min(p.t for p in seen.values()
                  if p.t >= best.t and _certified_sign(p, order) == -left_sign)
    return best.t, best.delta_f, max(best.t - t_left, t_right - best.t)


def locate_minimum(stat: Statistics, N: int,
                   policy: PrecisionPolicy = DEFAULT_POLICY,
                   search_window=None) -> Minimum:
    """Locate the single interior minimum of the net-force curve.

    Defaults to the window [0.1 N, 2 N] for bosons and [0.05 N^2, 2 N^2] for
    fermions, matching the particle-number scaling of the minimum.  At 5
    log-spaced probes the sign of d delta_f/dt must be certified (above its
    bound) and change exactly once, from - to +; otherwise
    :class:`NotUnimodal` is raised.  Safeguarded Newton on t d delta_f/dt in
    log t, with the slope from d^2 delta_f/dt^2, then refines the minimum to
    a relative precision of 1e-8.

    Returns a :class:`Minimum`: the evaluated temperature nearest the root,
    with the net force there, and a half-width t_min_error such that
    t_min -+ t_min_error covers a bracket whose ends carry certified
    opposite signs of the derivative, so it contains the minimiser.
    """
    if search_window is None:
        scale = N if stat.is_boson else N * N
        search_window = (mpf("0.1") * scale, 2 * scale) if stat.is_boson \
            else (mpf("0.05") * scale, 2 * scale)
    t_lo, t_hi = mpf(search_window[0]), mpf(search_window[1])
    with mp.workdps(policy.dps):
        a, c = mp.log(t_lo), mp.log(t_hi)
        probes, signs, scale = _probe_scan(stat, N, policy, 1,
                                           [mp.exp(a + (c - a) * i / 4) for i in range(5)])
        rises = [i for i in range(4) if signs[i] != signs[i + 1]]
        if not (len(rises) == 1 and signs[0] == -1 and signs[-1] == 1):
            raise NotUnimodal(
                "derivative signs at the probes do not bracket a single interior minimum",
                [(p.t, p.delta_f) for p in probes])
        i = rises[0]
        return Minimum(*_refine_sign_change(stat, N, policy, 1, probes[i], probes[i + 1], scale))


def locate_inflections(stat: Statistics, N: int,
                       policy: PrecisionPolicy = DEFAULT_POLICY,
                       window=None) -> Inflections:
    """Find the two inflection temperatures of the low-temperature step.

    Fermions only: the step is absent for bosons.  On a uniform grid of 16
    points over the window (default [0.05 N, N]) every sign of
    d^2 delta_f/dt^2 must be certified, and the first turn from - to + and
    the next one back frame the convex stretch of the step; without them
    :class:`StepNotFound` is raised.  Each sign change is refined to a
    relative precision of 1e-8 in t by the derivative-free root finder on
    t^2 d^2 delta_f/dt^2 in log t.

    Returns :class:`Inflections`: each temperature with a half-width that
    covers a bracket whose ends carry certified opposite signs of the
    curvature.
    """
    if stat.is_boson:
        raise ValueError("the low-temperature step exists only for fermions")
    if window is None:
        window = (mpf("0.05") * N, mpf(N))
    t_lo, t_hi = mpf(window[0]), mpf(window[1])
    with mp.workdps(policy.dps):
        h = (t_hi - t_lo) / (_INFLECTION_GRID - 1)
        grid, signs, scale = _probe_scan(stat, N, policy, 2,
                                         [t_lo + i * h for i in range(_INFLECTION_GRID)])
        if 0 in signs:
            raise StepNotFound("curvature sign not resolved at t = "
                               + mp.nstr(grid[signs.index(0)].t, 8))
        # the step's convex stretch: the first turn from - to + and the next
        # turn (the curve may turn convex again towards its minimum)
        changes = [i for i in range(_INFLECTION_GRID - 1) if signs[i] != signs[i + 1]]
        rises = [k for k, i in enumerate(changes) if signs[i] < 0]
        if not rises or rises[0] + 1 == len(changes):
            raise StepNotFound("fewer than two curvature sign changes detected")
        (t_begin, _, err_begin), (t_end, _, err_end) = (
            _refine_sign_change(stat, N, policy, 2, grid[i], grid[i + 1], scale)
            for i in changes[rises[0]:rises[0] + 2])
        return Inflections(t_begin, t_end, err_begin, err_end)
