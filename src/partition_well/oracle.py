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
both ends are those of a window around the filled levels.  Each end is
padded outward by 10^(4 - dps) max(1, |alpha|), a few units of the working
precision: with a single occupied level the bound is tight.  Only fermions
between the degenerate and the classical regime probe the constraint for
their lower end.

Two evaluation routes are used, both exact up to the certified bounds:

* direct summation over levels, with Gaussian-integral tail bounds;
* for small ``b`` and ``alpha >= 1/2``, the geometrically convergent
  fugacity series ``sum_k eta^(k-1) q^k Theta(k b)`` whose level sums
  ``Theta`` are evaluated through their Poisson-resummed (theta-function)
  form.

Within one solve b is fixed and only alpha changes, so each solve builds a
level table (:class:`_LevelTable`) that the bracket ends, every Newton step
and the final evaluation read from.  It holds what does not depend on
alpha, extended lazily as deeper truncations need it: Theta_0(k b) with its
certified error per fugacity index k, the ratios e^(-b (e_(n+1) - e_n)) of
successive level weights e^(-b e_n), and the Gaussian tail bound at each
truncation index.  A number-only sum at a new alpha then
costs two exponentials and multiplications, and the final series
evaluation sums only Theta_1 afresh.  The table is dropped when the solve
returns; nothing is cached across solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

from mpmath import mp, mpf

from .model import Statistics, W_MINUS, W_PLUS, WellSide, as_mpf
from .numerics import (
    DEFAULT_POLICY,
    SOLVER_FAILURES,
    MaxIterations,
    PrecisionExhausted,
    PrecisionPolicy,
    find_root_bracketed,
    gaussian_tail_upper_bound,
    golden_section_minimum,
)

__all__ = [
    "OccupancySolution",
    "CurvePoint",
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

# route thresholds: the fugacity series needs q = e^-alpha safely below 1,
# and pays off only where the Poisson form of the level sums is cheap
_SERIES_MIN_ALPHA = mpf("0.5")
_SERIES_MAX_B = mpf("0.5")
_THETA_POISSON_MAX_BETA = mpf("1.5")


class BracketFailure(RuntimeError):
    """No sign-changing bracket could be constructed for the constraint."""


class _SlopeLost(PrecisionExhausted):
    """The constraint derivative at the root is not resolved above its tail
    bound; more working digits can resolve it."""


class NotUnimodal(RuntimeError):
    """Probe points do not show a single interior minimum."""

    def __init__(self, message, probes):
        super().__init__(message)
        self.probes = probes


class StepNotFound(RuntimeError):
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


class _LevelSums(NamedTuple):
    number: mpf          # sum_n N_n
    dnumber: mpf         # d/d alpha of the above (negative)
    force: mpf           # sum_n e_n N_n
    dforce: mpf          # d/d alpha of the above (negative)
    tail_number: mpf
    tail_dnumber: mpf
    tail_force: mpf
    tail_dforce: mpf
    terms: int
    route: str


def _theta0(beta: mpf, tau: mpf, sigma: int, eps: mpf):
    """sum_{n>=1} exp(-beta e_n) with certified error below eps."""
    if beta >= _THETA_POISSON_MAX_BETA:
        u = mp.exp(-beta * (1 - tau) ** 2)
        rho = mp.exp(-beta * (2 * (1 - tau) + 1))
        shrink = mp.exp(-2 * beta)
        s = mpf(0)
        while True:
            s += u
            tail = u * rho / (1 - rho)  # level spacing grows, so rho only shrinks
            if tail < eps:
                return s, tail
            u *= rho
            rho *= shrink
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


def _theta1(beta: mpf, tau: mpf, sigma: int, eps: mpf):
    """sum_{n>=1} e_n exp(-beta e_n) with certified error below eps."""
    if beta >= _THETA_POISSON_MAX_BETA:
        u = mp.exp(-beta * (1 - tau) ** 2)
        rho = mp.exp(-beta * (2 * (1 - tau) + 1))
        shrink = mp.exp(-2 * beta)
        s = mpf(0)
        n = 1
        while True:
            en = (n - tau) ** 2
            s += en * u
            ratio = rho * ((n + 1 - tau) / (n - tau)) ** 2
            if ratio < mpf("0.9"):
                tail = en * u * ratio / (1 - ratio)
                if tail < eps:
                    return s, tail
            u *= rho
            rho *= shrink
            n += 1
    pref = mp.sqrt(mp.pi / (16 * beta ** 3))
    g = mp.exp(-mp.pi ** 2 / beta)
    sgn = 2 * sigma - 1
    s = mpf(1)
    m = 1
    while True:
        s += 2 * (sgn ** m) * (1 - 2 * mp.pi ** 2 * m * m / beta) * g ** (m * m)
        # |1 - 2 pi^2 m^2/beta| <= 1 + 2 pi^2 m^2/beta and g^(2m+1) < 1/2 here
        nxt = (1 + 2 * mp.pi ** 2 * (m + 1) ** 2 / beta) * g ** ((m + 1) ** 2)
        tail = pref * 4 * nxt
        if tail < eps:
            return pref * s, tail
        m += 1


class _LevelTable:
    """The alpha-independent parts of the level sums of one constraint solve.

    Built from (stat, side, b, eps) and extended lazily as the sums at
    successive alphas reach deeper; it lives as long as the solve.  It holds

    * for the fugacity series, Theta_0(k b) and its certified error per
      index k (:meth:`theta0`);
    * for direct summation, the ratios rho_n = e^(-b (e_(n+1) - e_n)) of
      successive level weights, from rho_(n+1) = rho_n e^(-2b)
      (:meth:`ratio`), and w_1 = e^(-b e_1), the weight of the first level;
    * the Gaussian tail bound at each truncation index (:meth:`gauss`).

    A level sum at alpha then costs the exponentials e^(-alpha) and
    e^(-x_1) and multiplications: u_(n+1) = u_n rho_n gives every
    u_n = e^(-x_n).  Theta_0(b), whose relative accuracy the closed-form
    bracket ends need, is summed to 10^(-dps) e^(-b e_1) where that is below
    the series target.
    """

    def __init__(self, stat: Statistics, side: WellSide, b: mpf, eps: mpf):
        self.eta = stat.eta
        self.tau = tau = as_mpf(side.tau)
        self.sigma = side.sigma
        self.b = b
        self.eps = eps
        self.sqrt_b = mp.sqrt(b)
        self.b_e1 = b * (1 - tau) ** 2
        self.w1 = mp.exp(-self.b_e1)
        self._ratios = [mp.exp(-b * (2 * (1 - tau) + 1))]
        self._shrink = mp.exp(-2 * b)
        self._gauss = {}
        self._theta0 = []

    def ratio(self, n: int) -> mpf:
        """rho_n = w_(n+1)/w_n of level n >= 1."""
        ratios = self._ratios
        while len(ratios) < n:
            ratios.append(ratios[-1] * self._shrink)
        return ratios[n - 1]

    def gauss(self, n: int) -> mpf:
        """Upper bound on the tail integral of e^(-y^2) from sqrt(b) (n + 1 - tau)."""
        if n not in self._gauss:
            self._gauss[n] = gaussian_tail_upper_bound(self.sqrt_b * (n + 1 - self.tau))
        return self._gauss[n]

    def theta0(self, k: int) -> tuple:
        """(Theta_0(k b), its certified error) of fugacity index k >= 1."""
        while len(self._theta0) < k:
            j = len(self._theta0) + 1
            eps = self.eps / 16
            if j == 1:
                eps = min(eps, self.w1 * mpf(10) ** (-mp.dps))
            self._theta0.append(_theta0(j * self.b, self.tau, self.sigma, eps))
        return self._theta0[k - 1]


def _level_sums_direct(table: _LevelTable, alpha: mpf) -> _LevelSums:
    eta, tau, b, eps, sqrt_b = table.eta, table.tau, table.b, table.eps, table.sqrt_b
    u = mp.exp(-(alpha + table.b_e1))
    s_n = mpf(0)
    s_dn = mpf(0)
    s_f = mpf(0)
    s_df = mpf(0)
    n = 1
    ealpha = mp.exp(-alpha)
    while True:
        en = (n - tau) ** 2
        occ = u / (1 - eta * u)
        docc = occ * (1 + eta * occ)
        s_n += occ
        s_dn += docc
        s_f += en * occ
        s_df += en * docc
        u_next = u * table.ratio(n)
        # tail bounds need N_m <= 2 e^{-x_m} (x >= ln 2) and a decreasing
        # force integrand (b e_m >= 2); the cheap precheck avoids computing
        # the closed-form bounds every iteration
        if u * (en + 1) * 4 < eps and alpha + b * en >= 1 and b * en >= 2:
            e_next = (n + 1 - tau) ** 2
            y1 = sqrt_b * (n + 1 - tau)
            g0 = table.gauss(n)
            g2 = y1 / 2 * mp.exp(-y1 * y1) + g0 / 2
            tail_n = 2 * (u_next + ealpha / sqrt_b * g0)
            tail_f = 2 * (e_next * u_next + ealpha / (b * sqrt_b) * g2)
            if tail_n < eps and tail_f < eps:
                return _LevelSums(s_n, -s_dn, s_f, -s_df,
                                  tail_n, 2 * tail_n, tail_f, 2 * tail_f,
                                  n, "direct")
        if n > 10 ** 7:
            raise PrecisionExhausted("level sum did not truncate below the target")
        u = u_next
        n += 1


def _level_sums_series(table: _LevelTable, alpha: mpf) -> _LevelSums:
    eta, tau, sigma, b, eps = table.eta, table.tau, table.sigma, table.b, table.eps
    q = mp.exp(-alpha)
    s_n = mpf(0)
    s_dn = mpf(0)
    s_f = mpf(0)
    s_df = mpf(0)
    acc_n = mpf(0)
    acc_dn = mpf(0)
    acc_f = mpf(0)
    acc_df = mpf(0)
    k = 1
    qk = q
    while True:
        th0, e0 = table.theta0(k)
        th1, e1 = _theta1(k * b, tau, sigma, eps / 16)
        sign = eta ** (k - 1)
        s_n += sign * qk * th0
        s_dn += sign * (-k) * qk * th0
        s_f += sign * qk * th1
        s_df += sign * (-k) * qk * th1
        acc_n += qk * e0
        acc_dn += k * qk * e0
        acc_f += qk * e1
        acc_df += k * qk * e1
        # Theta decreases in beta, so the remaining terms are dominated by
        # geometric series in q; the k-weighted tail has the closed form
        # sum_{j>k} j q^j = q^{k+1} ((k+1) - k q) / (1-q)^2
        nxt = qk * q
        tail_n = nxt * th0 / (1 - q)
        tail_f = nxt * th1 / (1 - q)
        jq = nxt * ((k + 1) - k * q) / (1 - q) ** 2
        if tail_n + tail_f + jq * (th0 + th1) < eps / 2:
            return _LevelSums(s_n, s_dn, s_f, s_df,
                              tail_n + acc_n, jq * th0 + acc_dn,
                              tail_f + acc_f, jq * th1 + acc_df,
                              k, "series")
        qk = nxt
        k += 1
        if k > 100000:
            raise PrecisionExhausted("fugacity series did not truncate")


def _number_sums_direct(table: _LevelTable, alpha: mpf):
    # the loop of _level_sums_direct without the force accumulators; the
    # number tail needs N_m <= 2 e^{-x_m} (x >= ln 2) only
    eta, eps, sqrt_b = table.eta, table.eps, table.sqrt_b
    quarter_eps = eps / 4
    u = mp.exp(-(alpha + table.b_e1))
    s_n = mpf(0)
    s_dn = mpf(0)
    n = 1
    ealpha = mp.exp(-alpha)
    while True:
        occ = u / (1 - eta * u)
        s_n += occ
        s_dn += occ * (1 + eta * occ)
        u_next = u * table.ratio(n)
        if u < quarter_eps and alpha + table.b * (n - table.tau) ** 2 >= 1:
            if 2 * (u_next + ealpha / sqrt_b * table.gauss(n)) < eps:
                return s_n, -s_dn
        if n > 10 ** 7:
            raise PrecisionExhausted("level sum did not truncate below the target")
        u = u_next
        n += 1


def _number_sums_series(table: _LevelTable, alpha: mpf):
    # the fugacity series of _level_sums_series without the Theta_1 terms
    eta, half_eps = table.eta, table.eps / 2
    q = mp.exp(-alpha)
    r = 1 / (1 - q)
    r2 = r * r
    s_n = mpf(0)
    s_dn = mpf(0)
    k = 1
    qk = q
    while True:
        th0, _ = table.theta0(k)
        term = eta ** (k - 1) * qk * th0
        s_n += term
        s_dn -= k * term
        nxt = qk * q
        # the number and k-weighted tails, as in _level_sums_series
        if nxt * th0 * (r + ((k + 1) - k * q) * r2) < half_eps:
            return s_n, s_dn
        qk = nxt
        k += 1
        if k > 100000:
            raise PrecisionExhausted("fugacity series did not truncate")


def _on_series_route(alpha: mpf, b: mpf) -> bool:
    return b <= _SERIES_MAX_B and alpha >= _SERIES_MIN_ALPHA


def _number_sums(table: _LevelTable, alpha: mpf):
    """(sum_n N_n, its alpha-derivative), each within ``table.eps`` of the
    full sums.

    The constraint iteration needs only these; the route and the truncation
    rules are those of :func:`_level_sums`.  ``table`` carries the
    alpha-independent work of the solve from call to call.
    """
    if _on_series_route(alpha, table.b):
        return _number_sums_series(table, alpha)
    return _number_sums_direct(table, alpha)


def _level_sums(table: _LevelTable, alpha: mpf) -> _LevelSums:
    """All level sums and their tail bounds; ``table`` as for :func:`_number_sums`."""
    if _on_series_route(alpha, table.b):
        return _level_sums_series(table, alpha)
    return _level_sums_direct(table, alpha)


def _filled_levels_window(side: WellSide, N: int, b: mpf) -> tuple:
    """(centre, half width) of a window around the degenerate-fermion alpha,
    midway between the last filled level N and the first empty one."""
    tau = as_mpf(side.tau)
    centre = -(b / 2) * ((N - tau) ** 2 + (N + 1 - tau) ** 2)
    return centre, max(mpf(1), 4 * b * (N + 1))


def _closed_form_ends(stat: Statistics, side: WellSide, N: int,
                      table: _LevelTable) -> tuple:
    """Closed-form bracket ends ``(lo or None, hi)`` for the constraint.

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
    filled-levels window, centre -+ width with width >= 4 b (N + 1).  At
    the lower end x_(N+1) <= -3h, so the holes in the first N + 1 levels sum
    to less than one; at the upper end x_N >= 3h, so the particles from
    level N up sum to less than one.  The Boltzmann ends would lie on the
    flank of the step, where Newton crawls towards the root by about one
    unit of x per step; from the window's ends the root finder bisects
    straight onto the plateau between the levels.

    Theta_0 and w come from the solve's level table, Theta_0 summed to a
    relative error of 10^(-dps); it is widened by 10^(4 - dps) in the
    direction that keeps each bound valid.  Each end is padded outward by
    10^(4 - dps) max(1, |alpha|): with a single occupied level a bound is
    tight, and rounding alone could put the end on the wrong side of the
    root.  ``lo`` is None where no closed-form lower end
    applies.
    """
    b, tau, e1, w = table.b, table.tau, as_mpf(side.e1), table.w1
    # Theta_0 >= w, so its truncation error is a relative one
    theta, _ = table.theta0(1)
    rel = mpf(10) ** (4 - mp.dps)
    theta_lo, theta_hi = theta * (1 - rel), theta * (1 + rel)
    classical = theta_lo > N * w
    lo = None
    if stat.is_boson:
        hi = mp.log(theta_hi / N + w)
        lo = -b * e1 + mp.log1p(mpf(1) / N)
        if classical:
            lo = max(lo, mp.log(theta_lo / N))
    elif b * (N + mpf(1) / 2 - tau) >= 2:
        centre, width = _filled_levels_window(side, N, b)
        lo, hi = centre - width, centre + width
    else:
        hi = mp.log(theta_hi / N)
        if classical:
            lo = mp.log(theta_lo / N - w)
    hi += rel * max(1, abs(hi))
    if lo is None:
        return None, hi
    lo -= rel * max(1, abs(lo))
    if stat.is_boson and not lo + b * e1 > 0:
        raise BracketFailure("no bracket above the bosonic pole")
    return lo, hi


def _bracket_alpha(stat: Statistics, side: WellSide, N: int, table: _LevelTable,
                   g: Callable) -> tuple:
    """Sign-changing bracket for the constraint g(alpha) = sum - N (decreasing).

    The upper end always, and the lower end nearly always, come in closed
    form from :func:`_closed_form_ends`: Boltzmann occupancy lies below the
    Fermi and above the Bose occupancy, and the first level's factor
    1 -+ e^(-x_1) bounds the ratio the other way; the ends are padded
    outward against rounding.  Only fermions between the degenerate and the
    classical regime (a soft Fermi step and Theta_0 <= N w) have no
    closed-form lower end; it is then found by probing below the
    filled-levels window, else by a descent from the upper end.  The
    constraint sum is never probed at a fixed alpha.
    """
    lo, hi = _closed_form_ends(stat, side, N, table)
    if lo is not None:
        return lo, hi
    centre, width = _filled_levels_window(side, N, table.b)
    for _ in range(12):
        lo = centre - width
        if g(lo) > 0:
            return lo, hi
        width *= 4
    lo = hi - 1
    step = mpf(2)
    while g(lo) < 0:
        lo -= step
        step *= 2
        if lo < mpf("-1e18"):
            raise BracketFailure("constraint stays below N for very negative alpha")
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
    if not (isinstance(N, int) and N >= 1):
        raise ValueError("N must be a positive integer")
    sol, _ = _solve_side(stat, side, N, t, policy)
    return sol


def _solve_side(stat: Statistics, side: WellSide, N: int, t,
                policy: PrecisionPolicy):
    t = mpf(t)
    if not t > 0:
        raise ValueError("t must be positive")
    while True:
        try:
            return _solve_side_at(stat, side, N, t, policy)
        except (MaxIterations, _SlopeLost):
            policy = policy.escalate()  # raises PrecisionExhausted at the cap


def _sum_target(policy: PrecisionPolicy, b: mpf) -> mpf:
    # the iteration and the final evaluation truncate at one depth, scaled
    # with b: their mismatch enters the force error through a sensitivity
    # that grows like t
    return mpf(policy.target_abs_error) / 8 * min(1, b) / 1024


def _solve_side_at(stat: Statistics, side: WellSide, N: int, t: mpf,
                   policy: PrecisionPolicy):
    with mp.workdps(policy.dps):
        b = 1 / mpf(t)
        table = _LevelTable(stat, side, b, _sum_target(policy, b))
        memo: dict = {}

        def g(alpha):
            # a probed bracket end is also the root finder's end point
            if alpha not in memo:
                number, dnumber = _number_sums(table, alpha)
                memo[alpha] = (number - N, dnumber)
            return memo[alpha]

        lo, hi = _bracket_alpha(stat, side, N, table, lambda alpha: g(alpha)[0])
        root = find_root_bracketed(g, lo, hi, policy, derivative=True).root
        sums = _level_sums(table, root)
        residual = abs(sums.number - N) + sums.tail_number
        slope = abs(sums.dnumber) - sums.tail_dnumber
        if not slope > 0:
            raise _SlopeLost("constraint derivative lost below its tail bound")
        alpha_error = residual / slope
        sol = OccupancySolution(
            alpha=root,
            q_fugacity=mp.exp(-root),
            alpha_error=alpha_error,
            n_trunc=sums.terms,
            digits_used=policy.working_digits,
            residual_bound=residual,
        )
        # force error: truncation plus the sensitivity to the alpha residual
        f_err = sums.tail_force + (abs(sums.dforce) + sums.tail_dforce) * alpha_error
        return sol, (sums.force, f_err)


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
               policy: PrecisionPolicy = DEFAULT_POLICY):
    """Reduced force of one half well: (value, certified error bound)."""
    _, (f, err) = _solve_side(stat, side, N, t, policy)
    return f, err


def net_force(stat: Statistics, N: int, t,
              policy: PrecisionPolicy = DEFAULT_POLICY) -> CurvePoint:
    """Net reduced force on the partition at one temperature."""
    t = mpf(t)
    sol_m, (f_m, err_m) = _solve_side(stat, W_MINUS, N, t, policy)
    sol_p, (f_p, err_p) = _solve_side(stat, W_PLUS, N, t, policy)
    with mp.workdps(policy.dps):
        return CurvePoint(
            t=t,
            alpha_plus=sol_p.alpha,
            alpha_minus=sol_m.alpha,
            f_plus=f_p,
            f_minus=f_m,
            delta_f=f_m - f_p,
            delta_f_error=err_m + err_p,
        )


def _sweep_point(stat: Statistics, N: int, policy: PrecisionPolicy, each, t):
    # module level so that a process pool can pickle it; positional
    # arguments, so that wrappers of net_force see (stat, N, t) as args[0..2]
    try:
        point = net_force(stat, N, t, policy)
    except SOLVER_FAILURES + (BracketFailure,) as exc:
        return f"{type(exc).__name__}: {exc}"
    return point if each is None else (point, each(point))


def sweep_curve(stat: Statistics, N: int, grid: Sequence,
                policy: PrecisionPolicy = DEFAULT_POLICY, map=map,
                each: Callable = None) -> list:
    """Evaluate the curve on a strictly increasing temperature grid.

    Points are independent and are handed to ``map`` (the builtin by
    default; ``Executor.map`` of a process pool runs them in parallel) and
    come back in grid order.  A point whose solve fails numerically
    (:data:`~partition_well.numerics.SOLVER_FAILURES` or
    :class:`BracketFailure`) is recorded with its index while the remaining
    points are still computed, after which a :class:`SweepFailure` carrying
    the completed points is raised.  Any other exception propagates.

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


def locate_minimum(stat: Statistics, N: int,
                   policy: PrecisionPolicy = DEFAULT_POLICY,
                   search_window=None):
    """Locate the single interior minimum of the net-force curve.

    Defaults to the window [0.1 N, 2 N] for bosons and [0.05 N^2, 2 N^2] for
    fermions, matching the particle-number scaling of the minimum.  Probe
    points must be unimodal; golden-section refinement then brings the
    minimum temperature to a relative precision of 1e-3.
    """
    if search_window is None:
        scale = N if stat.is_boson else N * N
        search_window = (mpf("0.1") * scale, 2 * scale) if stat.is_boson \
            else (mpf("0.05") * scale, 2 * scale)
    t_lo, t_hi = mpf(search_window[0]), mpf(search_window[1])
    with mp.workdps(policy.dps):
        cache: dict = {}

        def df(logt):
            if logt not in cache:
                cache[logt] = net_force(stat, N, mp.exp(logt), policy).delta_f
            return cache[logt]

        a, c = mp.log(t_lo), mp.log(t_hi)
        n_probe = 9
        xs = [a + (c - a) * i / (n_probe - 1) for i in range(n_probe)]
        vals = [df(x) for x in xs]
        rises = [vals[i + 1] > vals[i] for i in range(n_probe - 1)]
        flips = sum(1 for i in range(len(rises) - 1) if rises[i] != rises[i + 1])
        i_min = min(range(n_probe), key=lambda i: vals[i])
        if flips > 1 or i_min in (0, n_probe - 1):
            raise NotUnimodal(
                "probe points do not bracket a single interior minimum",
                [(mp.exp(x), v) for x, v in zip(xs, vals)])
        x_best = golden_section_minimum(df, xs[i_min - 1], xs[i_min + 1], mpf("1e-3"))
        return mp.exp(x_best), df(x_best)


def locate_inflections(stat: Statistics, N: int,
                       policy: PrecisionPolicy = DEFAULT_POLICY,
                       window=None, grid_points: int = 48):
    """Find the two inflection temperatures of the low-temperature step.

    Fermions only: the step is absent for bosons.  A uniform grid over the
    window (default [0.05 N, N]) locates the sign changes of the second
    finite difference of the curve; each is then refined by bisection with a
    half-grid-step stencil.
    """
    if stat.is_boson:
        raise ValueError("the low-temperature step exists only for fermions")
    if window is None:
        window = (mpf("0.05") * N, mpf(N))
    t_lo, t_hi = mpf(window[0]), mpf(window[1])
    with mp.workdps(policy.dps):
        cache: dict = {}

        def df(t):
            key = mp.nstr(t, 25)
            if key not in cache:
                cache[key] = net_force(stat, N, t, policy).delta_f
            return cache[key]

        h = (t_hi - t_lo) / (grid_points - 1)
        ts = [t_lo + i * h for i in range(grid_points)]
        vals = [df(t) for t in ts]
        d2 = [vals[i - 1] - 2 * vals[i] + vals[i + 1] for i in range(1, grid_points - 1)]
        peak = max(range(len(d2)), key=lambda i: d2[i])
        if not d2[peak] > 0:
            raise StepNotFound("no convex stretch found inside the window")
        left = peak
        while left > 0 and d2[left - 1] > 0:
            left -= 1
        right = peak
        while right < len(d2) - 1 and d2[right + 1] > 0:
            right += 1
        if left == 0 or right == len(d2) - 1:
            raise StepNotFound("fewer than two second-difference sign changes detected")

        stencil = h / 2

        def d2_at(t):
            return df(t - stencil) - 2 * df(t) + df(t + stencil)

        def refine(t_neg, t_pos):
            # the refinement stencil differs from the grid spacing, so the
            # sign change may have shifted across a cell on either side:
            # widen each end that lost its sign
            for _ in range(3):
                neg_held, pos_held = d2_at(t_neg) < 0, d2_at(t_pos) > 0
                if neg_held and pos_held:
                    break
                step = t_pos - t_neg
                if not neg_held:
                    t_neg -= step
                if not pos_held:
                    t_pos += step
            else:
                raise StepNotFound("sign change lost during refinement")
            while abs(t_pos - t_neg) > mpf("1e-3") * N:
                mid = (t_neg + t_pos) / 2
                if d2_at(mid) > 0:
                    t_pos = mid
                else:
                    t_neg = mid
            return (t_neg + t_pos) / 2

        # grid index i of d2 corresponds to temperature ts[i+1]
        t_begin = refine(ts[left], ts[left + 1])
        t_end = refine(ts[right + 2], ts[right + 1])
        return t_begin, t_end
