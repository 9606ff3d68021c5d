"""Fermionic medium-temperature regime: t of order N^2.

With many levels below the Fermi edge the constraint sum collapses to
``N ~ sqrt(t) I(alpha)`` with the Fermi-Dirac integral

    I(alpha) = integral_0^inf dy / (exp(alpha + y^2) + 1),

and the subleading side splitting of alpha turns the net force into

    delta_f ~= (N^2/4) J(alpha),    J = -1 / ((e^alpha + 1) I I'),

so the force minimum is the minimum of the kernel J.  Three evaluation
variants are provided: direct quadrature (the precise route), the truncated
asymptotic series for I paired with its further-truncated derivative, and a
tanh-shaped surrogate of the integrand that admits closed forms.

The quadrature route takes I and I' = -integral s (1 - s) dy from one
trapezoid sum over y = j h of s(y) = 1/(exp(alpha + y^2) + 1), walked by
the fixed-point kernel of :mod:`.numerics`: a Poisson bound on the strip
where s is analytic sets h, a Gaussian envelope proves the cut, and points
deep in the Fermi sea, where s = 1 within one unit of the kernel's scale,
are counted instead of summed.
alpha(N, t) inverts I(alpha) = N/sqrt(t) by safeguarded Newton steps on
(I - N/sqrt(t), I'), one pair per step, between ends taken in closed form
from bounds on I; the tanh surrogate's lower end is closed-form as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .numerics import DEFAULT_POLICY, FixedPointLattice, PrecisionExhausted, \
    PrecisionPolicy, find_root_bracketed, fixed_point_walk, gaussian_tail_upper_bound, \
    pad_outward, \
    quad_semi_infinite  # noqa: F401 -- unused; perfbench's tracer wraps it here

__all__ = [
    "FermiIntegralValue",
    "VariantDomainError",
    "STONER_INTERVAL",
    "fermi_integral",
    "fermi_integral_ends",
    "alpha_from_temperature",
    "force_kernel",
    "force_kernel_minimum",
    "fermion_medium_net_force",
    "alpha_split_subleading",
    "tanh_surrogate_quadratic",
]

VARIANTS = ("quadrature", "stoner", "tanh_surrogate")

# validity window of the truncated asymptotic series for I
STONER_INTERVAL = (mpf("-3.696"), mpf("-1.314"))
# step of the centred differences of the kernel J: J carries about 30
# digits (the Fermi pair's relative target), so the rounding error 1e-30/h
# and the truncation error h^2 of a difference quotient both come to 1e-20
KERNEL_DIFF_STEP = mpf("1e-10")


class VariantDomainError(ValueError):
    """alpha outside the validity domain of the requested variant."""


@dataclass(frozen=True)
class FermiIntegralValue:
    alpha: mpf
    I: mpf
    I_prime: mpf  # negative: I is strictly decreasing in alpha
    variant: str


def _check_variant(alpha, variant: str, pure_series_derivative: bool):
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    if variant == "stoner" and not (STONER_INTERVAL[0] <= alpha <= STONER_INTERVAL[1]):
        raise VariantDomainError(
            f"stoner truncation is valid for alpha in [{STONER_INTERVAL[0]}, "
            f"{STONER_INTERVAL[1]}], got {mp.nstr(mpf(alpha), 6)}")
    if variant == "tanh_surrogate" and not alpha < 0:
        raise VariantDomainError("tanh surrogate requires alpha < 0")
    if pure_series_derivative and variant != "stoner":
        raise ValueError("pure_series_derivative only applies to the stoner variant")


def _fermi_strip(alpha) -> tuple:
    """(a, M, M'): |s| and |s (1 - s)|, s = 1/(e^w + 1), w = alpha + y^2,
    integrate to at most M and M' along every line of the strip |Im y| <= a.

    At y = x + i c, rho = Re w, theta = Im w = 2 c x: |s| <= 2 where rho <=
    -ln 2, and |s| <= 2 e^(-rho) where rho >= ln 2.  In between, |e^w + 1|^2 =
    (1 - r)^2 + 4 r cos^2(theta/2), r = e^rho >= 1/2, so |s| <= 1/(sqrt(2)
    cos 0.45 pi) < 4.53 while |theta| <= 0.9 pi.  rho < ln 2 only in |x| < X,
    X^2 = a^2 + ln 2 - alpha, and 2 a X = 0.9 pi (a quadratic in X^2) sets a
    for every alpha.  Beyond X, |s| <= e^(X^2 - x^2), of integral <= 1/X:
    M = 9.06 X + 1/X, and |s (1 - s)| <= |s| (1 + |s|) gives M' = 50.11 X +
    2/X.
    """
    k, c = mpf("0.9") * mp.pi, mp.ln2 - alpha
    root = mp.hypot(c, k)
    X = mp.sqrt((c + root) / 2 if c >= 0 else k * k / (2 * (root - c)))
    return k / (2 * X), mpf("9.06") * X + 1 / X, mpf("50.11") * X + 2 / X


def _fermi_lattice(alpha: mpf, target: mpf) -> mpf:
    """Step h with half-line aliasing M'/(e^(2 pi a/h) - 1) = target/4 (Trefethen
    & Weideman, SIAM Rev. 56 (2014) 385, Thm 5.1)."""
    a, _, m_prime = _fermi_strip(alpha)
    return 2 * mp.pi * a / mp.log1p(4 * m_prime / target)


def _pair_target(alpha: mpf, policy: PrecisionPolicy) -> mpf:
    # eps = min(target_abs_error, 10^(-working_digits)) times the lower bound
    # I >= (sqrt(pi)/2)/(e^alpha + 1) of fermi_integral_ends, so the pair keeps
    # eps relative however small I gets (|I'| >= I/2 for alpha > 0)
    ealpha = mp.exp(-alpha)
    eps = min(mpf(policy.target_abs_error), mpf(10) ** -policy.working_digits)
    return eps * mp.sqrt(mp.pi) / 2 * ealpha / (1 + ealpha)


def _trapezoid_pair(alpha: mpf, policy: PrecisionPolicy):
    """(I, I') = h (s(0)/2 + sum_(j>=1) s(j h)) and the same of -s (1 - s), to
    :func:`_pair_target`: the aliasing of :func:`_fermi_lattice`, the cut,
    after which s (1 - s) <= s < e^(-alpha - y^2) sum to <= e^(-alpha) times
    the Gaussian tail from y, and the rounding of the walk of
    :func:`~.numerics.fixed_point_walk` (which counts the deep Fermi sea as
    a plateau) take 5/8 of it."""
    target, ealpha = _pair_target(alpha, policy), mp.exp(-alpha)
    h = _fermi_lattice(alpha, target)

    def cut(j, u, u_next):
        return ealpha * gaussian_tail_upper_bound((j + 1) * h) <= target / 4

    walk = fixed_point_walk(FixedPointLattice(mpf(1), h, h), -1, alpha, target / h,
                            target, cut)
    if not h * max(walk.scaled(walk.bounds[:2])) <= target / 8:
        raise PrecisionExhausted("Fermi sum rounding above its share of the target")
    occ = ealpha / (1 + ealpha)  # s(0)
    s_n, s_d = walk.scaled(walk.totals[:2])
    return h * (occ / 2 + s_n), -h * (occ * (1 - occ) / 2 + s_d)


def _surrogate_pieces(alpha: mpf):
    """p, I, I^2 and d(I^2)/dalpha of the tanh-shaped surrogate."""
    E = mp.exp(alpha)
    E2 = E * E
    p = (1 + E2) / (1 + E)
    dp = (2 * E2 * (1 + E) - E * (1 + E2)) / (1 + E) ** 2
    I = p * (-2 * alpha + E2) / (2 * mp.sqrt(-alpha))
    I2 = p * p * (-alpha + E2)
    dI2 = 2 * p * dp * (-alpha + E2) + p * p * (-1 + 2 * E2)
    return p, I, I2, dI2


def fermi_integral(alpha, variant: str = "quadrature",
                   pure_series_derivative: bool = False,
                   policy: PrecisionPolicy = DEFAULT_POLICY) -> FermiIntegralValue:
    """Fermi-Dirac integral I(alpha) and its derivative.

    * ``quadrature`` - one trapezoid sum of the integrand s and of its
      alpha-derivative -s (1 - s) together, with a step from the strip
      bound, a proven cut and a counted plateau deep in the Fermi sea
      (valid for all alpha);
    * ``stoner`` - I = sqrt(-alpha) [1 - (pi^2/24)/alpha^2] with the
      further-truncated derivative magnitude 1/(2 sqrt(-alpha)); setting
      ``pure_series_derivative`` instead differentiates the truncated series
      itself, the pairing under which the force kernel loses its minimum;
    * ``tanh_surrogate`` - closed forms from a shifted-tanh model of the
      integrand, exact at y = 0 and matching its half-height point.
    """
    with mp.workdps(policy.dps):
        alpha = mpf(alpha)
        _check_variant(alpha, variant, pure_series_derivative)
        if variant == "quadrature":
            return FermiIntegralValue(alpha, *_trapezoid_pair(alpha, policy), variant)
        if variant == "stoner":
            root = mp.sqrt(-alpha)
            corr = mp.pi ** 2 / 24 / alpha ** 2
            I = root * (1 - corr)
            if pure_series_derivative:
                # d/dalpha of the truncated series itself
                Ip = -(1 / (2 * root) + 3 * (mp.pi ** 2 / 24) / (2 * root ** 5))
            else:
                Ip = -1 / (2 * root)
            return FermiIntegralValue(alpha, I, Ip, variant)
        p, I, I2, dI2 = _surrogate_pieces(alpha)
        return FermiIntegralValue(alpha, I, dI2 / (2 * I), variant)


def force_kernel(alpha, variant: str = "quadrature",
                 pure_series_derivative: bool = False,
                 policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """Kernel J(alpha) = -1/((e^alpha + 1) I I') whose minimum sets the force minimum.

    Positive for alpha < 0; equals -2/((e^alpha + 1) d(I^2)/dalpha).
    """
    with mp.workdps(policy.dps):
        v = fermi_integral(alpha, variant, pure_series_derivative, policy)
        return -1 / ((mp.exp(v.alpha) + 1) * v.I * v.I_prime)


def force_kernel_minimum(variant: str = "quadrature",
                         policy: PrecisionPolicy = DEFAULT_POLICY,
                         bracket=(-5, -1)):
    """Minimum (alpha_min, J_min) of the force kernel, as the root of J'.

    J'(alpha) is the centred difference (J(alpha + h) - J(alpha - h))/(2 h)
    at h = :data:`KERNEL_DIFF_STEP`, found by :func:`find_root_bracketed`
    between the bracket ends pulled in by h (after clamping the stoner
    variant to its validity window, so that J stays defined at alpha +- h).
    A bracket without the minimum inside raises :class:`NoSignChange`.
    """
    with mp.workdps(policy.dps):
        lo, hi = mpf(bracket[0]), mpf(bracket[1])
        if variant == "stoner":
            lo = max(lo, STONER_INTERVAL[0])
            hi = min(hi, STONER_INTERVAL[1])
        J = lambda a: force_kernel(a, variant, policy=policy)
        h = KERNEL_DIFF_STEP
        a = find_root_bracketed(lambda x: mp.diff(J, x, h=h), lo + h, hi - h, policy).root
        return a, J(a)


# bounds on Dawson's integral F(x) = e^(-x^2) integral_0^x e^(u^2) du, rounded
# up: its maximum F(0.9241...) = 0.54104... and the maximum of x F(x),
# 0.64237... at x = 1.5020...
_DAWSON_MAX = mpf("0.5411")
_DAWSON_X_MAX = mpf("0.6424")


def fermi_integral_ends(target: mpf) -> tuple:
    """Padded ends (lo, hi) with I(lo) > target > I(hi), from closed bounds on I.

    Upper end: Boltzmann occupancy bounds the Fermi one from above, so
    I < (sqrt(pi)/2) e^(-alpha) and hi = log((sqrt(pi)/2)/target).  For
    alpha = -y0^2 < 0 also s <= 1 below the edge and s < e^(-2 y0 (y - y0))
    beyond it, so I < y0 + 1/(2 y0); when target > sqrt(2) this gives
    hi = -y0^2 at y0 = (target + sqrt(target^2 - 2))/2.

    Lower end: 1/(x + 1) >= 1 - x gives s >= 1 - exp(alpha + y^2), so at
    alpha = -y0^2 the part of I below the edge is at least y0 - F(y0), with
    F Dawson's integral.  F <= max F = 0.5411 and x F(x) <= 0.6424 give
    I > y0 - min(0.5411, 0.6424/y0), which exceeds the target from
    y0 = min(target + 0.5411, (target + sqrt(target^2 + 4 (0.6424)))/2) on;
    hence lo = -y0^2 (the second form is the smaller one above the
    crossover target 0.6424/0.5411 - 0.5411 = 0.6461).  And
    exp(alpha + y^2) + 1 <= (e^alpha + 1) e^(y^2) gives I >= (sqrt(pi)/2)
    / (e^alpha + 1), hence lo = log((sqrt(pi)/2)/target - 1) when target <
    sqrt(pi)/2.

    The tighter candidate is taken at each end, and both ends are padded
    outward by 10^(4 - dps) max(1, |x|).  The oracle bounds its soft-step
    fermion constraint with the same lower end.
    """
    half_root_pi = mp.sqrt(mp.pi) / 2
    hi = mp.log(half_root_pi / target)
    if target > mp.sqrt(2):
        y0 = (target + mp.sqrt(target ** 2 - 2)) / 2
        hi = min(hi, -y0 ** 2)
    y0 = min(target + _DAWSON_MAX, (target + mp.sqrt(target ** 2 + 4 * _DAWSON_X_MAX)) / 2)
    lo = -y0 ** 2
    if target < half_root_pi:
        lo = max(lo, mp.log(half_root_pi / target - 1))
    return pad_outward(lo, hi)


def alpha_from_temperature(N: int, t, variant: str = "quadrature",
                           policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """Invert the collapsed constraint I(alpha) = N/sqrt(t).

    Depends on (N, t) only through N/sqrt(t), so alpha(N, t) = alpha(k N,
    k^2 t) identically.  The quadrature route takes safeguarded Newton steps
    on (I - N/sqrt(t), I'), one paired evaluation per step, inside the
    closed-form ends of :func:`fermi_integral_ends`; it reaches every
    positive target.  The other variants take secant steps on their
    monotone domain (the surrogate's from alpha = -0.7 down to the closed
    lower end -(5 N/(4 sqrt(t)))^2) and raise :class:`VariantDomainError`
    when the target lies outside it.
    """
    with mp.workdps(policy.dps):
        t = mpf(t)
        if not (t > 0 and N >= 1):
            raise ValueError("need t > 0 and N >= 1")
        target = N / mp.sqrt(t)
        if variant == "quadrature":
            def residual(a):
                v = fermi_integral(a, variant, policy=policy)
                return v.I - target, v.I_prime

            lo, hi = fermi_integral_ends(target)
            return find_root_bracketed(residual, lo, hi, policy, derivative=True).root

        I = lambda a: fermi_integral(a, variant, policy=policy).I
        if variant == "stoner":
            lo, hi = STONER_INTERVAL
            if not I(hi) <= target <= I(lo):
                raise VariantDomainError(
                    f"N/sqrt(t) = {mp.nstr(target, 6)} outside the stoner range "
                    f"[{mp.nstr(I(hi), 6)}, {mp.nstr(I(lo), 6)}]")
        else:  # tanh_surrogate; fermi_integral rejects unknown variants
            # the surrogate is monotone only left of its spurious pole near 0
            hi = mpf("-0.7")
            if target < I(hi):
                raise VariantDomainError(
                    "N/sqrt(t) below the reachable surrogate values")
            # for alpha <= -0.7, p = (1 + e^(2 alpha))/(1 + e^alpha) >=
            # 2 sqrt(2) - 2 > 4/5, so I > p sqrt(-alpha) > (4/5) sqrt(-alpha)
            lo = min(hi - 1, -(5 * target / 4) ** 2)
        res = find_root_bracketed(lambda a: I(a) - target, lo, hi, policy)
        return res.root


def fermion_medium_net_force(N: int, t, variant: str = "quadrature",
                             policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """Medium-regime net force (N^2/4) J(alpha(N, t)).

    Scale invariant by construction: delta_f(N, t)/N^2 depends only on
    N/sqrt(t).
    """
    alpha = alpha_from_temperature(N, t, variant, policy)
    with mp.workdps(policy.dps):
        return mpf(N) ** 2 / 4 * force_kernel(alpha, variant, policy=policy)


def alpha_split_subleading(N: int, alpha, variant: str = "quadrature",
                           policy: PrecisionPolicy = DEFAULT_POLICY) -> mpf:
    """Subleading side splitting (1/2N) I / ((e^alpha + 1) I') of alpha.

    Negative for alpha < 0 since I > 0 and I' < 0; scales as 1/N.
    """
    with mp.workdps(policy.dps):
        v = fermi_integral(alpha, variant, policy=policy)
        return v.I / ((mp.exp(v.alpha) + 1) * v.I_prime) / (2 * N)


def tanh_surrogate_quadratic(policy: PrecisionPolicy = DEFAULT_POLICY,
                             alpha_star=mpf("-2.5")):
    """Quadratic Taylor model a (alpha - center)^2 + minimum of the surrogate kernel.

    Expands the tanh-surrogate J to second order about ``alpha_star``, by
    centred differences at :data:`KERNEL_DIFF_STEP`, and completes the
    square; the coefficients are recomputed rather than frozen.  Returns
    (a, center, minimum).
    """
    with mp.workdps(policy.dps):
        a_star = mpf(alpha_star)
        J = lambda a: force_kernel(a, "tanh_surrogate", policy=policy)
        J0 = J(a_star)
        J1 = mp.diff(J, a_star, h=KERNEL_DIFF_STEP)
        J2 = mp.diff(J, a_star, 2, h=KERNEL_DIFF_STEP)
        curvature = J2 / 2
        center = a_star - J1 / J2
        minimum = J0 - J1 ** 2 / (2 * J2)
        return curvature, center, minimum
