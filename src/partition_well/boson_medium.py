"""Bosonic medium-temperature regime: t of order N.

Around its minimum the bosonic force curve is governed by the classical
occupancy approximation ``N_n ~ 1/(alpha + b e_n)``, whose level sum has the
closed forms

    sum_n 1/(z + (n - 1/2)^2) = pi tanh(pi sqrt(z)) / (2 sqrt(z))   (plus side)
    sum_n 1/(z + n^2)         = (pi sqrt(z) coth(pi sqrt(z)) - 1) / (2 z)

in the scaled variable ``z = t alpha``.  Solving ``S(z) = N/t`` per side
(secant steps between ends in closed form, from bounds on the first term
and on the rest of the sum) and inserting the solutions into

    delta_f / N  ~=  -(1/2) (t/N) - (z_minus - z_plus)

reproduces the minimum of the curve up to relative errors that vanish for
large N.  Local quadratic approximants (a naive one using the saturated
tanh, and an improved one built on a Pade surrogate of tanh) give the
minimum in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .model import W_MINUS, W_PLUS, WellSide, as_mpf
from .numerics import DEFAULT_POLICY, PrecisionPolicy, \
    find_root_bracketed, \
    quad_semi_infinite  # noqa: F401 -- unused; perfbench's tracer wraps it here

__all__ = [
    "ScaledAlphaSolution",
    "OutOfRange",
    "spectral_sum",
    "solve_scaled_alpha",
    "boson_medium_net_force",
    "quadratic_approximant",
    "tanh_pade",
    "alpha_zero_temperatures",
    "medium_error_integral_constants",
]

METHODS = ("exact_S_solve", "series_inversion", "tanh_saturation", "tanh_pade")


class OutOfRange(ValueError):
    """Requested value is outside the reachable range of the level sum."""


@dataclass(frozen=True)
class ScaledAlphaSolution:
    """Solution of S_side(t alpha) = N/t in the scaled variable t alpha."""

    side: WellSide
    t_alpha: mpf
    t_over_N: mpf
    method: str


def spectral_sum(side: WellSide, z) -> mpf:
    """Closed form of sum_{n>=1} 1/(z + (n - tau)^2).

    Smooth through z = 0 (values pi^2/2 and pi^2/6) and strictly decreasing;
    diverges at the domain boundary z = -e_1 where the n = 1 term blows up.
    Negative z is evaluated through the tan/cot continuation.
    """
    z = mpf(z)
    e1 = as_mpf(side.e1)
    if not z > -e1:
        raise ValueError(f"spectral sum defined for z > -e_1 = {mp.nstr(-e1, 6)}")
    if z == 0:
        return mp.pi ** 2 / 2 if side.side == "plus" else mp.pi ** 2 / 6
    if side.side == "plus":
        if z > 0:
            r = mp.sqrt(z)
            return mp.pi * mp.tanh(mp.pi * r) / (2 * r)
        r = mp.sqrt(-z)
        return mp.pi * mp.tan(mp.pi * r) / (2 * r)
    if z > 0:
        r = mp.sqrt(z)
        return (mp.pi * r * mp.coth(mp.pi * r) - 1) / (2 * z)
    r = mp.sqrt(-z)
    return (mp.pi * r / mp.tan(mp.pi * r) - 1) / (2 * z)


def tanh_pade(x, x_star) -> mpf:
    """Rational surrogate (tanh x* + (x - x*)) / (1 + tanh x* (x - x*)).

    Agrees with tanh through the quadratic Taylor term at ``x_star`` while
    behaving far better away from it than the Taylor polynomial.
    """
    x, x_star = mpf(x), mpf(x_star)
    ts = mp.tanh(x_star)
    den = 1 + ts * (x - x_star)
    if den == 0:
        raise ZeroDivisionError("tanh surrogate pole at this x")
    return (ts + (x - x_star)) / den


def alpha_zero_temperatures(N: int):
    """Temperatures (t0_plus, t0_minus) where alpha crosses zero per side.

    From S_plus(0) = pi^2/2 and S_minus(0) = pi^2/6 these are 2N/pi^2 and
    6N/pi^2; their ratio is exactly 3.
    """
    if N < 1:
        raise ValueError("N must be positive")
    with mp.workdps(DEFAULT_POLICY.dps):
        return 2 * N / mp.pi ** 2, 6 * N / mp.pi ** 2


def _solve_ends(side: WellSide, target: mpf) -> tuple:
    """Padded ends (lo, hi) with S(lo) > target > S(hi), in closed form.

    The first term alone gives S(z) > 1/(z + e_1), so S > target at
    lo = 1/target - e_1.  For z > 0 the terms beyond the first sum to less
    than integral_0^inf dy/(z + y^2) = pi/(2 sqrt(z)), so S < 1/z +
    pi/(2 sqrt(z)) <= target at hi = max(2/target, (pi/target)^2).  Both
    ends are padded outward by 10^(4 - dps) max(1, |x|); a target so large
    that the padded lo reaches the pole at -e_1 raises :class:`OutOfRange`.
    """
    if not target > 0:
        raise OutOfRange("the level sum only takes positive values")
    e1 = as_mpf(side.e1)
    lo = 1 / target - e1
    hi = max(2 / target, (mp.pi / target) ** 2)
    pad = mpf(10) ** (4 - mp.dps)
    lo, hi = lo - pad * max(1, abs(lo)), hi + pad * max(1, abs(hi))
    if not lo > -e1:
        raise OutOfRange("target beyond the pole-side range")
    return lo, hi


@lru_cache(maxsize=None)
def _pade_inversion_coefficients():
    """Quadratic inversion of the plus-side constraint about pi sqrt(z*) = 3.

    With w = t/N, the equation S_plus(z(w)) = 1/w is inverted around the
    expansion point z* = (3/pi)^2 to second order:

        z(w) = z* + c1 (w - w*) + c2 (w - w*)^2,     w* = 1/S_plus(z*).

    The Pade surrogate of tanh matches value and first two derivatives at
    the expansion point, so the exact S_plus derivatives may be used.
    """
    with mp.workdps(DEFAULT_POLICY.dps + 10):
        z_star = (mpf(3) / mp.pi) ** 2
        F = lambda z: spectral_sum(W_PLUS, z)
        F0 = F(z_star)
        F1 = mp.diff(F, z_star)
        F2 = mp.diff(F, z_star, 2)
        w_star = 1 / F0
        c1 = -F0 ** 2 / F1
        u2 = (2 / w_star ** 3 - F2 * c1 ** 2) / F1
        return z_star, w_star, c1, u2 / 2


def solve_scaled_alpha(side: WellSide, N: int, t, method: str = "exact_S_solve",
                       policy: PrecisionPolicy = DEFAULT_POLICY) -> ScaledAlphaSolution:
    """Scaled occupancy parameter t*alpha of one side in the medium regime.

    Methods:

    * ``exact_S_solve`` - numerical root of S_side(z) = N/t (either side)
      between the closed-form ends of :func:`_solve_ends`;
    * ``series_inversion`` - minus side, quadratic inversion around the
      alpha = 0 crossing: z = (5/2) d + (5 pi^2/28) d^2, d = t/N - 6/pi^2;
    * ``tanh_saturation`` - plus side, saturated tanh: z = (pi^2/4)(t/N)^2;
    * ``tanh_pade`` - plus side, quadratic inversion built on the Pade
      surrogate expanded at pi sqrt(z) = 3.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    with mp.workdps(policy.dps):
        t = mpf(t)
        if not (t > 0 and N >= 1):
            raise ValueError("need t > 0 and N >= 1")
        w = t / N
        if method == "exact_S_solve":
            target = N / t  # S is strictly decreasing
            lo, hi = _solve_ends(side, target)
            z = find_root_bracketed(lambda x: spectral_sum(side, x) - target,
                                    lo, hi, policy).root
        elif method == "series_inversion":
            if side is not W_MINUS and side.side != "minus":
                raise ValueError("series_inversion applies to the minus side")
            d = w - 6 / mp.pi ** 2
            z = mpf(5) / 2 * d + 5 * mp.pi ** 2 / 28 * d ** 2
        elif method == "tanh_saturation":
            if side.side != "plus":
                raise ValueError("tanh_saturation applies to the plus side")
            z = mp.pi ** 2 / 4 * w ** 2
        else:  # tanh_pade
            if side.side != "plus":
                raise ValueError("tanh_pade applies to the plus side")
            z_star, w_star, c1, c2 = _pade_inversion_coefficients()
            e = w - w_star
            z = z_star + c1 * e + c2 * e ** 2
        if not z > -as_mpf(side.e1):
            raise OutOfRange("scaled alpha left the domain of the level sum")
        return ScaledAlphaSolution(side, z, w, method)


def boson_medium_net_force(N: int, t, sol_plus: ScaledAlphaSolution,
                           sol_minus: ScaledAlphaSolution) -> mpf:
    """Medium-regime net force N [-(1/2)(t/N) - (z_minus - z_plus)].

    Both scaled-alpha solutions must belong to the same (N, t) point.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        t = mpf(t)
        w = t / N
        if sol_plus.side.side != "plus" or sol_minus.side.side != "minus":
            raise ValueError("need one solution per side, plus and minus")
        for sol in (sol_plus, sol_minus):
            if abs(sol.t_over_N - w) > abs(w) * mpf("1e-12"):
                raise ValueError("scaled-alpha solutions belong to a different (N, t)")
        return N * (-w / 2 - (sol_minus.t_alpha - sol_plus.t_alpha))


def quadratic_approximant(variant: str = "improved"):
    """Quadratic model delta_f/N ~= a (t/N - center)^2 + minimum.

    ``naive`` combines the series inversion with the saturated tanh and has
    its minimum pinned at 6/pi^2 in both coordinates.  ``improved`` replaces
    the saturation by the Pade-based inversion; its coefficients are
    recomputed here rather than frozen.
    """
    with mp.workdps(DEFAULT_POLICY.dps):
        if variant == "naive":
            return mp.pi ** 2 / 14, 6 / mp.pi ** 2, 6 / mp.pi ** 2
        if variant != "improved":
            raise ValueError("variant must be 'naive' or 'improved'")
        z_star, w_star, c1, c2 = _pade_inversion_coefficients()
        w0 = 6 / mp.pi ** 2
        k_minus = 5 * mp.pi ** 2 / 28
        # delta_f/N = -w/2 - [(5/2) d + k d^2] + [z* + c1 e + c2 e^2]
        # with d = w - w0 and e = w - w*; collect powers of w
        a2 = c2 - k_minus
        a1 = -mpf(3) + 2 * k_minus * w0 + c1 - 2 * c2 * w_star
        a0 = mpf(5) / 2 * w0 - k_minus * w0 ** 2 + z_star - c1 * w_star + c2 * w_star ** 2
        center = -a1 / (2 * a2)
        minimum = a0 - a2 * center ** 2
        return a2, center, minimum


def medium_error_integral_constants(policy: PrecisionPolicy = DEFAULT_POLICY):
    """The two integrals controlling the medium-regime approximation error.

    C1 = integral_0^inf [1/(e^(y^2) - 1) - 1/y^2] dy and C2 = integral_0^inf
    [1/y^4 - e^(y^2)/(e^(y^2) - 1)^2] dy, the defects of the classical
    occupancy and of its slope; they multiply t and alpha in the error
    estimate of the classical-occupancy constraint.  Both are closed forms.
    With x = y^2 and g(x) = 1/(e^x - 1) - 1/x, C1 = (1/2) integral
    x^(-1/2) g dx and C2 = (1/2) integral x^(-1/2) g' dx.  The Mellin
    transform of g is Gamma(s) zeta(s) on 0 < Re s < 1, so C1 = (sqrt(pi)/2)
    zeta(1/2).  g + 1/2 ~ x/12 at 0 and -> 1/2 at inf, so by parts C2 =
    (1/4) integral x^(-3/2) (g + 1/2) dx, and on -1 < Re s < 0 the Mellin
    transform of g + 1/2 is again Gamma(s) zeta(s): with Gamma(-1/2) =
    -2 sqrt(pi), C2 = -(sqrt(pi)/2) zeta(-1/2).
    """
    with mp.workdps(policy.dps):
        half = mpf(1) / 2
        return mp.sqrt(mp.pi) / 2 * mp.zeta(half), -mp.sqrt(mp.pi) / 2 * mp.zeta(-half)
