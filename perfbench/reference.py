"""Reference values for the partitioned-well force, computed apart from the program.

Nothing here imports ``partition_well``.  For each half well the
particle-number constraint

    N = sum_n 1 / (exp(alpha + e_n / t) - eta),    e_n = (n - tau)^2,

is solved by plain level summation in ``decimal`` arithmetic at ``PREC``
significant digits (the program works in mpmath at 30 + 10 guard digits),
with a safeguarded Newton iteration on a sign-changing bracket, and the
reduced force f = sum_n e_n N_n is summed at the root.  The medium-regime
fermion kernel is recomputed with a Gauss-Legendre quadrature of its own,
and the high-temperature laws are evaluated from their closed forms.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

from mpmath import mp, mpf

PREC = 60
ETA = {"boson": 1, "fermion": -1}
TAU = {"plus": Decimal("0.5"), "minus": Decimal(0)}


def _expm1(x: Decimal) -> Decimal:
    """exp(x) - 1 for |x| < 1 without the cancellation of exp(x) - 1."""
    term = x
    total = x
    k = 1
    eps = Decimal(10) ** -(PREC + 5)
    while abs(term) > eps * abs(total):
        k += 1
        term = term * x / k
        total += term
    return total


def _level_sums(eta: int, tau: Decimal, alpha: Decimal, b: Decimal, tol: Decimal):
    """(sum N_n, sum N_n (1 + eta N_n), sum e_n N_n), summed level by level.

    Each level's Boltzmann factor comes from the previous one through the
    exact ratio exp(-b (e_{n+1} - e_n)); summation stops once the remaining
    force terms are dominated by a geometric series below ``tol``.
    """
    n = 1
    e = (1 - tau) ** 2
    x = alpha + b * e
    u = (-x).exp()
    ratio = (-b * (2 * (1 - tau) + 1)).exp()
    shrink = (-2 * b).exp()
    s_n = s_d = s_f = Decimal(0)
    while True:
        if eta == 1 and x < 1:
            occ = 1 / _expm1(x)
        else:
            occ = u / (1 - eta * u)
        s_n += occ
        s_d += occ * (1 + eta * occ)
        s_f += e * occ
        e_next = (n + 1 - tau) ** 2
        if x > 2 and b * e >= 1:
            # later force terms shrink at least by r per level (the 1.14
            # covers the fermionic denominator 1 + u with u < e^-2)
            r = Decimal("1.14") * ratio * e_next / e
            if r < 1 and 4 * e * occ * r / (1 - r) < tol:
                return s_n, s_d, s_f
        u *= ratio
        ratio *= shrink
        n += 1
        e = e_next
        x = alpha + b * e
        if n > 10 ** 7:
            raise RuntimeError("level sum did not converge")


def solve_side(stat: str, side: str, N: int, t) -> tuple:
    """(alpha, f) of one half well at temperature ``t`` (a decimal string)."""
    eta, tau = ETA[stat], TAU[side]
    with localcontext() as ctx:
        ctx.prec = PREC
        t = Decimal(str(t))
        if not t > 0:
            raise ValueError("t must be positive")
        b = 1 / t
        tol = Decimal(10) ** -(PREC - 12) * (N + 1)

        def g(alpha):
            s_n, s_d, s_f = _level_sums(eta, tau, alpha, b, tol)
            return s_n - N, s_d, s_f

        # lo has g > 0: for bosons the lowest level alone holds more than N
        # particles; for fermions every level up to N + 1 is nearly full
        if eta == 1:
            lo = -b * (1 - tau) ** 2 + Decimal(1) / (4 * N)
        else:
            lo = -b * (N + 1 - tau) ** 2 - 50
        if not g(lo)[0] > 0:
            raise RuntimeError("reference bracket: constraint not above N")
        step = Decimal(1)
        hi = lo + step
        while g(hi)[0] >= 0:
            lo, step = hi, 2 * step
            hi = lo + step
        # Newton inside the bracket, bisecting whenever a step would leave
        # it or would not halve the previous step
        alpha = (lo + hi) / 2
        dx_old = dx = hi - lo
        xtol = Decimal(10) ** -(PREC - 10)
        for _ in range(2000):
            val, slope, force = g(alpha)  # d val / d alpha = -slope
            if val == 0:
                return alpha, force
            if val > 0:
                lo = alpha
            else:
                hi = alpha
            newton = alpha + val / slope
            if not lo < newton < hi or abs(2 * val) > abs(dx_old * slope):
                dx_old, dx = dx, (hi - lo) / 2
                alpha = lo + dx
            else:
                dx_old, dx = dx, val / slope
                alpha = newton
            if abs(dx) <= xtol * (1 + abs(alpha)):
                return alpha, g(alpha)[2]
        raise RuntimeError("reference root did not converge")


def net_force(stat: str, N: int, t) -> Decimal:
    """Net reduced force f_minus - f_plus at temperature ``t``."""
    _, f_minus = solve_side(stat, "minus", N, t)
    _, f_plus = solve_side(stat, "plus", N, t)
    with localcontext() as ctx:
        ctx.prec = PREC
        return f_minus - f_plus


def shift_balance(stat: str, N: int, t, xi) -> Decimal:
    """Net physical force on a partition displaced by ``xi`` (same sign convention
    as the program: positive while the minus side still pushes harder)."""
    with localcontext() as ctx:
        ctx.prec = PREC
        t, xi = Decimal(str(t)), Decimal(str(xi))
        _, f_minus = solve_side(stat, "minus", N, t * (1 + xi) ** 2)
        _, f_plus = solve_side(stat, "plus", N, t * (1 - xi) ** 2)
        return f_minus / (1 + xi) ** 3 - f_plus / (1 - xi) ** 3


def zero_temperature_net_force(stat: str, N: int) -> Fraction:
    """Exact t = 0 net force: 3N/4 for bosons, the filled-band difference for fermions."""
    if stat == "boson":
        return Fraction(3 * N, 4)
    return Fraction(N * (N + 1) * (2 * N + 1), 6) - Fraction(N * (4 * N * N - 1), 12)


def _decimal(x: mpf) -> Decimal:
    return Decimal(mp.nstr(x, mp.dps, strip_zeros=False))


def high_leading(N: int, t) -> Decimal:
    """Leading high-temperature law (N/2) sqrt(t/pi)."""
    with mp.workdps(40):
        return _decimal(N * mp.sqrt(mpf(str(t)) / mp.pi) / 2)


def high_next(stat: str, N: int, t) -> Decimal:
    """Leading law plus the constant -(N/pi) [(sqrt 2 - 1) eta N - 1/2]."""
    with mp.workdps(40):
        const = -N / mp.pi * ((mp.sqrt(2) - 1) * ETA[stat] * N - mpf(1) / 2)
        return _decimal(N * mp.sqrt(mpf(str(t)) / mp.pi) / 2 + const)


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        while True:
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            slope = n * (x * p1 - p0) / (x * x - 1)
            step = p1 / slope
            x -= step
            if abs(step) < 1e-15:
                break
        rule.append((x, 2 / ((1 - x * x) * slope * slope)))
    return rule


_GAUSS_12 = _gauss_legendre(12)


def _fermi_integrals(alpha: float):
    """I(alpha) = int_0^inf dy / (exp(alpha + y^2) + 1) and dI/dalpha.

    Composite 12-point Gauss-Legendre in binary64 on [0, edge + 12], where
    edge = sqrt(-alpha) is the Fermi edge; beyond it the integrand is below
    exp(-144).
    """
    upper = math.sqrt(max(-alpha, 0.0)) + 12
    pieces = int(upper / 0.1) + 1
    h = upper / pieces
    value = slope = 0.0
    for j in range(pieces):
        mid = (j + 0.5) * h
        for x, w in _GAUSS_12:
            y = mid + 0.5 * h * x
            occ = 1 / (math.exp(min(alpha + y * y, 700.0)) + 1)
            value += w * occ
            slope -= w * occ * (1 - occ)
    return value * h / 2, slope * h / 2


def fermion_medium_force(N: int, t) -> Decimal:
    """Medium-regime fermion force (N^2/4) J(alpha) with I(alpha) = N / sqrt(t).

    J = -1 / ((e^alpha + 1) I I'); alpha from I(alpha) = N / sqrt(t) by
    Newton steps kept inside a sign-changing bracket.  Binary64 throughout,
    so the result is good to about 1e-13 relative.
    """
    target = N / math.sqrt(float(t))
    lo, hi = -1.0, 1.0
    while _fermi_integrals(lo)[0] < target:
        lo *= 2
    while _fermi_integrals(hi)[0] > target:
        hi *= 2
    alpha = (lo + hi) / 2
    for _ in range(200):
        value, slope = _fermi_integrals(alpha)
        if value > target:
            lo = alpha
        else:
            hi = alpha
        nxt = alpha - (value - target) / slope
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        done = abs(nxt - alpha) <= 1e-14 * (1 + abs(alpha))
        alpha = nxt
        if done:
            break
    else:
        raise RuntimeError("reference Fermi-integral root did not converge")
    value, slope = _fermi_integrals(alpha)
    return Decimal(N * N / 4 * (-1 / ((math.exp(alpha) + 1) * value * slope)))
