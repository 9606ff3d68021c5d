"""Precision policy, root finding, Gaussian tail bounds and quadrature.

Every quantity the exact oracle reports is accompanied by a bound on the
error committed by truncating an infinite sum or stopping an iteration.
The level sums and their certified tails live in :mod:`.oracle`; the tools
here supply the rest:

* :func:`find_root_bracketed` - deterministic bracketed root finder:
  safeguarded Newton, with the function's derivative when it returns one
  and a secant slope otherwise.
* :func:`gaussian_tail_upper_bound` - closed upper bound for the Gaussian
  tail integral, used wherever a dropped sum or integral tail is bounded.
* :func:`pad_outward` - the one padding rule of closed-form bracket ends.
* :func:`fixed_point_walk` - the one loop of every level sum: occupancies
  1/(e^x - eta) at the points of a :class:`FixedPointLattice`, in integers
  on one binary scale per walk, with the rounding of every floor and shift
  counted in closed form.
* :func:`quad_semi_infinite` - adaptive quadrature over breakpoints that
  end at ``inf`` or at a cut whose tail the caller has bounded.  No code in
  the package calls it; it is kept because perfbench's tracer wraps the
  names :mod:`.boson_medium` and :mod:`.fermion_medium` import.

The other routines are pure and run at the precision requested by the
supplied :class:`PrecisionPolicy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_int, from_man_exp, mpf_add, mpf_mul, mpf_neg, mpf_shift

__all__ = [
    "PrecisionPolicy",
    "RootResult",
    "DEFAULT_POLICY",
    "NoSignChange",
    "MaxIterations",
    "NonConvergent",
    "PrecisionExhausted",
    "find_root_bracketed",
    "gaussian_tail_upper_bound",
    "pad_outward",
    "FixedPointLattice",
    "FixedPointSums",
    "fixed_point_walk",
    "quad_semi_infinite",
    "SOLVER_FAILURES",
]

# extra decimal digits carried internally beyond the policy's working digits
GUARD_DIGITS = 10
# each escalation multiplies the working digits by this, up to max_digits
ESCALATION_FACTOR = 2


class NoSignChange(ValueError):
    """Root bracket endpoints do not straddle a sign change."""


class MaxIterations(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class NonConvergent(RuntimeError):
    """Quadrature refinement failed to reach the requested tolerance."""


class PrecisionExhausted(RuntimeError):
    """The precision ceiling was reached without meeting the target."""


# failures of a numerical solve, as opposed to a domain error; NoSignChange
# is also a ValueError, so handlers catch these first
SOLVER_FAILURES = (MaxIterations, PrecisionExhausted, NoSignChange, NonConvergent)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Working precision and error targets for the numerical kernels."""

    working_digits: int = 30
    max_digits: int = 120
    target_abs_error: float = 1e-12
    target_rel_error: float = 1e-12
    max_iterations: int = 240

    def __post_init__(self):
        if self.working_digits < 20:
            raise ValueError("working_digits must be at least 20")
        if self.working_digits > self.max_digits:
            raise ValueError("working_digits must not exceed max_digits")
        if not (self.target_abs_error > 0 and self.target_rel_error > 0):
            raise ValueError("error targets must be positive")

    @property
    def dps(self) -> int:
        """Decimal digits of the working precision, guard digits included."""
        return self.working_digits + GUARD_DIGITS

    def escalate(self) -> "PrecisionPolicy":
        """Return a policy with strictly more digits, capped at ``max_digits``."""
        if self.working_digits >= self.max_digits:
            raise PrecisionExhausted(
                f"cannot escalate beyond max_digits={self.max_digits}")
        return replace(self, working_digits=min(
            self.max_digits, self.working_digits * ESCALATION_FACTOR))


DEFAULT_POLICY = PrecisionPolicy()


@dataclass(frozen=True)
class RootResult:
    root: mpf
    residual: mpf
    bracket_width: mpf
    evaluations: int


def find_root_bracketed(func: Callable, lo, hi,
                        policy: PrecisionPolicy = DEFAULT_POLICY,
                        derivative: bool = False) -> RootResult:
    """Solve func(x) = 0 on a sign-changing bracket [lo, hi].

    Safeguarded Newton steps are taken inside the bracket (``rtsafe``,
    Numerical Recipes 9.4).  With ``derivative``, ``func`` returns
    ``(g, g')`` and the step uses g'; without it, ``func`` returns g and the
    step uses the secant slope through the last two iterates, starting from
    the chord between the bracket ends (the derivative-free form of the
    same iteration; Brent 1973, ch. 4).

    A step that leaves the bracket, a step after one that failed to halve
    |g|, and, from the third step on, a step not smaller than half the step
    before last are replaced by bisection.  The last test keeps Newton from
    crawling along the flank of a sigmoid, where each step moves about as
    far as the one before while |g| shrinks by a constant factor near e;
    quadratic convergence never trips it.  Newton iterates usually approach
    the root from one side, so once the Newton correction is below the
    tolerance one straddle probe at ``x - 2 g/g'`` confirms the bracket
    [x, x - 2 g/g']; the Newton point ``x - g/g'``, its midpoint, is
    returned with the larger |g| at the two ends as residual (a bound for
    monotone g).

    The search terminates once the residual is below ``target_abs_error``
    and the bracket width is below ``max(target_abs_error, |root| *
    target_rel_error)``.  Every call of ``func`` counts in ``evaluations``
    and against ``max_iterations``.  A bracket that collapses to adjacent
    floats while |g| is still above ``target_abs_error`` raises
    :class:`MaxIterations`, as an exhausted budget does: no iterate is
    returned with a residual above target.

    Deterministic: identical inputs and policy produce identical output.
    """
    with mp.workdps(policy.dps):
        a, b = mpf(lo), mpf(hi)
        if not a < b:
            raise ValueError("bracket must satisfy lo < hi")
        if derivative:
            fa, da = map(mpf, func(a))
            fb, db = map(mpf, func(b))
        else:
            fa, fb = mpf(func(a)), mpf(func(b))
            da = db = (fb - fa) / (b - a)
        evals = 2
        ftol = mpf(policy.target_abs_error)
        if fa == 0:
            return RootResult(a, fa, mpf(0), evals)
        if fb == 0:
            return RootResult(b, fb, mpf(0), evals)
        if mp.sign(fa) == mp.sign(fb):
            raise NoSignChange(
                f"func({mp.nstr(a, 8)}) and func({mp.nstr(b, 8)}) have the same sign")

        def xtol(x):
            return max(ftol, abs(x) * mpf(policy.target_rel_error))

        x, fx, dfx = (a, fa, da) if abs(fa) < abs(fb) else (b, fb, db)
        bisect = False
        dx = dx_old = mp.inf  # the last step and the one before
        while evals < policy.max_iterations:
            if abs(fx) <= ftol and (b - a) <= xtol(x):
                return RootResult(x, fx, b - a, evals)
            step = fx / dfx if dfx != 0 else None
            probe = newton = False
            if (step is not None and abs(fx) <= ftol and 2 * abs(step) <= xtol(x)
                    and a < x - 2 * step < b):
                nxt, probe = x - 2 * step, True
            elif (step is not None and not bisect and 2 * abs(step) < dx_old
                    and a < x - step < b):
                nxt, newton = x - step, True
            else:
                nxt = (a + b) / 2
                if not a < nxt < b:  # bracket collapsed to adjacent floats
                    if abs(fx) <= ftol:
                        return RootResult(x, fx, b - a, evals)
                    raise MaxIterations(
                        f"bracket collapsed at {mp.nstr(x, 8)} with residual "
                        f"{mp.nstr(fx, 6)} above {policy.target_abs_error}")
            dx, dx_old = abs(nxt - x), dx
            if derivative:
                fn, dfn = map(mpf, func(nxt))
            else:
                fn = mpf(func(nxt))
                dfn = (fn - fx) / (nxt - x)
            evals += 1
            if fn == 0:
                return RootResult(nxt, fn, mpf(0), evals)
            if probe and mp.sign(fn) != mp.sign(fx) and abs(fn) <= ftol:
                return RootResult(x - step, max(abs(fx), abs(fn)), 2 * abs(step), evals)
            bisect = newton and abs(fn) > abs(fx) / 2
            if mp.sign(fn) == mp.sign(fa):
                a, fa = nxt, fn
            else:
                b, fb = nxt, fn
            x, fx, dfx = nxt, fn, dfn
        raise MaxIterations(
            f"no root to tolerance {policy.target_abs_error} within "
            f"{policy.max_iterations} evaluations (best residual {mp.nstr(fx, 6)})")


def gaussian_tail_upper_bound(y_trunc) -> mpf:
    """Certified upper bound on the tail integral of exp(-y^2) from ``y_trunc``.

    Uses min(sqrt(pi)/2, 1/(2 y)) * exp(-y^2); both factors are rigorous upper
    bounds, the second is within a factor (1 - 1/(2 y^2))^{-1} of the true
    tail for large y.
    """
    y = mpf(y_trunc)
    if not y > 0:
        raise ValueError("y_trunc must be positive")
    return mp.exp(-y * y) * min(mp.sqrt(mp.pi) / 2, 1 / (2 * y))


def pad_outward(lo: mpf, hi: mpf) -> tuple:
    """(lo, hi) moved outward by 10^(4 - dps) max(1, |x|) each, a few units
    of the working precision: a closed-form end whose bound is tight then
    stays on its side of the root after rounding."""
    pad = mpf(10) ** (4 - mp.dps)
    return lo - pad * max(1, abs(lo)), hi + pad * max(1, abs(hi))


# A walk's scale lies _SCALE_GUARD bits below its targets and its ratio table
# _RATIO_GUARD bits below the scale; the table is built _RATIO_CHUNK ratios
# at a time.  No walk runs on a scale finer than _MAX_SCALE_BITS, and the
# moments of a recorded walk ask for at most _MOMENT_BITS.
_SCALE_GUARD = 64
_RATIO_GUARD = 32
_RATIO_CHUNK = 64
_MAX_SCALE_BITS = 1 << 22
_MOMENT_BITS = 1 << 16
_MAX_POINTS = 10 ** 7
_LOG2E = 1 / math.log(2)


def _exact(man: int, exp: int) -> mpf:
    """man 2^exp as an mpf, unrounded."""
    return mp.make_mpf(from_man_exp(man, exp))


def _log2(x) -> int:
    """log2 |x| within one, from the binary exponent; 0 at x = 0."""
    _, _, exp, bc = x
    return exp + bc


def _fixed_exp(x: tuple, bits: int) -> int:
    """floor(e^(-x) 2^bits) for an exact raw mpf x >= -1, within 1 + 2^-20
    of e^(-x) 2^bits: e^(-x) is evaluated to the relative precision that
    one unit of 2^-bits asks for."""
    x = mp.make_mpf(x)
    if x > bits:
        return 0
    with mp.workprec(max(bits - int(float(x) * _LOG2E), 0) + 24):
        return int(mp.ldexp(mp.exp(-x), bits))


class FixedPointLattice:
    """The points y_j = y0 + m j (j >= 0) under the Gaussian weight
    e^(-b y^2), and the ratios e^(-b m (2 y_j + m)) of successive weights as
    integers in units of 2^-``shift``.

    The ratios are formed on first use, ``_RATIO_CHUNK`` at a time: the
    first of a chunk from one exponential, each next one the last times
    e^(-2 b m^2), so each is within 3 ``_RATIO_CHUNK`` units.  Walks on a
    scale ``_RATIO_GUARD`` bits coarser or more read them; a finer walk
    forms them anew.
    """

    def __init__(self, b: mpf, y0: mpf, m):
        self.b, self.y0, self.m = b, y0, m
        self._raw = b._mpf_, mpf(y0)._mpf_, mpf(m)._mpf_
        self.shift, self._chunks = 0, {}

    def x(self, alpha: mpf, j: int) -> tuple:
        """alpha + b y_j^2, unrounded, as a raw mpf."""
        b, y0, m = self._raw
        y = mpf_add(y0, mpf_mul(m, from_int(j)))
        return mpf_add(alpha._mpf_, mpf_mul(b, mpf_mul(y, y)))

    def rescale(self, bits: int) -> int:
        """The table's scale, made at least bits + _RATIO_GUARD."""
        if self.shift < bits + _RATIO_GUARD:
            b, _, m = self._raw
            self.shift = -(-(bits + _RATIO_GUARD) // 64) * 64
            self._chunks = {}
            self._shrink = _fixed_exp(mpf_shift(mpf_mul(b, mpf_mul(m, m)), 1), self.shift)
        return self.shift

    def _chunk(self, k: int) -> list:
        chunk = self._chunks.get(k)
        if chunk is None:
            b, y0, m = self._raw
            j = k * _RATIO_CHUNK
            # x_(j+1) - x_j = b m (2 y0 + (2 j + 1) m)
            step = mpf_mul(mpf_mul(b, m),
                           mpf_add(mpf_shift(y0, 1), mpf_mul(m, from_int(2 * j + 1))))
            shrink, shift = self._shrink, self.shift
            r = _fixed_exp(step, shift)
            chunk = self._chunks[k] = [r]
            for _ in range(_RATIO_CHUNK - 1):
                r = r * shrink >> shift
                chunk.append(r)
        return chunk

    def up(self, j: int):
        """The ratios j, j + 1, ... at the table's scale."""
        k, i = divmod(j, _RATIO_CHUNK)
        while True:
            yield from self._chunk(k)[i:]
            k, i = k + 1, 0

    def down(self, j: int):
        """The ratios j, j - 1, ..., 0, then 0."""
        for k in range(j // _RATIO_CHUNK, -1, -1):
            yield from reversed(self._chunk(k)[:j - k * _RATIO_CHUNK + 1])
            j = k * _RATIO_CHUNK - 1
        yield 0


class FixedPointSums(NamedTuple):
    """What one :func:`fixed_point_walk` summed, ``weight`` times each sum."""

    totals: tuple    # sum N, sum D, sum 4e N, sum 4e D
    bounds: tuple    # a bound on the rounding of each
    per_point: tuple  # bounds on the rounding of D and of D (1 + 2 eta N) at each point
    points: list     # (4 e, N, D) of each point up to the cut, if recorded
    bits: int
    terms: int       # the points up to the cut, a plateau included
    cut: object      # what ``cut`` returned

    def scaled(self, values) -> tuple:
        """Integers of this walk as unrounded mpf: units of 2^-bits, and of
        2^-(bits + 2) from the third on (the e-weighted sums)."""
        return tuple(_exact(v, -self.bits - 2 * (i > 1)) for i, v in enumerate(values))


def fixed_point_walk(lattice: FixedPointLattice, eta: int, alpha: mpf, eps: mpf,
                     u_cut: mpf, cut: Callable, weight: int = 1,
                     weighted: bool = False, record: bool = False) -> FixedPointSums:
    """Sums of N = 1/(e^x - eta) and D = -dN/dx = N (1 + eta N) at the
    points of ``lattice``, x_j = alpha + b y_j^2, and of e N and e D (e =
    y^2, 4e an integer) if ``weighted``, each times ``weight``, in integers
    on one scale 2^-P.

    From the first point with x >= 0, u = e^(-x) steps outward by the
    lattice's ratios, N = u/(1 - eta u).  Below it, in a Fermi sea, the
    holes v = e^x step inward the same way, N = 1/(1 + v); once v is below
    one unit, the rest of the sea counts as filled, a plateau.  The walk
    stops at the first j with u_j (4 e_j + 4) < 4 ``u_cut`` (e = 0 unless
    ``weighted``) where ``cut(j, u_j, u_(j+1))``, given upper bounds, is
    true.  With ``record`` it keeps (4e, N, D) of every point, for moment
    sums about a mean level.

    P, chosen from binary exponents, lies ``_SCALE_GUARD`` bits below the
    larger of 2^-growth ``eps`` (eps the target of the unweighted sums) and
    the working precision at the depth e^(-min |x_j|) of a Fermi edge, so a
    step is resolved however sharp.  Where that depth is 3/5 of P or more,
    the next u and v lie below one unit: each side walks one point.  A
    recorded boson walk also resolves D ~ e^(-x_1) of its second point at
    working precision, up to 2^-``_MOMENT_BITS``: about the mean level of
    a condensate, the first point's weight cancels from the moments, and
    the second's sets them.

    Rounding, in units of 2^-P: the first u and v are within 1 + 2^-20, and
    each step adds 1 for its floor and u 3 C 2^(P - shift) < 1 for its
    ratio, so the k-th point from the edge is within 2 (k + 1) <= 2 n of
    its value, n the levels up to the cut, plateau included.  N is then
    within eo = 2 kappa n + 1, D within ed = lambda eo + 1 and D (1 + 2 eta
    N) within 2 lambda ed; kappa = lambda = 1 for eta <= 0, and for bosons
    kappa = 2 g^2 and lambda = 2 g with g >= 1 + N_0 bound the slopes (1 +
    N)^2 of N(u) and 1 + 2 N of D(N).  The bounds are n eo, n ed, and each
    times the largest e.
    """
    b, y0, m = lattice.b, lattice.y0, lattice.m
    edge, x_edge = 0, lattice.x(alpha, 0)
    if eta < 0 and x_edge[0]:  # a Fermi sea: x_0 < 0
        y_edge = float(mp.sqrt(-alpha / b))
        if not y_edge < _MAX_POINTS * float(m):
            raise PrecisionExhausted("Fermi sea too deep for a level walk")
        edge = max(1, math.ceil((y_edge - float(y0)) / float(m)))
        while lattice.x(alpha, edge)[0]:
            edge += 1
        while edge > 1 and not lattice.x(alpha, edge - 1)[0]:
            edge -= 1
        x_edge, x_sea = lattice.x(alpha, edge), lattice.x(alpha, edge - 1)
    # the depth of the Fermi edge, min_j |x_j|
    depth = min(mp.make_mpf(x_edge), -mp.make_mpf(x_sea)) if edge else 0
    # the scale: room for n^2 kappa lambda e below the target, n and e
    # estimated up to x = ln(1/eps); or the working precision below e^(-depth)
    bits_eps = 1 - _log2(eps._mpf_)
    log_e = max(_log2(alpha._mpf_), bits_eps.bit_length()) + 1 - _log2(b._mpf_)
    log_n = max(log_e / 2 - _log2(lattice._raw[2]) + 1, 1) + 1
    log_g = max(0, 1 - _log2(x_edge)) + 1 if eta > 0 else 0
    growth = 2 + 2 * log_n + 3 * log_g + max(log_e, 0)
    depth_bits = int(min(float(depth), _MAX_SCALE_BITS) * _LOG2E)
    moment_bits = 0
    if record and eta > 0:
        moment_bits = int(min(float(mp.make_mpf(lattice.x(alpha, 1))) * _LOG2E, _MOMENT_BITS))
    bits = max(bits_eps + math.ceil(growth), mp.prec + max(depth_bits, moment_bits)) \
        + _SCALE_GUARD
    if bits > _MAX_SCALE_BITS:
        raise PrecisionExhausted("level walk needs a scale finer than 2^-%d" % _MAX_SCALE_BITS)
    deep = 5 * depth_bits >= 3 * bits
    one, eta = 1 << bits, int(eta)
    shift = bits if deep else lattice.rescale(bits)
    c0, dc = (int(2 * y0), int(2 * m)) if weighted else (0, 0)
    s_n = s_d = s_f = s_df = 0
    points = []
    append = points.append
    if edge:
        # the sea: holes h = v/(1 + v), N = 1 - h, stepped inward
        v, holes, holes_f = _fixed_exp(mpf_neg(x_sea), bits), 0, 0
        ratios = iter((0,)) if deep else lattice.down(edge - 2)
        for j, r in zip(range(edge - 1, -1, -1), ratios):
            h = (v << bits) // (one + v)
            d = h * (one - h) >> bits
            e = c0 + dc * j
            e *= e
            holes += h
            s_d += d
            holes_f += e * h
            s_df += e * d
            if record:
                append((e, one - h, d))
            v = v * r >> shift
            if not v:
                break
        if record:  # the plateau
            points.extend(((c0 + dc * i) ** 2, one, 0) for i in range(j))
        # levels 0 .. edge - 1 filled, sum of (c0 + dc i)^2 in closed form
        s_n = edge * one - holes
        s_f = one * (edge * c0 * c0 + c0 * dc * edge * (edge - 1)
                     + dc * dc * (edge - 1) * edge * (2 * edge - 1) // 6) - holes_f
    u = _fixed_exp(x_edge, bits)
    kappa = lam = 1
    if eta > 0:
        g = 2 + ((u << bits) // (one - u) >> bits)
        kappa, lam = 2 * g * g, 2 * g
    u_cut = int(mp.ldexp(u_cut, bits + 2))
    u_near = u_cut >> 2  # u (e + 4) < u_cut needs u < u_cut/4
    ratios = iter(int, 1) if deep else lattice.up(edge)
    for j, r in zip(range(edge, _MAX_POINTS), ratios):
        q = (u << bits) // (one - eta * u)
        d = q * (one + eta * q) >> bits
        e = c0 + dc * j
        e *= e
        s_n += q
        s_d += d
        s_f += e * q
        s_df += e * d
        if record:
            append((e, q, d))
        u_next = u * r >> shift
        if u < u_near and u * (e + 4) < u_cut:
            k = 2 * (j - edge + 1)
            found = cut(j, _exact(u + k, -bits), _exact(u_next + k + 2, -bits))
            if found:
                break
        u = u_next
    else:
        raise PrecisionExhausted("level sum did not truncate below the target")
    n = j + 1
    eo = 2 * kappa * n + 1
    ed = lam * eo + 1
    w = weight
    return FixedPointSums((w * s_n, w * s_d, w * s_f, w * s_df),
                          (w * n * eo, w * n * ed, w * n * eo * e, w * n * ed * e),
                          (ed, 2 * lam * ed), points, bits, n, found)


def quad_semi_infinite(integrand: Callable, points,
                       policy: PrecisionPolicy = DEFAULT_POLICY):
    """Integrate over the caller's breakpoints ``points`` to ``target_abs_error``.

    The first point is the lower limit and the last is ``inf`` or a cut.  A
    cut is the caller's claim, proven from a bound on the integrand, that
    the integral beyond it is below target/4 in magnitude; that bound is
    added to the quadrature's error estimate.  Raises :class:`NonConvergent`
    when the estimate stays above the target after one retry at higher
    degree.  A complex-valued integrand has its real and imaginary parts
    integrated on the same nodes.
    """
    with mp.workdps(policy.dps):
        target = mpf(policy.target_abs_error)
        f = lambda y: mp.mpmathify(integrand(y))
        points = [mpf(p) for p in points]
        tail = 0 if points[-1] == mp.inf else target / 4
        for maxdegree in (None, 10):  # one retry at higher degree before giving up
            val, err = mp.quad(f, points, error=True, maxdegree=maxdegree)
            err += tail
            if err <= target or err <= abs(val) * mpf(policy.target_rel_error):
                return val
        raise NonConvergent(
            f"quadrature error estimate {mp.nstr(err, 4)} above target "
            f"{policy.target_abs_error}")
