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
* :func:`quad_semi_infinite` - adaptive quadrature over breakpoints that
  end at ``inf`` or at a cut whose tail the caller has bounded.  No code in
  the package calls it; it is kept because perfbench's tracer wraps the
  names :mod:`.boson_medium` and :mod:`.fermion_medium` import.

The other routines are pure and run at the precision requested by the
supplied :class:`PrecisionPolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from mpmath import mp, mpf

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
