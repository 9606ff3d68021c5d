import pytest
from mpmath import mp, mpf

from partition_well.boson_medium import spectral_sum
from partition_well.model import W_MINUS
from partition_well.numerics import (
    GUARD_DIGITS,
    MaxIterations,
    NoSignChange,
    NonConvergent,
    PrecisionExhausted,
    PrecisionPolicy,
    find_root_bracketed,
    gaussian_tail_upper_bound,
    golden_section_minimum,
    quad_semi_infinite,
)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(working_digits=10)
        with pytest.raises(ValueError):
            PrecisionPolicy(working_digits=50, max_digits=40)

    def test_escalation_strictly_increases(self):
        p = PrecisionPolicy(working_digits=30, max_digits=70)
        q = p.escalate()
        assert q.working_digits == 60
        r = q.escalate()
        assert r.working_digits == 70
        with pytest.raises(PrecisionExhausted):
            r.escalate()
        assert r.dps == 70 + GUARD_DIGITS


class TestGoldenSection:
    def test_parabola_minimum_within_width(self):
        calls = []

        def f(x):
            calls.append(x)
            return (x - mpf("0.3")) ** 2

        x = golden_section_minimum(f, -1, 2, mpf("1e-8"))
        assert abs(x - mpf("0.3")) < mpf("1e-8")
        # one new evaluation per step, each shrinking the bracket by 1/phi:
        # 3 phi^-41 < 1e-8 < 3 phi^-40
        assert len(calls) == 2 + 41


class TestRootFinder:
    def test_linear(self):
        res = find_root_bracketed(lambda x: x - 2, 0, 5)
        assert abs(res.root - 2) < 1e-12

    def test_atanh_half(self):
        res = find_root_bracketed(lambda x: mp.tanh(x) - mpf(1) / 2, 0, 2)
        assert abs(res.root - mp.atanh(mpf(1) / 2)) < 1e-12
        assert abs(res.root - mpf("0.549306144334054845697622618462")) < 1e-12

    def test_spectral_sum_anchor(self):
        res = find_root_bracketed(
            lambda x: spectral_sum(W_MINUS, x) - mp.pi ** 2 / 2, mpf("-0.99"), mpf(0))
        assert abs(res.root - mpf("-0.7627")) < 1e-3

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root_bracketed(lambda x: x * x + 1, -1, 1)

    def test_max_iterations_reported(self):
        policy = PrecisionPolicy(max_iterations=4)
        with pytest.raises(MaxIterations):
            find_root_bracketed(lambda x: mp.tanh(x) - mpf(1) / 2, 0, 2, policy)

    def test_collapsed_bracket_above_target_raises(self):
        # a sign change with no root: the bracket shrinks to adjacent floats
        # around the jump while |g| stays at 1
        with pytest.raises(MaxIterations, match="bracket collapsed"):
            find_root_bracketed(lambda x: 1 if x > mpf(1) / 3 else -1, 0, 1)

    def test_deterministic_bit_identical(self):
        f = lambda x: mp.cos(x) - x
        a = find_root_bracketed(f, 0, 1)
        b = find_root_bracketed(f, 0, 1)
        assert mp.nstr(a.root, 30) == mp.nstr(b.root, 30)
        assert a.evaluations == b.evaluations


# (func returning (g, g'), lo, hi, root)
BRACKET_CASES = [
    (lambda x: (mp.cos(x) - x, -mp.sin(x) - 1), 0, 1,
     lambda: mpf("0.739085133215160641655312087673873404")),
    # convex and decreasing: Newton approaches from one side only, so the
    # straddle probe has to confirm the bracket
    (lambda x: (1000 * mp.e ** (-x) - 1, -1000 * mp.e ** (-x)), 0, 100,
     lambda: mp.log(1000)),
    (lambda x: (x ** 3 - 2, 3 * x ** 2), 0, 100, lambda: mp.cbrt(2)),
]


def assert_bracket_width_stop(res, root, max_evaluations):
    assert abs(res.residual) <= 1e-12
    assert 0 < res.bracket_width <= max(mpf(1e-12), abs(res.root) * mpf(1e-12))
    # the returned Newton point is the middle of the confirmed bracket
    assert abs(res.root - root) <= res.bracket_width / 2
    assert res.evaluations <= max_evaluations


class TestRootFinderNewton:
    """``derivative=True``: func returns (g, g') and Newton steps are taken."""

    @staticmethod
    def cos_fixed_point(x):
        return mp.cos(x) - x, -mp.sin(x) - 1

    def test_deterministic_bit_identical(self):
        a = find_root_bracketed(self.cos_fixed_point, 0, 1, derivative=True)
        b = find_root_bracketed(self.cos_fixed_point, 0, 1, derivative=True)
        assert mp.nstr(a.root, 30) == mp.nstr(b.root, 30)
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("func,lo,hi,root", BRACKET_CASES)
    def test_bracket_width_stop(self, func, lo, hi, root):
        policy = PrecisionPolicy(target_abs_error=1e-12, target_rel_error=1e-12)
        res = find_root_bracketed(func, lo, hi, policy, derivative=True)
        assert_bracket_width_stop(res, root(), 19)

    @pytest.mark.parametrize("func,lo,hi,root", BRACKET_CASES)
    def test_bracket_width_stop_secant(self, func, lo, hi, root):
        # the same loop on g alone, its slope the secant of the last two
        # iterates; the cube's chord over [0, 100] lies far off the root,
        # and that case takes 20 evaluations
        policy = PrecisionPolicy(target_abs_error=1e-12, target_rel_error=1e-12)
        res = find_root_bracketed(lambda x: func(x)[0], lo, hi, policy)
        assert_bracket_width_stop(res, root(), 20)

    def test_sigmoid_flank_bisects(self):
        # the root of (1 + tanh x)/2 - 1e-30 lies far out on the flank, where
        # g ~ e^(2x): each Newton step there moves half a unit and shrinks |g|
        # by e, never failing to halve it.  A step not smaller than half the
        # step before last bisects instead; without that test this took 30
        # evaluations
        eps = mpf("1e-30")

        def g(x):
            return (1 + mp.tanh(x)) / 2 - eps, 1 / (2 * mp.cosh(x) ** 2)

        res = find_root_bracketed(g, -100, 1, derivative=True)
        with mp.workdps(40):
            root = -mp.log(1 / eps - 1) / 2
        assert abs(res.root - root) <= res.bracket_width
        assert res.evaluations <= 20

    def test_zero_derivative_falls_back_to_bisection(self):
        res = find_root_bracketed(lambda x: (x - 2, 0), 0, 5, derivative=True)
        assert abs(res.root - 2) <= res.bracket_width <= mpf(1e-12) * 2
        assert res.evaluations > 40  # one halving per evaluation

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root_bracketed(lambda x: (x * x + 1, 2 * x), -1, 1, derivative=True)

    def test_max_iterations_under_tiny_budget(self):
        policy = PrecisionPolicy(max_iterations=4)
        with pytest.raises(MaxIterations):
            find_root_bracketed(self.cos_fixed_point, 0, 1, policy, derivative=True)
        # the end points count: a budget of two allows no step at all
        with pytest.raises(MaxIterations):
            find_root_bracketed(self.cos_fixed_point, 0, 1,
                                PrecisionPolicy(max_iterations=2), derivative=True)


class TestGaussianTail:
    def test_upper_bound_and_tightness(self):
        true_tail = mp.sqrt(mp.pi) / 2 * mp.erfc(mpf(10))
        bound = gaussian_tail_upper_bound(10)
        assert true_tail <= bound <= 2 * true_tail

    def test_monotone_and_vanishing(self):
        assert gaussian_tail_upper_bound(5) > gaussian_tail_upper_bound(6)
        assert gaussian_tail_upper_bound(40) < mpf("1e-600")
        with pytest.raises(ValueError):
            gaussian_tail_upper_bound(0)

    def test_small_argument_still_bounds(self):
        y = mpf("0.3")
        true_tail = mp.sqrt(mp.pi) / 2 * mp.erfc(y)
        assert gaussian_tail_upper_bound(y) >= true_tail


class TestQuadSemiInfinite:
    # e^(-y^2) and 1/(e^(y^2) + 1) have tails below gaussian_tail_upper_bound(12)
    # < 1e-64 beyond this cut, far below target/4
    GAUSSIAN_POINTS = [0, 1, 2, 4, 8, 12]

    def test_gaussian(self):
        val = quad_semi_infinite(lambda y: mp.e ** (-y * y), self.GAUSSIAN_POINTS)
        assert abs(val - mp.sqrt(mp.pi) / 2) < 1e-12

    def test_fermi_integrand_at_zero(self):
        val = quad_semi_infinite(lambda y: 1 / (mp.e ** (y * y) + 1), self.GAUSSIAN_POINTS)
        # alternating-series oracle: sum_k (-1)^{k+1} sqrt(pi/(4k)), summed
        # to a midpoint of consecutive partial sums
        import math
        k_max = 40000
        s = 0.0
        for k in range(1, k_max + 1):
            s += (-1) ** (k + 1) * math.sqrt(math.pi / (4 * k))
        s_mid = s + (-1) ** (k_max) * math.sqrt(math.pi / (4 * (k_max + 1))) / 2
        assert abs(val - mpf(s_mid)) < 1e-6

    def test_power_law_tail(self):
        # integrand ~ 1/y^2 at infinity still integrates correctly
        val = quad_semi_infinite(lambda y: 1 / (1 + y * y), [0, 1, 2, 4, 8, 16, 64, mp.inf])
        assert abs(val - mp.pi / 2) < 1e-12

    @pytest.mark.parametrize("a, k", [(20, 40), (150, 300)])
    def test_step_at_marked_edge(self, a, k):
        # integral_0^inf dy / (exp(k (y - a)) + 1) = a + log(1 + e^(-k a))/k;
        # breakpoints at the step, 2^j/k around it and a + 1, and a cut at
        # a + 2, beyond which the integrand is below e^(-k (y - a)): its
        # tail is below e^(-2 k)/k
        steps = [mpf(2) ** j / k for j in range(6)]
        points = sorted([0] + [a + s for s in steps] + [a - s for s in steps]
                        + [a, a + 1, a + 2])
        val = quad_semi_infinite(lambda y: 1 / (mp.exp(k * (y - a)) + 1), points)
        assert abs(val - (a + mp.log1p(mp.exp(-k * a)) / k)) < 1e-20

    def test_non_convergent_reported(self):
        # the square-root kink at y = 1/3 lies inside an interval, and a
        # target near the working precision is out of reach
        policy = PrecisionPolicy(target_abs_error=1e-25, target_rel_error=1e-25)
        with pytest.raises(NonConvergent):
            quad_semi_infinite(lambda y: mp.sqrt(abs(y - mpf(1) / 3)) * mp.exp(-y),
                               [0, 1, mp.inf], policy)
