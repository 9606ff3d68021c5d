import pytest
from hypothesis import example, given, settings, strategies as st
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
    FixedPointLattice,
    find_root_bracketed,
    fixed_point_walk,
    gaussian_tail_upper_bound,
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


def _walk_in_mpf(lattice, eta, alpha, terms, weight, prec):
    """The four sums of :func:`fixed_point_walk` over its first ``terms``
    points, in mpf at ``prec`` bits: u = e^(-x) stepped by ratios formed at
    that precision, N = u/(1 - eta u), D = N (1 + eta N), e = y^2; and per
    point, keyed by 4e, D and D (1 + 2 eta N)."""
    with mp.workprec(prec):
        b, y0, m = mpf(lattice.b), mpf(lattice.y0), mpf(lattice.m)
        u = mp.exp(-(alpha + b * y0 ** 2))
        ratio, shrink = mp.exp(-b * m * (2 * y0 + m)), mp.exp(-2 * b * m * m)
        sums, points = [mpf(0)] * 4, {}
        for j in range(terms):
            e = (y0 + m * j) ** 2
            occ = u / (1 - eta * u)
            docc = occ * (1 + eta * occ)
            for k, v in enumerate((occ, docc, e * occ, e * docc)):
                sums[k] += weight * v
            points[int(4 * e)] = docc, docc * (1 + 2 * eta * occ)
            u, ratio = u * ratio, ratio * shrink
        return sums, points


class TestFixedPointWalk:
    """The kernel's four sums lie within its counted rounding of the same
    points summed in mpf at three times its scale's bits, and that rounding
    is positive: a kernel that left it out fails here."""

    @staticmethod
    def _check(b, y0, m, eta, alpha, eps):
        with mp.workdps(40):
            b, y0, alpha, eps = mpf(b), mpf(y0), mpf(alpha), mpf(eps)
            lattice = FixedPointLattice(b, y0, m)
            walk = fixed_point_walk(lattice, eta, alpha, eps / m, eps / 4 / m,
                                    lambda j, u, u_next: True, m, True, True)
            exact, points = _walk_in_mpf(lattice, eta, alpha, walk.terms, m, 3 * walk.bits)
            with mp.workprec(3 * walk.bits):
                for value, rounding, ref in zip(walk.scaled(walk.totals),
                                                walk.scaled(walk.bounds), exact):
                    assert rounding > 0
                    assert abs(value - ref) <= rounding
                # every point, the plateau included, is recorded within the
                # per-point bounds that the moment sums charge
                assert sorted(e4 for e4, _, _ in walk.points) == sorted(points)
                d_err, d2_err = walk.scaled(walk.per_point)
                one = 1 << walk.bits
                for e4, occ, docc in walk.points:
                    d = mp.ldexp(docc, -walk.bits)
                    d2 = mp.ldexp(docc * (one + 2 * eta * occ), -2 * walk.bits)
                    assert abs(d - points[e4][0]) <= d_err
                    assert abs(d2 - points[e4][1]) <= d2_err
            return walk

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(1, 30), side=st.sampled_from([0, 1]), shift=st.floats(-0.5, 0.5))
    # the seed-1 sharp-step cells: x = -+1242 at the edge of N = 12
    @example(N=12, side=0, shift=0.5)
    @example(N=12, side=1, shift=0.5)
    def test_deep_fermi_sea(self, N, side, shift):
        # t = 0.01: alpha near -b N^2, a sharp step; the sea's holes are
        # walked from the edge and its depth is counted as a plateau
        self._check(100, mpf(1) / 2 if side else 1, 1, -1, -100 * (N + shift) ** 2, "1e-20")

    @settings(max_examples=25, deadline=None)
    @given(log10_b=st.floats(-3, 0), alpha=st.floats(-5, 0), side=st.sampled_from([0, 1]))
    def test_soft_fermi_step(self, log10_b, alpha, side):
        self._check(mpf(10) ** log10_b, mpf(1) / 2 if side else 1, 1, -1, alpha, "1e-16")

    @settings(max_examples=25, deadline=None)
    @given(log10_b=st.floats(-3, 1), side=st.sampled_from([0, 1]))
    @example(log10_b=1.0, side=0)
    def test_bosons_near_the_pole(self, log10_b, side):
        # alpha + b e_1 = 1e-3: N_1 near 1000 amplifies the rounding of u
        b = mpf(10) ** log10_b
        y0 = mpf(1) / 2 if side else mpf(1)
        walk = self._check(b, y0, 1, 1, mpf("1e-3") - b * y0 ** 2, "1e-16")
        assert walk.points[0][1] >> walk.bits >= 900

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 60), log10_b=st.floats(-6, -3),
           alpha=st.floats(0.01, 12), eta=st.sampled_from([-1, 1]))
    def test_strides(self, m, log10_b, alpha, eta):
        self._check(mpf(10) ** log10_b, m, m, eta, alpha, "1e-18")

    @pytest.mark.parametrize("t", ["1e120", "1e308"])
    @pytest.mark.parametrize("eta", [-1, 1])
    def test_huge_temperatures(self, t, eta):
        # the classical root of N = 5 and a stride near a/500: the scale
        # follows eps/m far below 2^-(working bits)
        with mp.workdps(40):
            b = 1 / mpf(t)
            alpha = mp.log(mp.sqrt(mp.pi / b) / 2 / 5)
            m = int(mp.sqrt(alpha / b) / 500)
            eps = mpf("1e-16") * b
        walk = self._check(b, m, m, eta, alpha, eps)
        assert walk.bits > -float(mp.log(eps, 2)) and walk.terms < 10 ** 4
