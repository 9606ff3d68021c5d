import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpc, mpf

from partition_well import fermion_medium
from partition_well.fermion_medium import (
    STONER_INTERVAL,
    VariantDomainError,
    alpha_from_temperature,
    alpha_split_subleading,
    fermi_integral,
    fermi_integral_ends,
    fermion_medium_net_force,
    force_kernel,
    force_kernel_minimum,
    tanh_surrogate_quadratic,
)
from partition_well.model import FERMION, W_MINUS, W_PLUS
from partition_well.numerics import DEFAULT_POLICY, GUARD_DIGITS, NoSignChange, \
    PrecisionPolicy
from partition_well.oracle import net_force, solve_alpha


def _occupancy(alpha, y):
    return 1 / (mp.exp(alpha + y * y) + 1)


def _polylog_pair(alpha):
    """(I, I') from DLMF 25.12(iii): I = -(sqrt(pi)/2) Li_{1/2}(-e^-alpha) and
    I' = (sqrt(pi)/2) Li_{-1/2}(-e^-alpha); for alpha < 0 polylog returns an
    mpc whose imaginary part is rounding noise."""
    z = -mp.exp(-alpha)
    return (-mp.sqrt(mp.pi) / 2 * mp.re(mp.polylog(mpf(1) / 2, z)),
            mp.sqrt(mp.pi) / 2 * mp.re(mp.polylog(-mpf(1) / 2, z)))


class TestFermiIntegral:
    def test_value_at_zero_against_alternating_series(self):
        import math
        val = fermi_integral(0, "quadrature")
        k_max = 40000
        s = math.fsum((-1) ** (k + 1) * math.sqrt(math.pi / (4 * k))
                      for k in range(1, k_max + 1))
        s += (-1) ** k_max * math.sqrt(math.pi / (4 * (k_max + 1))) / 2
        assert abs(val.I - mpf(s)) < mpf("1e-6")

    def test_stoner_value(self):
        v = fermi_integral(mpf("-2.5"), "stoner")
        expected = mp.sqrt(mpf("2.5")) * (1 - mp.pi ** 2 / 24 / mpf("6.25"))
        assert abs(v.I - expected) < mpf("1e-25")
        assert abs(v.I - mpf("1.4771")) < mpf("1e-3")
        assert v.I_prime < 0

    def test_tanh_surrogate_close_to_quadrature(self):
        exact = fermi_integral(mpf("-2.5"), "quadrature").I
        surrogate = fermi_integral(mpf("-2.5"), "tanh_surrogate").I
        assert abs(surrogate - exact) / exact < mpf("0.03")

    def test_variant_domains(self):
        with pytest.raises(VariantDomainError):
            fermi_integral(-5, "stoner")
        with pytest.raises(VariantDomainError):
            fermi_integral(0.5, "tanh_surrogate")
        with pytest.raises(ValueError):
            fermi_integral(0, "nonsense")

    def test_monotone_decreasing(self):
        alphas = [mpf(-6) + mpf("8") * i / 49 for i in range(50)]
        vals = [fermi_integral(a, "quadrature").I for a in alphas]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    # the compare range of alpha, Fermi edges y = sqrt(-alpha) up to 200, and
    # I ~ e^-alpha far below the absolute target
    @pytest.mark.parametrize("alpha", ["1.4", "0.3", "-1.2", "-2.5", "-4.3", "-324",
                                       "-900", "-40000", "100", "300"])
    def test_matches_polylog_closed_forms(self, alpha):
        alpha = mpf(alpha)
        v = fermi_integral(alpha, "quadrature")
        with mp.workdps(40):
            I, Ip = _polylog_pair(alpha)
        assert abs(v.I / I - 1) < mpf("1e-20")
        assert abs(v.I_prime / Ip - 1) < mpf("1e-20")

    @pytest.mark.parametrize("alpha", [-3, -2, -1, 0])
    def test_derivative_matches_finite_differences(self, alpha):
        h = mpf("1e-6")
        ip = fermi_integral(alpha, "quadrature").I_prime
        num = (fermi_integral(alpha + h, "quadrature").I
               - fermi_integral(alpha - h, "quadrature").I) / (2 * h)
        assert abs(ip - num) < mpf("1e-6")


class TestAlphaFromTemperature:
    def test_minimum_point_value(self):
        alpha = alpha_from_temperature(100, mpf("0.444") * 10 ** 4, "quadrature")
        assert abs(alpha - mpf("-2.567")) / mpf("2.567") < mpf("0.02")

    def test_depends_only_on_scaled_combination(self):
        a1 = alpha_from_temperature(100, 5000, "quadrature")
        a2 = alpha_from_temperature(300, 45000, "quadrature")
        assert abs(a1 - a2) < mpf("1e-10")

    def test_compares_with_oracle(self):
        t = mpf(5000)
        approx = alpha_from_temperature(100, t, "quadrature")
        plus = solve_alpha(FERMION, W_PLUS, 100, t).alpha
        minus = solve_alpha(FERMION, W_MINUS, 100, t).alpha
        avg = (plus + minus) / 2
        assert abs(approx - avg) / abs(avg) < mpf("0.05")

    @pytest.mark.parametrize("t", [25, 100, 2500])
    def test_newton_work_at_compare_points(self, t, monkeypatch, root_evaluations):
        pairs = []
        pair = fermion_medium._trapezoid_pair

        def counting_pair(*args, **kwargs):
            pairs.append(1)
            return pair(*args, **kwargs)

        evals = root_evaluations(fermion_medium)
        monkeypatch.setattr(fermion_medium, "_trapezoid_pair", counting_pair)
        alpha_from_temperature(10, t, "quadrature")
        # one trapezoid sum gives I and I' together
        assert evals == [7]
        assert len(pairs) == evals[0]

    @pytest.mark.parametrize("variant,t,evaluations", [
        ("tanh_surrogate", 25, 9), ("tanh_surrogate", 50, 8),
        ("tanh_surrogate", 100, 8), ("stoner", 36, 9), ("stoner", 100, 9),
    ])
    def test_secant_work(self, variant, t, evaluations, root_evaluations):
        # the derivative-free variants step on the secant slope
        evals = root_evaluations(fermion_medium)
        alpha_from_temperature(10, t, variant)
        assert evals == [evaluations]

    def test_unreachable_values_rejected(self):
        with pytest.raises(VariantDomainError):
            alpha_from_temperature(100, mpf("1e-2"), "stoner")
        with pytest.raises(VariantDomainError):
            # N/sqrt(t) below the surrogate's reachable branch
            alpha_from_temperature(1, mpf("1e8"), "tanh_surrogate")


class TestClosedFormEnds:
    @settings(max_examples=15, deadline=None)
    @given(log10_target=st.floats(-3, 2))
    # the targets at which a candidate end starts or stops applying
    @example(log10_target=float(mp.log10(mp.sqrt(mp.pi) / 2)))
    @example(log10_target=float(mp.log10(mp.sqrt(2))))
    # where the x F(x) bound takes over the lower end from max F
    @example(log10_target=float(mp.log10(mpf("0.6424") / mpf("0.5411") - mpf("0.5411"))))
    def test_ends_straddle_the_root(self, log10_target):
        with mp.workdps(DEFAULT_POLICY.working_digits + GUARD_DIGITS):
            target = mpf(10) ** log10_target
            lo, hi = fermi_integral_ends(target)
        assert lo < hi
        assert fermi_integral(lo, "quadrature").I > target > fermi_integral(hi, "quadrature").I

    def test_dawson_bounds(self):
        # F(x) = (sqrt(pi)/2) e^(-x^2) erfi(x); x F(x) peaks at 0.642375 near
        # x = 1.502 and tends to 1/2 from above, F peaks at 0.54104 near 0.924
        with mp.workdps(40):
            for k in range(1, 5001):
                x = mpf(k) / 500
                F = mp.sqrt(mp.pi) / 2 * mp.exp(-x * x) * mp.erfi(x)
                assert x * F < fermion_medium._DAWSON_X_MAX
                assert F < fermion_medium._DAWSON_MAX

    def test_surrogate_lower_end(self):
        # p = (1 + E^2)/(1 + E), E = e^alpha, is least at E = sqrt(2) - 1,
        # where it is 2 sqrt(2) - 2 > 4/5; so I > (4/5) sqrt(-alpha) on
        # alpha <= -0.7 and the surrogate exceeds the target at the lower
        # end -(5 target/4)^2
        with mp.workdps(DEFAULT_POLICY.dps):
            assert 2 * mp.sqrt(2) - 2 > mpf(4) / 5
            for k in range(401):
                alpha = -mpf("0.7") - mpf(k) / 20
                assert fermion_medium._surrogate_pieces(alpha)[0] > mpf(4) / 5
            for k in range(41):
                target = mpf(10) ** (mpf(k) / 10)
                assert fermi_integral(-(5 * target / 4) ** 2, "tanh_surrogate").I > target


PAIR_ALPHAS = pytest.mark.parametrize(
    "alpha", ["30", "0", "-2.5", "-16", "-16.5", "-324", "-900"])
PAIR_TARGETS = pytest.mark.parametrize("target", [1e-12, 1e-100])


def _sum_target(alpha, target):
    return fermion_medium._pair_target(alpha, PrecisionPolicy(target_abs_error=target))


class TestPairCut:
    """The Fermi pair's trapezoid sum: strip bound, step, plateau and cut."""

    @PAIR_ALPHAS
    def test_strip_bound_on_every_line(self, alpha):
        with mp.workdps(20):
            alpha = mpf(alpha)
            a, M, M_prime = fermion_medium._fermi_strip(alpha)
            X = mpf("0.45") * mp.pi / a  # 2 a X = 0.9 pi
            for c in (a, a / 2, -a):
                s = lambda x: _occupancy(alpha, mpc(x, c))
                # the peak of |s| lies near Re w = 0, a width 1/(2 x_e) wide
                x_e = mp.sqrt(max(c * c - alpha, 1))
                points = sorted({mpf(0), X + 1, X + 4} | {
                    x_e + k * 2 ** n / (2 * x_e) for k in (-1, 0, 1) for n in range(5)
                    if x_e + k * 2 ** n / (2 * x_e) > 0})
                points.append(mp.inf)
                # |s| is even in x
                assert 2 * mp.quad(lambda x: abs(s(x)), points) <= M
                assert 2 * mp.quad(lambda x: abs(s(x) * (1 - s(x))), points) <= M_prime

    # the ids keep the suffixes 12 and 18 of an earlier parametrization, so
    # that test lists recorded before still name these cells
    @pytest.mark.parametrize("target", [1e-12, 1e-100], ids=["1e-12-12", "1e-100-18"])
    @PAIR_ALPHAS
    def test_envelope_and_cut_tail(self, alpha, target, monkeypatch):
        cuts = []
        tail = fermion_medium.gaussian_tail_upper_bound
        monkeypatch.setattr(fermion_medium, "gaussian_tail_upper_bound",
                            lambda y: cuts.append(y) or tail(y))
        with mp.workdps(DEFAULT_POLICY.dps):
            alpha = mpf(alpha)
            eps = _sum_target(alpha, target)
            fermi_integral(alpha, policy=PrecisionPolicy(target_abs_error=target))
            y = cuts[-1]
            # s (1 - s) <= s decreases, so the points after y sum to at most
            # the integral of s from y
            assert mp.quad(lambda v: _occupancy(alpha, v), [y, y + 1, mp.inf]) <= eps / 4

    @PAIR_TARGETS
    @PAIR_ALPHAS
    def test_plateau_holes_within_bound(self, alpha, target, monkeypatch):
        # the levels below the last hole the walk stepped count as filled;
        # their holes lie within the walk's rounding of the sum
        walks = []
        walk = fermion_medium.fixed_point_walk
        monkeypatch.setattr(fermion_medium, "fixed_point_walk",
                            lambda *args: walks.append(walk(*args, record=True)) or walks[-1])
        with mp.workdps(DEFAULT_POLICY.dps):
            alpha = mpf(alpha)
            fermi_integral(alpha, policy=PrecisionPolicy(target_abs_error=target))
            h = fermion_medium._fermi_lattice(alpha, _sum_target(alpha, target))
            # the recorded points read as filled on the walk's scale
            one = 1 << walks[-1].bits
            plateau = sum(occ == one for _, occ, _ in walks[-1].points)
            # the Fermi sea is deep enough for a plateau only at the two
            # largest edges
            assert (plateau > 0) == (alpha < -300)
            holes = [1 / (mp.exp(-alpha - (j * h) ** 2) + 1) for j in range(1, plateau + 1)]
            assert mp.fsum(holes) <= walks[-1].scaled(walks[-1].bounds)[0]


    @PAIR_TARGETS
    @PAIR_ALPHAS
    def test_coarser_steps_within_aliasing_formula(self, alpha, target):
        with mp.workdps(DEFAULT_POLICY.dps):
            alpha = mpf(alpha)
            eps = _sum_target(alpha, target)
            a, M, M_prime = fermion_medium._fermi_strip(alpha)
            h = fermion_medium._fermi_lattice(alpha, eps)
            assert M_prime / mp.expm1(2 * mp.pi * a / h) <= eps / 4 * (1 + mpf(10) ** -20)
        with mp.workdps(60):
            I, I_prime = _polylog_pair(alpha)
            for step in (2 * h, 3 * h):
                s = [_occupancy(alpha, j * step) for j in
                     range(int(mp.sqrt(max(160 - alpha, 0)) / step) + 2)]
                d = [v * (1 - v) for v in s]
                aliasing = 1 / mp.expm1(2 * mp.pi * a / step)
                assert abs(step * (mp.fsum(s) - s[0] / 2) - I) <= M * aliasing
                assert abs(-step * (mp.fsum(d) - d[0] / 2) - I_prime) <= M_prime * aliasing


class TestForceKernel:
    def test_quadrature_minimum(self):
        a_min, j_min = force_kernel_minimum("quadrature")
        assert abs(a_min - mpf("-2.567")) < mpf("0.01")
        assert abs(j_min - mpf("1.813")) < mpf("0.01")

    def test_stoner_minimum(self):
        a_min, j_min = force_kernel_minimum("stoner")
        assert abs(a_min - mpf("-1.95")) < mpf("0.02")
        assert abs(j_min - mpf("1.96")) < mpf("0.02")

    # the root of the centred-difference J' lies within about 1e-20 of the
    # true minimum; a search that stops at a 1e-6 wide bracket misses 1e-10
    MIN_BAND = mpf("1e-10")

    def test_quadrature_minimum_location(self):
        # root of d log J/dalpha = -e^alpha/(e^alpha + 1) - I'/I - I''/I' at
        # 45 digits, with I, I', I'' = -(sqrt(pi)/2) Li_{1/2},
        # (sqrt(pi)/2) Li_{-1/2} and -(sqrt(pi)/2) Li_{-3/2} of -e^(-alpha);
        # pinned, since each polylog evaluation takes about 1 s
        a_min, _ = force_kernel_minimum("quadrature")
        assert abs(a_min - mpf("-2.567271565695175025")) < self.MIN_BAND

    def test_stoner_minimum_location(self):
        # d log J/dalpha = -e^alpha/(e^alpha + 1) - (2c/alpha^3)/(1 - c/alpha^2),
        # c = pi^2/24, for I = sqrt(-alpha) (1 - c/alpha^2), I' = -1/(2 sqrt(-alpha))
        with mp.workdps(50):
            c = mp.pi ** 2 / 24
            ref = mp.findroot(lambda a: -mp.exp(a) / (mp.exp(a) + 1)
                              - (2 * c / a ** 3) / (1 - c / a ** 2), mpf("-1.95"))
        assert abs(ref - mpf("-1.948149919360992247")) < mpf("1e-18")
        a_min, _ = force_kernel_minimum("stoner")
        assert abs(a_min - ref) < self.MIN_BAND

    def test_tanh_surrogate_minimum_location(self):
        # root of mp.diff of the surrogate's closed-form J at 60 digits
        a_min, _ = force_kernel_minimum("tanh_surrogate")
        assert abs(a_min - mpf("-2.4808844510613957716")) < self.MIN_BAND

    def test_bracket_without_the_minimum_raises(self):
        with pytest.raises(NoSignChange):
            force_kernel_minimum("quadrature", bracket=(-2, -1))

    def test_positive_with_single_interior_minimum(self):
        alphas = [mpf(-5) + mpf(4) * i / 24 for i in range(25)]
        vals = [force_kernel(a, "quadrature") for a in alphas]
        assert all(v > 0 for v in vals)
        rises = [y > x for x, y in zip(vals, vals[1:])]
        flips = sum(1 for r1, r2 in zip(rises, rises[1:]) if r1 != r2)
        assert flips == 1
        assert not rises[0] and rises[-1]

    def test_pure_series_pairing_has_no_minimum(self):
        # with both the integral and its derivative taken from the same
        # truncation, the kernel decreases monotonically across the whole
        # validity window: no interior minimum exists
        lo, hi = STONER_INTERVAL
        alphas = [lo + (hi - lo) * i / 19 for i in range(20)]
        vals = [force_kernel(a, "stoner", pure_series_derivative=True)
                for a in alphas]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_boundary_term_always_below_one(self):
        # the dropped constraint boundary term (tau - 1/2)/(e^alpha + 1)
        for tau in (mpf("0.5"), mpf(0)):
            for alpha in (mpf(-30), mpf(-1), mpf(0), mpf(5)):
                assert abs((tau - mpf("0.5")) / (mp.e ** alpha + 1)) < 1


class TestTanhSurrogateQuadratic:
    def test_printed_coefficients(self):
        a, center, minimum = tanh_surrogate_quadratic()
        assert abs(a - mpf("0.134")) / mpf("0.134") < mpf("0.05")
        assert abs(center - mpf("-2.48")) / mpf("2.48") < mpf("0.05")
        assert abs(minimum - mpf("1.64")) / mpf("1.64") < mpf("0.05")

    def test_surrogate_minimum_constants(self):
        a_min, j_min = force_kernel_minimum("tanh_surrogate", bracket=(-5, -1))
        t_coeff = 1 / fermi_integral(a_min, "tanh_surrogate").I ** 2
        assert abs(t_coeff - mpf("0.466")) < mpf("0.002")
        assert abs(j_min / 4 - mpf("0.411")) < mpf("0.002")


class TestMediumNetForce:
    def test_scale_invariance_exact(self):
        df1 = fermion_medium_net_force(100, 5000, "quadrature")
        df2 = fermion_medium_net_force(200, 20000, "quadrature")
        assert abs(df1 / 100 ** 2 - df2 / 200 ** 2) < mpf("1e-10")

    def test_minimum_against_oracle(self):
        # model minimum near 0.444 N^2 with depth 0.453 N^2, both within a
        # few percent of the exact curve
        t = mpf("0.444") * 10 ** 4
        model = fermion_medium_net_force(100, t, "quadrature")
        exact = net_force(FERMION, 100, t).delta_f
        assert abs(model - exact) / exact < mpf("0.05")

    @pytest.mark.parametrize("N, t", [(100, 30), (200, 1)])
    def test_deep_fermi_edge(self, N, t):
        # N/sqrt(t) = 18.3 and 200: the Fermi edge lies at y = 18 and 200,
        # where the kernel approaches its degenerate limit J = 2
        val = fermion_medium_net_force(N, t, "quadrature")
        assert mp.isfinite(val)
        assert abs(val / (N ** 2 / 2) - 1) < mpf("1e-4")

    def test_tanh_variant_evaluates(self):
        val = fermion_medium_net_force(100, 4660, "tanh_surrogate")
        assert abs(val / 10 ** 4 - mpf("0.411")) < mpf("0.01")


class TestAlphaSplit:
    def test_sign(self):
        for alpha in (mpf("-3"), mpf("-1"), mpf("-0.2")):
            assert alpha_split_subleading(100, alpha, "quadrature") < 0

    def test_halves_when_doubling_N(self):
        d1 = alpha_split_subleading(100, mpf(-2), "quadrature")
        d2 = alpha_split_subleading(200, mpf(-2), "quadrature")
        assert abs(d1 - 2 * d2) < mpf("1e-20")

    def test_kernel_identity(self):
        # (N^2/4) J(alpha) = -(t^{3/2}/2) dalpha I(alpha) at t = N^2/I^2
        alpha = mpf(-2)
        N = 50
        v = fermi_integral(alpha, "quadrature")
        t = N ** 2 / v.I ** 2
        lhs = N ** 2 / 4 * force_kernel(alpha, "quadrature")
        rhs = -(t ** mpf("1.5") / 2) * alpha_split_subleading(N, alpha, "quadrature") * v.I
        assert abs(lhs - rhs) / lhs < mpf("1e-20")
