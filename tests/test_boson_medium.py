import math

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from partition_well import boson_medium
from partition_well.boson_medium import (
    OutOfRange,
    alpha_zero_temperatures,
    boson_medium_net_force,
    medium_error_integral_constants,
    quadratic_approximant,
    solve_scaled_alpha,
    spectral_sum,
    tanh_pade,
)
from partition_well.model import BOSON, W_MINUS, W_PLUS, as_mpf
from partition_well.numerics import DEFAULT_POLICY, MaxIterations
from partition_well.oracle import locate_minimum, net_force, solve_alpha


class TestSpectralSum:
    def test_values_at_zero(self):
        assert abs(spectral_sum(W_PLUS, 0) - mp.pi ** 2 / 2) < mpf("1e-25")
        assert abs(spectral_sum(W_MINUS, 0) - mp.pi ** 2 / 6) < mpf("1e-25")

    def test_continuous_through_zero(self):
        for side in (W_PLUS, W_MINUS):
            left = spectral_sum(side, mpf("-1e-12"))
            right = spectral_sum(side, mpf("1e-12"))
            assert abs(left - right) < mpf("1e-10")

    @pytest.mark.parametrize("side,z", [(W_MINUS, 0.5), (W_PLUS, 0.5),
                                        (W_MINUS, -0.5), (W_PLUS, -0.2)])
    def test_partial_sum_oracle(self, side, z):
        tau = float(side.tau)
        brute = math.fsum(1.0 / (z + (n - tau) ** 2) for n in range(1, 10 ** 6 + 1))
        # the dropped tail of the partial sum itself is about 1/n_max
        assert abs(spectral_sum(side, z) - brute) < 2e-6

    def test_strictly_decreasing(self):
        zs = [mpf(x) / 4 for x in range(-3, 20)]
        vals = [spectral_sum(W_MINUS, z) for z in zs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            spectral_sum(W_PLUS, -0.25)
        with pytest.raises(ValueError):
            spectral_sum(W_MINUS, -1.0)


class TestScaledAlphaSolve:
    def test_residual_above_target_at_the_pole_raises(self):
        # N/t = 1e30 puts the root against the pole z = -1/4 of the plus
        # side: the bracket collapses there with the residual far above
        # target, and the solve no longer returns z = -0.25
        with pytest.raises(MaxIterations):
            solve_scaled_alpha(W_PLUS, 1, mpf("1e-30"))

    def test_anchor_minus_side(self):
        # N/t = pi^2/2 is where the plus-side alpha vanishes
        sol = solve_scaled_alpha(W_MINUS, 100, 200 / mp.pi ** 2, "exact_S_solve")
        assert abs(sol.t_alpha - mpf("-0.7627")) < mpf("1e-3")

    def test_anchor_plus_side(self):
        sol = solve_scaled_alpha(W_PLUS, 100, 600 / mp.pi ** 2, "exact_S_solve")
        assert abs(sol.t_alpha - mpf("0.9026")) < mpf("1e-3")

    def test_tanh_saturation_value(self):
        t = 600 / mp.pi ** 2
        sol = solve_scaled_alpha(W_PLUS, 100, t, "tanh_saturation")
        assert abs(sol.t_alpha - 9 / mp.pi ** 2) < mpf("1e-12")
        # close to the exact 0.9026 but not equal
        assert abs(sol.t_alpha - mpf("0.9026")) < mpf("0.02")

    def test_series_inversion_near_crossing(self):
        t0_minus = 600 / mp.pi ** 2
        sol = solve_scaled_alpha(W_MINUS, 100, t0_minus, "series_inversion")
        assert abs(sol.t_alpha) < mpf("1e-10")
        exact = solve_scaled_alpha(W_MINUS, 100, t0_minus * mpf("1.05"), "exact_S_solve")
        approx = solve_scaled_alpha(W_MINUS, 100, t0_minus * mpf("1.05"), "series_inversion")
        assert abs(exact.t_alpha - approx.t_alpha) < mpf("2e-3")

    @pytest.mark.parametrize("side,N,t,evaluations", [
        (W_PLUS, 10, 2, 10), (W_PLUS, 10, 30, 12), (W_PLUS, 10, 1000, 12),
        (W_PLUS, 100, 55, 12),
        (W_MINUS, 10, 2, 12), (W_MINUS, 10, 30, 12), (W_MINUS, 10, 1000, 12),
        (W_MINUS, 100, 55, 11),
        # N/t = 1e-20, beyond the reach of the former bracket search
        (W_PLUS, 1, 1e20, 9), (W_MINUS, 1, 1e20, 9),
    ])
    def test_exact_solve_evaluations(self, side, N, t, evaluations, monkeypatch):
        # every level-sum evaluation of the solve counts: the bracket ends
        # are closed forms, and the steps use the secant slope of the last
        # two iterates
        calls = []
        S = boson_medium.spectral_sum

        def counting_sum(*args):
            calls.append(1)
            return S(*args)

        monkeypatch.setattr(boson_medium, "spectral_sum", counting_sum)
        solve_scaled_alpha(side, N, t, "exact_S_solve")
        assert len(calls) == evaluations

    @settings(max_examples=40, deadline=None)
    @given(side=st.sampled_from([W_PLUS, W_MINUS]), log10_target=st.floats(-30, 30))
    @example(side=W_PLUS, log10_target=30.0)
    @example(side=W_MINUS, log10_target=-30.0)
    def test_ends_straddle_the_root(self, side, log10_target):
        with mp.workdps(DEFAULT_POLICY.dps):
            target = mpf(10) ** log10_target
            lo, hi = boson_medium._solve_ends(side, target)
            assert lo > -as_mpf(side.e1)
            assert spectral_sum(side, lo) > target > spectral_sum(side, hi)

    def test_pole_side_target_out_of_range(self):
        # the padded lower end 1/target - e_1 would reach the pole
        with mp.workdps(DEFAULT_POLICY.dps):
            with pytest.raises(OutOfRange):
                boson_medium._solve_ends(W_MINUS, mpf(10) ** (DEFAULT_POLICY.dps - 3))

    def test_method_side_restrictions(self):
        with pytest.raises(ValueError):
            solve_scaled_alpha(W_PLUS, 100, 50, "series_inversion")
        with pytest.raises(ValueError):
            solve_scaled_alpha(W_MINUS, 100, 50, "tanh_saturation")
        with pytest.raises(ValueError):
            solve_scaled_alpha(W_MINUS, 100, 50, "unknown")

    def test_unreachable_target_rejected(self):
        # a non-positive N/t has no solution; OutOfRange specialises ValueError
        assert issubclass(OutOfRange, ValueError)
        with pytest.raises(ValueError):
            solve_scaled_alpha(W_PLUS, 100, mpf(-3), "exact_S_solve")


@pytest.fixture(scope="module")
def minimum_100():
    return locate_minimum(BOSON, 100)


class TestMediumNetForce:
    def test_formula_at_limit_minimum(self):
        # at the large-N minimum location the formula value matches the
        # limit constant
        N, w = 100, mpf("0.548")
        t = w * N
        plus = solve_scaled_alpha(W_PLUS, N, t, "exact_S_solve")
        minus = solve_scaled_alpha(W_MINUS, N, t, "exact_S_solve")
        df = boson_medium_net_force(N, t, plus, minus)
        assert abs(df / N - mpf("0.597")) / mpf("0.597") < mpf("0.01")

    def test_against_oracle_accuracy_improves_with_N(self):
        errs = []
        for N in (100, 1000):
            t = mpf("0.55") * N
            plus = solve_scaled_alpha(W_PLUS, N, t, "exact_S_solve")
            minus = solve_scaled_alpha(W_MINUS, N, t, "exact_S_solve")
            df = boson_medium_net_force(N, t, plus, minus)
            exact = net_force(BOSON, N, t).delta_f
            errs.append(abs(df - exact) / exact)
        assert errs[0] < mpf("0.05")
        assert errs[1] < errs[0]

    def test_equal_sides_reduce_to_linear_term(self):
        plus = solve_scaled_alpha(W_PLUS, 100, 55, "exact_S_solve")
        synthetic_minus = type(plus)(W_MINUS, plus.t_alpha, plus.t_over_N, plus.method)
        assert abs(boson_medium_net_force(100, 55, plus, synthetic_minus)
                   - (-mpf(55) / 2)) < mpf("1e-12")

    def test_mismatched_points_rejected(self):
        plus = solve_scaled_alpha(W_PLUS, 100, 55, "exact_S_solve")
        minus = solve_scaled_alpha(W_MINUS, 100, 56, "exact_S_solve")
        with pytest.raises(ValueError):
            boson_medium_net_force(100, 55, plus, minus)

    def test_scale_invariance_of_formula(self):
        def df_over_N(N, t):
            plus = solve_scaled_alpha(W_PLUS, N, t, "exact_S_solve")
            minus = solve_scaled_alpha(W_MINUS, N, t, "exact_S_solve")
            return boson_medium_net_force(N, t, plus, minus) / N

        base = df_over_N(100, mpf(55))
        for k in (2, 5, 10):
            assert abs(df_over_N(100 * k, mpf(55) * k) - base) < mpf("1e-9")

    def test_medium_regime_condition_at_minimum(self, minimum_100):
        # alpha and b are both of order 1/N where the minimum sits
        t_min = minimum_100.t_min
        for side in (W_PLUS, W_MINUS):
            sol = solve_alpha(BOSON, side, 100, t_min)
            assert abs(sol.alpha) < mpf("0.1")
            assert 1 / t_min < mpf("0.1")


class TestQuadraticApproximants:
    def test_naive_coefficients(self):
        a, center, minimum = quadratic_approximant("naive")
        assert abs(a - mp.pi ** 2 / 14) < mpf("1e-25")
        assert abs(center - 6 / mp.pi ** 2) < mpf("1e-25")
        assert minimum == center
        assert abs(center - mpf("0.6079")) < mpf("1e-4")

    def test_improved_coefficients_match_printed(self):
        a, center, minimum = quadratic_approximant("improved")
        assert abs(a - mpf("0.5121")) < mpf("1e-3")
        assert abs(center - mpf("0.5465")) < mpf("1e-3")
        assert abs(minimum - mpf("0.5967")) < mpf("1e-3")

    def test_improved_beats_naive_near_minimum(self):
        # both quadratics target the scale-invariant medium-regime curve
        # (the finite-N oracle sits a 1/sqrt(N) offset above it); compare
        # against that curve through the exact level-sum solves
        def reference(w):
            t = w * 1000
            plus = solve_scaled_alpha(W_PLUS, 1000, t, "exact_S_solve")
            minus = solve_scaled_alpha(W_MINUS, 1000, t, "exact_S_solve")
            return boson_medium_net_force(1000, t, plus, minus) / 1000

        def model_err(variant):
            a, center, minimum = quadratic_approximant(variant)
            worst = mpf(0)
            for w in (mpf("0.45"), mpf("0.5"), mpf("0.55"), mpf("0.6"), mpf("0.65")):
                model = a * (w - center) ** 2 + minimum
                ref = reference(w)
                worst = max(worst, abs(model - ref) / ref)
            return worst

        assert model_err("improved") < model_err("naive")


class TestTanhPade:
    def test_exact_at_expansion_point(self):
        assert tanh_pade(3, 3) == mp.tanh(3)

    def test_close_nearby(self):
        assert abs(tanh_pade(mpf("3.2"), 3) - mp.tanh(mpf("3.2"))) < mpf("1e-4")

    def test_second_derivative_matches(self):
        f = lambda x: tanh_pade(x, 3)
        for order in (1, 2):
            d_pade = mp.diff(f, mpf(3), order)
            d_true = mp.diff(mp.tanh, mpf(3), order)
            assert abs(d_pade - d_true) < mpf("1e-12")

    def test_pole_reported(self):
        x_star = mpf(3)
        pole = x_star - 1 / mp.tanh(x_star)
        with pytest.raises(ZeroDivisionError):
            tanh_pade(pole, x_star)


class TestAlphaZeroTemperatures:
    def test_values(self):
        t_plus, t_minus = alpha_zero_temperatures(100)
        assert abs(t_plus - mpf("20.264")) < mpf("1e-2")
        assert abs(t_minus - mpf("60.793")) < mpf("1e-2")
        assert abs(t_minus / t_plus - 3) < mpf("1e-25")

    def test_oracle_consistency(self):
        _, t_minus = alpha_zero_temperatures(1000)
        sol = solve_alpha(BOSON, W_MINUS, 1000, t_minus)
        assert abs(sol.alpha * t_minus) < mpf("0.05")


def test_error_integral_constants():
    first, second = medium_error_integral_constants()
    assert abs(first - mpf("-1.2942")) < mpf("1e-3")
    assert abs(second - mpf("0.1842")) < mpf("1e-3")


def test_error_integral_constants_closed_forms():
    # 40-digit quadratures of the two defect integrands (a Bernoulli series
    # near y = 0, where the poles of 1/(e^(y^2) - 1) and 1/y^2 cancel)
    first, second = medium_error_integral_constants()
    assert abs(first - mpf("-1.294205486413392738339723088222208810")) < mpf("1e-30")
    assert abs(second - mpf("0.184234370005661285961980828086988814")) < mpf("1e-30")
