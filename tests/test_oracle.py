import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from partition_well import oracle
from partition_well.equilibrium import shift_finite_temperature
from partition_well.model import BOSON, FERMION, W_MINUS, W_PLUS, as_mpf
from partition_well.numerics import (
    DEFAULT_POLICY,
    GUARD_DIGITS,
    MaxIterations,
    PrecisionExhausted,
    PrecisionPolicy,
)
from partition_well.oracle import (
    OccupancySolution,
    SweepFailure,
    locate_inflections,
    locate_minimum,
    net_force,
    occupancy,
    force_side,
    solve_alpha,
    sweep_curve,
)


class TestSolveAlpha:
    def test_boson_alpha_crossing_temperature(self):
        # at t = 6N/pi^2 the minus-side alpha crosses zero; the exact value
        # deviates only at the 1/sqrt(N) relative scale
        t0_minus = 600 / mp.pi ** 2
        sol = solve_alpha(BOSON, W_MINUS, 100, t0_minus)
        assert abs(sol.alpha) < mpf("0.02")

    def test_fermion_two_level_regime(self):
        sol = solve_alpha(FERMION, W_MINUS, 100, 50)
        expected = -mpf("202.01")
        assert abs(sol.alpha - expected) / abs(expected) < mpf("0.01")

    def test_boson_alpha_grows_logarithmically(self):
        a6 = solve_alpha(BOSON, W_PLUS, 100, mpf("1e6")).alpha
        a7 = solve_alpha(BOSON, W_PLUS, 100, mpf("1e7")).alpha
        a8 = solve_alpha(BOSON, W_PLUS, 100, mpf("1e8")).alpha
        assert 0 < a6 < a7 < a8
        # d alpha / d ln t -> 1/2
        assert abs((a7 - a6) - mp.log(10) / 2) < mpf("0.1")
        assert abs((a8 - a7) - mp.log(10) / 2) < mpf("0.02")

    def test_fugacity_field_consistent(self):
        sol = solve_alpha(FERMION, W_PLUS, 7, mpf("3.5"))
        with mp.workdps(50):
            rel = abs(sol.q_fugacity - mp.e ** (-sol.alpha)) / sol.q_fugacity
            assert rel < mpf("1e-30")

    def test_deterministic(self):
        a = solve_alpha(BOSON, W_MINUS, 42, mpf("17.3"))
        b = solve_alpha(BOSON, W_MINUS, 42, mpf("17.3"))
        assert mp.nstr(a.alpha, 30) == mp.nstr(b.alpha, 30)
        assert a.n_trunc == b.n_trunc

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_alpha(BOSON, W_MINUS, 0, 1.0)
        with pytest.raises(ValueError):
            solve_alpha(BOSON, W_MINUS, 10, -2.0)

    def test_precision_ceiling_reported(self):
        # an iteration budget too small to converge escalates until the
        # digit ceiling and then reports it
        policy = PrecisionPolicy(working_digits=20, max_digits=22, max_iterations=4)
        with pytest.raises(PrecisionExhausted):
            solve_alpha(BOSON, W_MINUS, 100, 13.0, policy)


class TestEscalation:
    """Which failures of one solve buy more digits (default policy: 30, 60,
    then the 120-digit cap)."""

    @staticmethod
    def _failing(monkeypatch, exc, digits, fail_at=None):
        solve_at = oracle._solve_side_at

        def patched(stat, side, N, t, policy, *rest):
            digits.append(policy.working_digits)
            if fail_at is None or policy.working_digits in fail_at:
                raise exc
            return solve_at(stat, side, N, t, policy, *rest)

        monkeypatch.setattr(oracle, "_solve_side_at", patched)

    def test_lost_slope_escalates(self, monkeypatch):
        digits = []
        lost = oracle._SlopeLost("constraint derivative lost below its tail bound")
        self._failing(monkeypatch, lost, digits, fail_at={30})
        assert solve_alpha(BOSON, W_MINUS, 10, 3).digits_used == 60
        assert digits == [30, 60]

    def test_lost_slope_ends_at_the_cap(self, monkeypatch):
        digits = []
        lost = oracle._SlopeLost("constraint derivative lost below its tail bound")
        self._failing(monkeypatch, lost, digits)
        with pytest.raises(PrecisionExhausted):
            solve_alpha(BOSON, W_MINUS, 10, 3)
        assert digits == [30, 60, 120]

    def test_untruncated_sum_does_not_escalate(self, monkeypatch):
        # the truncation target does not depend on the digits
        digits = []
        stuck = PrecisionExhausted("level sum did not truncate below the target")
        self._failing(monkeypatch, stuck, digits)
        with pytest.raises(PrecisionExhausted):
            solve_alpha(BOSON, W_MINUS, 10, 3)
        assert digits == [30]


class TestConstraintResidual:
    @staticmethod
    def _recompute_number_sum(stat, side, alpha, t):
        # independent direct evaluation at elevated precision; b derived from
        # t inside the context so no low-precision rounding leaks in
        with mp.workdps(60):
            b = 1 / mpf(t)
            tau = as_mpf(side.tau)
            total = mpf(0)
            for n in range(1, 3 * 10 ** 6):
                x = alpha + b * (n - tau) ** 2
                if x > 90:
                    break
                total += 1 / (mp.e ** x - stat.eta)
            return total

    @pytest.mark.parametrize("stat,side,N,t", [
        (BOSON, W_MINUS, 100, "60.0"),
        (BOSON, W_PLUS, 3, "0.8"),
        (FERMION, W_MINUS, 50, "400.0"),
        (FERMION, W_PLUS, 120, "37.5"),
    ])
    def test_residual_within_certificate(self, stat, side, N, t):
        # the solver treats the incoming t as exact, so the recomputation
        # must reuse the identical mpf value
        t_mp = mpf(t)
        sol = solve_alpha(stat, side, N, t_mp)
        recomputed = self._recompute_number_sum(stat, side, sol.alpha, t_mp)
        assert abs(recomputed - N) <= sol.residual_bound + mpf("1e-20")

    def test_monotone_decreasing_in_alpha(self):
        rng = random.Random(3)
        for _ in range(10):
            stat = BOSON if rng.random() < 0.5 else FERMION
            side = W_PLUS if rng.random() < 0.5 else W_MINUS
            N = rng.randint(1, 150)
            t = mpf(10) ** rng.uniform(-1, 4)
            sol = solve_alpha(stat, side, N, t)
            # deep in the degenerate regime the sum only responds to alpha
            # shifts comparable to the Fermi-edge scale, so step with |alpha|
            up = max(mpf("0.1"), abs(sol.alpha) * mpf("0.05"))
            down = up
            if stat.is_boson:
                # keep the downward probe above the pole
                down = min(down, (sol.alpha + as_mpf(side.e1) / t) / 2)
            vals = [self._recompute_number_sum(stat, side, sol.alpha + da, t)
                    for da in (-down, mpf(0), up)]
            assert vals[0] > vals[1] > vals[2]

    def test_boson_pole_guard(self):
        for t in ("0.001", "1.0", "100.0"):
            sol = solve_alpha(BOSON, W_MINUS, 25, mpf(t))
            assert sol.alpha > -as_mpf(W_MINUS.e1) / mpf(t)


class TestOccupancy:
    def test_fermion_half_at_symmetric_point(self):
        sol = OccupancySolution(mpf(-4), mp.e ** 4, mpf(0), 1, 30, mpf(0))
        # alpha + b e_2 = -4 + 4 = 0 on the minus side at b = 1
        assert abs(occupancy(FERMION, W_MINUS, sol, 1, 2) - mpf("0.5")) < mpf("1e-25")

    def test_boson_unit_occupancy_at_log2(self):
        alpha = mp.log(2) - 1
        sol = OccupancySolution(alpha, mp.e ** (-alpha), mpf(0), 1, 30, mpf(0))
        assert abs(occupancy(BOSON, W_MINUS, sol, 1, 1) - 1) < mpf("1e-25")

    def test_boson_pole_rejected(self):
        sol = OccupancySolution(mpf(-2), mp.e ** 2, mpf(0), 1, 30, mpf(0))
        with pytest.raises(ValueError):
            occupancy(BOSON, W_MINUS, sol, 1, 1)

    def test_fermion_levels_straddling_fermi_edge(self):
        sol = solve_alpha(FERMION, W_MINUS, 100, 5)
        b = mpf(1) / 5
        n100 = occupancy(FERMION, W_MINUS, sol, b, 100)
        n101 = occupancy(FERMION, W_MINUS, sol, b, 101)
        assert abs(n100 + n101 - 1) < mpf("1e-2")

    def test_near_fermi_symmetry(self):
        # N_{N+l} ~= 1 - N_{N+1-l} at the oracle's alpha, N = 100, t = 0.3 N
        t = mpf(30)
        b = 1 / t
        for side in (W_PLUS, W_MINUS):
            sol = solve_alpha(FERMION, side, 100, t)
            for l in (1, 2, 3):
                up = occupancy(FERMION, side, sol, b, 100 + l)
                down = occupancy(FERMION, side, sol, b, 101 - l)
                assert abs(up + down - 1) < mpf("1e-2")

    def test_monotone_decreasing_in_level(self):
        sol = solve_alpha(BOSON, W_PLUS, 10, 7)
        b = mpf(1) / 7
        occs = [occupancy(BOSON, W_PLUS, sol, b, n) for n in range(1, 12)]
        assert all(a > b_ for a, b_ in zip(occs, occs[1:]))


class TestForces:
    def test_boson_plus_zero_t_limit(self):
        f, err = force_side(BOSON, W_PLUS, 100, mpf("1e-3"))
        assert abs(f - 25) < mpf("1e-6")
        assert err < mpf("1e-6")

    def test_fermion_minus_zero_t_limit(self):
        # sum of the lowest N levels: N(N+1)(2N+1)/6 = 338350 at N = 100
        f, _ = force_side(FERMION, W_MINUS, 100, mpf("1e-3"))
        assert abs(f - 338350) < mpf("1e-3")

    def test_single_boson(self):
        f, _ = force_side(BOSON, W_MINUS, 1, mpf("1e-4"))
        assert abs(f - 1) < mpf("1e-8")

    def test_net_force_zero_t_values(self):
        pb = net_force(BOSON, 100, mpf("1e-3"))
        assert abs(pb.delta_f - 75) < mpf("1e-6")
        pf = net_force(FERMION, 100, mpf("1e-3"))
        assert abs(pf.delta_f - 5025) < mpf("1e-3")

    def test_high_temperature_scaling(self):
        p = net_force(BOSON, 100, mpf("1e8"))
        lead = 50 * mp.sqrt(mpf("1e8") / mp.pi)
        assert abs(p.delta_f / lead - 1) < mpf("0.01")

    def test_halved_tolerance_self_consistency(self):
        from dataclasses import replace
        from partition_well.numerics import DEFAULT_POLICY
        base = net_force(FERMION, 50, mpf("800"))
        tight = net_force(FERMION, 50, mpf("800"),
                          replace(DEFAULT_POLICY, target_abs_error=5e-13))
        assert abs(base.delta_f - tight.delta_f) < base.delta_f_error

    @pytest.mark.parametrize("stat", [BOSON, FERMION])
    @pytest.mark.parametrize("t", ["1e120", "1e308"])
    def test_huge_temperature_bound_holds(self, stat, t):
        # a few hundred strided points per sum, not sqrt(t) levels; the
        # bound holds the high-temperature truth (N/2) sqrt(t/pi) + O(1)
        t = mpf(t)
        p = net_force(stat, 5, t)
        with mp.workdps(40):
            lead = mpf(5) / 2 * mp.sqrt(t / mp.pi)
        assert abs(p.delta_f - lead) + 1 <= p.delta_f_error
        assert solve_alpha(stat, W_PLUS, 5, t).n_trunc < 1000

    def test_curve_point_fields_consistent(self):
        p = net_force(FERMION, 10, mpf("25"))
        assert abs(p.delta_f - (p.f_minus - p.f_plus)) < mpf("1e-20")
        assert p.delta_f > 0
        assert p.delta_f_error >= 0


class TestSweep:
    def test_singleton_matches_net_force(self):
        pts = sweep_curve(BOSON, 10, [mpf(2)])
        single = net_force(BOSON, 10, mpf(2))
        assert len(pts) == 1
        assert pts[0].delta_f == single.delta_f

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_curve(BOSON, 10, [1.0, 1.0])
        with pytest.raises(ValueError):
            sweep_curve(BOSON, 10, [-1.0, 2.0])

    def test_numeric_failure_keeps_other_points(self, monkeypatch):
        original = oracle.net_force

        def fail_at_two(stat, N, t, policy):
            if t == 2:
                raise MaxIterations("injected")
            return original(stat, N, t, policy)

        monkeypatch.setattr(oracle, "net_force", fail_at_two)
        with pytest.raises(SweepFailure) as info:
            sweep_curve(BOSON, 3, [1, 2, 3])
        assert info.value.failures == [(1, 2, "MaxIterations: injected")]
        assert [p.t for p in info.value.points] == [1, 3]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(stat, N, t, policy):
            raise TypeError("not a numeric failure")

        monkeypatch.setattr(oracle, "net_force", broken)
        with pytest.raises(TypeError, match="not a numeric failure"):
            sweep_curve(BOSON, 3, [1, 2])

    @pytest.mark.parametrize("stat", [BOSON, FERMION])
    def test_interior_minimum_on_log_grid(self, stat):
        grid = [mpf(10) ** (mpf(-2) + mpf(8) * i / 16) for i in range(17)]
        pts = sweep_curve(stat, 100, grid)
        vals = [p.delta_f for p in pts]
        i_min = min(range(len(vals)), key=lambda i: vals[i])
        assert 0 < i_min < len(vals) - 1


class TestMinimumAndInflections:
    def test_boson_minimum_matches_brute_scan(self):
        t_min, df_min, _ = locate_minimum(BOSON, 100)
        # independently brute-scanned location and value of the minimum
        assert abs(t_min / 100 - mpf("0.6175")) < mpf("0.002")
        assert abs(df_min / 100 - mpf("0.60972")) < mpf("1e-4")

    def test_window_without_minimum_detected(self):
        with pytest.raises(Exception) as info:
            locate_minimum(BOSON, 20, search_window=(mpf("2e4"), mpf("1e6")))
        assert "minimum" in str(info.value)

    def test_inflections_survive_a_shifted_window(self):
        # a second-difference stencil once lost the sign change in this
        # window; certified curvature signs do not depend on a stencil
        t_begin, t_end, _, _ = locate_inflections(
            FERMION, 3, window=(mpf("0.152661"), mpf("3.05323")))
        assert abs(t_begin - mpf("0.80470412")) < mpf("3e-3")
        assert abs(t_end - mpf("1.5096243")) < mpf("3e-3")

    def test_inflections_require_fermions(self):
        with pytest.raises(ValueError):
            locate_inflections(BOSON, 100)


class TestSearchCounters:
    """The searches' net_force calls, counted through the module attribute
    they call, and the certified enclosures they return.  The golden
    section and the second-difference stencil they replace took 26/27 and
    78 calls at a claimed precision of 1e-3."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        original = oracle.net_force

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, "net_force", counting)
        return calls

    @pytest.mark.parametrize("stat,N,window,calls", [
        # 5 probes, 3 Newton steps and the straddle probe: the root finder
        # reads the bracket ends from the probes
        (BOSON, 6, ("0.601859", "12.0372"), 9),
        (FERMION, 3, ("0.458867", "18.3547"), 9),
    ])
    def test_minimum(self, monkeypatch, stat, N, window, calls):
        counted = self._count(monkeypatch)
        t_min, _, err = locate_minimum(stat, N, search_window=tuple(map(mpf, window)))
        assert len(counted) == calls
        monkeypatch.undo()
        assert 0 < err <= mpf("2e-8") * t_min
        # the ends of t_min -+ err carry certified opposite slopes
        with mp.workdps(DEFAULT_POLICY.dps):
            ends = [net_force(stat, N, t_min + s * err, derivatives=True) for s in (-1, 1)]
        assert [oracle._certified_sign(p, 1) for p in ends] == [-1, 1]

    def test_inflections(self, monkeypatch):
        # 16 grid points, then 5 secant steps per sign change, the straddle
        # probe among them: the root finder reads the bracket ends from the grid
        counted = self._count(monkeypatch)
        found = locate_inflections(FERMION, 3)
        assert len(counted) == 26
        monkeypatch.undo()
        with mp.workdps(DEFAULT_POLICY.dps):
            for t, err, signs in ((found.t_begin, found.t_begin_error, [-1, 1]),
                                  (found.t_end, found.t_end_error, [1, -1])):
                assert 0 < err <= mpf("2e-8") * t
                ends = [net_force(FERMION, 3, t + s * err, derivatives=True) for s in (-1, 1)]
                assert [oracle._certified_sign(p, 2) for p in ends] == signs

    @pytest.mark.parametrize("seed", range(8))
    def test_inflections_in_shifted_windows(self, seed):
        shift = mpf(10) ** (mpf("0.01") * random.Random(seed).random())
        found = locate_inflections(FERMION, 3, window=(mpf("0.15") * shift, 3 * shift))
        assert abs(found.t_begin - mpf("0.80367262")) < mpf("1e-7")
        assert abs(found.t_end - mpf("1.5093439")) < mpf("1e-6")


class TestSharpStepCertificate:
    """At a sharp Fermi step the constraint's slope is e^(-1242) (N=12,
    t=0.01): the residual bound must hold against the level sum at 3000
    digits, at the solver's own b, 1/t formed at the working precision.
    A number sum rounded to working precision reads every filled level as
    1; at these seed-1 curve cells it claimed 7.6e-1706 against a true
    2.1e-572 (N=12, minus side) and 7.7e-598 against 6.5e-204 (N=4, plus
    side)."""

    @staticmethod
    def true_residual(stat, side, N, t, digits):
        """The solution and |sum_n N_n - N| at ``digits``, summed until x
        exceeds 2.3 ``digits``, at the solver's own b."""
        t = mpf(t)
        sol = solve_alpha(stat, side, N, t)
        with mp.workdps(DEFAULT_POLICY.dps):
            b = 1 / t
        with mp.workdps(digits):
            tau, total, n = as_mpf(side.tau), mpf(0), 1
            while True:
                x = sol.alpha + b * (n - tau) ** 2
                total += 1 / (mp.exp(x) - stat.eta)
                if x > 2.3 * digits:
                    return sol, abs(total - N)
                n += 1

    @pytest.mark.parametrize("N,t", [(4, "0.0101774"), (12, "0.0100589")])
    @pytest.mark.parametrize("side", [W_MINUS, W_PLUS])
    def test_residual_bound_holds(self, N, t, side):
        sol, residual = self.true_residual(FERMION, side, N, t, 3000)
        assert 0 < residual <= sol.residual_bound

    # boson N=24 at the seed-2 and seed-5 curve cells: the tails, about
    # 1e-75, are far below the residual, about 6e-32, so the bound is the
    # residual itself; summed in round-to-nearest, it lay 2.0e-74 (plus
    # side at t=0.0102206) and 1.9e-73 (minus side at t=0.0101723) below
    # the true residual
    @pytest.mark.parametrize("t", ["0.0102206", "0.0101723"])
    @pytest.mark.parametrize("side", [W_MINUS, W_PLUS])
    def test_residual_bound_rounds_up(self, t, side):
        sol, residual = self.true_residual(BOSON, side, 24, t, 400)
        assert 0 < residual <= sol.residual_bound

    @pytest.mark.parametrize("side", [W_MINUS, W_PLUS])
    def test_unresolvable_step_raises(self, side):
        # fermion N=3 at t=1e-320: the residual, near e^(-3.5e320) (minus
        # side), lies below every scale a level walk may take, so no bound
        # is claimed.  Read on a working-precision sum, the filled levels
        # gave a bound of 7.9e-(5.4e320) against a true 1.7e-(1.5e320)
        with pytest.raises(PrecisionExhausted):
            solve_alpha(FERMION, side, 3, mpf(1e-320))


class TestRootCounters:
    """Constraint solves pinned in work per side, minus side then plus side:
    root-finder evaluations (end points included) and ``_number_sums``
    calls.  Every bracket end is closed-form, so each evaluation is one
    call and nothing else sums the constraint.  Calls that read the solve's
    level table count as ``_number_sums`` calls like any other: the table
    saves work inside a call, not calls.  With a series probe at alpha = 1/2
    opening every bracket these were 13/13, 7/7, 7/7, 7/7 evaluations and
    13/13, 8/8, 8/8, 7/7 calls; the bisection/secant solve before that
    needed 20/20, 18/19, 16/18 and 22/19 evaluations."""

    @staticmethod
    def _count(monkeypatch):
        """Wrap the root finder, the number sums and the stride choice;
        returns (evals, calls, strides): one entry per solve in the first
        two, one per chosen stride in the last."""
        evals, calls, strides = [], [], []
        pending = {"calls": 0}
        solve = oracle.find_root_bracketed
        number_sums = oracle._number_sums
        stride = oracle._LevelTable.stride

        def counting_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            # the solve's number-only sums are complete once its root is found
            evals.append(result.evaluations)
            calls.append(pending["calls"])
            pending["calls"] = 0
            return result

        def counting_sums(*args, **kwargs):
            pending["calls"] += 1
            return number_sums(*args, **kwargs)

        def recording_stride(table, alpha):
            strides.append(stride(table, alpha))
            return strides[-1]

        monkeypatch.setattr(oracle, "find_root_bracketed", counting_solve)
        monkeypatch.setattr(oracle, "_number_sums", counting_sums)
        monkeypatch.setattr(oracle._LevelTable, "stride", recording_stride)
        return evals, calls, strides

    @pytest.mark.parametrize("stat,N,t,counts", [
        (BOSON, 100, "55", dict(evals=[8, 8], calls=[8, 8])),
        (FERMION, 100, "4440", dict(evals=[7, 7], calls=[7, 7])),
        (BOSON, 100, "1e7", dict(evals=[6, 6], calls=[6, 6])),
        (BOSON, 8, "0.01", dict(evals=[2, 2], calls=[2, 2])),
        # a soft Fermi step with Theta_0 <= N w: the lower end comes from
        # the Fermi integral alone
        (FERMION, 4, "4.85", dict(evals=[7, 7], calls=[7, 7])),
    ])
    def test_evaluations_per_side(self, monkeypatch, stat, N, t, counts):
        evals, calls, _ = self._count(monkeypatch)
        net_force(stat, N, mpf(t))
        assert evals == counts["evals"]
        assert calls == counts["calls"]

    @pytest.mark.parametrize("stat,N", [(BOSON, 6), (FERMION, 3)])
    def test_medium_regime_keeps_stride_one(self, monkeypatch, stat, N):
        # at b = 1/5 the strip around the real axis is too narrow for a
        # stride above 1, on either side of alpha = 0
        _, calls, strides = self._count(monkeypatch)
        net_force(stat, N, mpf(5))
        assert len(calls) == 2 and all(calls)
        assert strides and set(strides) == {1}

    def test_theta0_once_per_solve(self, monkeypatch):
        # boson N=100, t=1e7, on strides far above 1: the closed-form ends
        # read the solve's one Theta_0(b), and no level sum calls _theta0
        solves, calls = [], []
        theta0, solve_at = oracle._theta0, oracle._solve_side_at

        def counting_theta0(lattice, *args):
            calls.append(lattice)
            return theta0(lattice, *args)

        def counting_solve_at(*args):
            calls.clear()
            result = solve_at(*args)
            solves.append(list(calls))
            return result

        monkeypatch.setattr(oracle, "_theta0", counting_theta0)
        monkeypatch.setattr(oracle, "_solve_side_at", counting_solve_at)
        _, _, strides = self._count(monkeypatch)
        net_force(BOSON, 100, mpf("1e7"))
        assert len(solves) == 2
        assert [len(lattices) for lattices in solves] == [1, 1]
        assert min(strides) > 100

    def test_boltzmann_upper_end_of_a_sharp_step(self):
        # fermion N=1 at t=0.01: the Boltzmann upper end log(Theta_0/N) lies
        # on the flank of the Fermi step, where Newton crawled by about one
        # unit of alpha per step (96 evaluations per side); steps that stop
        # shrinking now bisect.  The root lies midway between the first two
        # levels' x = 0, at -b (y_1^2 + y_2^2)/2, and is found there.  A
        # number sum rounded to working precision read 1 - 4.7e-53 as 1 and
        # stopped the minus side after 9 evaluations at alpha = -220.5, 30
        # units from the root; summed exactly, the sides take 24 and 18
        policy = DEFAULT_POLICY
        with mp.workdps(policy.dps):
            b = 1 / mpf("0.01")
            eps = oracle._sum_target(policy, b)
            for side, evaluations in ((W_MINUS, 24), (W_PLUS, 18)):
                table = oracle._LevelTable(FERMION, side, b, eps)
                lo, _ = oracle._closed_form_ends(FERMION, side, 1, table)

                def g(alpha):
                    number, dnumber = oracle._number_sums(table, alpha)
                    return number - 1, dnumber

                res = oracle.find_root_bracketed(
                    g, lo, mp.log(table.theta0()[0]), policy,
                    derivative=True)
                tau = as_mpf(side.tau)
                assert abs(res.root + b * ((1 - tau) ** 2 + (2 - tau) ** 2) / 2) < mpf("1e-8")
                assert abs(res.residual) <= policy.target_abs_error
                assert res.evaluations == evaluations


class TestLatticeWalks:
    """Points walked per net force, counted through the walks of
    ``fixed_point_walk`` (its ``terms``), and strips evaluated, counted in
    ``_strip`` calls: the derivatives are summed over the points the final
    level-sum pass recorded, with the strip that pass used, so asking for
    them walks no point more and evaluates no strip more."""

    @pytest.mark.parametrize("stat,N,t", [
        (BOSON, 6, "3"), (FERMION, 3, "1.1"), (FERMION, 100, "4440"),
        # strided, m >= 2
        (BOSON, 30, "1e4"),
    ])
    def test_derivatives_walk_no_extra_point(self, monkeypatch, stat, N, t):
        walked = []
        walk = oracle.fixed_point_walk

        def counting_walk(*args, **kwargs):
            result = walk(*args, **kwargs)
            walked.append(result.terms)
            return result

        monkeypatch.setattr(oracle, "fixed_point_walk", counting_walk)
        counts = []
        for flag in (False, True):
            walked.clear()
            net_force(stat, N, mpf(t), derivatives=flag)
            counts.append(sum(walked))
        assert counts[0] > 0 and counts[1] == counts[0]

    @pytest.mark.parametrize("stat,N,t", [
        (BOSON, 30, "1e4"), (FERMION, 12, "3e4"), (BOSON, 8, "3e4"),
    ])
    def test_derivatives_evaluate_no_extra_strip(self, monkeypatch, stat, N, t):
        # strided cells: the level table evaluates the strip once for the
        # final alpha, and the moment bounds read it from the table
        strips = []
        strip = oracle._strip

        def counting_strip(alpha, b):
            strips.append(alpha)
            return strip(alpha, b)

        monkeypatch.setattr(oracle, "_strip", counting_strip)
        counts = []
        for flag in (False, True):
            strips.clear()
            net_force(stat, N, mpf(t), derivatives=flag)
            counts.append(len(strips))
        assert counts[0] > 0 and counts[1] == counts[0]

    @pytest.mark.parametrize("stat,N,t", [
        (BOSON, 6, "3"), (FERMION, 3, "1.1"), (FERMION, 100, "4440"),
        # strided, m >= 2
        (BOSON, 30, "1e4"), (FERMION, 12, "3e4"), (BOSON, 8, "3e4"),
    ])
    def test_derivatives_evaluate_no_extra_exponential(self, monkeypatch, stat, N, t):
        # the derivatives read e^(-alpha), the aliasing and the Gaussian
        # terms of the final pass; only the first level's occupancy, once
        # per side, is evaluated anew
        calls = []
        for name in ("exp", "expm1"):
            function = getattr(mp, name)
            monkeypatch.setattr(mp, name, lambda *args, f=function, **kwargs:
                                calls.append(1) or f(*args, **kwargs))
        counts = []
        for flag in (False, True):
            calls.clear()
            net_force(stat, N, mpf(t), derivatives=flag)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1] - counts[0] == 2


class TestClosedFormEnds:
    """The closed-form bracket ends straddle the root as the solver sees the
    constraint: number-only sums at working precision and its truncation
    target."""

    @settings(max_examples=40, deadline=None)
    @given(stat=st.sampled_from([BOSON, FERMION]),
           side=st.sampled_from([W_MINUS, W_PLUS]),
           N=st.integers(1, 10 ** 4),
           log10_t=st.floats(-2, 8))
    # a single occupied level, where the Boltzmann bounds are tight
    @example(stat=BOSON, side=W_MINUS, N=8, log10_t=-2.0)
    @example(stat=BOSON, side=W_PLUS, N=8, log10_t=-2.0)
    @example(stat=FERMION, side=W_MINUS, N=1, log10_t=-2.0)
    @example(stat=FERMION, side=W_PLUS, N=1, log10_t=-2.0)
    # soft Fermi steps with Theta_0 <= N w, lower end from the Fermi integral
    @example(stat=FERMION, side=W_MINUS, N=100, log10_t=math.log10(4440))
    @example(stat=FERMION, side=W_PLUS, N=100, log10_t=math.log10(4440))
    @example(stat=FERMION, side=W_MINUS, N=4, log10_t=math.log10(4.85))
    @example(stat=FERMION, side=W_PLUS, N=4, log10_t=math.log10(4.85))
    @example(stat=FERMION, side=W_MINUS, N=3, log10_t=math.log10(5))
    @example(stat=FERMION, side=W_PLUS, N=3, log10_t=math.log10(5))
    def test_ends_straddle_the_root(self, stat, side, N, log10_t):
        policy = DEFAULT_POLICY
        with mp.workdps(policy.working_digits + GUARD_DIGITS):
            b = 1 / mpf(10) ** log10_t
            eps = oracle._sum_target(policy, b)
            table = oracle._LevelTable(stat, side, b, eps)
            lo, hi = oracle._closed_form_ends(stat, side, N, table)

            def g(alpha):
                return oracle._number_sums(table, alpha)[0] - N

            assert lo is not None
            assert lo < hi
            assert g(lo) > 0 > g(hi)
            if stat.is_boson:
                assert lo + b * as_mpf(side.e1) > 0


class TestNumberSums:
    """The number-only sums the constraint iteration runs on agree with the
    full level sums, and the strided sums with the level-by-level ones.
    They do not depend on N, which enters the constraint only as an
    offset."""

    EPS = mpf("1e-14")

    def _table(self, stat, side, b):
        return oracle._LevelTable(stat, side, b, self.EPS)

    @staticmethod
    def _above_pole(stat, side, b, alpha):
        alpha = mpf(alpha)
        if stat.is_boson and not alpha + b * as_mpf(side.e1) > mpf("0.01"):
            alpha = -b * as_mpf(side.e1) + mpf("0.01")
        return alpha

    @settings(max_examples=60, deadline=None)
    @given(stat=st.sampled_from([BOSON, FERMION]),
           side=st.sampled_from([W_MINUS, W_PLUS]),
           t=st.one_of(st.floats(0.01, 3), st.floats(3, 1e4)),
           alpha=st.floats(-3, 6))
    # both sides of the switch from stride 1 to stride 2
    @example(stat=BOSON, side=W_MINUS, t=1000.0, alpha=0.2809)
    @example(stat=FERMION, side=W_PLUS, t=1000.0, alpha=0.2810)
    @example(stat=BOSON, side=W_PLUS, t=300.0, alpha=0.8146)
    @example(stat=FERMION, side=W_MINUS, t=300.0, alpha=0.8147)
    # alpha just above 0, where the strip has no width
    @example(stat=BOSON, side=W_MINUS, t=1.0, alpha=5e-324)
    def test_match_full_level_sums(self, stat, side, t, alpha):
        with mp.workdps(30 + GUARD_DIGITS):
            b = 1 / mpf(t)
            alpha = self._above_pole(stat, side, b, alpha)
            number, dnumber = oracle._number_sums(self._table(stat, side, b), alpha)
            full = oracle._level_sums(self._table(stat, side, b), alpha)
            # each is within its truncation target of the untruncated sums:
            # eps for the number, 2 eps for its derivative
            assert abs(number - full.number) <= 2 * self.EPS
            assert abs(dnumber - full.dnumber) <= 4 * self.EPS
            if full.stride > 1:
                # strided number sums stop where the full sums do
                assert (number, dnumber) == (full.number, full.dnumber)

    @pytest.mark.parametrize("t", ["1e120", "1e200", "1e308"])
    def test_stride_at_huge_temperature(self, t):
        # M/eps overflows a float from t ~ 1e100 on and eps underflows near
        # 1e308; chosen from logarithms, the stride stays near a/ln(M/eps)
        with mp.workdps(30 + GUARD_DIGITS):
            b = 1 / mpf(t)
            table = oracle._LevelTable(BOSON, W_PLUS, b,
                                       oracle._sum_target(DEFAULT_POLICY, b))
            alpha = mp.log(mp.sqrt(mp.pi / b) / 2 / 5)  # the classical root at N = 5
            m = table.stride(alpha)
            a = mp.sqrt(alpha / b)
            assert a / 1000 < m < a / 100
            sums = oracle._level_sums(table, alpha)
            assert sums.stride == m and sums.terms < 1000

    @settings(max_examples=40, deadline=None)
    @given(stat=st.sampled_from([BOSON, FERMION]),
           side=st.sampled_from([W_MINUS, W_PLUS]),
           log10_t=st.floats(2, 6),
           alpha=st.floats(0.01, 12))
    @example(stat=BOSON, side=W_MINUS, log10_t=3.0, alpha=0.2809)
    @example(stat=FERMION, side=W_PLUS, log10_t=3.0, alpha=0.2810)
    @example(stat=BOSON, side=W_PLUS, log10_t=math.log10(300), alpha=0.8146)
    @example(stat=FERMION, side=W_MINUS, log10_t=math.log10(300), alpha=0.8147)
    def test_chosen_stride_matches_stride_one(self, stat, side, log10_t, alpha):
        # the same four sums over every level and over the chosen stride
        # differ by no more than their two tails together
        with mp.workdps(30 + GUARD_DIGITS):
            b = 1 / mpf(10) ** log10_t
            alpha = mpf(alpha)
            table = self._table(stat, side, b)
            chosen = oracle._level_sums(table, alpha)
            every = oracle._level_sums(table, alpha, 1)
            assert chosen.stride == table.stride(alpha) and every.stride == 1
            for k in range(4):
                assert abs(chosen[k] - every[k]) <= chosen[4 + k] + every[4 + k]
            number, dnumber = oracle._number_sums(table, alpha)
            assert abs(number - every.number) <= 2 * self.EPS
            assert abs(dnumber - every.dnumber) <= 4 * self.EPS

    @settings(max_examples=60, deadline=None)
    @given(stat=st.sampled_from([BOSON, FERMION]),
           side=st.sampled_from([W_MINUS, W_PLUS]),
           t=st.one_of(st.floats(0.01, 3), st.floats(3, 1e4)),
           alpha=st.floats(-3, 6))
    @example(stat=BOSON, side=W_MINUS, t=1000.0, alpha=0.2809)
    @example(stat=FERMION, side=W_PLUS, t=1000.0, alpha=0.2810)
    @example(stat=BOSON, side=W_PLUS, t=300.0, alpha=0.8146)
    @example(stat=FERMION, side=W_MINUS, t=300.0, alpha=0.8147)
    def test_level_table_changes_no_sum(self, stat, side, t, alpha):
        # a table that earlier calls have extended, on other strides and to
        # other depths, gives the sums of a fresh call
        with mp.workdps(30 + GUARD_DIGITS):
            b = 1 / mpf(t)
            alpha = self._above_pole(stat, side, b, alpha)
            table = self._table(stat, side, b)
            for other in (alpha + 1, alpha + 3, max(alpha - 1, alpha / 2)):
                oracle._number_sums(table, other)
            for sums in (oracle._number_sums, oracle._level_sums):
                plain = sums(self._table(stat, side, b), alpha)
                tabled = sums(table, alpha)
                assert abs(tabled[0] - plain[0]) <= 2 * self.EPS
                assert abs(tabled[1] - plain[1]) <= 4 * self.EPS
            assert tabled.stride == plain.stride and tabled.terms == plain.terms


def test_delta_f_within_bound_of_60_digit_sum():
    """delta_f is formed at working precision, not at the caller's 15 digits."""
    N = 8
    with mp.workdps(15):
        t = mpf("0.71998672445157863")
        point = net_force(BOSON, N, t)
    with mp.workdps(60):
        b = 1 / t

        def sums(tau, alpha):
            number = force = mpf(0)
            n = 1
            while alpha + b * (n - tau) ** 2 < 160:
                en = (n - tau) ** 2
                occ = 1 / (mp.e ** (alpha + b * en) - 1)
                number += occ
                force += en * occ
                n += 1
            return number, force

        def force(tau):
            lo, hi = -b * (1 - tau) ** 2 + mpf("1e-50"), mpf(50)
            for _ in range(230):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if sums(tau, mid)[0] > N else (lo, mid)
            return sums(tau, (lo + hi) / 2)[1]

        exact = force(mpf(0)) - force(mpf("0.5"))
        assert abs(point.delta_f - exact) <= point.delta_f_error


ENTRY_POINTS = {
    "solve_alpha": lambda N: solve_alpha(BOSON, W_PLUS, N, 1),
    "force_side": lambda N: force_side(BOSON, W_PLUS, N, 1),
    "net_force": lambda N: net_force(BOSON, N, 1),
    "locate_minimum": lambda N: locate_minimum(BOSON, N),
    "locate_inflections": lambda N: locate_inflections(FERMION, N),
    "shift_finite_temperature": lambda N: shift_finite_temperature(BOSON, N, 1),
}


@pytest.mark.parametrize("N", [0, -2, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_particle_number_checked_at_every_entry(entry, N):
    # each entry point solves through one function that checks N
    with pytest.raises(ValueError, match="N must be a positive integer"):
        ENTRY_POINTS[entry](N)


def _direct_moments(eta, tau, alpha, b, c, dps=70):
    """Level-by-level sums at ``dps`` digits: the number, S_k = sum e^k D and
    T_k = sum e^k n'' (k = 0..3), and about the centre c the sums
    C_2, C_4 (weights (e - c)^2, (e - c)^4 on D) and B_3 (weight
    (e - c)^3 on n''), with D = N (1 + eta N) and n'' = D (1 + 2 eta N).

    Stops on the decreasing flank (x > 2, b e > 4) once (e + |c|)^4 e^(-x)
    is below 1e-60; the dropped terms then fall at least geometrically.
    """
    with mp.workdps(dps):
        alpha, b, c = mpf(alpha), mpf(b), mpf(c)
        out = dict(number=mpf(0), C2=mpf(0), C4=mpf(0), B3=mpf(0))
        for k in range(4):
            out[f"S{k}"] = out[f"T{k}"] = mpf(0)
        u = mp.exp(-alpha - b * (1 - tau) ** 2)
        ratio, shrink = mp.exp(-b * (3 - 2 * tau)), mp.exp(-2 * b)
        n = 1
        while True:
            en = (n - tau) ** 2
            occ = u / (1 - eta * u)
            docc = occ * (1 + eta * occ)
            d2occ = docc * (1 + 2 * eta * occ)
            out["number"] += occ
            w = en - c
            out["C2"] += w ** 2 * docc
            out["C4"] += w ** 4 * docc
            out["B3"] += w ** 3 * d2occ
            for k in range(4):
                out[f"S{k}"] += en ** k * docc
                out[f"T{k}"] += en ** k * d2occ
            if (en + abs(c)) ** 4 * u < mpf("1e-60") and alpha + b * en > 2 and b * en > 4:
                return out
            u *= ratio
            ratio *= shrink
            n += 1


def _brute_derivatives(sums, b, dps=70):
    """(df/dt, d^2f/dt^2) from the raw level sums of :func:`_direct_moments`:
    V = S_2 - S_1^2/S_0, V_b = S_2b - 2 S_1 S_1b/S_0 + S_1^2 S_0b/S_0^2 with
    S_kb = -(alpha_b T_k + T_(k+1)) and alpha_b = -S_1/S_0."""
    with mp.workdps(dps):
        s, t = [sums[f"S{k}"] for k in range(4)], [sums[f"T{k}"] for k in range(4)]
        alpha_b = -s[1] / s[0]
        s_b = [-(alpha_b * t[k] + t[k + 1]) for k in range(3)]
        v = s[2] - s[1] ** 2 / s[0]
        v_b = s_b[2] - 2 * s[1] * s_b[1] / s[0] + s[1] ** 2 * s_b[0] / s[0] ** 2
        return b ** 2 * v, -2 * b ** 3 * v - b ** 4 * v_b


class TestTemperatureDerivatives:
    """d delta_f/dt and d^2 delta_f/dt^2 from the final level-sum pass, and
    their certified bounds."""

    HIGH = PrecisionPolicy(working_digits=60, max_digits=120,
                           target_abs_error=1e-45, target_rel_error=1e-45)

    @pytest.mark.parametrize("stat,N,t", [
        (BOSON, 100, "55"), (FERMION, 100, "4440"), (BOSON, 100, "1e7"),
        (BOSON, 8, "0.01"), (FERMION, 4, "4.85"),
    ])
    def test_match_60_digit_centred_differences(self, stat, N, t):
        point = net_force(stat, N, mpf(t), derivatives=True)
        with mp.workdps(70):
            t = mpf(t)
            h = t * mpf("1e-12")
            f_lo, f_mid, f_hi = (net_force(stat, N, x, self.HIGH).delta_f
                                 for x in (t - h, t, t + h))
            d1 = (f_hi - f_lo) / (2 * h)
            d2 = (f_hi - 2 * f_mid + f_lo) / (h * h)
            # the differences carry h^2 truncation and 1e-45/h^2 rounding
            assert abs(point.d_delta_f_dt - d1) <= \
                point.d_delta_f_dt_error + mpf("1e-20") * abs(d1) + mpf("1e-30")
            assert abs(point.d2_delta_f_dt2 - d2) <= \
                point.d2_delta_f_dt2_error + mpf("1e-15") * abs(d2) + mpf("1e-18")

    def test_default_path_unchanged(self):
        plain = net_force(FERMION, 3, mpf("1.1"))
        both = net_force(FERMION, 3, mpf("1.1"), derivatives=True)
        assert plain.d_delta_f_dt is None and plain.d2_delta_f_dt2_error is None
        assert (both.delta_f, both.delta_f_error) == (plain.delta_f, plain.delta_f_error)
        assert force_side(FERMION, W_PLUS, 3, mpf("1.1"), derivatives=True)[:2] == \
            force_side(FERMION, W_PLUS, 3, mpf("1.1"))
        with pytest.raises(ValueError):
            net_force(FERMION, 3, 1, derivatives=2)

    def test_condensate_bounds_set_by_the_excited_levels(self):
        # boson N=8 at t=0.01: about the first level, which holds nearly
        # every particle, the moments are those of the excited levels at
        # e^(-300) of its weight; their rounding must lie below them
        point = net_force(BOSON, 8, mpf("0.01"), derivatives=True)
        assert abs(point.d_delta_f_dt) > mpf("1e-90")
        assert point.d_delta_f_dt_error < mpf("1e-112")
        assert point.d2_delta_f_dt2_error < mpf("1e-106")

    @pytest.mark.parametrize("stat,side,N,t,target,dps", [
        (FERMION, W_MINUS, 3, "1.1", 1e-12, 70),
        (BOSON, W_PLUS, 6, "3.3", 1e-12, 70),
        # the Bose pole, x_1 = log(1 + 1/N) on the minus side: the excited
        # levels carry e^(-300) of the weight, so the raw formula cancels
        # to 130 digits
        (BOSON, W_MINUS, 8, "0.01", 1e-12, 250),
        (FERMION, W_PLUS, 100, "4440", 1e-12, 70),
        # strided, m >= 2
        (BOSON, W_PLUS, 30, "1e4", 1e-12, 70),
        # a loose target: the alpha residual dominates the bounds
        (FERMION, W_MINUS, 30, "40", 1e-4, 70),
        (BOSON, W_MINUS, 6, "3.3", 1e-4, 70),
    ])
    def test_bounds_contain_70_digit_derivatives(self, stat, side, N, t, target, dps):
        policy = PrecisionPolicy(target_abs_error=target)
        _, _, (d1, e1), (d2, e2) = force_side(stat, side, N, mpf(t), policy, derivatives=True)
        tau = as_mpf(side.tau)
        with mp.workdps(dps):
            b = 1 / mpf(t)
            alpha = solve_alpha(stat, side, N, mpf(t)).alpha
            for _ in range(3):  # Newton on the level-by-level constraint
                sums = _direct_moments(stat.eta, tau, alpha, b, 0, dps)
                alpha += (sums["number"] - N) / sums["S0"]
            sums = _direct_moments(stat.eta, tau, alpha, b, 0, dps)
            assert abs(sums["number"] - N) < mpf("1e-55")
            exact1, exact2 = _brute_derivatives(sums, b, dps)
        assert abs(d1 - exact1) <= e1 + mpf("1e-32") * abs(exact1)
        assert abs(d2 - exact2) <= e2 + mpf("1e-32") * abs(exact2)

    def test_tails_and_aliasing_contain_70_digit_sums(self):
        """The moment sums and the derivatives formed from them, at a given
        alpha (alpha_error = 0, so the bounds are the tails alone) and at
        loose truncation targets, against 70-digit level-by-level sums: on
        stride 1, on the chosen stride m >= 2 and on 3m, whose aliasing is
        far above the target, and from just above the Bose pole."""
        rng = random.Random(20261019)
        slack = mpf("1e-33")
        counts = {"1": 0, "m": 0, "3m": 0, "pole": 0}
        with mp.workdps(DEFAULT_POLICY.dps):
            for i in range(48):
                stat = rng.choice((BOSON, FERMION))
                side = rng.choice((W_MINUS, W_PLUS))
                tau = as_mpf(side.tau)
                eps = mpf(10) ** rng.uniform(-20, -8)
                kind = ("1", "m", "pole")[i % 3]
                if kind == "m":
                    b = mpf(10) ** rng.uniform(-3.5, -2)
                    alpha = mpf(10) ** rng.uniform(-0.5, 1.1)
                elif kind == "pole":
                    stat = BOSON
                    b = mpf(10) ** rng.uniform(-2, 1)
                    alpha = -b * (1 - tau) ** 2 + mpf(10) ** rng.uniform(-4, -1)
                else:
                    b = mpf(10) ** rng.uniform(-2, 1)
                    alpha = mpf(rng.uniform(-20, 4)) if not stat.is_boson else \
                        -b * (1 - tau) ** 2 + mpf(10) ** rng.uniform(-1, 1)
                table = oracle._LevelTable(stat, side, b, eps)
                chosen = table.stride(alpha)
                strides = [chosen] if chosen == 1 else [chosen, 3 * chosen]
                for m in strides:
                    sums = oracle._level_sums(table, alpha, m)
                    mom = oracle.moment_sums(table, alpha, sums)
                    exact = _direct_moments(stat.eta, tau, alpha, b, mom.c)
                    for name, value, tail in (("C2", mom.c2, mom.tail_c2),
                                              ("C4", mom.c4, mom.tail_c4),
                                              ("B3", mom.b3, mom.tail_b3)):
                        assert abs(value - exact[name]) <= \
                            tail + slack * max(1, abs(exact[name])), \
                            f"instance {i} (stride {m}): {name} beyond its tail bound"
                    derivs = oracle.side_derivatives(table, alpha, sums, mpf(0))
                    for order, (value, bound), brute in zip(
                            (1, 2), derivs, _brute_derivatives(exact, b)):
                        assert abs(value - brute) <= bound + slack * max(1, abs(brute)), \
                            f"instance {i} (stride {m}): derivative {order} beyond its bound"
                    label = kind if m == 1 or kind != "m" else ("m" if m == chosen else "3m")
                    counts[label] += 1
        assert min(counts.values()) >= 10, counts
