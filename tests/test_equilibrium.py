import pytest
from mpmath import mp, mpf

from partition_well import equilibrium, oracle
from partition_well.equilibrium import (
    shift_finite_temperature,
    shift_zero_temperature,
    transfer_zero_temperature,
)
from partition_well.lowtemp import zero_temperature_forces
from partition_well.model import BOSON, FERMION


class TestShiftZeroTemperature:
    def test_boson_value(self):
        res = shift_zero_temperature(BOSON, 100)
        expected = (mp.cbrt(4) - 1) / (mp.cbrt(4) + 1)
        assert abs(res.xi - expected) < mpf("1e-25")
        assert abs(res.xi - mpf("0.227")) < mpf("5e-4")
        assert abs(res.r_ratio - mp.cbrt(4)) < mpf("1e-25")

    def test_boson_independent_of_N(self):
        xis = [shift_zero_temperature(BOSON, N).xi for N in (1, 10, 1000)]
        assert max(xis) - min(xis) < mpf("1e-30")

    def test_fermion_small_shift(self):
        res = shift_zero_temperature(FERMION, 100)
        assert abs(res.xi - mpf("0.0025")) / mpf("0.0025") < mpf("0.02")
        ratio = (mpf(2) * 101 / 199) ** (mpf(1) / 3)
        assert abs(res.r_ratio - ratio) < mpf("1e-25")

    def test_fermion_asymptotic_quarter(self):
        res = shift_zero_temperature(FERMION, 1000)
        assert abs(res.xi * 1000 - mpf("0.25")) / mpf("0.25") < mpf("0.02")


class TestShiftFiniteTemperature:
    def test_matches_closed_form_at_tiny_temperature(self):
        for stat in (BOSON, FERMION):
            closed = shift_zero_temperature(stat, 50).xi
            solved = shift_finite_temperature(stat, 50, mpf("1e-4")).xi
            assert abs(closed - solved) < mpf("1e-3")

    def test_boson_shift_decreases_with_temperature(self):
        # a small genuine bump (about +1 percent, peaking near the force
        # minimum) precedes the steady decline at N = 100; beyond it the
        # shift falls monotonically and ends far below the plateau
        xi_1 = shift_finite_temperature(BOSON, 100, mpf(1)).xi
        xis = [shift_finite_temperature(BOSON, 100, t).xi
               for t in (mpf(30), mpf(300), mpf(10000))]
        assert 0 < xi_1 < xis[0] < 1
        assert all(a > b for a, b in zip(xis, xis[1:]))
        assert xis[-1] < xi_1 / 10

    def test_force_balance_at_solution(self):
        from partition_well.oracle import force_side
        from partition_well.model import W_MINUS, W_PLUS
        t = mpf(40)
        res = shift_finite_temperature(BOSON, 60, t)
        f_m, _ = force_side(BOSON, W_MINUS, 60, t * (1 + res.xi) ** 2)
        f_p, _ = force_side(BOSON, W_PLUS, 60, t * (1 - res.xi) ** 2)
        net = f_m / (1 + res.xi) ** 3 - f_p / (1 - res.xi) ** 3
        assert abs(net) / (f_m + f_p) < mpf("1e-6")

    def test_fermion_shift_curve_collapses_in_scaled_temperature(self):
        # the knee of the shift curve moves with N^2: at matched t/N^2 the
        # relative decline from xi(0) is N-independent
        declines = []
        for N in (50, 100):
            xi0 = shift_zero_temperature(FERMION, N).xi
            xi = shift_finite_temperature(FERMION, N, mpf("0.5") * N * N).xi
            declines.append(xi / xi0)
        assert abs(declines[0] - declines[1]) < mpf("0.01")
        assert declines[0] < mpf("0.95")  # past the plateau, the shift has dropped

    def test_force_side_calls(self, root_evaluations, monkeypatch):
        # each xi is solved once, two sides each: xi = 0 for the scale and
        # the first Newton step, then the upper bracket end a quarter beyond
        # it, 3 Newton steps from there and the straddle probe, then the
        # root, which the straddle probe returns unevaluated.  The secant
        # solve from the bracket [0, 0.5] took 9 root-finder evaluations and
        # 20 calls
        calls = []
        force_side = oracle.force_side

        def counting_force_side(*args, **kwargs):
            calls.append(1)
            return force_side(*args, **kwargs)

        monkeypatch.setattr(oracle, "force_side", counting_force_side)
        evals = root_evaluations(equilibrium)
        shift_finite_temperature(BOSON, 5, 3)
        assert evals == [6]
        assert len(calls) == 14


class TestTransfer:
    def test_boson_split(self):
        split = transfer_zero_temperature(BOSON, 100)
        assert split.n_plus == 160
        assert split.n_minus == 40
        assert split.rounded() == (160, 40)

    def test_conservation(self):
        for stat in (BOSON, FERMION):
            split = transfer_zero_temperature(stat, 73)
            assert abs(split.n_plus + split.n_minus - 146) < mpf("1e-20")

    def test_fermion_ratio(self):
        split = transfer_zero_temperature(FERMION, 100)
        ratio = split.n_plus / split.n_minus
        assert abs(ratio - mpf("1.005")) < mpf("2e-4")

    def test_fermion_asymptote(self):
        for N in (100, 1000):
            split = transfer_zero_temperature(FERMION, N)
            ratio = split.n_plus / split.n_minus
            assert abs(ratio - (1 + mpf(1) / (2 * N))) < mpf("0.1") / N

    def test_fermion_secant_work(self, root_evaluations):
        evals = root_evaluations(equilibrium)
        transfer_zero_temperature(FERMION, 100)
        assert evals == [7]

    def test_balance_is_exact_at_split(self):
        split = transfer_zero_temperature(FERMION, 100)
        x = split.n_plus
        f_plus = x * (4 * x * x - 1) / 12
        y = split.n_minus
        f_minus = y * (y + 1) * (2 * y + 1) / 6
        assert abs(f_plus - f_minus) / f_plus < mpf("1e-15")

    def test_single_particle_reverses_fermion_imbalance(self):
        # moving one particle from the minus to the plus side at t = 0
        # overshoots the balance: the net force changes sign
        base = zero_temperature_forces(FERMION, 100)
        assert base.delta_f > 0
        f_minus_99 = mpf(99 * 100 * 199) / 6
        f_plus_101 = mpf(101 * (4 * 101 ** 2 - 1)) / 12
        assert f_minus_99 - f_plus_101 < 0
