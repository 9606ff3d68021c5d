import pytest
from mpmath import mp, mpf

from partition_well.hightemp import fugacity_expansion, net_force_asymptote
from partition_well.model import BOSON, FERMION, W_MINUS, W_PLUS, as_mpf
from partition_well.numerics import DEFAULT_POLICY, FixedPointLattice
from partition_well.oracle import _theta0, net_force, solve_alpha

EPS = mpf("1e-30")


def theta0(b, side):
    """Theta_0(b) of ``side`` to EPS, from the stride-1 lattice and w_1 as
    the level table passes them."""
    y0 = 1 - as_mpf(side.tau)
    return _theta0(FixedPointLattice(b, y0, 1), mp.exp(-b * y0 ** 2), side.sigma, EPS)


class TestThetaLevelSum:
    """Poisson form of the level sum Theta_0(b) = sum_n exp(-b e_n):
    sqrt(pi/(4b)) sum_m (2 sigma - 1)^m exp(-pi^2 m^2/b) - sigma/2, which
    the oracle evaluates below b = 1.5."""

    def test_single_image_term(self):
        # on the plus side (sigma = 0) the m = 0 term alone is sqrt(pi/(4b));
        # the first image, -2 sqrt(pi/(4b)) e^(-pi^2/b), is all that is left
        with mp.workdps(DEFAULT_POLICY.dps):
            b = mpf("0.37")
            lead = mp.sqrt(mp.pi / (4 * b))
            theta, err = theta0(b, W_PLUS)
            first_image = -2 * lead * mp.exp(-mp.pi ** 2 / b)
            assert abs(theta - lead - first_image) <= err + abs(first_image) * mpf("1e-6")

    def test_matches_direct_level_sum_at_moderate_b(self):
        with mp.workdps(DEFAULT_POLICY.dps):
            b = mpf("1.2")
            for side in (W_MINUS, W_PLUS):
                tau = as_mpf(side.tau)
                brute = mp.fsum(mp.exp(-b * (n - tau) ** 2) for n in range(1, 40))
                theta, err = theta0(b, side)
                assert abs(theta - brute) <= err + mpf("1e-38")

    def test_images_negligible_at_small_b(self):
        with mp.workdps(DEFAULT_POLICY.dps):
            b = mpf("0.01")
            theta, _ = theta0(b, W_MINUS)
            without = mp.sqrt(mp.pi / (4 * b)) - mpf(1) / 2
            assert abs(theta - without) / theta < mpf("1e-35")


class TestFugacityExpansion:
    def test_order_one_value(self):
        exp = fugacity_expansion(BOSON, W_MINUS, 100, mpf("1e-6"), 1)
        assert abs(exp.q_value - 200 * mp.sqrt(mpf("1e-6") / mp.pi)) < mpf("1e-20")
        assert abs(exp.q_value - mpf("0.112838")) < mpf("1e-6")
        assert exp.within_validity

    def test_second_order_correction(self):
        b = mpf("1e-6")
        q1 = fugacity_expansion(BOSON, W_MINUS, 100, b, 1).q_value
        q2 = fugacity_expansion(BOSON, W_MINUS, 100, b, 2).q_value
        expected = 200 * (1 - mp.sqrt(2) * 100) * b / mp.pi
        assert abs((q2 - q1) - expected) < mpf("1e-15")
        assert abs((q2 - q1) - mpf("-8.9394e-3")) < mpf("1e-6")

    def test_against_oracle_fugacity(self):
        t = mpf("1e8")
        sol = solve_alpha(BOSON, W_MINUS, 100, t)
        exp = fugacity_expansion(BOSON, W_MINUS, 100, 1 / t, 2)
        assert abs(exp.q_value - sol.q_fugacity) / sol.q_fugacity < mpf("1e-2")

    def test_validity_flag(self):
        assert not fugacity_expansion(BOSON, W_PLUS, 100, mpf("1e-2"), 1).within_validity


class TestAsymptote:
    def test_leading_at_t_pi(self):
        assert abs(net_force_asymptote(100, mp.pi, "leading") - 50) < mpf("1e-25")

    def test_leading_statistics_independent(self):
        # the leading coefficient never touches eta
        a = net_force_asymptote(100, mpf("1e7"), "leading")
        assert abs(a - 50 * mp.sqrt(mpf("1e7") / mp.pi)) < mpf("1e-25")

    def test_next_order_constants(self):
        t = mp.pi
        const_f = net_force_asymptote(100, t, "next", FERMION) - 50
        const_b = net_force_asymptote(100, t, "next", BOSON) - 50
        assert abs(const_f - (-(100 / mp.pi) * (-(mp.sqrt(2) - 1) * 100 - mpf("0.5")))) \
            < mpf("1e-20")
        assert abs(const_f - mpf("1334.4")) < mpf("0.1")
        assert const_b < 0 < const_f

    def test_next_requires_statistics(self):
        with pytest.raises(ValueError):
            net_force_asymptote(100, 1e6, "next")

    @pytest.mark.parametrize("stat", [BOSON, FERMION])
    def test_remainder_shrinks(self, stat):
        abs_errs = []
        rel_errs = []
        for t in (mpf("1e4"), mpf("1e5"), mpf("1e6"), mpf("1e8")):
            exact = net_force(stat, 100, t).delta_f
            gap = abs(exact - net_force_asymptote(100, t, "next", stat))
            abs_errs.append(gap)
            rel_errs.append(gap / exact)
        assert all(a > b for a, b in zip(abs_errs, abs_errs[1:]))
        assert all(a > b for a, b in zip(rel_errs, rel_errs[1:]))


def test_leading_force_term_cancels_between_sides():
    # with the side-independent order-1 fugacity, the k=1 fugacity term of
    # the force, q Theta_1(b) with Theta_1(b) = sum_n e_n e^(-b e_n), is
    # identical for the two sides and drops out of the difference
    with mp.workdps(DEFAULT_POLICY.dps):
        b = mpf("1e-5")
        q1 = fugacity_expansion(BOSON, W_PLUS, 100, b, 1).q_value

        def theta1(side):
            # level by level, until the terms on the decreasing flank fall
            # below 1e-45 of the sum
            tau = as_mpf(side.tau)
            total, n = mpf(0), 1
            while True:
                en = (n - tau) ** 2
                term = en * mp.exp(-b * en)
                total += term
                if b * en > 2 and term < total * mpf("1e-45"):
                    return total
                n += 1

        plus, minus = q1 * theta1(W_PLUS), q1 * theta1(W_MINUS)
        assert abs(plus - minus) / plus < mpf("1e-25")
