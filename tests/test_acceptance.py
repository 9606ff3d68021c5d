"""Acceptance suite: every exit criterion at its stated tolerance.

Each check prints one `ACCEPTANCE <id>: PASS|FAIL ...` line with the
measured value (run ``pytest tests/test_acceptance.py -s`` to stream them)
and then asserts.  Shared expensive searches (curve minima, inflection
scans) are computed once per session.
"""

import random

import pytest
from mpmath import mp, mpf

from partition_well import oracle
from partition_well.boson_medium import (
    medium_error_integral_constants,
    quadratic_approximant,
    solve_scaled_alpha,
)
from partition_well.equilibrium import shift_zero_temperature, transfer_zero_temperature
from partition_well.fermion_medium import force_kernel_minimum, tanh_surrogate_quadratic
from partition_well.hightemp import net_force_asymptote
from partition_well.lowtemp import step_inflection_points
from partition_well.model import BOSON, FERMION, W_MINUS, W_PLUS, as_mpf
from partition_well.numerics import DEFAULT_POLICY
from partition_well.oracle import (
    locate_inflections,
    locate_minimum,
    net_force,
    solve_alpha,
)


def check(cid, description, measured, ok):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {description} [{measured}]")
    assert ok, f"criterion {cid}, {description}: measured {measured}"


@pytest.fixture(scope="module")
def boson_minimum_100():
    return locate_minimum(BOSON, 100)


@pytest.fixture(scope="module")
def boson_minimum_1000():
    return locate_minimum(BOSON, 1000)


@pytest.fixture(scope="module")
def fermion_minimum_100():
    return locate_minimum(FERMION, 100)


@pytest.fixture(scope="module")
def fermion_inflections_100():
    return locate_inflections(FERMION, 100)


# -- criterion 1: zero-temperature anchors ---------------------------------

def test_criterion_01_zero_t_anchors():
    boson = net_force(BOSON, 100, mpf("1e-4")).delta_f
    fermion = net_force(FERMION, 100, mpf("1e-4")).delta_f
    rel_b = abs(boson - 75) / 75
    rel_f = abs(fermion - 5025) / 5025
    check("1", "boson delta_f(1e-4, N=100) = 75 within 1e-6 relative",
          f"delta_f={mp.nstr(boson, 12)}", rel_b < mpf("1e-6"))
    check("1", "fermion delta_f(1e-4, N=100) = 5025 within 1e-6 relative",
          f"delta_f={mp.nstr(fermion, 12)}", rel_f < mpf("1e-6"))


# -- criterion 2: high-temperature scaling ----------------------------------

def test_criterion_02_high_temperature():
    for stat, label in ((BOSON, "boson"), (FERMION, "fermion")):
        t9 = mpf("1e9")
        ratio = net_force(stat, 100, t9).delta_f / (50 * mp.sqrt(t9 / mp.pi))
        check("2", f"{label} delta_f / leading at t=1e9 in [0.99, 1.01]",
              f"ratio={mp.nstr(ratio, 10)}", mpf("0.99") <= ratio <= mpf("1.01"))
        gaps = []
        for t in (mpf("1e6"), mpf("1e7"), mpf("1e8"), mpf("1e9")):
            exact = net_force(stat, 100, t).delta_f
            gaps.append(abs(exact - net_force_asymptote(100, t, "next", stat)))
        decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
        check("2", f"{label} |delta_f - next order| decreases over 1e6..1e9",
              "gaps=" + ", ".join(mp.nstr(g, 5) for g in gaps), decreasing)


# -- criterion 3: bosonic minimum -------------------------------------------

def test_criterion_03_boson_minimum_location_n100(boson_minimum_100):
    ratio = boson_minimum_100.t_min / 100
    check("3", "boson t_min/N at N=100 equals 0.548 within 5%",
          f"t_min/N={mp.nstr(ratio, 8)}", abs(ratio - mpf("0.548")) <= mpf("0.05") * mpf("0.548"))


def test_criterion_03_boson_minimum_value_n100(boson_minimum_100):
    df_min = boson_minimum_100.delta_f_min
    ratio = df_min / 100
    check("3", "boson delta_f_min/N at N=100 equals 0.597 within 3%",
          f"delta_f_min/N={mp.nstr(ratio, 8)}",
          abs(ratio - mpf("0.597")) <= mpf("0.03") * mpf("0.597"))


def test_criterion_03_boson_minimum_location_n1000(boson_minimum_1000):
    ratio = boson_minimum_1000.t_min / 1000
    check("3", "boson t_min/N at N=1000 equals 0.548 within 2%",
          f"t_min/N={mp.nstr(ratio, 8)}", abs(ratio - mpf("0.548")) <= mpf("0.02") * mpf("0.548"))


def test_criterion_03_boson_minimum_value_n1000(boson_minimum_1000):
    df_min = boson_minimum_1000.delta_f_min
    ratio = df_min / 1000
    check("3", "boson delta_f_min/N at N=1000 equals 0.597 within 2%",
          f"delta_f_min/N={mp.nstr(ratio, 8)}",
          abs(ratio - mpf("0.597")) <= mpf("0.02") * mpf("0.597"))


# -- criterion 4: fermionic minimum -----------------------------------------

def test_criterion_04_fermion_minimum(fermion_minimum_100):
    t_min, df_min, _ = fermion_minimum_100
    t_ratio = t_min / 10 ** 4
    f_ratio = df_min / 10 ** 4
    check("4", "fermion t_min/N^2 at N=100 equals 0.444 within 5%",
          f"t_min/N^2={mp.nstr(t_ratio, 8)}",
          abs(t_ratio - mpf("0.444")) <= mpf("0.05") * mpf("0.444"))
    check("4", "fermion delta_f_min/N^2 at N=100 equals 0.453 within 5%",
          f"delta_f_min/N^2={mp.nstr(f_ratio, 8)}",
          abs(f_ratio - mpf("0.453")) <= mpf("0.05") * mpf("0.453"))


# -- criterion 5: transcendental anchors ------------------------------------

def test_criterion_05_scaled_alpha_anchors():
    # N/t = pi^2/2 on the minus side and pi^2/6 on the plus side
    minus = solve_scaled_alpha(W_MINUS, 100, 200 / mp.pi ** 2, "exact_S_solve")
    plus = solve_scaled_alpha(W_PLUS, 100, 600 / mp.pi ** 2, "exact_S_solve")
    check("5", "minus-side scaled alpha at N/t = pi^2/2 is -0.7627 within 1e-3",
          f"t_alpha={mp.nstr(minus.t_alpha, 8)}",
          abs(minus.t_alpha - mpf("-0.7627")) <= mpf("1e-3"))
    check("5", "plus-side scaled alpha at N/t = pi^2/6 is 0.9026 within 1e-3",
          f"t_alpha={mp.nstr(plus.t_alpha, 8)}",
          abs(plus.t_alpha - mpf("0.9026")) <= mpf("1e-3"))


# -- criterion 6: fermionic force-kernel machinery ---------------------------

def test_criterion_06_kernel_quadrature_minimum():
    a_min, j_min = force_kernel_minimum("quadrature")
    check("6", "quadrature kernel minimum alpha = -2.567 within 0.01",
          f"alpha={mp.nstr(a_min, 8)}", abs(a_min - mpf("-2.567")) <= mpf("0.01"))
    check("6", "quadrature kernel minimum J = 1.813 within 0.01",
          f"J={mp.nstr(j_min, 8)}", abs(j_min - mpf("1.813")) <= mpf("0.01"))


def test_criterion_06_kernel_stoner_minimum():
    a_min, j_min = force_kernel_minimum("stoner")
    check("6", "stoner kernel minimum alpha close to -1.95",
          f"alpha={mp.nstr(a_min, 8)}", abs(a_min - mpf("-1.95")) <= mpf("0.02"))
    check("6", "stoner kernel minimum J = 1.96 within 0.02",
          f"J={mp.nstr(j_min, 8)}", abs(j_min - mpf("1.96")) <= mpf("0.02"))


def test_criterion_06_tanh_surrogate_quadratic():
    a, center, minimum = tanh_surrogate_quadratic()
    for got, want, label in ((a, mpf("0.134"), "curvature"),
                             (center, mpf("-2.48"), "center"),
                             (minimum, mpf("1.64"), "minimum")):
        check("6", f"tanh-surrogate quadratic {label} = {want} within 5%",
              f"{label}={mp.nstr(got, 8)}", abs(got - want) <= mpf("0.05") * abs(want))


# -- criterion 7: improved bosonic approximant -------------------------------

def test_criterion_07_improved_approximant():
    a, center, minimum = quadratic_approximant("improved")
    for got, want, label in ((a, mpf("0.5121"), "curvature"),
                             (center, mpf("0.5465"), "center"),
                             (minimum, mpf("0.5967"), "minimum")):
        check("7", f"improved approximant {label} = {want} within 1e-3",
              f"{label}={mp.nstr(got, 8)}", abs(got - want) <= mpf("1e-3"))


# -- criterion 8: fermionic step --------------------------------------------

def test_criterion_08_oracle_inflections(fermion_inflections_100):
    t_begin, t_end = fermion_inflections_100[:2]
    check("8", "oracle t_begin/N at N=100 equals 0.237 within 0.012",
          f"t_begin/N={mp.nstr(t_begin / 100, 8)}",
          abs(t_begin / 100 - mpf("0.237")) <= mpf("0.012"))
    check("8", "oracle t_end/N at N=100 equals 0.472 within 0.024",
          f"t_end/N={mp.nstr(t_end / 100, 8)}",
          abs(t_end / 100 - mpf("0.472")) <= mpf("0.024"))


def test_criterion_08_model_inflections():
    v_begin, v_end = step_inflection_points("semi_four_level")
    check("8", "semi-four-level t_begin/N = 0.239 within 1e-3",
          f"v_begin={mp.nstr(v_begin, 8)}", abs(v_begin - mpf("0.239")) <= mpf("1e-3"))
    check("8", "semi-four-level t_end/N = 0.426 within 1e-3",
          f"v_end={mp.nstr(v_end, 8)}", abs(v_end - mpf("0.426")) <= mpf("1e-3"))


# -- criterion 9: medium-regime error-integral constants ---------------------

def test_criterion_09_error_integral_constants():
    first, second = medium_error_integral_constants()
    check("9", "first defect integral = -1.2942 within 1e-3",
          f"value={mp.nstr(first, 10)}", abs(first - mpf("-1.2942")) <= mpf("1e-3"))
    check("9", "second defect integral = 0.1842 within 1e-3",
          f"value={mp.nstr(second, 10)}", abs(second - mpf("0.1842")) <= mpf("1e-3"))


# -- criterion 10: equilibrium observables -----------------------------------

def test_criterion_10_equilibrium():
    xi_100 = shift_zero_temperature(BOSON, 100).xi
    check("10", "boson xi(0) = 0.2271 within 1e-4",
          f"xi={mp.nstr(xi_100, 8)}", abs(xi_100 - mpf("0.2271")) <= mpf("1e-4"))
    xis = [shift_zero_temperature(BOSON, N).xi for N in (1, 10, 1000)]
    check("10", "boson xi(0) independent of N",
          f"spread={mp.nstr(max(xis) - min(xis), 4)}", max(xis) - min(xis) < mpf("1e-25"))
    nxi = shift_zero_temperature(FERMION, 1000).xi * 1000
    check("10", "fermion N*xi(0) at N=1000 equals 0.25 within 2%",
          f"N*xi={mp.nstr(nxi, 8)}", abs(nxi - mpf("0.25")) <= mpf("0.02") * mpf("0.25"))
    split = transfer_zero_temperature(BOSON, 100)
    check("10", "boson transfer split is exactly (160, 40)",
          f"split=({mp.nstr(split.n_plus, 8)}, {mp.nstr(split.n_minus, 8)})",
          split.n_plus == 160 and split.n_minus == 40)


# -- criterion 11: property suite --------------------------------------------

def _direct_sums(eta, tau, alpha, b):
    """(number, dnumber, force, dforce) summed level by level at 70 digits.

    The weights u_n = e^(-x_n) follow from u_(n+1) = u_n e^(-b (2 n + 1 -
    2 tau)), whose rounding over 10^4 levels stays near 1e-65 relative.
    Stops on the decreasing flank (x_n > 2, b e_n > 2) once e_n e^(-x_n) is
    below 1e-50; the dropped terms then fall at least geometrically, which
    leaves them far below the 1e-35 comparison slack.  ``eta = 0`` at
    ``alpha = 0`` gives Theta_0(b) as the number.
    """
    with mp.workdps(70):
        number = dnumber = force = dforce = mpf(0)
        u = mp.exp(-alpha - b * (1 - tau) ** 2)
        ratio, shrink = mp.exp(-b * (3 - 2 * tau)), mp.exp(-2 * b)
        tiny = mpf("1e-50")
        n = 1
        while True:
            en = (n - tau) ** 2
            occ = u / (1 - eta * u)
            docc = occ * (1 + eta * occ)
            number += occ
            dnumber -= docc
            force += en * occ
            dforce -= en * docc
            if en * u < tiny and alpha + b * en > 2 and b * en > 2:
                return number, dnumber, force, dforce
            u *= ratio
            ratio *= shrink
            n += 1


def _within_tail(value, tail, brute):
    return abs(value - brute) <= tail + mpf("1e-35") * max(1, abs(brute))


def test_criterion_11_tail_bound_soundness():
    """Every certified sum of the oracle contains the full sum.

    The four level sums (number, dnumber, and the e_n-weighted force and
    dforce) on stride 1, with Gaussian tails, and on strides m >= 2, whose
    tails add the aliasing bounds, and Theta_0 on both branches (beta below
    and above 1.5), each against a 70-digit level-by-level sum:
    |value - brute| <= tail + 1e-35 max(1, |brute|).
    """
    rng = random.Random(20260809)

    def draw_side():
        side = rng.choice((W_MINUS, W_PLUS))
        return side, as_mpf(side.tau), mpf(10) ** rng.uniform(-22, -10)

    strides = {"1": 0, ">=2": 0}
    with mp.workdps(DEFAULT_POLICY.dps):
        for i in range(1000):
            stat = rng.choice((BOSON, FERMION))
            side, tau, eps = draw_side()
            if i % 2:  # small b and alpha > 0: strides above 1
                b = mpf(10) ** rng.uniform(-3.5, -2)
                alpha = mpf(10) ** rng.uniform(-0.5, 1.1)
            else:  # every level
                b = mpf(10) ** rng.uniform(mp.log10(0.004), mp.log10(30))
                top = 8 if b > 0.5 else 0.5
                if stat.is_boson:  # from just above the pole
                    alpha = -b * (1 - tau) ** 2 + mpf(10) ** rng.uniform(-4, 1)
                    alpha = min(alpha, mpf(top) - mpf("1e-3"))
                else:
                    alpha = mpf(rng.uniform(-40, top))
            sums = oracle._level_sums(oracle._LevelTable(stat, side, b, eps), alpha)
            strides["1" if sums.stride == 1 else ">=2"] += 1
            brute = _direct_sums(stat.eta, tau, alpha, b)
            for name, value, tail, exact in zip(
                    ("number", "dnumber", "force", "dforce"), sums[:4], sums[4:8], brute):
                assert _within_tail(value, tail, exact), \
                    f"instance {i} (stride {sums.stride}): {name} beyond its tail bound"
        for i in range(200):
            side, tau, eps = draw_side()
            if i % 2:  # direct branch
                beta = mpf(10) ** rng.uniform(mp.log10(1.5), mp.log10(30))
            else:  # Poisson branch
                beta = mpf(10) ** rng.uniform(mp.log10(0.004), mp.log10(1.5))
                beta = min(beta, mpf(1.5) - mpf("1e-3"))
            lattice = oracle._Lattice(beta, mp.sqrt(beta), 1 - tau, 1)
            value, err = oracle._theta0(lattice, side.sigma, eps)
            assert _within_tail(value, err, _direct_sums(0, tau, 0, beta)[0]), \
                f"theta pair {i}: Theta_0(beta={mp.nstr(beta, 6)}) beyond its error"
    check("11", "certified level sums and Theta_0 contain the 70-digit sums",
          f"strides={strides}, 200 Theta_0 sums", min(strides.values()) >= 300)


def test_criterion_11_constraint_residuals():
    rng = random.Random(1318)
    worst = mpf(0)
    for _ in range(100):
        stat = BOSON if rng.random() < 0.5 else FERMION
        side = W_PLUS if rng.random() < 0.5 else W_MINUS
        N = rng.randint(1, 200)
        t = mpf(10) ** mpf(rng.uniform(-2, 6))
        sol = solve_alpha(stat, side, N, t)
        with mp.workdps(60):
            b = 1 / t
            tau = as_mpf(side.tau)
            total = mpf(0)
            n = 1
            while True:
                x = sol.alpha + b * (n - tau) ** 2
                if x > 95:
                    break
                total += 1 / (mp.e ** x - stat.eta)
                n += 1
        gap = abs(total - N) - sol.residual_bound
        worst = max(worst, gap)
        assert gap <= mpf("1e-18"), \
            f"residual beyond certificate for {stat.kind}/{side.side} N={N} t={mp.nstr(t, 8)}"
    check("11", "constraint residual within certificate on 100 random instances",
          f"worst overshoot={mp.nstr(worst, 4)}", worst <= mpf("1e-18"))


def test_criterion_11_precision_escalation_stability():
    cases = [(BOSON, 100, mpf(55)), (FERMION, 100, mpf(4440)), (BOSON, 100, mpf("1e7"))]
    worst = mpf(0)
    for stat, N, t in cases:
        base = net_force(stat, N, t, DEFAULT_POLICY)
        refined = net_force(stat, N, t, DEFAULT_POLICY.escalate())
        shift = abs(base.delta_f - refined.delta_f)
        assert shift < base.delta_f_error, \
            f"{stat.kind} t={t}: shift {mp.nstr(shift, 4)} vs bound {mp.nstr(base.delta_f_error, 4)}"
        worst = max(worst, shift / base.delta_f_error)
    check("11", "doubling the digits moves delta_f less than its error bound",
          f"worst shift/bound={mp.nstr(worst, 4)}", worst < 1)


def _brute_force_delta_f(eta, N, t):
    """Bisection-only reference oracle at 50 digits.

    Sums run to n = 1e5 in exact arithmetic terms; iteration stops early
    once terms fall below 1e-45 of the running value, which changes the
    result by far less than the 1e-8 comparison tolerance.
    """
    with mp.workdps(50):
        b = 1 / mpf(t)

        def sums(tau, alpha):
            total = mpf(0)
            force = mpf(0)
            for n in range(1, 10 ** 5 + 1):
                en = (n - tau) ** 2
                x = alpha + b * en
                term = 1 / (mp.e ** x - eta)
                total += term
                force += en * term
                if x > 0 and term < total * mpf("1e-45"):
                    break
            return total, force

        def solve(tau):
            if eta == 1:
                lo = -b * (1 - tau) ** 2 + mpf("1e-40")
                hi = mpf(200)
            else:
                lo, hi = -4 * b * (N + 1) ** 2 - 50, mpf(200)
            for _ in range(220):
                mid = (lo + hi) / 2
                if sums(tau, mid)[0] > N:
                    lo = mid
                else:
                    hi = mid
            return (lo + hi) / 2

        f_minus = sums(mpf(0), solve(mpf(0)))[1]
        f_plus = sums(mpf("0.5"), solve(mpf("0.5")))[1]
        return f_minus - f_plus


@pytest.mark.parametrize("stat,N,t", [
    (BOSON, 1, "0.5"), (BOSON, 3, "2.0"), (BOSON, 5, "10.0"),
    (FERMION, 2, "0.5"), (FERMION, 4, "3.0"), (FERMION, 5, "10.0"),
])
def test_criterion_11_brute_force_equivalence(stat, N, t):
    exact = net_force(stat, N, mpf(t)).delta_f
    brute = _brute_force_delta_f(stat.eta, N, mpf(t))
    gap = abs(exact - brute)
    check("11", f"oracle matches brute force for {stat.kind} N={N} t={t} within 1e-8",
          f"gap={mp.nstr(gap, 4)}", gap < mpf("1e-8"))


# -- criterion 12: scale invariance ------------------------------------------

def test_criterion_12_boson_scale_invariance(boson_minimum_100):
    t_min = boson_minimum_100.t_min
    base = net_force(BOSON, 100, t_min).delta_f / 100
    for k in (2, 5):
        scaled = net_force(BOSON, 100 * k, t_min * k).delta_f / (100 * k)
        dev = abs(scaled / base - 1)
        check("12", f"boson delta_f(kN, kt)/(kN) invariant within 1% for k={k}",
              f"relative deviation={mp.nstr(dev, 6)}", dev <= mpf("0.01"))


def test_criterion_12_fermion_scale_invariance(fermion_minimum_100):
    t_min = fermion_minimum_100.t_min
    base = net_force(FERMION, 100, t_min).delta_f / 100 ** 2
    for k in (2, 5):
        scaled = net_force(FERMION, 100 * k, t_min * k * k).delta_f / (100 * k) ** 2
        dev = abs(scaled / base - 1)
        check("12", f"fermion delta_f(kN, k^2 t)/(kN)^2 invariant within 1% for k={k}",
              f"relative deviation={mp.nstr(dev, 6)}", dev <= mpf("0.01"))
