"""Tests of the benchmark's reference solver and checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext

import pytest
from mpmath import mp

import checks
import reference as ref


def as_decimal(fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = ref.PREC
        return Decimal(fraction.numerator) / Decimal(fraction.denominator)


def test_zero_temperature_rationals():
    for N in (1, 2, 7, 40):
        assert ref.zero_temperature_net_force("boson", N) * 4 == 3 * N
        # f_minus(0) - f_plus(0) for filled bands, summed level by level
        filled = sum(n * n for n in range(1, N + 1)) \
            - sum((n - 0.5) ** 2 for n in range(1, N + 1))
        assert ref.zero_temperature_net_force("fermion", N) == filled


@pytest.mark.parametrize("stat,N", [("boson", 1), ("boson", 7), ("boson", 40),
                                    ("fermion", 1), ("fermion", 5), ("fermion", 20)])
def test_low_temperature_limit_is_the_exact_rational(stat, N):
    # at t = 0.01 the first excitation is suppressed by exp(-200) or more
    exact = as_decimal(ref.zero_temperature_net_force(stat, N))
    assert abs(ref.net_force(stat, N, "0.01") - exact) < Decimal("1e-40") * N


@pytest.mark.parametrize("stat", ["boson", "fermion"])
def test_high_temperature_leading_law(stat):
    N = 1
    rel = []
    for t in ("1e3", "1e5"):
        lead = N / 2 * math.sqrt(float(t) / math.pi)
        rel.append(abs(float(ref.net_force(stat, N, t)) / lead - 1))
    assert rel[1] < rel[0] / 5
    assert rel[1] < 0.005
    # the remainder tends to the next-order constant
    c = -N / math.pi * ((math.sqrt(2) - 1) * ref.ETA[stat] * N - 0.5)
    remainder = float(ref.net_force(stat, N, "1e5")) - N / 2 * math.sqrt(1e5 / math.pi)
    assert abs(remainder - c) < 0.05 * abs(c)


def test_closed_forms_match_the_leading_law():
    assert abs(float(ref.high_leading(3, "100")) - 1.5 * math.sqrt(100 / math.pi)) < 1e-12
    assert float(ref.high_next("boson", 3, "100") - ref.high_leading(3, "100")) == \
        pytest.approx(-3 / math.pi * ((math.sqrt(2) - 1) * 3 - 0.5), rel=1e-14)


def test_fermi_integral_at_zero_and_in_the_degenerate_limit():
    # I(0) = (sqrt(pi)/2) eta(1/2), eta the alternating zeta function
    value, slope = ref._fermi_integrals(0.0)
    assert value == pytest.approx(float(mp.sqrt(mp.pi) / 2 * mp.altzeta(0.5)), rel=1e-13)
    assert slope < 0
    # Sommerfeld: I ~ sqrt(-alpha) (1 - pi^2 / (24 alpha^2))
    value, _ = ref._fermi_integrals(-400.0)
    assert value == pytest.approx(20 * (1 - math.pi ** 2 / (24 * 400.0 ** 2)), rel=1e-9)


def test_fermion_medium_force_is_scale_invariant():
    small = ref.fermion_medium_force(10, "250")
    large = ref.fermion_medium_force(20, "1000")
    assert float(large / small) == pytest.approx(4, rel=1e-12)


def test_zero_temperature_shift_is_a_sign_change_of_the_balance():
    # bosons at t -> 0: xi = (r - 1)/(r + 1) with r = 4^(1/3)
    r = 4 ** (1 / 3)
    xi = Decimal((r - 1) / (r + 1))
    assert ref.shift_balance("boson", 5, "0.01", xi - Decimal("1e-6")) > 0
    assert ref.shift_balance("boson", 5, "0.01", xi + Decimal("1e-6")) < 0


def curve_doc(stat, N, t):
    _, f_minus = ref.solve_side(stat, "minus", N, t)
    _, f_plus = ref.solve_side(stat, "plus", N, t)
    fmt = lambda x: f"{x:.17g}"
    return {"rows": [{"t": t, "alpha_plus": "0", "alpha_minus": "0",
                      "f_plus": fmt(f_plus), "f_minus": fmt(f_minus),
                      "delta_f": fmt(f_minus - f_plus), "delta_f_error": "1e-15"}]}


def test_curve_check_rejects_a_value_outside_its_bound():
    argv = ["curve", "--stat", "boson", "--N", "3", "--t", "2:2:1:log"]
    doc = curve_doc("boson", 3, "2")
    assert checks.check_curve(argv, doc, random.Random(0)) == []
    row = doc["rows"][0]
    shifted = Decimal(row["delta_f"]) + Decimal("1e-12")
    row["delta_f"] = f"{shifted:.17g}"
    row["f_minus"] = f"{Decimal(row['f_minus']) + Decimal('1e-12'):.17g}"
    assert checks.check_curve(argv, doc, random.Random(0))
