from fractions import Fraction

import pytest
from mpmath import mpf

from partition_well.model import (
    BOSON,
    FERMION,
    PhysicalConfig,
    Statistics,
    W_MINUS,
    W_PLUS,
    WellSide,
    energy_level,
    physical_force,
    reduced_temperature,
)


def test_statistics_pairing_enforced():
    assert BOSON.eta == 1 and FERMION.eta == -1
    with pytest.raises(ValueError):
        Statistics("boson", -1)
    with pytest.raises(ValueError):
        Statistics("fermion", 1)


def test_well_side_constants():
    assert W_PLUS.tau == Fraction(1, 2) and W_PLUS.sigma == 0
    assert W_MINUS.tau == Fraction(0) and W_MINUS.sigma == 1
    assert 2 * W_PLUS.sigma - 1 == -1
    assert 2 * W_MINUS.sigma - 1 == 1
    with pytest.raises(ValueError):
        WellSide("plus", Fraction(0), 0)


@pytest.mark.parametrize("side,n,expected", [
    (W_PLUS, 1, Fraction(1, 4)),
    (W_MINUS, 1, Fraction(1)),
    (W_PLUS, 3, Fraction(25, 4)),  # (2.5)^2
])
def test_energy_level_examples(side, n, expected):
    assert energy_level(side, n) == expected


def test_energy_level_rejects_bad_index():
    for bad in (0, -1, 2.0):
        with pytest.raises(ValueError):
            energy_level(W_PLUS, bad)


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 10**6])
def test_side_difference_law(n):
    # e-_n - e+_n = n - 1/4, exactly in rational arithmetic
    assert energy_level(W_MINUS, n) - energy_level(W_PLUS, n) == Fraction(4 * n - 1, 4)


@pytest.mark.parametrize("side", [W_PLUS, W_MINUS])
def test_levels_monotone_with_growing_spacing(side):
    levels = [energy_level(side, n) for n in range(1, 50)]
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    assert all(b > a for a, b in zip(levels, levels[1:]))
    assert all(g2 - g1 == 2 for g1, g2 in zip(gaps, gaps[1:]))


def test_physical_force_zero_and_identity():
    cfg = PhysicalConfig()
    assert physical_force(cfg, 0) == 0
    # synthetic scaling: choose constants so that (2s+1) * 2E/l = 1
    cfg1 = PhysicalConfig(hbar=1.0, mass=0.5, half_width_l=1.0, boltzmann_kB=1.0)
    unit = cfg1.unit_energy  # = pi^2 here
    got = physical_force(cfg1, 75)
    assert abs(got - 2 * unit * 75) < mpf("1e-25")


def test_electron_nanometre_values():
    # E_unit = hbar^2 pi^2 / (2 m l^2), evaluated once by hand for an
    # electron in a half well of 1 nm
    cfg = PhysicalConfig()
    assert abs(cfg.unit_energy - mpf("6.02495e-20")) / mpf("6.02495e-20") < 1e-4
    force = physical_force(cfg, 75)
    assert abs(force - mpf("9.0374e-9")) / mpf("9.0374e-9") < 1e-3
    t300 = reduced_temperature(cfg, 300)
    assert abs(t300 - mpf("0.068753")) / mpf("0.068753") < 1e-3


def test_reduced_temperature_definition_and_linearity():
    cfg = PhysicalConfig()
    t_match = cfg.unit_energy / mpf(cfg.boltzmann_kB)
    assert abs(reduced_temperature(cfg, t_match) - 1) < mpf("1e-25")
    assert abs(reduced_temperature(cfg, 600) - 2 * reduced_temperature(cfg, 300)) \
        < mpf("1e-20")
    with pytest.raises(ValueError):
        reduced_temperature(cfg, 0)


def test_physical_config_validation():
    with pytest.raises(ValueError):
        PhysicalConfig(hbar=-1.0)
    with pytest.raises(ValueError):
        PhysicalConfig(spin_s=Fraction(1, 3))
    assert PhysicalConfig(spin_s=Fraction(1, 2)).degeneracy == 2
