import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from nlbranch.errors import (DomainError, NLBranchError, NoJumpError,
                             ValidationError)
from nlbranch.model import (AbsolutelyContinuousMeasure, AtomicMeasure,
                            CoefficientSet, MixtureMeasure,
                            StableTruncatedMeasure, cir_coefficients,
                            dyadic_atoms, logistic_coefficients)

STABLE15 = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)
STABLE05 = StableTruncatedMeasure(alpha=0.5, c0=1.0, zmax=1.0)
DYADIC = dyadic_atoms(alpha=1.5, jmax=40)


# ---------------------------------------------------------------------------
# coefficients


def test_cir_coefficients_forms():
    c = cir_coefficients(1.0, 1.0, 1.0)
    assert float(c.gamma0(np.asarray(2.0))) == pytest.approx(-1.0)
    assert float(c.gamma1(np.asarray(2.0))) == pytest.approx(2.0 * math.sqrt(2.0))
    c2 = cir_coefficients(1.0, 1.0, 1.0, diffusion="2c")
    assert float(c2.gamma1(np.asarray(2.0))) == pytest.approx(4.0)
    with pytest.raises(DomainError):
        cir_coefficients(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cir_coefficients(1.0, 1.0, 1.0, diffusion="bogus")


def test_logistic_coefficients():
    c = logistic_coefficients(1.0, 2.0, c1=0.5, c2=3.0)
    x = np.array([0.0, 1.0, 2.0])
    assert np.allclose(c.gamma0(x), x - 2.0 * x ** 2)
    assert np.allclose(c.gamma2(x), 3.0 * x)
    with pytest.raises(DomainError):
        logistic_coefficients(-1.0, 1.0)


def test_coefficient_validation_rejects_bad_sets():
    with pytest.raises(ValidationError):   # gamma0(0) < 0
        CoefficientSet(gamma0=lambda x: -np.ones_like(np.asarray(x, dtype=float)),
                       gamma1=lambda x: np.asarray(x, dtype=float),
                       gamma2=lambda x: np.asarray(x, dtype=float))
    with pytest.raises(ValidationError):   # gamma1 negative
        CoefficientSet(gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       gamma1=lambda x: -np.asarray(x, dtype=float),
                       gamma2=lambda x: np.asarray(x, dtype=float))
    with pytest.raises(ValidationError):   # gamma2 decreasing
        CoefficientSet(gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       gamma1=lambda x: np.asarray(x, dtype=float),
                       gamma2=lambda x: 1.0 / (1.0 + np.asarray(x, dtype=float)),
                       gamma2_vanishes_at_zero=False)
    with pytest.raises(ValidationError):   # gamma1(0) != 0
        CoefficientSet(gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                       gamma1=lambda x: 1.0 + np.asarray(x, dtype=float),
                       gamma2=lambda x: np.asarray(x, dtype=float))


def test_sigma_is_sqrt_of_gamma1():
    c = cir_coefficients(1.0, 1.0, 1.0)
    x = np.array([0.0, 0.5, 4.0])
    assert np.allclose(c.sigma(x) ** 2, c.gamma1(x))
    assert c.has_diffusion


def test_gamma1_none_states_no_diffusion():
    c = CoefficientSet(gamma0=lambda x: -np.asarray(x, dtype=float), gamma1=None,
                       gamma2=lambda x: np.asarray(x, dtype=float))
    x = np.array([0.0, 0.5, 4.0])
    assert not c.has_diffusion
    assert np.array_equal(c.gamma1(x), np.zeros(3))
    assert np.array_equal(c.sigma(x), np.zeros(3))
    # the flag survives a rebuild, and a zero gamma1 given as a function is
    # taken as a diffusion coefficient
    assert not replace(c, name="renamed").has_diffusion
    assert replace(c, gamma1=lambda x: 0.0 * x).has_diffusion
    assert not logistic_coefficients(1.0, 1.0, c1=0.0).has_diffusion
    assert logistic_coefficients(1.0, 1.0, c1=0.5).has_diffusion


# ---------------------------------------------------------------------------
# tail masses and moments


def test_tail_mass_dyadic_atoms():
    # above 0.6 only the atom at 1 (mass 1) remains
    assert DYADIC.tail_mass(0.6) == pytest.approx(1.0)


def test_tail_mass_stable_closed_form():
    assert STABLE15.tail_mass(1.0) == 0.0
    expect = (0.5 ** -1.5 - 1.0) / 1.5
    assert STABLE15.tail_mass(0.5) == pytest.approx(expect, rel=1e-12)


def test_tail_mass_requires_positive_radius():
    with pytest.raises(DomainError):
        STABLE15.tail_mass(0.0)


def test_truncated_second_moment_stable():
    assert STABLE15.trunc_second_moment(1.0) == pytest.approx(2.0, rel=1e-12)


def test_truncated_second_moment_dyadic_partial_sum():
    j = np.arange(41)
    expect = float(np.sum(2.0 ** (1.5 * j) * (2.0 ** -j) ** 2))
    assert DYADIC.trunc_second_moment(1.0) == pytest.approx(expect, rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=2.0),
       st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=30, deadline=None)
def test_truncated_second_moment_monotone(r1, r2):
    lo, hi = sorted((r1, r2))
    assert STABLE15.trunc_second_moment(lo) <= \
        STABLE15.trunc_second_moment(hi) + 1e-12


def test_quadrature_agrees_with_closed_forms():
    # the generic AC machinery against the stable closed forms
    generic = AbsolutelyContinuousMeasure(
        lambda z: np.asarray(z, dtype=float) ** -2.5, upper=1.0,
        decreasing=True, infinite_mass=True)
    for r in (0.1, 0.35, 0.9):
        assert generic.tail_mass(r) == pytest.approx(STABLE15.tail_mass(r), rel=1e-8)
        assert generic.trunc_second_moment(r) == \
            pytest.approx(STABLE15.trunc_second_moment(r), rel=1e-8)
        assert generic.mean_above(r) == pytest.approx(STABLE15.mean_above(r), rel=1e-8)


def test_divergent_moment_is_rejected():
    with pytest.raises(NLBranchError):
        AbsolutelyContinuousMeasure(lambda z: np.asarray(z, dtype=float) ** -3.2,
                                    upper=1.0, infinite_mass=True)


# ---------------------------------------------------------------------------
# overlap measure


def test_overlap_mass_stable_alpha_half_closed_form():
    # decreasing density: mass = tail integral from the shift
    assert abs(STABLE05.overlap(0.25).mass - 2.0) <= 1e-8


def test_overlap_mass_bound_dyadic_grid():
    for nu in (STABLE15, DYADIC):
        for k in range(11):
            x = 2.0 ** -k
            assert nu.overlap_mass(x) <= 2.0 * nu.tail_mass(x / 2.0) + 1e-10


def test_overlap_mass_symmetry():
    for x in (0.1, 0.25, 0.5, 0.9):
        m_plus = STABLE15.overlap(x).mass
        m_minus = STABLE15.overlap(-x).mass
        assert abs(m_plus - m_minus) <= 1e-8 * (1.0 + m_plus)


def test_overlap_at_zero_is_parent_measure():
    ov = STABLE15.overlap(0.0)
    assert math.isinf(ov.mass)
    assert np.allclose(ov.rho(np.array([0.2, 0.7])), 1.0)


def test_rho_decreasing_density_cases():
    # below the shift the shifted density vanishes; above, min is the parent
    assert float(STABLE05.rho(0.25, 0.1)) == 0.0
    assert float(STABLE05.rho(0.25, 0.5)) == pytest.approx(1.0)


@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_rho_in_unit_interval(x, z):
    for nu in (STABLE15, DYADIC):
        val = float(nu.rho(x, z))
        assert 0.0 <= val <= 1.0


def test_atomic_overlap_exact_coincidence():
    nu = AtomicMeasure([0.5, 1.0], [2.0, 1.0])
    # shift by 0.5: delta_1 * 2 vs delta_1 * 1 -> overlap min(1, 2) at z = 1
    assert nu.overlap_mass(0.5) == pytest.approx(1.0)
    # irrational-like shift: no coinciding atoms
    assert nu.overlap_mass(0.3) == 0.0


# ---------------------------------------------------------------------------
# sampling


def test_sample_above_respects_support(rng):
    z = STABLE15.quantile_above(0.5, rng.random(1000))
    assert np.all(z > 0.5) and np.all(z <= 1.0)


def test_sample_above_matches_restricted_cdf(rng):
    eps = 0.1
    z = STABLE15.quantile_above(eps, rng.random(200_000))
    lo, hi = eps ** -1.5, 1.0

    def cdf(t):
        t = np.clip(t, eps, 1.0)
        return (lo - t ** -1.5) / (lo - hi)

    ks = stats.kstest(z, cdf).statistic
    assert ks < 0.005


def test_sample_above_single_admissible_atom(rng):
    nu = AtomicMeasure([0.5, 1.0], [1.0, 1.0])
    z = nu.quantile_above(0.6, rng.random(100))
    assert np.all(z == 1.0)


def test_sample_above_empty_tail_raises(rng):
    with pytest.raises(NoJumpError):
        STABLE15.quantile_above(2.0, rng.random())


def test_mixture_measure_additivity(rng):
    mix = MixtureMeasure([(2.0, STABLE15), (1.0, AtomicMeasure([0.5], [3.0]))])
    r = 0.3
    assert mix.tail_mass(r) == pytest.approx(
        2.0 * STABLE15.tail_mass(r) + 3.0, rel=1e-10)
    assert mix.trunc_second_moment(r) == pytest.approx(
        2.0 * STABLE15.trunc_second_moment(r), rel=1e-10)
    z = mix.quantile_above(0.2, rng.random(2000))
    assert np.all((z > 0.2) & (z <= 1.0))
    # atoms land exactly on 0.5 with the expected frequency
    frac = np.mean(z == 0.5)
    expect = 3.0 / (3.0 + 2.0 * STABLE15.tail_mass(0.2))
    assert abs(frac - expect) < 0.05
