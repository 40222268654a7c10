import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from nlbranch import quad
from nlbranch.config import load_scenario
from nlbranch.errors import (DomainError, NLBranchError, NoJumpError,
                             QuadratureError, ValidationError)
from nlbranch.model import (AbsolutelyContinuousMeasure, AtomicMeasure,
                            CoefficientSet, MixtureMeasure,
                            StableTruncatedMeasure, cir_coefficients,
                            dyadic_atoms, logistic_coefficients)
from nlbranch.quad import integrate_interval

STABLE15 = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)
STABLE05 = StableTruncatedMeasure(alpha=0.5, c0=1.0, zmax=1.0)
DYADIC = dyadic_atoms(alpha=1.5, jmax=40)


# ---------------------------------------------------------------------------
# coefficients


def test_cir_coefficients_forms():
    c = cir_coefficients(1.0, 1.0, 1.0)
    assert float(c.gamma0(np.asarray(2.0))) == pytest.approx(-1.0)
    assert float(c.gamma1(np.asarray(2.0))) == pytest.approx(2.0 * math.sqrt(2.0))
    # gamma1 is linear: gamma1' is declared as its slope
    assert c.gamma1_prime == math.sqrt(2.0) and type(c.gamma1_prime) is float
    c2 = cir_coefficients(1.0, 1.0, 1.0, diffusion="2c")
    assert float(c2.gamma1(np.asarray(2.0))) == pytest.approx(4.0)
    assert c2.gamma1_prime == 2.0
    with pytest.raises(DomainError):
        cir_coefficients(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cir_coefficients(1.0, 1.0, 1.0, diffusion="bogus")


def test_logistic_coefficients():
    c = logistic_coefficients(1.0, 2.0, c1=0.5, c2=3.0)
    x = np.array([0.0, 1.0, 2.0])
    assert np.allclose(c.gamma0(x), x - 2.0 * x ** 2)
    assert np.allclose(c.gamma2(x), 3.0 * x)
    assert c.gamma1_prime == 0.5 and type(c.gamma1_prime) is float
    assert logistic_coefficients(1.0, 2.0).gamma1_prime is None
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


def test_gamma2_must_be_nondecreasing():
    # the coupling's partner marks on [0, gamma2(X)) and the reduced
    # operator's (gamma2(x) - gamma2(y)) jump term assume it, and no flag
    # turns the check off: where gamma2(Y) > gamma2(X), a Y leg would jump at
    # X's rate at most
    x = lambda v: np.asarray(v, dtype=float)
    with pytest.raises(ValidationError, match="gamma2 must be non-decreasing"):
        CoefficientSet(gamma0=lambda v: -x(v), gamma1=x,
                       gamma2=lambda v: 20.0 * x(v) * np.exp(-x(v)))
    with pytest.raises(TypeError):
        CoefficientSet(gamma0=lambda v: -x(v), gamma1=x, gamma2=x,
                       gamma2_nondecreasing=False)


NAN = math.nan


@pytest.mark.parametrize("make", [
    lambda: cir_coefficients(NAN, 1.0, 1.0),
    lambda: cir_coefficients(1.0, 1.0, math.inf),
    lambda: logistic_coefficients(1.0, NAN),
    lambda: logistic_coefficients(1.0, 1.0, c1=NAN),
    lambda: StableTruncatedMeasure(1.5, c0=NAN),
    lambda: StableTruncatedMeasure(1.5, zmax=NAN),
    lambda: AtomicMeasure([NAN, 1.0], [1.0, 1.0]),
    lambda: AtomicMeasure([0.5, 1.0], [1.0, NAN]),
    lambda: AbsolutelyContinuousMeasure(lambda z: z ** -1.5, upper=NAN),
], ids=["cir-b", "cir-d-inf", "logistic-b2", "logistic-c1", "stable-c0",
        "stable-zmax", "atomic-location", "atomic-mass", "ac-upper"])
def test_nan_model_parameters_are_rejected(make):
    # NaN fails every comparison, so "v <= 0" let it in: a NaN c0 made a
    # measure whose tail mass is NaN, and a run without jumps
    with pytest.raises((DomainError, ValidationError), match="positive"):
        make()


def test_declared_gamma1_prime_must_be_gamma1s_derivative():
    cir = cir_coefficients(1.0, 1.0, 1.0)
    amp = math.sqrt(2.0)
    with pytest.raises(ValidationError, match="gamma1_prime .* not gamma1's derivative"):
        replace(cir, gamma1_prime=lambda x: np.full_like(np.asarray(x, dtype=float),
                                                         2.0 * amp))
    with pytest.raises(ValidationError, match=r"gamma1_prime\(0.0\) = nan is not finite"):
        replace(cir, gamma1_prime=lambda x: np.where(np.asarray(x) > 0, amp, np.nan))
    with pytest.raises(ValidationError, match="gamma1_prime given without gamma1"):
        replace(cir, gamma1=None)
    # gamma1 = 2x^2: its one-sided quotient at 0 is 2e-5, which the closed
    # form takes at the midpoint of the quotient's nodes
    nonergodic = load_scenario("nonergodic-diffusion").coeffs
    assert nonergodic.gamma1_prime(np.asarray(0.0)) == 0.0


def test_gamma1_prime_given_as_a_number_is_checked_like_a_callable():
    cir = cir_coefficients(1.0, 1.0, 1.0)
    amp = math.sqrt(2.0)
    assert replace(cir, gamma1_prime=np.float64(amp)).gamma1_prime == amp
    assert type(replace(cir, gamma1_prime=np.float64(amp)).gamma1_prime) is float
    with pytest.raises(ValidationError, match="gamma1_prime .* not gamma1's derivative"):
        replace(cir, gamma1_prime=2.0 * amp)
    # an integer slope is a number too: gamma1 = x has slope 1, not 2
    assert load_scenario("case1-diffusion").coeffs.gamma1_prime == 1.0
    with pytest.raises(ValidationError, match="not gamma1's derivative"):
        replace(load_scenario("case1-diffusion").coeffs, gamma1_prime=2)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="is not finite"):
            replace(cir, gamma1_prime=bad)
    with pytest.raises(ValidationError, match="gamma1_prime given without gamma1"):
        CoefficientSet(gamma0=cir.gamma0, gamma1=None, gamma2=cir.gamma2,
                       gamma1_prime=amp)
    # a nonlinear gamma1 has no constant slope
    with pytest.raises(ValidationError, match="not gamma1's derivative"):
        replace(load_scenario("nonergodic-diffusion").coeffs, gamma1_prime=4.0)


def test_undeclared_gamma1_prime_is_the_difference_quotient():
    quadratic = CoefficientSet(gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                               gamma1=lambda x: 2.0 * np.asarray(x, dtype=float) ** 2,
                               gamma2=lambda x: np.asarray(x, dtype=float))
    x = np.array([0.0, 0.5, 4.0])
    assert np.allclose(quadratic.gamma1_prime(x), [2e-5, 2.0, 16.0], rtol=1e-9, atol=1e-12)
    # a set rebuilt from it takes the quotient of its own gamma1
    cubic = replace(quadratic, gamma1=lambda x: np.asarray(x, dtype=float) ** 3)
    assert np.allclose(cubic.gamma1_prime(x[1:]), [0.75, 48.0], rtol=1e-9)
    assert replace(quadratic, gamma1=None).gamma1_prime is None
    assert CoefficientSet(gamma0=quadratic.gamma0, gamma1=None,
                          gamma2=quadratic.gamma2).gamma1_prime is None


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
    generic = AbsolutelyContinuousMeasure(lambda z: np.asarray(z, dtype=float) ** -1.5,
                                          upper=1.0)
    mix = MixtureMeasure([(2.0, STABLE15), (1.0, AtomicMeasure([0.5], [3.0]))])
    for nu in (generic, STABLE15, DYADIC, mix):
        for moment in (nu.tail_mass, nu.mean_above, nu.trunc_second_moment):
            for r in (0.0, -0.5):
                with pytest.raises(DomainError):
                    moment(r)


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
    # the generic AC machinery against the stable closed forms; alpha = 1
    # reaches the logarithm of the first moment, r >= zmax the empty tail
    for alpha in (0.5, 1.0, 1.5):
        stable = StableTruncatedMeasure(alpha=alpha, c0=1.0, zmax=1.0)
        generic = AbsolutelyContinuousMeasure(
            lambda z: np.asarray(z, dtype=float) ** (-1.0 - alpha), upper=1.0,
            decreasing=True)
        for r in (0.1, 0.35, 0.9, 1.0, 2.0):
            assert generic.trunc_second_moment(r) == \
                pytest.approx(stable.trunc_second_moment(r), rel=1e-8)
            for moment in ("tail_mass", "mean_above"):
                got, want = getattr(generic, moment)(r), getattr(stable, moment)(r)
                if r >= 1.0:
                    assert got == want == 0.0
                else:
                    assert got == pytest.approx(want, rel=1e-8)


# the measures LevyMeasure.integrate is checked on: case2's stable measure,
# the dyadic atoms, an AC density on (0, oo) and a mixture of both kinds
INTEGRATE_MEASURES = {
    "stable": lambda: load_scenario("case2-stable").nu,
    "dyadic": lambda: DYADIC,
    "ac-unbounded": lambda: AbsolutelyContinuousMeasure(
        lambda z: np.asarray(z, dtype=float) ** -1.5 * np.exp(-np.asarray(z, dtype=float)),
        decreasing=True),
    "mixture": lambda: MixtureMeasure([(2.0, STABLE15),
                                       (1.0, AtomicMeasure([0.25, 0.5], [3.0, 1.0]))]),
}
SCALES = np.array([0.5, 1.0, 2.0])
KINKS = [(), (0.3,), (0.1, 0.7)]


def scaled(z, p):
    """A bounded multiple of z^2 ^ z, of another scale in each group p."""
    return z * z / (SCALES[p] + z)


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(INTEGRATE_MEASURES))
@pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (0.2, 0.6)])
def test_integrate_is_the_atom_sum_plus_the_quadrature(name, lo, hi):
    nu = INTEGRATE_MEASURES[name]()
    (got,), (error,) = nu.integrate(scaled, [KINKS[1]], nu.quad, lo, hi)
    assert error is None
    locs, masses = nu.atom_locations, nu.atom_masses
    inside = (locs > lo) & (locs <= hi)
    want = float(np.sum(masses[inside] * scaled(locs[inside], np.zeros(inside.sum(), int))))
    if nu.has_ac_part:
        want += integrate_interval(lambda z: scaled(z, np.zeros(z.size, int)) * nu.density(z),
                                   lo, min(hi, nu.upper), nu.quad, points=KINKS[1])
    assert got.hex() == want.hex()


@pytest.mark.parametrize("name", sorted(INTEGRATE_MEASURES))
def test_integrate_groups_are_each_groups_own_call(name):
    nu = INTEGRATE_MEASURES[name]()
    values, errors = nu.integrate(scaled, KINKS, nu.quad)
    assert errors == [None] * 3
    alone = [nu.integrate(lambda z, _, p=p: scaled(z, np.full(z.size, p)), [KINKS[p]],
                          nu.quad)[0][0] for p in range(3)]
    assert hexes(values) == hexes(alone)
    if not nu.has_ac_part:
        return

    def refused(z, p):
        # group 1 is infinite next to the origin, below every atom
        return np.where((p == 1) & (z < 1e-3), np.inf, scaled(z, p))

    values, errors = nu.integrate(refused, KINKS, nu.quad)
    assert isinstance(errors[1], QuadratureError) and math.isnan(values[1])
    assert errors[0] is errors[2] is None
    assert hexes(values[[0, 2]]) == hexes([alone[0], alone[2]])


@pytest.mark.parametrize("name", sorted(INTEGRATE_MEASURES))
def test_public_moments_are_the_moment_of_their_order(name):
    nu = INTEGRATE_MEASURES[name]()
    for r in (0.05, 0.3, 1.0, 4.0):
        assert nu.tail_mass(r) == nu._moment(0, r, math.inf)
        assert nu.mean_above(r) == nu._moment(1, r, math.inf)
        assert nu.trunc_second_moment(r) == nu._moment(2, 0.0, r)


def test_divergent_moment_is_rejected():
    with pytest.raises(NLBranchError):
        AbsolutelyContinuousMeasure(lambda z: np.asarray(z, dtype=float) ** -3.2,
                                    upper=1.0)


# ---------------------------------------------------------------------------
# overlap measure


def test_overlap_mass_stable_alpha_half_closed_form():
    # decreasing density: mass = tail integral from the shift
    assert abs(STABLE05.overlap_mass(0.25) - 2.0) <= 1e-8


def test_overlap_mass_bound_dyadic_grid():
    for nu in (STABLE15, DYADIC):
        for k in range(11):
            x = 2.0 ** -k
            assert nu.overlap_mass(x) <= 2.0 * nu.tail_mass(x / 2.0) + 1e-10


def test_overlap_mass_symmetry():
    for x in (0.1, 0.25, 0.5, 0.9):
        m_plus = STABLE15.overlap_mass(x)
        m_minus = STABLE15.overlap_mass(-x)
        assert abs(m_plus - m_minus) <= 1e-8 * (1.0 + m_plus)


def test_overlap_mass_of_a_mixture_counts_each_atom_once():
    # the AC part is declared decreasing: its overlap is its own tail from
    # the shift, and an atom overlaps only where a shifted atom meets one
    nu = MixtureMeasure([(1, StableTruncatedMeasure(1.5)), (1, AtomicMeasure([0.25, 0.5], [3, 1]))])
    tail = StableTruncatedMeasure(1.5).tail_mass
    # the atoms shifted to 0.35 and 0.6 meet none
    assert nu.overlap_mass(0.1) == tail(0.1) == 20.415184401122527
    # the atom at 0.25 shifted to 0.5 meets mass 1 there
    assert nu.overlap_mass(0.25) == tail(0.25) + 1.0


def test_overlap_at_zero_is_parent_measure():
    # the overlap mass needs a shift; at shift 0 the density ratio is 1
    with pytest.raises(DomainError):
        STABLE15.overlap_mass(0.0)
    for side in STABLE15.rho_pair(np.zeros(2), np.array([0.2, 0.7])):
        assert np.allclose(side, 1.0)


def test_rho_decreasing_density_cases():
    # below the shift the shifted density vanishes; above, min is the parent
    _, down = STABLE05.rho_pair(np.array([0.25, 0.25]), np.array([0.1, 0.5]))
    assert down[0] == 0.0
    assert down[1] == pytest.approx(1.0)


POWER_INI = """
[scenario power]
x0 = 1.0
y0 = 0.5

[coefficients power]
type = custom
gamma0 = -x
gamma2 = x

[measure power]
type = custom
density = z**(-1.5)
upper = 2.0
decreasing = true
"""


@pytest.fixture(scope="module")
def ini_power(tmp_path_factory):
    path = tmp_path_factory.mktemp("ini") / "power.ini"
    path.write_text(POWER_INI)
    return load_scenario("power", config_path=path).nu


def _undeclared(nu):
    """nu with the same density, not declared decreasing: rho_pair takes
    its generic expression min(n(z), n(z - x)) / n(z) everywhere."""
    twin = copy.copy(nu)
    twin.density_decreasing = False
    return twin


@pytest.mark.parametrize("name", ["stable-1.5", "stable-0.5", "ini-power"])
@given(u=st.floats(min_value=0.0, max_value=0.5), data=st.data())
@settings(max_examples=200, deadline=None)
def test_rho_downhill_shortcut_equals_the_generic_expression(ini_power, name, u, data):
    # for a decreasing density rho(x, z) is 1 or 0 where x > 0 without a
    # density call; it must carry the generic expression's bits, for x = -u
    # (which keeps the generic path) and x = u alike
    nu = {"stable-1.5": STABLE15, "stable-0.5": STABLE05, "ini-power": ini_power}[name]
    assert nu.density_decreasing
    z = data.draw(st.floats(min_value=0.1, max_value=nu.upper, exclude_min=True))
    uu, zz = np.array([u]), np.array([z])
    for got, want in zip(nu.rho_pair(uu, zz), _undeclared(nu).rho_pair(uu, zz)):
        assert got.tobytes() == want.tobytes()


def test_rho_downhill_calls_no_density():
    nu, calls = copy.copy(STABLE15), []
    nu.density = lambda z: calls.append(z) or STABLE15.density(z)
    z = np.array([0.2, 0.5, 1.0, 1.5])
    _, down = nu.rho_pair(np.full(z.shape, 0.3), z)
    assert np.array_equal(down, [0.0, 1.0, 1.0, 0.0])
    # the one call is the uphill side's: n(z) and n(z + 0.3) together
    assert len(calls) == 1
    assert np.array_equal(calls[0], np.concatenate((z, z + 0.3)))


def _reference_rho(nu, x, z):
    """rho as the kernel read it before its lean core: both signs of x in one
    generic pass, with broadcasting, zero masks and a final clip."""
    x, z = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
    out = np.zeros(x.shape, dtype=float)
    zero = x == 0.0
    out[zero] = 1.0
    rest = ~zero
    if not np.any(rest):
        return out
    x, z = x[rest], z[rest]
    r_out = np.zeros_like(z)
    if nu.has_ac_part:
        shifted = z - x
        uphill = slice(None)
        if nu.density_decreasing:
            r = np.where((shifted > 0) & (z <= nu.upper), 1.0, 0.0)
            uphill = ~(x > 0)
        else:
            r = np.empty_like(z)
        zu, su = z[uphill], shifted[uphill]
        if zu.size:
            both = nu.density(np.concatenate((zu, np.maximum(su, 1e-300))))
            nz = both[:zu.size]
            ns = np.where(su > 0, both[zu.size:], 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                r[uphill] = np.where(nz > 0, np.minimum(nz, ns)
                                     / np.where(nz > 0, nz, 1.0), 0.0)
        r_out = np.maximum(r_out, r)
    if nu.atom_locations.size:
        mz = nu._atom_mass_at(z)
        shifted = z - x
        ms = np.where(shifted > 0, nu._atom_mass_at(np.abs(shifted)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ra = np.where(mz > 0, np.minimum(mz, ms) / np.where(mz > 0, mz, 1.0), 0.0)
        r_out = np.maximum(r_out, ra)
    out[rest] = np.clip(r_out, 0.0, 1.0)
    return out


MIXTURE = MixtureMeasure([(2.0, STABLE15), (1.0, AtomicMeasure([0.25, 0.5], [3.0, 1.0]))])
# gaps: U = 0, NaN (a partner that turned NaN within the step), kappa-sized
# ones and tiny ones; sizes: on and off the atoms, beyond every upper bound
# and below the gap (z - U <= 0)
GAPS = st.one_of(st.sampled_from([0.0, np.nan, 0.5, 0.25, 2.0 ** -10]),
                 st.floats(min_value=0.0, max_value=0.5))
SIZES = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 2.5, 1e-3]),
                  st.sampled_from(list(2.0 ** -np.arange(12))),
                  st.floats(min_value=1e-4, max_value=3.0))


@pytest.mark.parametrize("name", ["stable-1.5", "ini-power", "ini-power-undeclared",
                                  "dyadic", "mixture"])
@given(pairs=st.lists(st.tuples(GAPS, SIZES), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_rho_core_equals_the_reference_bit_for_bit(ini_power, name, pairs):
    # rho_pair gives the kernel rho(-U, z) and rho(U, z) at per-path gaps and
    # the generator both at one gap; each carries the reference's bits, and
    # so does rho_pair fed the atom masses jumps_above gives with its sizes
    nu = {"stable-1.5": STABLE15, "ini-power": ini_power,
          "ini-power-undeclared": _undeclared(ini_power), "dyadic": DYADIC,
          "mixture": MIXTURE}[name]
    u = np.array([p[0] for p in pairs])
    z = np.array([p[1] for p in pairs])
    want_up, want_down = _reference_rho(nu, -u, z), _reference_rho(nu, u, z)
    up, down = nu.rho_pair(u, z)
    assert up.tobytes() == want_up.tobytes() and down.tobytes() == want_down.tobytes()
    for k in (0, -1):
        up, down = nu.rho_pair(np.full(z.shape, u[k]), z)
        assert up.tobytes() == _reference_rho(nu, -u[k], z).tobytes()
        assert down.tobytes() == _reference_rho(nu, u[k], z).tobytes()
    sizes, masses = nu.jumps_above(0.1, np.linspace(0.0, 1.0, u.size, endpoint=False))
    assert sizes.tobytes() == np.asarray(nu.quantile_above(
        0.1, np.linspace(0.0, 1.0, u.size, endpoint=False))).tobytes()
    up, down = nu.rho_pair(u, sizes, masses)
    assert up.tobytes() == _reference_rho(nu, -u, sizes).tobytes()
    assert down.tobytes() == _reference_rho(nu, u, sizes).tobytes()


def test_atomic_jumps_carry_the_mass_at_their_atom():
    # jumps_above reads the mass at each sampled atom from its index; it is
    # the mass _atom_mass_at finds at that location, duplicates included
    nu = AtomicMeasure([0.5, 0.25, 0.5, 1.0, 0.75], [1.0, 2.0, 3.0, 4.0, 5.0])
    u = np.linspace(0.0, 1.0, 101)
    for eps in (0.1, 0.3, 0.5, 0.9):
        sizes, masses = nu.jumps_above(eps, u)
        assert np.array_equal(sizes, nu.quantile_above(eps, u))
        assert np.all(sizes > eps)
        assert masses.tobytes() == nu._atom_mass_at(sizes).tobytes()
    z, m = DYADIC.jumps_above(0.05, 0.3)
    assert z == DYADIC.quantile_above(0.05, 0.3) and m == DYADIC._atom_mass_at(z)
    with pytest.raises(NoJumpError):
        nu.jumps_above(1.0, u)


@given(st.floats(min_value=1e-3, max_value=1.0),
       st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_rho_in_unit_interval(x, z):
    for nu in (STABLE15, DYADIC):
        for val in nu.rho_pair(np.array([x]), np.array([z])):
            assert 0.0 <= val[0] <= 1.0


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


@pytest.mark.parametrize("upper", [1.0, 10.0, 1e3, math.inf])
def test_custom_density_quantiles_match_the_closed_form(upper):
    # the sampling table holds quad's masses between geometric nodes: the
    # quantiles of z^-2.5 above eps match the closed-form inverse for every
    # upper, an infinite one included
    nu = AbsolutelyContinuousMeasure(lambda z: z ** -2.5, upper=upper, decreasing=True)
    eps, u = 0.1, np.linspace(0.001, 0.999, 999)
    lo, hi = eps ** -1.5, upper ** -1.5
    want = (lo - u * (lo - hi)) ** (-1.0 / 1.5)
    assert np.max(np.abs(nu.quantile_above(eps, u) / want - 1.0)) <= 1e-5
    if math.isfinite(upper):
        with pytest.raises(NoJumpError):
            nu.quantile_above(upper, u)


def test_a_custom_sampler_table_is_built_in_batch_sized_calls(monkeypatch):
    # the 4,096-segment table is one quadrature group of 86,016 first-round
    # nodes: no density call sees more than a batch, and the table keeps the
    # bits of a run that takes each round in one call
    sizes = []

    def table():
        nu = AbsolutelyContinuousMeasure(lambda z: sizes.append(z.size) or z ** -2.5,
                                          upper=10.0, decreasing=True)
        sizes.clear()
        nu.quantile_above(0.1, 0.5)
        return nu._inv_cdf_cache[0.1][1]

    sliced = table()
    assert 0 < max(sizes) <= quad._BATCH_NODES < sum(sizes)
    monkeypatch.setattr(quad, "_BATCH_NODES", 10 ** 9)
    whole = table()
    assert max(sizes) == 4096 * quad._X.size
    assert sliced.tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", ["stable-1.5", "stable-0.5", "ini-power", "unbounded"])
def test_density_inside_its_support_keeps_the_masked_bits(ini_power, name):
    # nodes all in (0, upper] go to the density in one call; with a point
    # outside appended they are masked and copied, to the same bits
    nu = {"stable-1.5": STABLE15, "stable-0.5": STABLE05, "ini-power": ini_power,
          "unbounded": AbsolutelyContinuousMeasure(lambda z: np.exp(-z) / z)}[name]
    top = nu.upper if math.isfinite(nu.upper) else 50.0
    z = np.geomspace(1e-300, top, 5001)
    inside = nu.density(z)
    for outside in [0.0, -1.0, np.nan] + [2.0 * nu.upper] * math.isfinite(nu.upper):
        masked = nu.density(np.append(z, outside))
        assert masked[-1] == 0.0
        assert masked[:-1].tobytes() == inside.tobytes()


def test_total_mass_of_a_singular_finite_density():
    # nu(R+) of z^-0.9 on (0, 1] is 10, the mass next to the origin included
    nu = AbsolutelyContinuousMeasure(lambda z: z ** -0.9, upper=1.0)
    assert nu._moment(0, 0.0, math.inf) == pytest.approx(10.0, rel=1e-6)


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
