import math
from collections import namedtuple

import numpy as np
import pytest

from nlbranch import generator, model
from nlbranch.cli import assemble_scenario, main
from nlbranch.config import PRESETS, load_scenario
from nlbranch.errors import DomainError, QuadratureError
from nlbranch.generator import (FAILS, HOLDS, INAPPLICABLE, INCONCLUSIVE,
                                ConditionReport, apply_L, apply_coupling_L,
                                apply_coupling_L_sum, apply_synchronous_L,
                                check_drift_condition, check_noise_conditions,
                                cir_expected_hitting_time,
                                invariant_density_residual,
                                invariant_measure_mass, verify_lyapunov)
from nlbranch.model import (AtomicMeasure, CoefficientSet,
                            StableTruncatedMeasure, cir_coefficients,
                            dyadic_atoms)
from nlbranch.quad import QuadratureSpec
from nlbranch.testfn import DriftModulus, phi1_zero

STABLE15 = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)

Fn = namedtuple("Fn", "value d1 d2")
QUADRATIC = Fn(lambda x: x * x, lambda x: 2.0 * x, lambda x: 2.0)
LINEAR = Fn(lambda x: x, lambda x: 1.0, lambda x: 0.0)
CONST = Fn(lambda x: 1.0, lambda x: 0.0, lambda x: 0.0)
EXP_DECAY = Fn(lambda x: np.exp(-x), lambda x: -np.exp(-x), lambda x: np.exp(-x))


def linear_branching():
    """gamma0 = -x, gamma1 = 0, gamma2 = x."""
    return CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# generator oracles


def test_apply_L_constant_function_vanishes():
    assert apply_L(CONST, 2.0, linear_branching(), STABLE15) == pytest.approx(0.0, abs=1e-10)


def test_apply_L_linear_function_is_drift():
    # jumps are compensated, so L x = gamma0(x)
    val = apply_L(LINEAR, 2.0, linear_branching(), STABLE15)
    assert val == pytest.approx(-2.0, rel=1e-8)


def test_apply_L_cir_quadratic_oracle():
    # L x^2 = 2 x (d - b x) + gamma1(x) for the mean-reverting diffusion
    coeffs = cir_coefficients(1.0, 1.0, 1.0)
    for x in (0.5, 1.0, 3.0):
        expect = 2.0 * x * (1.0 - x) + float(coeffs.gamma1(np.asarray(x)))
        assert apply_L(QUADRATIC, x, coeffs, STABLE15) == pytest.approx(expect, rel=1e-10)


def test_apply_L_quadratic_jump_oracle():
    # f = x^2: the compensated jump integral is gamma2(x) int z^2 nu(dz)
    coeffs = linear_branching()
    x = 2.0
    expect = -2.0 * x * x + x * STABLE15.trunc_second_moment(1.0)
    assert apply_L(QUADRATIC, x, coeffs, STABLE15) == pytest.approx(expect, rel=1e-8)


def test_apply_L_rejects_negative_state():
    with pytest.raises(DomainError):
        apply_L(QUADRATIC, -1.0, linear_branching(), STABLE15)


# ---------------------------------------------------------------------------
# coupling operators


def test_coupling_pure_drift_transport():
    # gamma1 = gamma2 = 0: the reduced operator is (gamma0(x) - gamma0(y)) f'(r)
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float) ** 2,
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    x, y = 2.0, 0.5
    expect = (-x ** 2 + y ** 2) * 1.0
    assert apply_coupling_L(LINEAR, x, y, coeffs, STABLE15, kappa=0.5) \
        == pytest.approx(expect, rel=1e-12)
    assert apply_synchronous_L(LINEAR, x, y, coeffs, STABLE15) \
        == pytest.approx(expect, rel=1e-12)


def test_coupling_constant_gamma2_linear_f():
    # with gamma2 constant the excess term vanishes and f(r) = r kills the
    # overlap bracket: only the drift transport survives
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        gamma2_vanishes_at_zero=False)
    val = apply_coupling_L(LINEAR, 1.5, 0.5, coeffs, STABLE15, kappa=0.5)
    assert val == pytest.approx(-1.0, rel=1e-10)


def test_coupling_needs_ordered_pair():
    with pytest.raises(DomainError):
        apply_coupling_L(LINEAR, 0.5, 1.0, linear_branching(), STABLE15, kappa=0.5)
    with pytest.raises(DomainError):
        apply_coupling_L(LINEAR, 1.0, 0.5, linear_branching(), STABLE15, kappa=-1.0)


@pytest.mark.parametrize("synchronous", [False, True])
def test_coupling_marginal_consistency(rng, synchronous):
    """L-tilde (f (+) g)(x, y) = L f(x) + L g(y): the row rates of the coupling
    must sum to the marginal jump rates."""
    coeffs = linear_branching()
    smooth = [
        QUADRATIC,
        EXP_DECAY,
        Fn(lambda x: x / (1.0 + x), lambda x: 1.0 / (1.0 + x) ** 2,
           lambda x: -2.0 / (1.0 + x) ** 3),
    ]
    pairs = [(float(a), float(b)) for a, b in
             np.sort(rng.uniform(0.1, 4.0, size=(7, 2)), axis=1)[:, ::-1]]
    for f in smooth:
        for g in smooth:
            for x, y in pairs:
                if x == y:
                    continue
                lhs = apply_coupling_L_sum(f, g, x, y, coeffs, STABLE15,
                                           kappa=0.5, synchronous=synchronous)
                rhs = apply_L(f, x, coeffs, STABLE15) + apply_L(g, y, coeffs, STABLE15)
                assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)


def test_coupling_sum_symmetric_in_arguments():
    coeffs = linear_branching()
    f, g = QUADRATIC, EXP_DECAY
    a = apply_coupling_L_sum(f, g, 2.0, 0.7, coeffs, STABLE15, kappa=0.5)
    b = apply_coupling_L_sum(g, f, 0.7, 2.0, coeffs, STABLE15, kappa=0.5)
    assert a == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------------------------
# drift / noise condition checks


def test_drift_condition_linear_branching():
    coeffs = linear_branching()
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0)
    rep = check_drift_condition(coeffs, mod)
    assert rep.holds
    assert rep.derived["worst_margin"] <= 1e-9


def test_drift_condition_pure_growth_fails_with_witnesses():
    coeffs = CoefficientSet(
        gamma0=lambda x: np.asarray(x, dtype=float),
        gamma1=lambda x: np.asarray(x, dtype=float),
        gamma2=lambda x: np.asarray(x, dtype=float))
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0)
    rep = check_drift_condition(coeffs, mod)
    assert rep.verdict == FAILS
    assert rep.witnesses
    (x, y), margin = rep.witnesses[0]
    assert x > y and margin > 0
    assert "witness" in rep.to_text()


def nan_above_3():
    """Linear branching whose drift is NaN above x = 3."""
    def gamma0(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 3.0, np.nan, -x)

    return CoefficientSet(gamma0=gamma0, gamma1=None,
                          gamma2=lambda x: np.asarray(x, dtype=float))


def test_drift_condition_fails_on_nan_margins():
    # NaN fails every comparison, so a NaN margin once counted as holding
    rep = check_drift_condition(nan_above_3(), DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0))
    assert rep.verdict == FAILS and math.isnan(rep.derived["worst_margin"])
    assert rep.witnesses
    for (x, y), margin in rep.witnesses:
        assert x > 3.0 and math.isnan(margin)


def test_noise_condition_a1_sqrt_diffusion():
    # gamma1 = x: (sqrt(x) + sqrt(y))^2 >= x - y with equality at y = 0
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.asarray(x, dtype=float),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    rep = check_noise_conditions(coeffs, None, "A1", beta=1.0)
    assert rep.holds
    assert rep.derived["k3"] == pytest.approx(1.0, rel=1e-9)


def test_noise_condition_a1_no_diffusion_fails():
    rep = check_noise_conditions(linear_branching(), None, "A1", beta=1.0)
    assert rep.verdict == FAILS


def test_noise_condition_a2_stable():
    rep = check_noise_conditions(linear_branching(), STABLE15, "A2",
                                 alpha=1.5, beta=1.0, kappa=0.5)
    assert rep.holds
    assert rep.derived["k3"] == pytest.approx(1.0, rel=1e-9)
    # moment route certified by the closed form C_star = c0 / (2 - alpha)
    assert rep.derived["C_star_moment"] == pytest.approx(2.0, rel=1e-6)
    assert rep.derived["C_star"] > 0


def test_noise_condition_a2_dyadic_overlap_routes():
    nu = dyadic_atoms(alpha=1.5, jmax=60)
    # dyadic shifts align atoms, so the overlap route survives at kappa = 1/2
    rep = check_noise_conditions(linear_branching(), nu, "A2",
                                 alpha=1.5, beta=1.0, kappa=0.5)
    assert rep.holds
    assert rep.derived["C_star"] > 0
    # a non-dyadic kappa never aligns atoms: the overlap route degenerates and
    # the moment route must carry the certificate alone
    rep2 = check_noise_conditions(linear_branching(), nu, "A2",
                                  alpha=1.5, beta=1.0, kappa=0.3)
    assert rep2.holds
    assert rep2.derived.get("overlap_route") == INAPPLICABLE
    assert rep2.derived["C_star"] == pytest.approx(rep2.derived["C_star_moment"])


def test_noise_condition_a2_witnesses_name_the_failing_route():
    # gamma2 = 0 fails the rate bound at every x (the first grid point is
    # x = 1/2); atoms above 1 leave int_0^r z^2 nu = 0 for r <= 1 (the first
    # grid point is r = 1).  Each failing route names its own point
    no_rate = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float), gamma1=None,
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    far_atoms = AtomicMeasure([2.0, 3.0], [1.0, 1.0])
    cases = ((no_rate, STABLE15, [(0.5, 0.0)]),
             (linear_branching(), far_atoms, [(1.0, 0.0)]),
             (no_rate, far_atoms, [(0.5, 0.0), (1.0, 0.0)]))
    for coeffs, nu, witnesses in cases:
        rep = check_noise_conditions(coeffs, nu, "A2", alpha=1.5, beta=1.0,
                                     kappa=0.5)
        assert rep.verdict == FAILS
        assert rep.witnesses == witnesses


def test_noise_condition_rejects_bad_inputs():
    with pytest.raises(DomainError):
        check_noise_conditions(linear_branching(), STABLE15, "A2", alpha=1.5)
    with pytest.raises(DomainError):
        check_noise_conditions(linear_branching(), None, "bogus")
    # the constants accept only the canonical descriptors, so the check does too
    with pytest.raises(DomainError):
        check_noise_conditions(linear_branching(), STABLE15, "case2",
                               alpha=1.5, beta=1.0, kappa=0.5)
    with pytest.raises(DomainError):
        check_noise_conditions(linear_branching(), None, "A1", beta=2.5)


def test_condition_report_requires_witness_on_failure():
    with pytest.raises(DomainError):
        ConditionReport("x", FAILS)
    assert ConditionReport("x", HOLDS, derived={"a": 1.0}).holds


# ---------------------------------------------------------------------------
# Lyapunov verification


def small_grid():
    return np.logspace(-2, 0.5, 25)


def test_verify_lyapunov_case2_holds(case2, case2_assembled):
    consts, psi = case2_assembled
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=small_grid())
    assert rep.holds
    assert rep.derived["max_margin"] <= 1e-6


def test_verify_lyapunov_monotone_in_lambda(case2, case2_assembled):
    consts, psi = case2_assembled
    grid = small_grid()

    def margin(lam):
        rep = verify_lyapunov(psi, lam, case2.coeffs, case2.nu,
                              case2.sim.kappa, r_grid=grid)
        return rep.derived["max_margin"]

    m1 = margin(consts.lam)
    m2 = margin(10.0 * consts.lam)
    m3 = margin(200.0 * consts.lam)
    assert m1 < m2 < m3


def test_verify_lyapunov_inflated_lambda_fails(case2, case2_assembled):
    consts, psi = case2_assembled
    rep = verify_lyapunov(psi, 200.0 * consts.lam, case2.coeffs,
                          case2.nu, case2.sim.kappa,
                          r_grid=small_grid())
    assert rep.verdict == FAILS
    assert rep.witnesses


def test_verify_lyapunov_uniform_mode(case2, case2_assembled):
    consts, psi = case2_assembled
    # with lam = 0 the uniform-mode margin is just the sup of L-tilde psi < 0
    rep = verify_lyapunov(psi, 0.0, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=small_grid(),
                          mode="uniform")
    assert rep.holds
    assert rep.derived["mode"] == "uniform"


def test_verify_lyapunov_skipped_point_is_inconclusive(case2, case2_assembled,
                                                       monkeypatch):
    consts, psi = case2_assembled
    grid = small_grid()
    evaluate = generator._coupling_L

    def failing_at_one_point(fn, x, y, *args):
        values, errors = evaluate(fn, x, y, *args)
        hit = (y == 0.5) & np.isclose(x - y, grid[3], rtol=1e-9, atol=0.0)
        for i in np.flatnonzero(hit):
            values[i], errors[i] = math.nan, QuadratureError("integrand refused")
        return values, errors

    monkeypatch.setattr(generator, "_coupling_L", failing_at_one_point)
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=grid)
    assert rep.verdict == INCONCLUSIVE and not rep.holds
    assert rep.derived["skipped"] == [(float(grid[3]), 0.5)]
    assert "integrand refused" in rep.to_text()


def test_verify_lyapunov_nan_margin_is_skipped(case2, case2_assembled):
    # the points with y + r > 3 have a NaN drift: they are skipped, not held,
    # and the others hold as on case2-stable, whose drift is -x
    consts, psi = case2_assembled
    grid = small_grid()
    rep = verify_lyapunov(psi, consts.lam, nan_above_3(), case2.nu,
                          case2.sim.kappa, r_grid=grid)
    assert rep.verdict == INCONCLUSIVE and not rep.holds
    assert rep.derived["skipped"] == [(r, y) for r in grid.tolist()
                                      for y in generator._LYAPUNOV_Y if y + r > 3.0]
    assert math.isfinite(rep.derived["max_margin"])
    assert "the margin is NaN" in rep.to_text()


def test_verify_lyapunov_all_points_skipped_reports_no_margin(case2, case2_assembled,
                                                              monkeypatch):
    consts, psi = case2_assembled

    def always_failing(fn, x, y, *args):
        return np.full(x.size, math.nan), [QuadratureError("integrand refused")] * x.size

    monkeypatch.setattr(generator, "_coupling_L", always_failing)
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=small_grid()[:4])
    assert rep.verdict == INCONCLUSIVE and not rep.holds
    assert math.isnan(rep.derived["max_margin"])
    assert rep.derived["worst_point"] is None
    assert len(rep.derived["skipped"]) == 12


def scan(grid):
    """The (r, y) points of verify_lyapunov's scan over the r grid."""
    return np.repeat(grid, 3), np.tile((0.0, 0.5, 2.0), grid.size)


def recording_groups(monkeypatch, fail_at=None):
    """Patch the measure's grouped quadrature: record the intervals of
    every call, and fail the groups whose last point is ``fail_at``."""
    calls = []
    integrate = model.integrate_intervals

    def recorded(fn, intervals, spec):
        calls.append(intervals)
        values, errors = integrate(fn, intervals, spec)
        for g, (_, _, points) in enumerate(intervals):
            if points[-1] == fail_at:
                values[g], errors[g] = math.nan, QuadratureError("group refused")
        return values, errors

    monkeypatch.setattr(model, "integrate_intervals", recorded)
    return calls


def test_lyapunov_scan_integrates_each_r_once_at_the_grid_r(case2, case2_assembled,
                                                           monkeypatch):
    consts, psi = case2_assembled
    grid = small_grid()
    calls = recording_groups(monkeypatch)
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=grid)
    assert rep.holds
    groups = [points for intervals in calls for _, _, points in intervals]
    assert len(groups) == grid.size
    # each group's last point is its small-z switch 0.1 r, at the grid r itself
    assert [points[-1] for points in groups] == (0.1 * grid).tolist()


def test_a_failed_r_group_skips_its_three_points_only(case2, case2_assembled,
                                                      monkeypatch):
    consts, psi = case2_assembled
    grid = small_grid()
    r, y = scan(grid)
    args = (case2.coeffs, case2.nu, case2.sim.kappa, generator._VERIFY_QUAD)
    before, _ = generator._coupling_L(psi, y + r, y, r, *args)
    recording_groups(monkeypatch, fail_at=0.1 * grid[3])
    values, errors = generator._coupling_L(psi, y + r, y, r, *args)
    hit = r == grid[3]
    assert hit.sum() == 3 and np.isnan(values[hit]).all()
    assert all(str(e) == "group refused" for e, h in zip(errors, hit) if h)
    assert all(e is None for e, h in zip(errors, hit) if not h)
    assert values[~hit].tolist() == before[~hit].tolist()
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=grid)
    assert rep.verdict == INCONCLUSIVE
    assert rep.derived["skipped"] == [(float(grid[3]), yi) for yi in (0.0, 0.5, 2.0)]
    assert "group refused" in rep.to_text()


# max_margin of `nlbranch check` (60 x 3 grid) for every preset that runs the
# Lyapunov scan, as the scalar QUADPACK integrator computed it
LYAPUNOV_MARGINS = {
    "case2-stable": -0.003927175847040058,
    "case3-dyadic": -0.00519296887023479,
    "logistic": -0.0234729275943238,
    "superexp": -0.0024569554117395043,
    "xlog-drift": -0.05388719384034818,
}


def test_lyapunov_pins_cover_every_lyapunov_preset():
    assert sorted(LYAPUNOV_MARGINS) == sorted(
        name for name in PRESETS if "lyapunov" in load_scenario(name).checks)


@pytest.mark.parametrize("name", sorted(LYAPUNOV_MARGINS))
def test_lyapunov_verdict_and_margin_are_pinned(tmp_path, name):
    assert main(["check", "--scenario", name, "--out", str(tmp_path)]) == 0
    text = (tmp_path / f"{name}.check.txt").read_text()
    section = text.split("condition lyapunov: ", 1)[1]
    assert section.startswith(HOLDS)
    margin = float(section.split("max_margin = ", 1)[1].split("\n", 1)[0])
    assert margin == pytest.approx(LYAPUNOV_MARGINS[name], abs=1e-9)


def assert_chunk_matches_points(fn, coeffs, nu, kappa):
    """Pairs (y + r, y) evaluated as one chunk agree with apply_coupling_L
    at each pair alone."""
    r, y = scan(np.logspace(-3, 1, 7))
    x = y + r
    q = QuadratureSpec(atol=1e-9, rtol=1e-7)
    values, errors = generator._coupling_L(fn, x, y, x - y, coeffs, nu, kappa, q)
    assert errors == [None] * r.size
    for val, xi, yi in zip(values, x, y):
        alone = apply_coupling_L(fn, xi, yi, coeffs, nu, kappa, q=q)
        assert val == pytest.approx(alone, rel=0.0, abs=1e-13)


@pytest.mark.parametrize("name", sorted(LYAPUNOV_MARGINS))
def test_grid_point_alone_and_inside_a_chunk_agree(name):
    # case3-dyadic sums atoms per point
    sc = load_scenario(name)
    _, psi = assemble_scenario(sc, sc.variant)
    assert_chunk_matches_points(psi, sc.coeffs, sc.nu, sc.sim.kappa)


def test_chunk_agreement_on_the_tv_function(case2):
    _, tv = assemble_scenario(case2, "tv")
    assert len(tv.breakpoints()) == 3
    assert_chunk_matches_points(tv, case2.coeffs, case2.nu, case2.sim.kappa)


UNDECLARED_INI = """
[scenario undeclared]
x0 = 1.0
y0 = 0.5

[coefficients undeclared]
type = custom
gamma0 = -x
gamma2 = x

[measure undeclared]
type = custom
density = z**(-1.5)
upper = 2.0
decreasing = false
"""


def test_chunk_agreement_on_an_undeclared_ini_density(case2, case2_assembled, tmp_path):
    # without the decreasing flag, overlap_mass integrates min(n(z), n(z - x))
    path = tmp_path / "undeclared.ini"
    path.write_text(UNDECLARED_INI)
    sc = load_scenario("undeclared", config_path=path)
    assert not sc.nu.density_decreasing
    _, psi = case2_assembled
    assert_chunk_matches_points(psi, sc.coeffs, sc.nu, case2.sim.kappa)


# ---------------------------------------------------------------------------
# counterexample computations


def test_invariant_density_residual_gaussian():
    f = Fn(lambda x: np.exp(-x * x),
           lambda x: -2.0 * x * np.exp(-x * x),
           lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x))
    assert abs(invariant_density_residual(f)) <= 1e-6


def test_invariant_density_residual_constant_zero():
    assert invariant_density_residual(CONST) == pytest.approx(0.0, abs=1e-12)


def test_invariant_density_residual_needs_flat_origin():
    with pytest.raises(DomainError):
        invariant_density_residual(LINEAR)


def test_invariant_measure_mass_diverges():
    # int_delta^oo x^-2 e^-x dx = e^-delta/delta - E1(delta); delta times it
    # increases to 1, so the mass over (0, oo) is infinite
    mpmath = pytest.importorskip("mpmath")
    scaled = []
    for k in range(9):
        delta = 10.0 ** -k
        mass = invariant_measure_mass(delta)
        with mpmath.workdps(30):
            exact = mpmath.exp(-delta) / delta - mpmath.e1(delta)
        assert mass == pytest.approx(float(exact), rel=1e-13)
        scaled.append(delta * mass)
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert scaled[0] == pytest.approx(0.148, abs=1e-3)
    assert scaled[-1] == pytest.approx(0.99999981, abs=1e-8)
    with pytest.raises(QuadratureError):
        invariant_measure_mass(0.0)


def test_cir_hitting_time_log_oracle():
    assert cir_expected_hitting_time(1.0, 1.0, 1.0, 1.0) == 0.0
    for x in (2.0, 10.0, 100.0):
        assert cir_expected_hitting_time(x, 1.0, 1.0, 1.0) \
            == pytest.approx(math.log(x), rel=1e-8)


def test_cir_hitting_time_monotone_unbounded():
    vals = [cir_expected_hitting_time(x, 1.0, 2.0, 1.5) for x in (10.0, 1e2, 1e3, 1e4)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert cir_expected_hitting_time(1e6, 1.0, 2.0, 1.5) > 2.0 * vals[0]


def test_cir_hitting_time_rejects_bad_inputs():
    with pytest.raises(DomainError):
        cir_expected_hitting_time(0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        cir_expected_hitting_time(2.0, -1.0, 1.0, 1.0)
