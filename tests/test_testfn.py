import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlbranch.cli import assemble_scenario, noise_report
from nlbranch.config import PRESETS, load_scenario
from nlbranch import testfn
from nlbranch.errors import DomainError, ValidationError
from nlbranch.testfn import (ContractionConstants, DriftModulus, Phi1, Phi2, assemble,
                             build_g, build_psi, build_strong_psi, build_tv_fn,
                             phi1_linear, phi1_log1p, phi1_xlog, phi1_zero,
                             phi2_linear, phi2_power, psi_table)

L0 = 1.0
THETA = 0.5


def fd4(f, r, h):
    """Fourth-order central difference for f'."""
    return (f(r - 2 * h) - 8 * f(r - h) + 8 * f(r + h) - f(r + 2 * h)) / (12 * h)


def modulus_for(phi1):
    return DriftModulus(phi1=phi1, l0=L0, k2=1.0)


PHI1_INSTANCES = {
    "zero": phi1_zero(),
    "xlog": phi1_xlog(0.2, L0),
    "log1p": phi1_log1p(0.2),
}


# ---------------------------------------------------------------------------
# g: closed-form oracle and certified sign pattern


def test_g_sqrt_closed_form():
    g = build_g(modulus_for(phi1_zero()), THETA, 1.0)
    r = np.logspace(-4, math.log10(2 * L0), 200)
    assert np.allclose(g.value(r), np.sqrt(r), rtol=1e-12)
    assert np.allclose(g.d1(r), 0.5 / np.sqrt(r), rtol=1e-12)
    assert g.sup_neg_ratio == pytest.approx(0.5, abs=1e-8)
    assert g.sup_r_gprime == pytest.approx(0.5 * math.sqrt(2.0), rel=1e-6)


@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_g_sign_pattern_and_cap(name):
    g = build_g(modulus_for(PHI1_INSTANCES[name]), THETA, 1.0)
    r = np.logspace(-6, math.log10(2 * L0), 1000)
    gp, gpp, gppp = g.d1(r), g.d2(r), g.d3(r)
    assert np.all(gp > 0)
    assert np.all(gpp < 1e-12)
    assert np.all(gppp >= -1e-8)
    assert np.max(-r * gpp / gp) <= 2.0 - THETA + 1e-8
    assert g.sup_neg_ratio <= 2.0 - THETA + 1e-8


@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_g_derivatives_vs_finite_differences(name):
    g = build_g(modulus_for(PHI1_INSTANCES[name]), THETA, 1.0)
    r = np.logspace(math.log10(0.01 * L0), math.log10(1.96 * L0), 1000)
    h = 1e-4 * r
    fd1 = fd4(g.value, r, h)
    fd2 = fd4(g.d1, r, h)
    assert np.max(np.abs(fd1 - g.d1(r)) / np.abs(g.d1(r))) < 1e-6
    assert np.max(np.abs(fd2 - g.d2(r)) / np.abs(g.d2(r))) < 1e-6


# sha256 of d1, d2 and d3 of g (c0g = 1.3) for each PHI1_INSTANCES entry, in
# sorted order, and theta = 0.5, 1.0, on G_PIN_GRID: the bits of the
# derivatives the certificate and psi consume
G_PIN_GRID = np.logspace(-6, math.log10(2 * L0), 500)
G_DERIVATIVES_SHA256 = "f0bd6d18658cd8ca94dfc6a2569adad03913d0c4a3e65ea16ff470734f1c9dba"


def test_g_derivatives_keep_their_bits():
    digest = hashlib.sha256()
    for name in sorted(PHI1_INSTANCES):
        for theta in (0.5, 1.0):
            g = build_g(modulus_for(PHI1_INSTANCES[name]), theta, 1.3)
            for d in (g.d1, g.d2, g.d3):
                digest.update(np.ascontiguousarray(d(G_PIN_GRID), dtype="<f8").tobytes())
    assert digest.hexdigest() == G_DERIVATIVES_SHA256


@pytest.mark.parametrize("theta", sorted({THETA, 0.5, 1.0}))
@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_certificate_from_terms_built_once(name, theta):
    # assemble certifies every c3 iterate from one set of sup-grid terms; each
    # certificate is build_g's, and its sups are those of g's own derivatives
    mod = modulus_for(PHI1_INSTANCES[name])
    gint = testfn._g_integral(mod, theta)
    terms = testfn._sup_terms(mod, theta)
    grid = terms[0]
    for c0g in (0.4, 1.0, 1.3):
        g = testfn._certify_g(mod, theta, c0g, gint, terms)
        solo = build_g(mod, theta, c0g)
        gp, gpp = g.d1(grid), g.d2(grid)
        sup_neg = float(np.max(-grid * gpp / gp))
        if PHI1_INSTANCES[name].is_zero:
            sup_neg = max(sup_neg, 1.0 - theta)
        for got, want in ((g.sup_neg_ratio, solo.sup_neg_ratio),
                          (g.sup_r_gprime, solo.sup_r_gprime),
                          (g.sup_neg_ratio, sup_neg),
                          (g.sup_r_gprime, float(np.max(grid * gp)))):
            assert got.hex() == want.hex()


@pytest.mark.parametrize("theta", (0.5, 1.0))
@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_g_terms_of_several_orders_are_each_orders_own(name, theta):
    # one call shares the powers of r and the Phi1 evaluations between the
    # orders; each order's terms keep the bits of a call for it alone
    phi1 = PHI1_INSTANCES[name]
    together = testfn._g_terms(phi1, theta, G_PIN_GRID, (1, 2, 3))
    assert len(together) == 3
    for order, (power, factors) in zip((1, 2, 3), together):
        [(solo_power, solo_factors)] = testfn._g_terms(phi1, theta, G_PIN_GRID, (order,))
        assert len(factors) == len(solo_factors)
        for got, want in zip((power,) + factors, (solo_power,) + solo_factors):
            assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


@pytest.mark.parametrize("slot,derivative", [("d1", "g''"), ("d2", "g'''")])
def test_certificate_rejects_a_non_finite_derivative(slot, derivative):
    # a Phi1 derivative that is NaN beyond 1.5 l0, outside the window
    # (0, l0] DriftModulus validates, makes g's derivative of one order
    # higher NaN there; it is named, not skipped by the sign tests
    sc = load_scenario("logistic")
    mod = sc.modulus
    exact = getattr(mod.phi1, slot)

    def broken(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 1.5 * mod.l0, np.nan, exact(r))

    mod = replace(mod, phi1=replace(mod.phi1, **{slot: broken}))
    derived = noise_report(sc).derived
    with pytest.raises(ValidationError, match=f"^{derivative} is not finite"):
        assemble(sc.case, mod, derived, variant=sc.variant, kappa=sc.sim.kappa)


@pytest.mark.parametrize("function,slot", [("phi1", "d1"), ("phi1", "d2"), ("phi1", "d3"),
                                           ("phi2", "d1"), ("phi2", "d2")])
def test_modulus_rejects_a_non_finite_derivative(function, slot):
    # on logistic's modulus (l0 = 0.02) the derivative is NaN beyond r = 0.01,
    # on Phi2's grid [l0, 10 l0] everywhere; it is named, not skipped by the
    # sign tests
    mod = load_scenario("logistic").modulus
    part = getattr(mod, function)
    exact = getattr(part, slot)

    def broken(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0.01, np.nan, exact(r))

    if function == "phi1":
        part = replace(part, **{slot: broken})
    else:
        # Phi2's derivatives are methods: override this one in a subclass
        part = type("BrokenPhi2", (Phi2,), {slot: lambda self, r: broken(r)})(
            part.coef, part.exponent)
    name = function.capitalize() + "'" * int(slot[1])
    with pytest.raises(ValidationError, match=f"^{name} is not finite"):
        replace(mod, **{function: part})


def bump_phi1(top):
    """Phi1 = 0 on (0, 1] and r h(r) beyond, with 1 + h = ((top - r)/(top - 1))^2.
    It is admissible on (0, l0] = (0, 1]; for theta = 1 and c0g = 1 it gives
    g' = 1 + h, g'' = h' and g''' = h'' on (1, 2]."""
    span = top - 1.0

    def parts(r):
        r = np.asarray(r, dtype=float)
        beyond = r > 1.0
        u = np.maximum(r, 1.0)
        h = ((top - u) / span) ** 2 - 1.0
        dh = np.where(beyond, -2.0 * (top - u) / span ** 2, 0.0)
        ddh = np.where(beyond, 2.0 / span ** 2, 0.0)
        return r, h, dh, ddh

    def value(r):
        r, h, _, _ = parts(r)
        return r * h

    def d1(r):
        r, h, dh, _ = parts(r)
        return h + r * dh

    def d2(r):
        r, _, dh, ddh = parts(r)
        return 2.0 * dh + r * ddh

    def d3(r):
        return 3.0 * parts(r)[3]

    return Phi1(value=value, d1=d1, d2=d2, d3=d3)


@pytest.mark.parametrize("top,match", [
    (1.9, "sign pattern"),      # g'' = h' > 0 past r = 1.9
    (2.05, "certified cap"),    # -r g''/g' = 2 r / (2.05 - r) reaches 80
])
def test_assemble_raises_the_certificate_errors(top, match):
    mod = DriftModulus(phi1=bump_phi1(top), l0=1.0, k2=1.0)
    with pytest.raises(ValidationError, match=match):
        assemble("A1", mod, {"beta": 1.0, "k3": 1.0})


def test_g_rejects_bad_parameters():
    with pytest.raises(DomainError):
        build_g(modulus_for(phi1_zero()), 1.5, 1.0)
    with pytest.raises(DomainError):
        build_g(modulus_for(phi1_zero()), THETA, -1.0)


def integral_nodes(hi, n):
    """The nodes of testfn's cumulative-integral interpolants on [0, hi]."""
    return hi * np.sin(np.linspace(0.0, np.pi / 2, n)) ** 2


def test_g_integral_without_closed_form_matches_mpmath():
    # Phi1(z) z^(theta-2) ~ z^(-1/2) log(1/z) is singular at 0; the first
    # nodes next to 0 see it most
    mpmath = pytest.importorskip("mpmath")
    l0 = 0.01
    g = build_g(DriftModulus(phi1=phi1_log1p(0.1), l0=l0, k2=0.5), THETA, 1.0)
    integrand = lambda z: 0.1 * z * mpmath.log1p(1 / z) * z ** (THETA - 2.0)
    nodes = integral_nodes(2.0 * l0, 2400)
    for r in nodes[[1, 2, 3, 10, 100, 1000, 2399]]:
        with mpmath.workdps(30):
            exact = float(mpmath.quad(integrand, [0, r]))
        assert float(g.value(r)) - math.sqrt(r) == pytest.approx(exact, rel=1e-12)


def test_g_divergent_integral_is_a_domain_error():
    # Phi1(z) = z^0.1 is a valid modulus with no closed-form g-integral, and
    # int_0 z^0.1 z^(theta-2) dz diverges at theta = 1/2
    p = 0.1
    pw = lambda k: (lambda r: math.prod(p - j for j in range(k))
                    * np.asarray(r, dtype=float) ** (p - k))
    phi1 = Phi1(value=pw(0), d1=pw(1), d2=pw(2), d3=pw(3))
    with pytest.raises(DomainError, match="diverges"):
        build_g(modulus_for(phi1), THETA, 1.0)


# ---------------------------------------------------------------------------
# psi: structural invariants


@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_psi_invariants(name):
    g = build_g(modulus_for(PHI1_INSTANCES[name]), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    assert psi.value(np.asarray(0.0)) == pytest.approx(0.0, abs=1e-12)
    r = np.logspace(-5, 2, 1000)
    assert np.all(psi.d1(r) > 0)
    assert np.all(psi.d2(r) <= 1e-12)
    # linear sandwich: lower_slope * r <= psi(r) <= (c1 + 1) r
    lo = psi.lower_slope()
    vals = psi.value(r)
    assert np.all(vals >= lo * r - 1e-12)
    assert np.all(vals <= (psi.c1 + 1.0) * r + 1e-12)


def test_psi_inner_integral_on_sqrt_g():
    # g = sqrt(r): int_0^r exp(-c2 sqrt(s)) ds = 2/c2^2 [1 - e^(-u)(1 + u)],
    # u = c2 sqrt(r), exactly at the interpolant's nodes
    c1, c2 = 0.5, 1.3
    psi = build_psi(build_g(modulus_for(phi1_zero()), THETA, 1.0), c1, c2, L0)
    r = integral_nodes(2.0 * L0, 1200)
    u = c2 * np.sqrt(r)
    exact = 2.0 / c2 ** 2 * (-np.expm1(-u) - u * np.exp(-u))
    assert np.max(np.abs(psi.value(r) - c1 * r - exact)) <= 1e-12


def test_psi_inner_integral_near_zero_on_sqrt_g():
    # below the first node x1 = 3.4e-6 the integral follows its leading terms
    # r - (2/3) c2 r^(3/2); the Hermite panels above x1 carry the
    # interpolation error of an integrand whose third derivative is singular
    # at 0.  The bounds hold the measured 1.5e-6 and 1.1e-5.
    c1, c2 = 0.5, 1.3
    psi = build_psi(build_g(modulus_for(phi1_zero()), THETA, 1.0), c1, c2, L0)
    x1 = integral_nodes(2.0 * L0, 1200)[1]
    r = np.logspace(-9, -4, 2001)
    u = c2 * np.sqrt(r)
    exact = 2.0 / c2 ** 2 * (-np.expm1(-u) - u * np.exp(-u))
    rel = np.abs(psi.value(r) - c1 * r - exact) / exact
    assert np.max(rel[r < x1]) <= 2e-6
    assert np.max(rel) <= 2e-5


@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_psi_c2_gluing(name):
    g = build_g(modulus_for(PHI1_INSTANCES[name]), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    (bp,) = psi.breakpoints()
    eps = 1e-9 * bp
    for order in (psi.value, psi.d1, psi.d2):
        left = float(order(np.asarray(bp - eps)))
        right = float(order(np.asarray(bp + eps)))
        assert abs(left - right) <= 1e-6 * (1.0 + abs(left))


@pytest.mark.parametrize("theta, phi1, expect", [
    (THETA, phi1_linear(0.2), -math.inf),
    (1.0, phi1_zero(), -1.0),
    (1.0, phi1_xlog(0.2, L0), -math.inf),
    (1.0, phi1_log1p(0.2), -math.inf)])
def test_psi_d2_at_zero_is_its_limit(theta, phi1, expect):
    # psi''(0) is -c2 g'(0+), computed without evaluating g' at 0, where
    # r^(theta - 2) overflows; a finite limit is the value near 0
    psi = build_psi(build_g(modulus_for(phi1), theta, 0.3), 0.5, 1.0, L0)
    with np.errstate(all="raise"):
        got = float(psi.d2(np.asarray(0.0)))
    assert got == expect
    if math.isfinite(expect):
        assert float(psi.d2(np.asarray(1e-9))) == pytest.approx(expect, rel=1e-6)


@pytest.mark.parametrize("name", sorted(PHI1_INSTANCES))
def test_psi_derivatives_vs_finite_differences(name):
    g = build_g(modulus_for(PHI1_INSTANCES[name]), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    r = np.logspace(math.log10(0.01 * L0), math.log10(1.96 * L0), 1000)
    fd2 = fd4(psi.d1, r, 1e-4 * r)
    assert np.max(np.abs(fd2 - psi.d2(r)) / np.abs(psi.d2(r))) < 1e-6
    fd1 = fd4(psi.value, r, 1e-3 * np.maximum(r, 1e-3))
    assert np.max(np.abs(fd1 - psi.d1(r)) / np.abs(psi.d1(r))) < 1e-6


@given(st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=1e-3, max_value=50.0),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_psi_concavity_along_chords(r1, r2, t):
    g = build_g(modulus_for(phi1_zero()), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    mid = t * r1 + (1.0 - t) * r2
    chord = t * float(psi.value(np.asarray(r1))) + (1.0 - t) * float(psi.value(np.asarray(r2)))
    assert float(psi.value(np.asarray(mid))) >= chord - 1e-9 * (1.0 + abs(chord))


def test_psi_subadditive_in_distance():
    # psi(r + s) <= psi(r) + psi(s): concave with psi(0) = 0
    g = build_g(modulus_for(phi1_xlog(0.2, L0)), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    r = np.logspace(-3, 1, 50)
    for s in (0.01, 0.5, 3.0):
        assert np.all(psi.value(r + s) <= psi.value(r) + float(psi.value(np.asarray(s))) + 1e-10)


# ---------------------------------------------------------------------------
# strong (bounded) psi


def test_strong_psi_bounded_and_glued():
    mod = DriftModulus(phi1=phi1_zero(), l0=L0, k2=1.0, phi2=phi2_power(0.5, 2.0))
    g = build_g(mod, THETA, 1.0)
    psi = build_strong_psi(build_psi(g, 0.5, 1.0, L0), mod.phi2)
    assert math.isfinite(psi.sup())
    big = np.array([1e3, 1e6, 1e9])
    assert np.all(psi.value(big) <= psi.sup() + 1e-9)
    # monotone toward the sup
    r = np.logspace(-3, 6, 400)
    v = psi.value(r)
    assert np.all(np.diff(v) > 0)
    (bp,) = psi.breakpoints()
    eps = 1e-9
    for order in (psi.value, psi.d1):
        assert float(order(np.asarray(bp - eps))) == pytest.approx(
            float(order(np.asarray(bp + eps))), rel=1e-5)


@pytest.fixture(scope="module")
def logistic_fns():
    """logistic's w1 psi, its strong psi and the tv function on the latter."""
    sc = load_scenario("logistic")
    _, psi = assemble_scenario(sc, "w1")
    _, tv = assemble_scenario(sc, "strong")
    return {"w1": psi, "strong": tv.psi, "tv": tv}


@pytest.mark.parametrize("kind", ["w1", "strong", "tv"])
def test_pieces_of_one_array_are_each_points_own(logistic_fns, kind):
    # each piece runs on its own points only; every element keeps the bits
    # it has when evaluated alone, and a 0-d input still gives a float
    fn = logistic_fns[kind]
    r0 = fn.breakpoints()[-1]       # 2 l0, where psi's bridge starts
    # both sides of 2 l0 and 2 l0 itself, r = 0, NaN, and the tv function's
    # three pieces (its bridge runs on [1/11, 1/10])
    r = np.array([0.0, 0.5 * r0, 3.0 * r0, r0, np.nan, 1e-3, np.nextafter(r0, np.inf),
                  np.nextafter(r0, 0.0), 0.05, 0.095, 10.0])
    for evaluate in (fn.value, fn.d1, fn.d2):
        together = evaluate(r)
        alone = [evaluate(np.asarray(x)) for x in r]
        assert all(type(x) is float for x in alone)
        assert [x.hex() for x in together.tolist()] == [x.hex() for x in alone]


def test_strong_psi_needs_convergent_tail():
    mod = DriftModulus(phi1=phi1_zero(), l0=L0, k2=1.0, phi2=phi2_linear(1.0))
    g = build_g(mod, THETA, 1.0)
    with pytest.raises(DomainError, match="tail integral diverges"):
        build_strong_psi(build_psi(g, 0.5, 1.0, L0), mod.phi2)


# ---------------------------------------------------------------------------
# total-variation test function


def test_tv_fn_pieces_and_bridge():
    g = build_g(modulus_for(phi1_zero()), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    fn = build_tv_fn(psi, 1.5, 1.0, n=10)
    assert fn.r_lo == pytest.approx(1.0 / 11.0)
    assert fn.r_hi == pytest.approx(0.1)
    assert fn.theta_tv == pytest.approx(0.25)
    # b = exp(-c2 g(l0)) / 2
    assert fn.b == pytest.approx(0.5 * math.exp(-psi.c2 * float(g.value(np.asarray(L0)))))
    # below r_lo the function is exactly psi
    r_small = np.array([1e-4, 1e-2, fn.r_lo * 0.999])
    assert np.allclose(fn.value(r_small), psi.value(r_small), rtol=1e-12)
    # above r_hi it is the unit-lifted envelope
    r_big = np.array([0.2, 1.0, 10.0])
    w = r_big / (1.0 + r_big)
    assert np.allclose(fn.value(r_big),
                       1.0 + fn.b * w ** fn.theta_tv + psi.value(r_big), rtol=1e-12)
    # bridge continuity at both junctions
    for bp in (fn.r_lo, fn.r_hi):
        eps = 1e-10
        assert float(fn.value(np.asarray(bp - eps))) == pytest.approx(
            float(fn.value(np.asarray(bp + eps))), abs=1e-6)
        assert float(fn.d1(np.asarray(bp - eps))) == pytest.approx(
            float(fn.d1(np.asarray(bp + eps))), rel=1e-4, abs=1e-6)
    # bounded below by its short-range piece, never exceeding the envelope
    r_mid = np.linspace(fn.r_lo, fn.r_hi, 500)
    assert np.all(fn.value(r_mid) <= fn.envelope(r_mid) + 1e-12)


def test_tv_fn_rejects_bad_exponents():
    g = build_g(modulus_for(phi1_zero()), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    with pytest.raises(DomainError):
        build_tv_fn(psi, 1.0, 1.5, n=10)
    with pytest.raises(DomainError):
        build_tv_fn(psi, 1.5, 1.0, n=0)


# ---------------------------------------------------------------------------
# contraction constants


def test_constants_oracle_zero_phi1():
    # g = sqrt(r): S1 = 1/2, S2 = sup r g' = sqrt(2)/2 on (0, 2]
    # c0 = min(1, 2) = 1, c2 = S1/S2 = 1/sqrt(2), c1 = exp(-c2 * g(1))
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=0.5)
    params = {"alpha": 1.5, "beta": 1.0, "C_star": 1.0, "k3": 1.0}
    consts, psi = assemble("A2", mod, params, kappa=0.5)
    assert consts.c0 == pytest.approx(1.0, rel=1e-6)
    assert consts.c2 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)
    assert consts.c1 == pytest.approx(math.exp(-1.0 / math.sqrt(2.0)), rel=1e-6)
    assert consts.lam > 0
    assert consts.C > 0
    assert psi.c1 == consts.c1 and psi.c2 == consts.c2


def test_constants_case2_positive_rate(case2_assembled):
    consts, psi = case2_assembled
    assert consts.lam > 0
    assert consts.C > 0
    assert consts.provenance == "A2/w1"
    assert float(psi.value(np.asarray(0.0))) == pytest.approx(0.0, abs=1e-12)


def test_constants_a1_route():
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0)
    consts, _ = assemble("A1", mod, {"beta": 1.0, "k3": math.sqrt(2.0)})
    assert consts.theta_exp == pytest.approx(1.0)
    assert 0 < consts.lam <= 1.0 + 1e-12
    assert assemble("A1", mod, {"beta": 1.0, "k3": math.sqrt(2.0)})[0].lam \
        == pytest.approx(consts.lam)


def test_assemble_deterministic(case2):
    assert assemble_scenario(case2)[0] == assemble_scenario(case2)[0]


def test_assemble_rejects_unknown_case(case2):
    params = noise_report(case2).derived
    with pytest.raises(DomainError):
        assemble("A3", case2.modulus, params, kappa=case2.sim.kappa)
    with pytest.raises(DomainError, match="kappa"):
        assemble("A2", case2.modulus, params)
    with pytest.raises(ValidationError, match="variant"):
        assemble("A2", case2.modulus, params, variant="w2", kappa=case2.sim.kappa)


def test_assemble_rejects_bad_exponent_window():
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0)
    with pytest.raises(DomainError):
        assemble("A2", mod, {"alpha": 1.5, "beta": 0.1, "C_star": 1.0, "k3": 1.0},
                 kappa=0.5)
    with pytest.raises(DomainError):
        assemble("A1", mod, {"beta": 0.5, "k3": 1.0})


def test_c3_balance_divergence_reported():
    # a drift bump far larger than the certified jump activity can absorb
    mod = DriftModulus(phi1=phi1_linear(50.0), l0=1.0, k2=1.0)
    params = {"alpha": 1.5, "beta": 1.0, "C_star": 1e-6, "k3": 1e-6}
    with pytest.raises(DomainError, match="c3 balance"):
        assemble("A2", mod, params, kappa=0.5)


def test_tv_and_strong_variants(case2):
    consts_tv, fn_tv = assemble_scenario(case2, "tv")
    assert consts_tv.lam > 0
    assert consts_tv.b_tv == pytest.approx(consts_tv.c1 / 2.0, rel=1e-9)
    assert consts_tv.theta_tv == pytest.approx(0.5 * consts_tv.theta_exp)
    assert float(fn_tv.value(np.asarray(10.0))) > 1.0

    mod_strong = DriftModulus(phi1=case2.modulus.phi1, l0=case2.modulus.l0,
                              k2=case2.modulus.k2, phi2=phi2_power(0.5, 2.0))
    consts_s, fn_s = assemble_scenario(replace(case2, modulus=mod_strong), "strong")
    assert consts_s.lam > 0
    assert math.isfinite(fn_s.psi.sup())


def test_strong_assembly_builds_psi_once(case2, monkeypatch):
    # the bounded psi is derived from the psi assemble has built, so the one
    # cumulative integral is psi's (case2's Phi1 vanishes: g needs none)
    calls = []
    cumulative = testfn._cumulative_integral

    def counted(*args, **kwargs):
        calls.append(args)
        return cumulative(*args, **kwargs)

    monkeypatch.setattr(testfn, "_cumulative_integral", counted)
    assert case2.modulus.phi1.is_zero
    mod_strong = replace(case2.modulus, phi2=phi2_power(0.5, 2.0))
    assemble_scenario(replace(case2, modulus=mod_strong), "strong")
    assert len(calls) == 1


# (lambda, C) of every (preset, variant) whose constants assemble: the
# certified rates and prefactors, which a refactor must leave unchanged
CONSTANT_PINS = {
    ("case1-diffusion", "w1"): (0.13447071068499755, 10.87312731383618),
    ("case2-stable", "w1"): (0.008386346400629128, 6.936857796271945),
    ("case2-stable", "tv"): (5.9161765520362064e-05, 6.936857796271945),
    ("case3-dyadic", "w1"): (0.006879967722361315, 6.936857796271945),
    ("case3-dyadic", "tv"): (4.853496597129172e-05, 6.936857796271945),
    ("cir", "w1"): (0.18393972058572117, 10.87312731383618),
    ("cir-rate", "w1"): (0.18393972058572117, 10.87312731383618),
    ("logistic", "w1"): (0.014415748878943823, 6.936857796271945),
    ("logistic", "tv"): (0.0003392075463401739, 6.936857796271944),
    ("logistic", "strong"): (4.051520623843208e-05, 6.936857796271944),
    ("pure-growth", "w1"): (0.13447071068499755, 10.87312731383618),
    ("superexp", "w1"): (0.008386346400629128, 6.936857796271945),
    ("superexp", "tv"): (5.9161765520362064e-05, 6.936857796271945),
    ("superexp", "strong"): (0.00010967909388259592, 6.936857796271945),
    ("xlog-drift", "w1"): (0.09942861062361268, 10.057467299684024),
}


def _assemble_preset(name, variant):
    return assemble_scenario(load_scenario(name), variant)[0]


def test_constant_pins_cover_every_assembling_variant():
    for name in PRESETS:
        if load_scenario(name).case is None:
            continue
        for variant in ("w1", "tv", "strong"):
            if (name, variant) in CONSTANT_PINS:
                continue
            with pytest.raises(DomainError):
                _assemble_preset(name, variant)


@pytest.mark.parametrize("name,variant", sorted(CONSTANT_PINS))
def test_constants_are_pinned(name, variant):
    consts = _assemble_preset(name, variant)
    lam, C = CONSTANT_PINS[name, variant]
    assert consts.lam == pytest.approx(lam, rel=1e-12)
    assert consts.C == pytest.approx(C, rel=1e-12)


def test_tv_variant_needs_jump_route():
    mod = DriftModulus(phi1=phi1_zero(), l0=1.0, k2=1.0)
    with pytest.raises(DomainError, match="jump route"):
        assemble("A1", mod, {"beta": 1.0, "k3": 1.0}, variant="tv")


def test_contraction_constants_validation():
    with pytest.raises(ValidationError):
        ContractionConstants(c0=1.0, c1=1.0, c2=1.0, c3=1.0, lam=-1.0, C=1.0,
                             provenance="test")
    with pytest.raises(ValidationError):
        ContractionConstants(c0=1.0, c1=1.0, c2=1.0, c3=1.0, lam=1.0,
                             C=math.inf, provenance="test")


def test_modulus_validation():
    with pytest.raises(DomainError):
        DriftModulus(phi1=phi1_zero(), l0=-1.0)
    with pytest.raises(DomainError):
        phi1_linear(-1.0)
    with pytest.raises(DomainError):
        phi2_power(1.0, -2.0)
    assert phi2_linear(1.0).tail_integral(1.0) == math.inf
    assert phi2_power(2.0, 2.0).tail_integral(1.0) == pytest.approx(0.5)
    assert DriftModulus(phi1=phi1_zero(), l0=2.0,
                        phi2=phi2_power(0.5, 2.0)).dissipation_rate() == 1.0


@pytest.mark.parametrize("make", [
    lambda: DriftModulus(phi1=phi1_zero(), l0=math.nan),
    lambda: DriftModulus(phi1=phi1_zero(), l0=1.0, k2=math.nan),
    lambda: DriftModulus(phi1=phi1_zero(), l0=1.0, k2=math.inf),
    lambda: phi1_linear(math.nan),
    lambda: phi1_xlog(math.nan, 1.0),
    lambda: phi1_xlog(1.0, math.nan),
    lambda: phi1_log1p(math.nan),
    lambda: phi2_linear(math.nan),
    lambda: phi2_power(math.nan, 2.0),
    lambda: phi2_power(1.0, math.nan),
], ids=["l0", "k2", "k2-inf", "linear-k1", "xlog-k1", "xlog-l0", "log1p-b1",
        "phi2-linear-k2", "power-coef", "power-exponent"])
def test_modulus_rejects_nan_parameters(make):
    # NaN fails every comparison: a NaN k2 made a NaN drift bound, on
    # which the drift check held
    with pytest.raises(DomainError, match="finite"):
        make()


def test_psi_table_shape():
    g = build_g(modulus_for(phi1_zero()), THETA, 1.0)
    psi = build_psi(g, 0.5, 1.0, L0)
    tab = psi_table(psi, [0.1, 1.0, 10.0])
    assert tab.shape == (3, 4)
    assert np.allclose(tab[:, 1], psi.value(np.array([0.1, 1.0, 10.0])))
