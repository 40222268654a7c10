"""Acceptance gate: one test per primary verification target.

Each test prints a single PASS line with its headline numbers; the heavy
ensembles are shared through module-scoped fixtures.
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from nlbranch.cli import main
from nlbranch.config import load_scenario
from nlbranch.errors import DomainError, QuadratureError
from nlbranch.estimate import fit_rate, tv_upper, w1_upper
from nlbranch.generator import (cir_expected_hitting_time,
                                invariant_density_residual,
                                invariant_measure_mass, verify_lyapunov)
from nlbranch.model import StableTruncatedMeasure
from nlbranch.simulate import simulate_coupled
from nlbranch.testfn import (DriftModulus, assemble, build_g, phi1_log1p,
                             phi1_xlog, phi1_zero)


def report(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


@pytest.fixture(scope="module")
def cir_rate_ens():
    sc = load_scenario("cir-rate")
    return sc, simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, sc.sim)


@pytest.fixture(scope="module")
def big_tv_ens():
    out = {}
    for name in ("logistic", "case2-stable"):
        sc = load_scenario(name).with_overrides(n_paths=100_000)
        out[name] = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, sc.sim)
    return out


def test_criterion_1_cir_exact_w1_rate(cir_rate_ens, capsys):
    """Synchronously coupled mean-reverting sqrt-process from (2, 1): the gap
    is deterministic in mean, E|X_t - Y_t| = e^-t, and the fitted rate is 1."""
    sc, ens = cir_rate_ens
    ts = [0.5, 1.0, 2.0]
    devs = []
    for t in ts:
        est, se = w1_upper(ens, t)
        dev = abs(est - math.exp(-t))
        devs.append(dev / se if se > 0 else math.inf)
        assert dev <= 3.0 * se, f"t={t}: |{est} - e^-t| = {dev} > 3 se = {3 * se}"
    curve_t = [t for t in ens.times if t > 0]
    fit = fit_rate(curve_t, [w1_upper(ens, t)[0] for t in curve_t])
    assert 0.9 <= fit.lam <= 1.1
    report(capsys, "criterion 1 PASS: cir W1 matches e^-t "
           f"(max deviation {max(devs):.2f} se, fitted rate {fit.lam:.4f})")


def test_criterion_2_lyapunov_grid(case2, case2_assembled, capsys):
    """Contraction inequality for the linear-branching stable instance on the
    200-point log grid on [1e-3, 10]."""
    consts, psi = case2_assembled
    assert consts.lam > 0
    rep = verify_lyapunov(psi, consts.lam, case2.coeffs, case2.nu,
                          case2.sim.kappa, r_grid=np.logspace(-3, 1, 200))
    assert rep.holds, rep.to_text()
    assert rep.derived["max_margin"] <= 1e-6
    report(capsys, "criterion 2 PASS: Lyapunov holds-on-grid "
           f"(lambda = {consts.lam:.6g}, max margin = {rep.derived['max_margin']:.3g})")


def test_criterion_3_test_function_suite(capsys):
    """Concavity generator for the three short-distance drift moduli: sign
    pattern, certified curvature cap, and derivatives against high-order
    finite differences."""
    theta, l0 = 0.5, 1.0
    worst_cap, worst_fd = -math.inf, 0.0
    for phi1 in (phi1_zero(), phi1_xlog(0.2, l0), phi1_log1p(0.2)):
        mod = DriftModulus(phi1=phi1, l0=l0, k2=1.0)
        g = build_g(mod, theta, 1.0)
        r = np.logspace(-6, math.log10(2 * l0), 1000)
        gp, gpp, gppp = g.d1(r), g.d2(r), g.d3(r)
        assert np.all(gp > 0) and np.all(gpp < 1e-12) and np.all(gppp >= -1e-8)
        cap = float(np.max(-r * gpp / gp))
        worst_cap = max(worst_cap, cap)
        assert cap <= 2.0 - theta + 1e-8
        rw = np.logspace(math.log10(0.01 * l0), math.log10(1.96 * l0), 1000)
        h = 1e-4 * rw
        fd1 = (g.value(rw - 2 * h) - 8 * g.value(rw - h)
               + 8 * g.value(rw + h) - g.value(rw + 2 * h)) / (12 * h)
        fd2 = (g.d1(rw - 2 * h) - 8 * g.d1(rw - h)
               + 8 * g.d1(rw + h) - g.d1(rw + 2 * h)) / (12 * h)
        err = max(float(np.max(np.abs(fd1 - g.d1(rw)) / np.abs(g.d1(rw)))),
                  float(np.max(np.abs(fd2 - g.d2(rw)) / np.abs(g.d2(rw)))))
        worst_fd = max(worst_fd, err)
        assert err < 1e-6
    report(capsys, "criterion 3 PASS: g certified for all three moduli "
           f"(sup -r g''/g' = {worst_cap:.4f} <= {2 - theta}, "
           f"worst FD mismatch {worst_fd:.2e})")


def test_criterion_4_overlap_measure(capsys):
    """Overlap mass closed form and the tail-mass domination bound."""
    stable_half = StableTruncatedMeasure(alpha=0.5, c0=1.0, zmax=1.0)
    mass = stable_half.overlap_mass(0.25)
    assert abs(mass - 2.0) <= 1e-8
    worst = 0.0
    for nu in (stable_half, StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)):
        for k in range(11):
            x = 2.0 ** -k
            m = nu.overlap_mass(x)
            bound = 2.0 * nu.tail_mass(x / 2.0)
            assert m <= bound + 1e-10
            worst = max(worst, m / bound)
    report(capsys, f"criterion 4 PASS: overlap mass = {mass!r} (target 2), "
           f"tail bound satisfied (worst ratio {worst:.3f})")


def test_criterion_5_coupling_structure(case2, capsys):
    """Refined-basic coupling on the stable instance: order preservation
    and coalescence permanence.  The X leg's marginal law is the single run's
    bit for bit (``test_coupled_x_leg_is_the_marginal_run``)."""
    ens = simulate_coupled(case2.coeffs, case2.nu, case2.x0, case2.y0, case2.sim)
    assert ens.n_paths == 10_000
    assert ens.order_violations == 0
    keep = ~ens.flagged
    for t in ens.times[1:]:
        gap = ens.gap_at(t)[keep]
        done = ens.coalescence[keep] <= t
        assert np.all(gap[done] == 0.0), f"permanence broken at t = {t}"
        assert np.all(gap >= 0.0)
    report(capsys, "criterion 5 PASS: 0 order violations, permanence exact")


def test_criterion_6_strong_ergodicity_contrast(tmp_path, capsys):
    """The bounded-test-function branch assembles for the logistic instance
    (superlinear dissipation) and is rejected for the mean-reverting
    sqrt-process, whose hitting times grow without bound in the start."""
    out = str(tmp_path / "out")
    code = main(["check", "--scenario", "logistic", "--out", out])
    logi = capsys.readouterr().out
    assert code == 0
    assert "strong-ergodicity branch: accepted" in logi
    code = main(["check", "--scenario", "cir", "--out", out])
    cir = capsys.readouterr().out
    assert code == 0
    assert ("strong-ergodicity branch: rejected "
            "(divergent tail integral of 1/Phi2)") in cir
    xs = [10.0, 1e2, 1e3, 1e4]
    taus = [cir_expected_hitting_time(x, 1.0, 1.0, 1.0) for x in xs]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    far = cir_expected_hitting_time(1e6, 1.0, 1.0, 1.0)
    assert far > 2.0 * taus[0]
    report(capsys, "criterion 6 PASS: strong branch accepted (logistic) / "
           f"rejected (cir); hitting times increase {taus[0]:.2f} -> {far:.2f}")


def test_criterion_7_tv_decay(big_tv_ens, capsys):
    """Empirical total-variation bound decays at every doubling of the horizon
    and supports a positive fitted rate, for both jump-dominated instances."""
    ts = [1.0, 2.0, 4.0, 8.0]
    msgs = []
    for name, ens in big_tv_ens.items():
        tvs = [tv_upper(ens, t)[0] for t in ts]
        assert all(b < a for a, b in zip(tvs, tvs[1:])), f"{name}: {tvs}"
        fit = fit_rate(ts, tvs)
        assert fit.lam > 0
        msgs.append(f"{name} rate {fit.lam:.3f}")
    report(capsys, "criterion 7 PASS: TV strictly decreasing, " + ", ".join(msgs))


def test_criterion_8_negative_control(capsys):
    """The explosive diffusion's candidate density annihilates the generator
    but cannot be normalized: no stationary probability exists."""
    f = namedtuple("Fn", "value d1 d2")(
        lambda x: np.exp(-x * x),
        lambda x: -2.0 * x * np.exp(-x * x),
        lambda x: (4.0 * x * x - 2.0) * np.exp(-x * x))
    res = invariant_density_residual(f)
    assert abs(res) <= 1e-6
    # delta times the mass above delta increases to 1: the mass is infinite
    scaled = [10.0 ** -k * invariant_measure_mass(10.0 ** -k) for k in range(9)]
    assert all(a < b for a, b in zip(scaled, scaled[1:]))
    assert scaled[-1] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(QuadratureError):
        invariant_measure_mass(0.0)
    report(capsys, f"criterion 8 PASS: generator residual = {res:.2e} <= 1e-6, "
           f"delta * mass above delta = {scaled[-1]:.8f} at delta = 1e-8, "
           "candidate invariant measure has infinite mass")
