import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import stats

from nlbranch import simulate
from nlbranch.config import load_scenario
from nlbranch.errors import DomainError, ValidationError
from nlbranch.model import (CoefficientSet, StableTruncatedMeasure,
                            cir_coefficients)
from nlbranch.simulate import (CoupledEnsemble, SimConfig, read_ensemble,
                               simulate_coupled, simulate_single,
                               write_ensemble, write_ensemble_csv)

STABLE15 = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)


def linear_branching():
    return CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.asarray(x, dtype=float))


def pure_drift():
    return CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))


def count_draws(monkeypatch):
    """Route the kernel's draws through a counter of calls per slot."""
    calls = Counter()
    draws = simulate._draws

    def counting(seed, slot, counter, n, normal=False):
        calls[slot] += 1
        return draws(seed, slot, counter, n, normal)

    monkeypatch.setattr(simulate, "_draws", counting)
    return calls


# ---------------------------------------------------------------------------
# configuration


def test_sim_config_validation():
    with pytest.raises(DomainError):
        SimConfig(h=-1e-3)
    with pytest.raises(DomainError):
        SimConfig(n_paths=0)
    with pytest.raises(DomainError):
        SimConfig(kappa=0.0)
    with pytest.raises(DomainError):
        SimConfig(small_jump_policy="ignore")
    with pytest.raises(DomainError):
        SimConfig(boundary="reflect")
    with pytest.raises(DomainError):
        SimConfig(coupling="independent")
    with pytest.raises(DomainError):
        SimConfig(record_times=[0.5, 2.0], t_end=1.0).resolved_record_times()


def test_sim_config_echo_roundtrips_record_times():
    cfg = SimConfig(t_end=2.0, record_times=[0.0, 1.0, 2.0])
    echo = cfg.echo()
    assert echo["record_times"] == [0.0, 1.0, 2.0]
    assert cfg.resolved_delta_c(1.0) == pytest.approx(2e-6)
    assert SimConfig(delta_c=1e-4).resolved_delta_c(1.0) == 1e-4


# ---------------------------------------------------------------------------
# determinism


def test_simulation_is_bit_identical_for_fixed_seed():
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=200, seed=7,
                    record_times=[0.0, 0.25, 0.5])
    a = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg)
    b = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)
    assert np.array_equal(a.coalescence, b.coalescence)
    c = simulate_single(linear_branching(), STABLE15, 1.0, cfg)
    d = simulate_single(linear_branching(), STABLE15, 1.0, cfg)
    assert np.array_equal(c.X, d.X)


@pytest.mark.parametrize("name", ["case2-stable", "logistic", "case3-dyadic"])
def test_paths_do_not_depend_on_path_count(name):
    # streams are keyed per (slot, step, round) and each path thins on its
    # own round count, so the first 200 paths of a larger run are the paths
    # of the 200-path run, bit for bit
    sc = load_scenario(name)
    small = replace(sc.sim, n_paths=200, t_end=1.0, record_times=None)
    big = replace(small, n_paths=1000)
    a = simulate_single(sc.coeffs, sc.nu, sc.x0, small)
    b = simulate_single(sc.coeffs, sc.nu, sc.x0, big)
    assert np.array_equal(a.X, b.X[:, :200])
    assert np.array_equal(a.flagged, b.flagged[:200])
    c = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, small)
    d = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, big)
    assert np.array_equal(c.X, d.X[:, :200]) and np.array_equal(c.Y, d.Y[:, :200])
    assert np.array_equal(c.coalescence, d.coalescence[:200])
    assert np.array_equal(c.flagged, d.flagged[:200])


def test_draws_equal_a_freshly_built_stream():
    # the kernel reuses one generator per (seed, slot); every call must still
    # read its stream from the start, whatever the calls before it left behind
    def fresh(seed, slot, counter, n, normal):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed & 0xFFFFFFFFFFFFFFFF, slot], dtype=np.uint64),
            counter=np.array([0, 0, 0, counter], dtype=np.uint64)))
        return gen.standard_normal(n) if normal else gen.random(n)

    calls = []
    for seed in (7, -3, 2 ** 63 + 11):
        for counter in (17, 18, 1234 * 17 + 3):
            calls += [(seed, 0, counter, 5, True), (seed, 0, counter, 3, False),
                      (seed, 1, counter, 7, False), (seed, 4, counter, 5, True)]
    calls += calls[::-1]
    for seed, slot, counter, n, normal in calls:
        got = simulate._draws(seed, slot, counter, n, normal=normal)
        assert np.array_equal(got, fresh(seed, slot, counter, n, normal))


def test_different_seeds_differ():
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=200, seed=7)
    cfg2 = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=200, seed=8)
    a = simulate_single(linear_branching(), STABLE15, 1.0, cfg)
    b = simulate_single(linear_branching(), STABLE15, 1.0, cfg2)
    assert not np.array_equal(a.X[-1], b.X[-1])


# ---------------------------------------------------------------------------
# marginal oracles


def test_pure_drift_matches_ode():
    # dX = -X dt from 1: X(t) = e^-t, Euler error O(h)
    cfg = SimConfig(h=1e-3, t_end=1.0, n_paths=3, seed=1)
    ens = simulate_single(pure_drift(), None, 1.0, cfg)
    final = ens.at(1.0)
    assert np.allclose(final, math.exp(-1.0), atol=5e-3)
    assert np.all(final == final[0])  # no noise: identical paths


def test_cir_mean_matches_ode():
    # E X(t) solves m' = d - b m: m(t) = d/b + (x0 - d/b) e^(-b t)
    cfg = SimConfig(h=1e-3, t_end=1.0, n_paths=20_000, seed=3,
                    record_times=[0.0, 0.5, 1.0])
    ens = simulate_single(cir_coefficients(1.0, 1.0, 1.0), None, 2.0, cfg)
    for t in (0.5, 1.0):
        xs = ens.at(t)
        expect = 1.0 + math.exp(-t)
        se = float(np.std(xs)) / math.sqrt(xs.size)
        assert abs(float(np.mean(xs)) - expect) < 3.0 * se + 2e-3


def test_jump_count_thinning_poisson():
    # constant jump rate and a single atom: N(t) ~ Poisson(rate * t)
    rate = 2.0
    from nlbranch.model import AtomicMeasure
    nu = AtomicMeasure([1.0], [1.0])
    coeffs = CoefficientSet(
        gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.full_like(np.asarray(x, dtype=float), rate),
        gamma2_vanishes_at_zero=False)
    cfg = SimConfig(h=1e-3, eps=0.5, t_end=1.0, n_paths=20_000, seed=11)
    x0 = 100.0  # large start so the compensator drift never clamps at zero
    ens = simulate_single(coeffs, nu, x0, cfg)
    # every jump adds exactly 1; compensator removes rate * mean * t
    drift = rate * nu.mean_above(0.5) * 1.0
    counts = np.round(ens.at(1.0) - x0 + drift).astype(int)
    lam = rate * nu.tail_mass(0.5) * 1.0
    assert float(np.mean(counts)) == pytest.approx(lam, abs=0.05)
    assert float(np.var(counts)) == pytest.approx(lam, abs=0.1)
    ks = np.arange(0, 12)
    observed = np.array([np.sum(counts == k) for k in ks], dtype=float)
    expected = stats.poisson.pmf(ks, lam) * counts.size
    keep = expected > 5
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    assert chi2 < stats.chi2.ppf(0.999, int(np.sum(keep)) - 1)


def test_boundary_clamps_to_zero():
    cfg = SimConfig(h=1e-2, t_end=2.0, n_paths=500, seed=5)
    ens = simulate_single(cir_coefficients(2.0, 1.0, 0.1), None, 0.5, cfg)
    assert np.all(ens.X >= 0.0)


def test_blow_up_paths_are_flagged(monkeypatch):
    coeffs = CoefficientSet(
        gamma0=lambda x: np.asarray(x, dtype=float) ** 3,
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    cfg = SimConfig(h=1e-2, t_end=5.0, n_paths=4, seed=1)
    calls = count_draws(monkeypatch)
    ens = simulate_single(coeffs, None, 10.0, cfg)
    assert np.all(ens.flagged)
    assert np.all(np.isnan(ens.at(5.0)))
    # no diffusion, and flagged paths (NaN) do not count as noise
    assert calls[simulate._SLOT_BROWNIAN] == 0


def test_pure_jump_runs_skip_the_brownian_draw(monkeypatch):
    # gamma1 = 0 on case2-stable: the Gaussian stream is never read
    sc = load_scenario("case2-stable")
    cfg = replace(sc.sim, n_paths=200, t_end=0.2, record_times=None)
    calls = count_draws(monkeypatch)
    simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)
    simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert calls[simulate._SLOT_JUMP_OCCUR] > 0
    assert calls[simulate._SLOT_BROWNIAN] == 0


def test_diffusion_runs_draw_brownian_once_per_step(monkeypatch):
    sc = load_scenario("cir")
    cfg = replace(sc.sim, n_paths=200, t_end=0.2, record_times=None)
    calls = count_draws(monkeypatch)
    simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)
    assert calls == {simulate._SLOT_BROWNIAN: 200}
    simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert calls == {simulate._SLOT_BROWNIAN: 400}


def _fields_equal(a, b):
    """Every field of two ensembles equal, NaN matching NaN."""
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y, equal_nan=x.dtype.kind == "f"), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("policy", ["drop-with-compensator",
                                    "gaussian-compensation"])
@pytest.mark.parametrize("name", ["case2-stable", "logistic"])
def test_no_diffusion_path_equals_general_path(name, policy):
    # gamma1=None skips the diffusion work; a zero gamma1 given as a function
    # runs the general path.  Both must give the same ensembles bit for bit
    sc = load_scenario(name)
    bare = replace(sc.coeffs, gamma1=None)
    zero = replace(sc.coeffs, gamma1=lambda x: 0.0 * x)
    assert not bare.has_diffusion and zero.has_diffusion
    cfg = replace(sc.sim, n_paths=200, t_end=1.0, record_times=None,
                  small_jump_policy=policy)
    _fields_equal(simulate_single(bare, sc.nu, sc.x0, cfg),
                  simulate_single(zero, sc.nu, sc.x0, cfg))
    _fields_equal(simulate_coupled(bare, sc.nu, sc.x0, sc.y0, cfg),
                  simulate_coupled(zero, sc.nu, sc.x0, sc.y0, cfg))


def saturated_branching():
    """gamma2 = 2000 min(x, 1): against the truncated 1.5-stable measure
    (nu((0.1, oo)) = 20.4) a 1e-3 step at x >= 1 has jump rate 40.8, so it
    wants 409 thinning rounds, and each of the 16 it gets has probability
    2.55."""
    return CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=None,
        gamma2=lambda x: 2000.0 * np.minimum(np.asarray(x, dtype=float), 1.0))


def test_thinning_limits_are_counted(tmp_path):
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=0.05, n_paths=50, seed=2)
    single = simulate_single(saturated_branching(), STABLE15, 10.0, cfg)
    assert single.capped_steps > 0 and single.clipped_jumps > 0
    pair = simulate_coupled(saturated_branching(), STABLE15, 10.0, 5.0, cfg)
    assert pair.capped_steps > 0 and pair.clipped_jumps > 0
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, pair)
    back = read_ensemble(path)
    assert (back.capped_steps, back.clipped_jumps) == \
        (pair.capped_steps, pair.clipped_jumps)


def test_case2_hits_no_thinning_limit():
    sc = load_scenario("case2-stable")
    cfg = replace(sc.sim, n_paths=400)
    for ens in (simulate_single(sc.coeffs, sc.nu, sc.x0, cfg),
                simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)):
        assert 0.0 < ens.max_jump_prob <= 0.1
        assert ens.capped_steps == 0 and ens.clipped_jumps == 0


def test_at_rejects_unrecorded_time():
    cfg = SimConfig(h=1e-2, t_end=1.0, n_paths=3, seed=1,
                    record_times=[0.0, 1.0])
    ens = simulate_single(pure_drift(), None, 1.0, cfg)
    with pytest.raises(DomainError):
        ens.at(0.37)


# ---------------------------------------------------------------------------
# coupled structure


def test_equal_starts_coalesce_immediately():
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=100, seed=2)
    ens = simulate_coupled(linear_branching(), STABLE15, 1.0, 1.0, cfg)
    assert np.all(ens.coalescence == 0.0)
    assert np.array_equal(ens.X, ens.Y)


def test_coupled_rejects_bad_starts():
    cfg = SimConfig(n_paths=1)
    with pytest.raises(DomainError):
        simulate_coupled(linear_branching(), STABLE15, 0.5, 1.0, cfg)
    with pytest.raises(DomainError):
        simulate_coupled(linear_branching(), STABLE15, 1.0, -0.1, cfg)


def test_order_and_permanence_case2(case2):
    cfg = replace(case2.sim, n_paths=500, t_end=2.0,
                  record_times=[0.0, 0.5, 1.0, 2.0])
    ens = simulate_coupled(case2.coeffs, case2.nu, case2.x0, case2.y0, cfg)
    assert ens.order_violations == 0
    # permanence: gap identically zero from the coalescence time onward
    for t in (0.5, 1.0, 2.0):
        gap = ens.gap_at(t)
        done = (ens.coalescence <= t) & ~ens.flagged
        assert np.all(gap[done] == 0.0)
        assert np.all(gap[~ens.flagged] >= 0.0)
    assert np.mean(np.isfinite(ens.coalescence)) > 0.1


@pytest.mark.parametrize("name", ["case2-stable", "case3-dyadic"])
def test_gaussian_compensation_keeps_order(name):
    # the small-jump Gaussian term is reflected in Y like a diffusion, so a
    # crossing it causes is a meeting, not an order violation
    sc = load_scenario(name)
    cfg = replace(sc.sim, n_paths=400, t_end=0.5, record_times=None,
                  small_jump_policy="gaussian-compensation")
    ens = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert ens.order_violations == 0
    assert np.any(np.isfinite(ens.coalescence))


@pytest.mark.parametrize("name", ["cir", "case3-dyadic"])
def test_coupled_x_leg_is_the_marginal_run(name):
    # both simulators run one kernel: without order repairs (which move X to
    # the midpoint of a crossing pair) the coupled X leg is the marginal run
    sc = load_scenario(name)
    cfg = replace(sc.sim, n_paths=200, t_end=0.3, record_times=None)
    single = simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)
    coupled = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert coupled.order_repairs == 0
    assert np.array_equal(single.X, coupled.X)
    assert np.array_equal(single.flagged, coupled.flagged)
    assert single.max_jump_prob == coupled.max_jump_prob


def test_synchronous_coupling_shares_noise():
    # with gamma1 constant the shared Brownian increment cancels in the gap,
    # which then follows the deterministic ODE gap' = -gap on every path;
    # starting far from zero keeps the boundary clamp out of play
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.full_like(np.asarray(x, dtype=float), 1.0),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma1_vanishes_at_zero=False)
    cfg = SimConfig(h=1e-3, t_end=1.0, n_paths=50, seed=9,
                    coupling="synchronous", delta_c=1e-12)
    ens = simulate_coupled(coeffs, None, 20.0, 19.0, cfg)
    gap = ens.gap_at(1.0)
    alivemask = ~np.isfinite(ens.coalescence)
    assert np.allclose(gap[alivemask], math.exp(-1.0), atol=5e-3)


# ---------------------------------------------------------------------------
# serialization


def test_ensemble_roundtrip(tmp_path):
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=50, seed=4,
                    record_times=[0.0, 0.25, 0.5])
    ens = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg)
    # nonzero counters and a blown-up path, so that every field is exercised
    ens = replace(ens, order_violations=3, order_repairs=5, capped_steps=2,
                  clipped_jumps=9)
    ens.X[1:, 7] = np.nan
    ens.Y[1:, 7] = np.nan
    ens.flagged[7] = True
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, ens)
    back = read_ensemble(path)
    assert ens.max_jump_prob > 0
    for f in fields(CoupledEnsemble):
        a, b = getattr(back, f.name), getattr(ens, f.name)
        if isinstance(b, np.ndarray):
            assert np.array_equal(a, b, equal_nan=b.dtype.kind == "f"), f.name
        else:
            assert a == b, f.name
    # the layout: magic, version, header length, header, fixed-size records
    data = path.read_bytes()
    hlen = int.from_bytes(data[8:12], "little")
    assert len(data) == 12 + hlen + cfg.n_paths * (24 + 24 * ens.times.size)


def test_read_ensemble_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.nlbe"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        read_ensemble(path)


def test_csv_export(tmp_path):
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.2, n_paths=5, seed=4,
                    record_times=[0.0, 0.2])
    ens = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ens)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "path,t,X,Y,coalescence"
    assert len(lines) == 1 + 5 * 2
