import hashlib
import importlib.util
import math
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from nlbranch import simulate
from nlbranch.config import PRESETS, load_scenario
from nlbranch.errors import DomainError, ValidationError
from nlbranch.estimate import w1_upper
from nlbranch.model import (CoefficientSet, StableTruncatedMeasure,
                            cir_coefficients)
from nlbranch.simulate import (CoupledEnsemble, SimConfig, ks_statistic,
                               read_ensemble, simulate_coupled, simulate_single,
                               simulate_starts, write_ensemble)

STABLE15 = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=1.0)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load_fingerprint():
    spec = importlib.util.spec_from_file_location("kernel_fingerprint",
                                                  SCRIPTS / "kernel_fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint = _load_fingerprint()


def _digest(ens):
    """The first 16 hex digits of the SHA-256 that
    scripts/kernel_fingerprint.py prints for an ensemble."""
    return fingerprint._digest(ens)[:16]


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

    def counting(seed, slot, counter, n, normal=False, event=0):
        calls[slot] += 1
        return draws(seed, slot, counter, n, normal, event)

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
        SimConfig(coupling="independent")
    with pytest.raises(DomainError):
        SimConfig(record_times=[0.5, 2.0], t_end=1.0).resolved_record_times()
    with pytest.raises(DomainError):
        SimConfig(record_times=()).resolved_record_times()
    with pytest.raises(DomainError):
        SimConfig(h=1.0, t_end=0.4)
    # NaN fails every comparison, so each value is tested for finiteness too
    for key in ("h", "eps", "t_end", "kappa"):
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="finite"):
                SimConfig(**{key: bad})
    with pytest.raises(DomainError, match="overflows"):
        SimConfig(h=1e-300, t_end=1e10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_starts_must_be_nonnegative_and_finite(bad):
    # NaN would run as a flagged path from step 0, and x0 = inf would make
    # delta_c = 1e-6 (1 + x0) infinite, so that every pair met at once
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.1, n_paths=5, seed=4)
    runs = [lambda: simulate_single(linear_branching(), STABLE15, bad, cfg),
            lambda: simulate_starts(linear_branching(), STABLE15, (1.0, bad), cfg),
            lambda: simulate_coupled(linear_branching(), STABLE15, 1.0, bad, cfg)]
    if not bad < 0:
        runs.append(lambda: simulate_coupled(linear_branching(), STABLE15, bad, 0.5, cfg))
    for run in runs:
        with pytest.raises(DomainError, match="nonnegative and finite"):
            run()


def _rows_digest(*arrays):
    """SHA-256 of the arrays' bytes, first 16 hex digits."""
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:16]


def test_negative_zero_start_is_positive_zero():
    # a start of -0.0 enters as +0.0, so that no value of the state is -0.0
    # and the kernel's skipped clamp keeps every sign.  From step 1 on the
    # ensembles are the ones the kernel made when it clamped on every step
    # (the digests), which recorded -0.0 at t = 0 only
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=0.2, n_paths=300, seed=11)
    neg = simulate_coupled(linear_branching(), STABLE15, 1.0, -0.0, cfg)
    pos = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.0, cfg)
    _fields_equal(neg, pos)
    # Y stays at 0 (gamma2(0) = 0), where the clamp is skipped
    assert not np.signbit(neg.y0) and not np.any(np.signbit(neg.Y))
    assert _rows_digest(neg.X[1:], neg.Y[1:], neg.coalescence, neg.flagged) == \
        "ab37141eb2c7f380"
    cir = cir_coefficients(1.0, 1.0, 1.0)
    neg, pos = (simulate_single(cir, None, x0, cfg) for x0 in (-0.0, 0.0))
    _fields_equal(neg, pos)
    assert not np.signbit(neg.x0) and not np.any(np.signbit(neg.X[0]))
    assert _rows_digest(neg.X[1:], neg.flagged) == "6e5ff9fc461a6bee"


def test_drift_overshooting_zero_ends_at_positive_zero():
    # gamma0 = -1500 x at h = 1e-3 sends every path to -x/2 in one step, and
    # a path at 0 meets the Milstein term (xi^2 - 1) h / 4 of gamma1' = 1:
    # the clamp sets these to +0.0 on the steps it runs, and the steps that
    # skip it hold no -0.0.  The digests are those of the kernel that
    # clamped on every step.  From (1, 0.5) both legs reach 0 in the first
    # step, where the pairs meet, so the two couplings give one ensemble.
    # From (10, 0.2) under gamma0 = -1500 min(x, 0.5) no pair meets in the
    # first step, where 296 of the 300 Y legs are clamped to +0.0, while X
    # needs more than twelve steps to reach 0: the clamp runs on live pairs,
    # whose legs are recorded at every step until the last pair meets at
    # t = 0.016, and the couplings' partner noise makes two ensembles
    def coeffs(gamma0):
        return CoefficientSet(
            gamma0=gamma0,
            gamma1=lambda x: np.asarray(x, dtype=float),
            gamma2=lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float),
            gamma2_vanishes_at_zero=False, gamma1_prime=1.0)

    linear = coeffs(lambda x: -1500.0 * np.asarray(x, dtype=float))
    capped = coeffs(lambda x: -1500.0 * np.minimum(np.asarray(x, dtype=float), 0.5))
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=0.2, n_paths=300, seed=11)
    steps = replace(cfg, record_times=np.arange(21) * 1e-3)
    for model, x0, y0, run, digests in (
            (linear, 1.0, 0.5, cfg, ("2be1e05b85a3d357", "2be1e05b85a3d357")),
            (capped, 10.0, 0.2, steps, ("f371ea2936ab5958", "f7ca6a708b0e7ed3"))):
        for coupling, digest in zip(("refined-basic", "synchronous"), digests):
            ens = simulate_coupled(model, STABLE15, x0, y0, replace(run, coupling=coupling))
            values = np.concatenate((ens.X[1:], ens.Y[1:]))
            zeros = values[values == 0.0]
            assert zeros.size > values.size // 2
            assert not np.any(np.signbit(zeros))
            assert _digest(ens) == digest
    # the last run, from (10, 0.2): all pairs live after the first step
    assert np.all(ens.coalescence > 0.001) and ens.coalescence.max() == 0.016
    assert np.count_nonzero(ens.Y[1] == 0.0) == 296
    assert [_digest(ens) for ens in simulate_starts(linear, STABLE15, (1.0, 0.5), cfg)] \
        == ["c16dae962385c593", "90f71d71243c7dda"]


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.5, math.inf])
def test_record_times_must_lie_in_zero_to_t_end(bad):
    # no step writes the snapshot of a NaN record time: it would hold
    # whatever memory the snapshot array was given
    with pytest.raises(DomainError, match=r"record times must lie in \[0, t_end\]"):
        SimConfig(t_end=1.0, record_times=[0.0, bad, 1.0])


def test_sim_config_echo_roundtrips_record_times():
    cfg = SimConfig(t_end=2.0, record_times=[0.0, 1.0, 2.0])
    echo = cfg.echo()
    assert echo["record_times"] == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("gap, met", [(1.9e-6, True), (2.1e-6, False)])
def test_pairs_within_the_coalescence_threshold_meet_at_once(gap, met):
    # the kernel's threshold is 1e-6 (1 + x0): 2e-6 from x0 = 1
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.1, n_paths=50, seed=4)
    ens = simulate_coupled(linear_branching(), STABLE15, 1.0, 1.0 - gap, cfg)
    if met:
        assert np.all(ens.coalescence == 0.0)
        assert np.array_equal(ens.Y, ens.X)
    else:
        assert np.all(ens.coalescence > 0.0)
        assert np.all(ens.Y[0] == 1.0 - gap)


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


@pytest.mark.parametrize("name", ["case2-stable", "logistic", "case3-dyadic",
                                  "superexp", "xlog-drift"])
def test_paths_do_not_depend_on_path_count(name):
    # streams are keyed per (slot, step, event) and each path runs on its own
    # clock, so the first 200 paths of a larger run are the paths of the
    # 200-path run, bit for bit
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
    def fresh(seed, slot, counter, n, normal, event):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed & 0xFFFFFFFFFFFFFFFF, slot], dtype=np.uint64),
            counter=np.array([0, event, 0, counter], dtype=np.uint64)))
        return gen.standard_normal(n) if normal else gen.random(n)

    calls = []
    for seed in (7, -3, 2 ** 63 + 11):
        for counter in (17, 18, 1234 * 17 + 3):
            calls += [(seed, 0, counter, 5, True, 0), (seed, 0, counter, 3, False, 0),
                      (seed, 1, counter, 7, False, 0), (seed, 4, counter, 5, True, 0),
                      (seed, 1, counter, 7, False, 1), (seed, 2, counter, 6, False, 63)]
    calls += calls[::-1]
    for seed, slot, counter, n, normal, event in calls:
        got = simulate._draws(seed, slot, counter, n, normal=normal, event=event)
        assert np.array_equal(got, fresh(seed, slot, counter, n, normal, event))


class _RankSizes:
    """A jump measure that shows each path's firing rank: mass 1 above any
    cutoff, no compensator, and the jump that reads variate r of a round's
    size stream is r + 1.  sizes holds the size reads, the last one this
    round's.  With no drift or diffusion, a path that fires once in a step
    moves by exactly its rank + 1.  Its overlap ratios send half the marks
    of equal rates to the row z + U, which closes a gap of U, and none to
    z - U."""

    def __init__(self, sizes):
        self.sizes = sizes

    def tail_mass(self, eps):
        return 1.0

    def mean_above(self, eps):
        return 0.0

    def jumps_above(self, eps, u):
        drawn = self.sizes[-1]
        order = np.argsort(drawn)
        return order[np.searchsorted(drawn, u, sorter=order)] + 1.0, None

    def rho_pair(self, u, z, mz):
        return np.ones_like(z), np.zeros_like(z)


@pytest.mark.parametrize("coupled", [False, True])
def test_event_rounds_read_by_firing_rank(monkeypatch, coupled):
    # each event round reads each event slot once, as one cross-section:
    # the refills and sizes at the largest firing count of a start, the
    # marks at the number of partnered firing paths; and within a start and
    # a round the firing paths take variates 0, 1, ... in index order.  The
    # starts 0 and 5 fire at different rates (4 below x = 3, 8 above), and
    # the partners from 4 close their gap of 1 in steps of kappa = 0.5, so
    # once some pairs have met a round marks fewer paths than fire
    occur, size, mark = (simulate._SLOT_JUMP_OCCUR, simulate._SLOT_JUMP_SIZE,
                         simulate._SLOT_MARK)
    reads = {}   # (step, event) -> {slot: width}
    sizes = []
    draws = simulate._draws

    def recording(seed, slot, counter, n, normal=False, event=0):
        out = draws(seed, slot, counter, n, normal, event)
        if slot in (occur, size, mark) and counter:   # not the initial clocks
            widths = reads.setdefault((counter // simulate._STEP_STRIDE, event), {})
            assert slot not in widths
            widths[slot] = n
            if slot == size:
                sizes.append(out)
        return out

    monkeypatch.setattr(simulate, "_draws", recording)
    coeffs = CoefficientSet(
        gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)), gamma1=None,
        gamma2=lambda x: np.where(np.asarray(x, dtype=float) < 3.0, 4.0, 8.0),
        gamma2_vanishes_at_zero=False)
    h = 2e-3
    cfg = SimConfig(h=h, eps=0.1, t_end=1.0, n_paths=200, seed=5,
                    record_times=np.arange(501) * h)
    if coupled:
        runs = (simulate_coupled(coeffs, _RankSizes(sizes), 5.0, 4.0, cfg),)
    else:
        runs = simulate_starts(coeffs, _RankSizes(sizes), (0.0, 5.0), cfg)
    moves = np.stack([np.diff(ens.X, axis=0) for ens in runs])
    seen = Counter()
    for (step, event), widths in reads.items():
        m = widths[occur]
        assert widths[size] == m > 0
        assert coupled or mark not in widths
        if event:
            # a later round fires a subset of the one before
            assert m <= reads[step, event - 1][occur]
            seen["later rounds"] += 1
            continue
        if (step, 1) in reads:
            continue
        # a step of one round: each start's firing paths moved by 1, 2, ...
        counts = []
        for start in moves[:, step - 1]:
            fired = start != 0
            counts.append(int(np.count_nonzero(fired)))
            assert np.array_equal(start[fired], np.arange(1.0, counts[-1] + 1.0))
        assert m == max(counts)
        seen["unequal starts"] += len(set(counts)) > 1
        if coupled:
            # partnered: the pairs that had not met before this step
            kp = int(np.count_nonzero((moves[0, step - 1] != 0)
                                      & (runs[0].coalescence >= step * h)))
            assert widths.get(mark, 0) == kp
            seen["some marked"] += 0 < kp < m
    assert seen["later rounds"] and seen["some marked" if coupled else "unequal starts"]


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


def test_jump_counts_are_poisson_at_several_events_per_step():
    # a hazard of 3 jumps per step: each step's count is Poisson(3) and ten
    # steps' count Poisson(30), with no bound on the events of a step short
    # of _MAX_EVENTS
    from nlbranch.model import AtomicMeasure
    nu = AtomicMeasure([1.0], [1.0])
    rate = 30.0
    coeffs = CoefficientSet(
        gamma0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma1=None,
        gamma2=lambda x: np.full_like(np.asarray(x, dtype=float), rate),
        gamma2_vanishes_at_zero=False)
    cfg = SimConfig(h=0.1, eps=0.5, t_end=1.0, n_paths=20_000, seed=11,
                    record_times=[0.0, 0.1, 1.0])
    x0 = 100.0  # the compensator (3 per step) never clamps at zero
    ens = simulate_single(coeffs, nu, x0, cfg)
    assert ens.max_step_hazard == pytest.approx(3.0)
    for t, lam in ((0.1, 3.0), (1.0, 30.0)):
        # every jump adds exactly 1; the compensator removes rate * t
        counts = np.round(ens.at(t) - x0 + rate * t).astype(int)
        # within 5 standard errors of a Poisson sample's mean and variance
        n = counts.size
        mean, var = float(np.mean(counts)), float(np.var(counts))
        assert abs(mean - lam) < 5.0 * math.sqrt(lam / n)
        assert abs(var - lam) < 5.0 * math.sqrt((lam + 2.0 * lam ** 2) / n)
        ks = np.arange(0, int(3 * lam) + 10)
        observed = np.array([np.sum(counts == k) for k in ks], dtype=float)
        expected = stats.poisson.pmf(ks, lam) * n
        keep = expected > 5
        chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
        assert chi2 < stats.chi2.ppf(0.999, int(np.sum(keep)) - 1)


def test_boundary_clamps_to_zero():
    cfg = SimConfig(h=1e-2, t_end=2.0, n_paths=500, seed=5)
    ens = simulate_single(cir_coefficients(2.0, 1.0, 0.1), None, 0.5, cfg)
    assert np.all(ens.X >= 0.0)


def test_blow_up_paths_are_flagged():
    # every path blows up, with and without jumps; with them no clock is
    # left with an unflagged rate at all, and the run must still go on
    coeffs = CoefficientSet(
        gamma0=lambda x: np.asarray(x, dtype=float) ** 3,
        gamma1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        gamma2=lambda x: np.asarray(x, dtype=float))
    cfg = SimConfig(h=1e-2, t_end=5.0, n_paths=4, seed=1)
    for nu in (None, STABLE15):
        single = simulate_single(coeffs, nu, 10.0, cfg)
        pair = simulate_coupled(coeffs, nu, 10.0, 5.0, cfg)
        for ens in (single, pair):
            assert np.all(ens.flagged)
            assert np.all(np.isnan(ens.at(5.0)))
        assert np.all(np.isnan(pair.Y[-1]))


def late_blow_ups():
    """(coeffs, cfg) of a partial blow-up whose run goes on to t_end = 0.5
    after its last record time 0.1, so that some paths blow up after it."""
    x = lambda v: np.asarray(v, dtype=float)
    coeffs = CoefficientSet(gamma0=lambda v: 4.0 * x(v) * (x(v) - 1.0), gamma1=x, gamma2=x)
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=0.5, n_paths=400, seed=20240811,
                    record_times=(0.0, 0.1))
    return coeffs, cfg


def test_blow_ups_after_the_last_record_time_are_flagged():
    # the paths that blow up after the last record time are flagged by their
    # final state, though every value of their last snapshot is finite
    coeffs, cfg = late_blow_ups()
    single = simulate_single(coeffs, STABLE15, 0.9, cfg)
    pair = simulate_coupled(coeffs, STABLE15, 0.9, 0.45, cfg)
    assert np.all(np.isfinite(single.X)) and np.all(np.isfinite(pair.X))
    assert np.all(np.isfinite(pair.Y))
    assert (int(np.count_nonzero(single.flagged)), _rows_digest(single.flagged)) == \
        (89, "459dcd4f7ac2224d")
    assert (int(np.count_nonzero(pair.flagged)), _rows_digest(pair.flagged)) == \
        (104, "ba5fd5169ea879a0")


def test_flags_survive_the_ensemble_file(tmp_path):
    # the file keeps the kernel's flags: a path that blew up after the last
    # record time stays flagged when read back, so W1 there stays the run's.
    # Flags rebuilt from the last snapshot would number 0, and W1 read 0.5145
    coeffs, cfg = late_blow_ups()
    pair = simulate_coupled(coeffs, STABLE15, 0.9, 0.45, cfg)
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, pair)
    back = read_ensemble(path)
    assert np.count_nonzero(back.flagged) == 104
    assert np.array_equal(back.flagged, pair.flagged)
    assert w1_upper(back, 0.1) == w1_upper(pair, 0.1)
    assert w1_upper(pair, 0.1)[0] == pytest.approx(0.3104, abs=1e-4)


def partial_blow_up(gamma2=lambda x: np.asarray(x, dtype=float)):
    """gamma0 = 4x(x - 1), with truncated-stable jumps at rate gamma2: a path
    that jumps above 1 blows up within half a time unit, so from x0 = 0.9
    some of the paths are flagged and the rest run on."""
    def gamma0(x):
        x = np.asarray(x, dtype=float)
        return 4.0 * x * (x - 1.0)

    return CoefficientSet(gamma0=gamma0, gamma1=None, gamma2=gamma2)


@pytest.mark.parametrize("coupled", [False, True])
def test_blow_ups_leave_the_other_paths_bit_identical(coupled):
    # the first 200 paths of a 1000-path run with blow-ups among paths
    # 200..999 are the 200-path run, down to the bits of their NaNs
    def run(n_paths):
        cfg = SimConfig(h=2e-3, eps=0.1, t_end=0.5, n_paths=n_paths, seed=3)
        if coupled:
            return simulate_coupled(partial_blow_up(), STABLE15, 0.9, 0.45, cfg)
        return simulate_single(partial_blow_up(), STABLE15, 0.9, cfg)

    small, big = run(200), run(1000)
    assert np.any(big.flagged[200:]) and not np.all(big.flagged)
    per_path = ("X", "Y", "coalescence") if coupled else ("X",)
    for name in per_path:
        a, b = getattr(small, name), getattr(big, name)[..., :200]
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert np.array_equal(small.flagged, big.flagged[:200])


def test_flagged_paths_take_no_thinning_round():
    # np.fmin maps NaN to its bound where np.minimum keeps it: a flagged path
    # must stay off its jump clock either way, so that no field can tell the
    # two rates apart.  The bound 1e30 lies far above any state an unflagged
    # path reaches (at most about 1e22 after a step from the blow-up cap of
    # 1e12), so only a flagged path's clock could run at it: with its hazard
    # of some 4e28 it would take the event bound's jumps and turn its NaN
    # into inf, and the largest step hazard would be the bound's
    cap = 1e30
    cfg = SimConfig(h=2e-3, eps=0.1, t_end=0.5, n_paths=200, seed=3)
    fmin = partial_blow_up(lambda x: np.fmin(np.asarray(x, dtype=float), cap))
    minimum = partial_blow_up(lambda x: np.minimum(np.asarray(x, dtype=float), cap))
    single = simulate_single(fmin, STABLE15, 0.9, cfg)
    assert np.any(single.flagged)
    assert 1.0 < single.max_step_hazard < 1e-6 * cap * STABLE15.tail_mass(0.1) * cfg.h
    _fields_equal(single, simulate_single(minimum, STABLE15, 0.9, cfg))
    _fields_equal(simulate_coupled(fmin, STABLE15, 0.9, 0.45, cfg),
                  simulate_coupled(minimum, STABLE15, 0.9, 0.45, cfg))


def test_a_nan_rate_takes_no_jump():
    # gamma2 is NaN at the finite state 0 and a number at NaN.  The paths
    # from 0 get a NaN drift in their first step, and their NaN rate must
    # reject their proposals whatever gamma2 makes of their NaN state; the
    # paths from 0.5 run on
    def gamma2(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.isnan(x), 50.0, np.where(x > 0.0, x, np.nan))

    coeffs = CoefficientSet(gamma0=lambda x: 1.0 - np.asarray(x, dtype=float),
                            gamma1=None, gamma2=gamma2)
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.1, n_paths=100, seed=4)
    at_zero, at_half = _stacked_equals_singles(coeffs, STABLE15, (0.0, 0.5), cfg)
    assert np.all(at_zero.flagged) and at_zero.max_step_hazard == 0.0
    assert not np.any(at_half.flagged) and at_half.max_step_hazard > 0.0


def test_nan_sigma_at_a_finite_state_is_flagged_after_one_step(monkeypatch):
    # gamma1 = x log^2 x is NaN at x = 0 (0 * inf), so the first step's NaN
    # diffusion term flags the paths there.  Their NaN changes no read: the
    # Gaussian stream is read once per step
    def gamma1(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return x * np.log(x) ** 2

    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=gamma1,
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    # 300 paths, so that numpy's vector loops and their scalar tails both run
    cfg = SimConfig(h=1e-2, t_end=0.1, n_paths=300, seed=1,
                    record_times=[0.0, 0.01, 0.1])
    calls = count_draws(monkeypatch)
    for ens in (simulate_single(coeffs, None, 0.0, cfg),
                simulate_coupled(coeffs, None, 0.0, 0.0, cfg)):
        assert np.all(ens.flagged)
        assert np.all(ens.at(0.0) == 0.0)
        # gamma0 = -x flips the sign bit of a NaN; the ensemble stores one
        # NaN pattern whatever the arithmetic left
        assert np.all(ens.X[1:].view(np.uint64) == np.array(np.nan).view(np.uint64))
    assert calls == {simulate._SLOT_BROWNIAN: 2 * 10}


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


def test_a_step_evaluates_gamma1_once():
    # for sigma alone: every bundled diffusion preset declares gamma1', so no
    # step takes the difference quotient's two further gamma1 calls
    steps = 20
    for name in sorted(PRESETS):
        sc = load_scenario(name)
        if not sc.coeffs.has_diffusion:
            continue
        calls = Counter()
        gamma1 = sc.coeffs.gamma1

        def counting(x):
            calls["gamma1"] += 1
            return gamma1(x)

        coeffs = replace(sc.coeffs, gamma1=counting)
        cfg = replace(sc.sim, n_paths=50, t_end=steps * sc.sim.h, record_times=None)
        for run in (lambda: simulate_single(coeffs, sc.nu, sc.x0, cfg),
                    lambda: simulate_coupled(coeffs, sc.nu, sc.x0, sc.y0, cfg)):
            calls.clear()
            run()
            assert calls["gamma1"] == steps, name


@pytest.mark.parametrize("name", ["case1-diffusion", "pure-growth"])
def test_declared_gamma1_prime_keeps_the_quotients_bits(name):
    # gamma1 = x: the difference quotient is exactly 1, the declared gamma1'
    sc = load_scenario(name)
    quotient = replace(sc.coeffs, gamma1_prime=None)
    assert quotient.gamma1_prime is not sc.coeffs.gamma1_prime
    cfg = replace(sc.sim, n_paths=200, t_end=0.5, record_times=None)
    assert _digest(simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)) == \
        _digest(simulate_single(quotient, sc.nu, sc.x0, cfg))
    for coupling in ("refined-basic", "synchronous"):
        cfg = replace(cfg, coupling=coupling)
        assert _digest(simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)) == \
            _digest(simulate_coupled(quotient, sc.nu, sc.x0, sc.y0, cfg))


@pytest.mark.parametrize("name", ["cir", "case1-diffusion"])
def test_gamma1_prime_as_a_number_keeps_the_callables_bits(name):
    # a number forms the Milstein term on the draws' cross-section, a
    # callable per path: the products are the same
    sc = load_scenario(name)
    slope = sc.coeffs.gamma1_prime
    assert type(slope) is float
    per_path = replace(sc.coeffs, gamma1_prime=lambda x: np.full_like(
        np.asarray(x, dtype=float), slope))
    assert callable(per_path.gamma1_prime)
    cfg = replace(sc.sim, n_paths=200, t_end=0.25, record_times=None)
    assert _digest(simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)) == \
        _digest(simulate_single(per_path, sc.nu, sc.x0, cfg))
    starts = (sc.x0, sc.y0)
    assert [_digest(e) for e in simulate_starts(sc.coeffs, sc.nu, starts, cfg)] == \
        [_digest(e) for e in simulate_starts(per_path, sc.nu, starts, cfg)]
    for coupling in ("refined-basic", "synchronous"):
        cfg = replace(cfg, coupling=coupling)
        assert _digest(simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)) == \
            _digest(simulate_coupled(per_path, sc.nu, sc.x0, sc.y0, cfg))


def test_kernel_writes_nothing_gamma1_prime_returns():
    # gamma1 = x^2 / 2, whose gamma1' = x may hand back the state itself
    gammas = dict(gamma0=lambda x: -np.asarray(x, dtype=float),
                  gamma1=lambda x: 0.5 * np.asarray(x, dtype=float) ** 2,
                  gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    aliasing = CoefficientSet(**gammas, gamma1_prime=lambda x: np.asarray(x))
    copying = CoefficientSet(**gammas, gamma1_prime=lambda x: np.array(x, dtype=float))
    cfg = SimConfig(h=1e-2, t_end=0.5, n_paths=100, seed=5)
    assert _digest(simulate_single(aliasing, None, 2.0, cfg)) == \
        _digest(simulate_single(copying, None, 2.0, cfg))
    for coupling in ("refined-basic", "synchronous"):
        cfg = replace(cfg, coupling=coupling)
        assert _digest(simulate_coupled(aliasing, None, 2.0, 1.0, cfg)) == \
            _digest(simulate_coupled(copying, None, 2.0, 1.0, cfg))


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


def test_thinning_limits_are_counted(tmp_path):
    # the scheme's one limit is the event bound: at h = 0.05 linear branching
    # from x0 = 100 has a hazard of about 75 jumps per step, past the bound
    # of 64 on nearly every path, and such a path is flagged like a blow-up
    cfg = SimConfig(h=0.05, eps=0.1, t_end=0.5, n_paths=50, seed=2)
    single = simulate_single(linear_branching(), STABLE15, 100.0, cfg)
    assert np.any(single.flagged)
    assert single.max_step_hazard > simulate._MAX_EVENTS
    pair = simulate_coupled(linear_branching(), STABLE15, 100.0, 50.0, cfg)
    assert np.array_equal(pair.flagged, single.flagged)
    assert np.all(np.isnan(pair.Y[-1][pair.flagged]))
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, pair)
    back = read_ensemble(path)
    assert back.max_step_hazard == pair.max_step_hazard
    assert np.array_equal(back.flagged, pair.flagged)


def test_case2_hits_no_thinning_limit():
    # case2's hazard stays below one jump per step, far from the event bound
    sc = load_scenario("case2-stable")
    cfg = replace(sc.sim, n_paths=400)
    for ens in (simulate_single(sc.coeffs, sc.nu, sc.x0, cfg),
                simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)):
        assert 0.0 < ens.max_step_hazard < 1.0
        assert not np.any(ens.flagged)


@pytest.mark.parametrize("t_end, h, steps", [
    (0.254, 0.01, 25), (0.256, 0.01, 26), (0.25, 0.01, 25), (1.0, 1e-3, 1000)])
def test_a_run_ends_at_the_step_of_its_last_record_time(t_end, h, steps):
    # one rounding rule for the run's length and its record steps: a run
    # whose last record time is t_end takes no step after recording it
    cfg = SimConfig(h=h, t_end=t_end, record_times=[0.0, t_end])
    n_steps, _, rec_steps = simulate._record_plan(cfg)
    assert n_steps == rec_steps[-1] == steps


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


def test_marks_at_or_above_gamma2_y_read_no_rho(monkeypatch):
    # from y0 = 0, gamma2(Y) = 0: every mark selects row 4, where Y stays
    # whatever rho is, so no partner row reads rho
    sc = load_scenario("case2-stable")
    cfg = replace(sc.sim, n_paths=200, t_end=0.2, record_times=None)
    single = simulate_single(sc.coeffs, sc.nu, sc.x0, cfg)

    def no_rho(u, z, mz=None):
        raise AssertionError("rho_pair called")

    monkeypatch.setattr(sc.nu, "rho_pair", no_rho)
    calls = count_draws(monkeypatch)
    ens = simulate_coupled(sc.coeffs, sc.nu, sc.x0, 0.0, cfg)
    assert calls[simulate._SLOT_MARK] > 0
    assert np.array_equal(ens.X, single.X)
    assert np.all(ens.Y[:, np.isinf(ens.coalescence)] == 0.0)


def test_partner_rows_read_rho_only_below_gamma2_y(monkeypatch):
    # from y0 = 0.5 < x0 = 1 part of the marks lie at or above gamma2(Y)
    # = 0.5: rho is read on fewer jumps than took a mark
    sc = load_scenario("case2-stable")
    cfg = replace(sc.sim, n_paths=200, t_end=0.2, record_times=None)
    sizes = Counter()
    rho_pair, draws = sc.nu.rho_pair, simulate._draws

    def counting_rho(u, z, mz=None):
        sizes["rho"] += z.size
        return rho_pair(u, z, mz)

    def counting_draws(seed, slot, counter, n, normal=False, event=0):
        sizes[slot] += n
        return draws(seed, slot, counter, n, normal, event)

    monkeypatch.setattr(sc.nu, "rho_pair", counting_rho)
    monkeypatch.setattr(simulate, "_draws", counting_draws)
    simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert 0 < sizes["rho"] < sizes[simulate._SLOT_MARK]


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


@pytest.mark.parametrize("name, coupling", [
    ("cir", "refined-basic"), ("cir", "synchronous"),
    ("case2-stable", "refined-basic"), ("logistic", "refined-basic"),
    ("logistic", "synchronous"), ("blow-up", "refined-basic")])
def test_met_pairs_move_together(name, coupling):
    # a pair leaves the kernel's state when it meets: from its coalescence
    # time on, Y is X at every record time, bit for bit (NaN too, once the
    # path is flagged)
    if name == "blow-up":
        coeffs, nu, x0, y0 = partial_blow_up(), STABLE15, 0.9, 0.45
        cfg = SimConfig(h=2e-3, eps=0.1, t_end=0.5, n_paths=400, seed=3)
    else:
        sc = load_scenario(name)
        coeffs, nu, x0, y0 = sc.coeffs, sc.nu, sc.x0, sc.y0
        cfg = replace(sc.sim, n_paths=400, t_end=min(sc.sim.t_end, 2.0),
                      record_times=None)
    ens = simulate_coupled(coeffs, nu, x0, y0, replace(cfg, coupling=coupling))
    met = ens.coalescence[None, :] <= ens.times[:, None]
    assert np.any(met[-1]) and not np.all(met[-1])
    assert np.array_equal(ens.X[met].view(np.uint64), ens.Y[met].view(np.uint64))
    if name == "blow-up":
        assert np.any(np.isnan(ens.X[met]))


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


def test_gaussian_compensation_without_jump_mass_above_eps():
    # nu has no mass above eps (zmax = 0.05 < eps = 0.1), so no jump clock
    # runs, yet the small jumps' Gaussian term, of variance
    # gamma2(X) sigma_eps^2 h, still drives dX = -X dt + sqrt(sigma_eps^2 X) dW,
    # whose Var X_1 from x0 = 1 is sigma_eps^2 e^-2 (e - 1)
    nu = StableTruncatedMeasure(alpha=1.5, c0=1.0, zmax=0.05)
    coeffs = CoefficientSet(gamma0=lambda x: -np.asarray(x, dtype=float), gamma1=None,
                            gamma2=lambda x: np.asarray(x, dtype=float))
    cfg = SimConfig(h=1e-3, eps=0.1, t_end=1.0, n_paths=4000, seed=20240811,
                    small_jump_policy="gaussian-compensation")
    assert nu.tail_mass(cfg.eps) == 0.0
    x = simulate_single(coeffs, nu, 1.0, cfg).at(1.0)
    exact = nu.trunc_second_moment(cfg.eps) * math.exp(-2.0) * math.expm1(1.0)
    var = np.var(x)
    se = math.sqrt((np.mean((x - x.mean()) ** 4) - var ** 2) / x.size)
    assert abs(var - exact) < 4.0 * se
    # the pair test counts the same term: a crossing it causes is a meeting,
    # never an order violation
    pair = simulate_coupled(coeffs, nu, 1.0, 0.5, cfg)
    assert pair.order_violations == 0
    assert np.any(np.isfinite(pair.coalescence))


@pytest.mark.parametrize("name", ["cir", "case3-dyadic", "case2-stable", "logistic",
                                  "superexp"])
def test_coupled_x_leg_is_the_marginal_run(name):
    # both simulators run one kernel: without order repairs (which move X to
    # the midpoint of a crossing pair) the coupled X leg is the marginal run,
    # and a run without a partner reads no coupling, so the marginal run is
    # one under both.  On the jump presets this also says that the partners'
    # marks, which come from a slot of their own, never shift the X leg's
    # refills and sizes
    sc = load_scenario(name)
    cfg = replace(sc.sim, n_paths=200, t_end=0.3, record_times=None,
                  small_jump_policy="drop-with-compensator")
    coupled = simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)
    assert coupled.order_repairs == 0
    for coupling in ("refined-basic", "synchronous"):
        single = simulate_single(sc.coeffs, sc.nu, sc.x0, replace(cfg, coupling=coupling))
        assert np.array_equal(single.X, coupled.X)
        assert np.array_equal(single.flagged, coupled.flagged)
        assert single.max_step_hazard == coupled.max_step_hazard


# ---------------------------------------------------------------------------
# several starts in one pass


def _stacked_equals_singles(coeffs, nu, starts, cfg):
    """simulate_starts from starts, each ensemble checked field by field
    against a run from its start alone."""
    stacked = simulate_starts(coeffs, nu, starts, cfg)
    assert len(stacked) == len(starts)
    for x0, ens in zip(starts, stacked):
        _fields_equal(ens, simulate_single(coeffs, nu, x0, cfg))
    return stacked


@pytest.mark.parametrize("name, policy", [
    ("cir", "drop-with-compensator"),
    ("case2-stable", "drop-with-compensator"),
    ("case2-stable", "gaussian-compensation")])
def test_stacked_starts_equal_single_runs(name, policy):
    # path p of every start reads variate p of each cross-section, so the
    # shared draws give each start the variates its own run reads
    sc = load_scenario(name)
    cfg = replace(sc.sim, n_paths=300, t_end=0.5, record_times=None,
                  small_jump_policy=policy)
    _stacked_equals_singles(sc.coeffs, sc.nu, (sc.x0, sc.y0), cfg)
    _stacked_equals_singles(sc.coeffs, sc.nu, (sc.y0, sc.x0, 0.0), cfg)


@pytest.mark.parametrize("starts", [(0.9, 0.1), (0.1, 0.9)])
def test_stacked_blow_ups_stay_with_their_start(starts):
    # from 0.9 some paths blow up, from 0.1 none does: the flags, and the
    # step hazards their runaway rates feed, belong to one start only
    cfg = SimConfig(h=2e-3, eps=0.1, t_end=0.5, n_paths=200, seed=3)
    stacked = _stacked_equals_singles(partial_blow_up(), STABLE15, starts, cfg)
    for x0, ens in zip(starts, stacked):
        assert np.any(ens.flagged) == (x0 == 0.9)
        assert (ens.max_step_hazard > 1.0) == (x0 == 0.9)


@pytest.mark.parametrize("starts", [(100.0, 0.01), (0.01, 100.0)])
def test_stacked_thinning_limits_stay_with_their_start(starts):
    # at h = 0.05 a path near x = 100 would take about 75 jumps a step and
    # meets the event bound, which flags it; one near x = 0.01 takes a jump
    # on a few steps at most
    cfg = SimConfig(h=0.05, eps=0.1, t_end=1.0, n_paths=100, seed=2)
    stacked = _stacked_equals_singles(linear_branching(), STABLE15, starts, cfg)
    for x0, ens in zip(starts, stacked):
        hit = x0 == 100.0
        assert np.any(ens.flagged) == hit
        assert (ens.max_step_hazard > simulate._MAX_EVENTS) == hit


def test_steps_with_several_events_are_pinned():
    # at h = 0.05 the paths from 40 take dozens of jumps a step (gamma2 =
    # fmin(x, 50) gives a hazard of up to 51) and blow up or meet the event
    # bound within a few steps; gamma2 maps the flagged paths' NaN to 50,
    # which must not run their clocks (past the event bound their NaN would
    # turn into inf).  The paths from 0.01 jump on a few steps at most
    cfg = SimConfig(h=0.05, eps=0.1, t_end=1.0, n_paths=100, seed=2)
    coeffs = partial_blow_up(lambda x: np.fmin(np.asarray(x, dtype=float), 50.0))
    stacked = _stacked_equals_singles(coeffs, STABLE15, (40.0, 0.01), cfg)
    pair = simulate_coupled(coeffs, STABLE15, 40.0, 0.01, cfg)
    for ens in stacked + (pair,):
        assert np.all(np.isnan(ens.X[-1][ens.flagged]))
    pinned = [(51.03796100280632, 100, "7781335614850979"),
              (0.005979324086911873, 0, "9a9adee8de40e27d"),
              (51.03796100280632, 100, "be50a2c1284a4b14")]
    for ens, pin in zip(stacked + (pair,), pinned):
        assert (ens.max_step_hazard, int(np.count_nonzero(ens.flagged)),
                _digest(ens)) == pin


# simulate_coupled at 400 paths and t_end = 0.5, each ensemble's _digest:
# the partner rows (rho, the atom masses at the sizes, the marks) and the
# pair bookkeeping of every jump preset under both small-jump policies, and
# the synchronous coupling on one preset.  The digests are those of the
# committed scripts/kernel_fingerprint.txt
COUPLED_PINS = [
    ("case2-stable", "refined-basic", "drop-with-compensator"),
    ("case2-stable", "refined-basic", "gaussian-compensation"),
    ("case3-dyadic", "refined-basic", "drop-with-compensator"),
    ("case3-dyadic", "refined-basic", "gaussian-compensation"),
    ("logistic", "refined-basic", "drop-with-compensator"),
    ("logistic", "refined-basic", "gaussian-compensation"),
    ("xlog-drift", "refined-basic", "drop-with-compensator"),
    ("xlog-drift", "refined-basic", "gaussian-compensation"),
    ("logistic", "synchronous", "drop-with-compensator"),
]


COMMITTED = {tuple(line.split()[:4]): line.split()[4] for line in
             (SCRIPTS / "kernel_fingerprint.txt").read_text().splitlines()}


# each id is the tag of the fingerprint line without its digest, so that a
# re-pin renames no test
@pytest.mark.parametrize("name, coupling, policy, digest",
                         [(*pin, COMMITTED[(*pin, "coupled")][:16]) for pin in COUPLED_PINS],
                         ids=["-".join((*pin, "coupled")) for pin in COUPLED_PINS])
def test_coupled_ensembles_are_pinned(name, coupling, policy, digest):
    sc = load_scenario(name)
    cfg = replace(sc.sim, n_paths=400, t_end=0.5, record_times=None,
                  coupling=coupling, small_jump_policy=policy)
    assert _digest(simulate_coupled(sc.coeffs, sc.nu, sc.x0, sc.y0, cfg)) == digest


def test_stacked_start_without_diffusion_term(monkeypatch):
    # gamma1 vanishes below 1 and the drift keeps a path from 0.5 there: the
    # terms the draws feed are zero, and stacked with a start at 3 it shares
    # every draw.  Every run reads the Gaussian stream once per step
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.maximum(np.asarray(x, dtype=float) - 1.0, 0.0),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    cfg = SimConfig(h=1e-2, t_end=0.5, n_paths=100, seed=5)
    calls = count_draws(monkeypatch)
    simulate_single(coeffs, None, 0.5, cfg)
    assert calls == {simulate._SLOT_BROWNIAN: 50}
    # the stacked run and the run from each start alone
    _stacked_equals_singles(coeffs, None, (3.0, 0.5), cfg)
    assert calls == {simulate._SLOT_BROWNIAN: 4 * 50}


def test_stacked_paths_do_not_depend_on_path_count():
    sc = load_scenario("case2-stable")
    small = replace(sc.sim, n_paths=200, t_end=1.0, record_times=None)
    big = replace(small, n_paths=1000)
    for a, b in zip(simulate_starts(sc.coeffs, sc.nu, (sc.x0, sc.y0), small),
                    simulate_starts(sc.coeffs, sc.nu, (sc.x0, sc.y0), big)):
        assert np.array_equal(a.X, b.X[:, :200])
        assert np.array_equal(a.flagged, b.flagged[:200])


def test_simulate_starts_rejects_bad_starts():
    cfg = SimConfig(n_paths=1)
    with pytest.raises(DomainError):
        simulate_starts(linear_branching(), STABLE15, (), cfg)
    with pytest.raises(DomainError):
        simulate_starts(linear_branching(), STABLE15, (1.0, -0.1), cfg)


def test_synchronous_coupling_shares_noise():
    # with gamma1 constant where the paths run the shared Brownian increment
    # cancels in the gap, which then follows the deterministic ODE
    # gap' = -gap on every path; starting far from zero keeps the paths above
    # 1, where gamma1 = min(x, 1) is 1, and the boundary clamp out of play
    coeffs = CoefficientSet(
        gamma0=lambda x: -np.asarray(x, dtype=float),
        gamma1=lambda x: np.minimum(np.asarray(x, dtype=float), 1.0),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    cfg = SimConfig(h=1e-3, t_end=1.0, n_paths=50, seed=9,
                    coupling="synchronous")
    ens = simulate_coupled(coeffs, None, 20.0, 19.0, cfg)
    gap = ens.gap_at(1.0)
    alivemask = ~np.isfinite(ens.coalescence)
    assert np.allclose(gap[alivemask], math.exp(-1.0), atol=5e-3)


# values from a small pool tie within and across the two samples
KS_VALUES = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                      st.floats(-1e6, 1e6, allow_nan=False))


@given(st.lists(KS_VALUES, min_size=1, max_size=500),
       st.lists(KS_VALUES, min_size=1, max_size=500))
@settings(max_examples=200, deadline=None)
def test_ks_statistic_equals_scipy(a, b):
    # scipy's two-sample KS statistic is the oracle; the asymptotic method
    # skips the exact p-value, and its own p-value divides by zero on the
    # smallest samples; neither is read here
    with np.errstate(divide="ignore"):
        want = stats.ks_2samp(a, b, method="asymp").statistic
    assert abs(ks_statistic(a, b) - want) <= 1e-15


def test_ks_statistic_on_tied_samples():
    # the CDFs of [0, 0, 1] and [0, 1, 1] are 2/3 and 1/3 on [0, 1)
    assert ks_statistic([0.0, 0.0, 1.0], [0.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0)
    assert ks_statistic([1.0, 1.0], [1.0]) == 0.0
    assert ks_statistic([0.0], [1.0]) == 1.0


# ---------------------------------------------------------------------------
# serialization


def test_ensemble_roundtrip(tmp_path):
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.5, n_paths=50, seed=4,
                    record_times=[0.0, 0.25, 0.5])
    ens = simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg)
    # nonzero counters and a blown-up path, so that every field is exercised
    ens = replace(ens, order_violations=3, order_repairs=5)
    ens.X[1:, 7] = np.nan
    ens.Y[1:, 7] = np.nan
    ens.flagged[7] = True
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, ens)
    back = read_ensemble(path)
    assert ens.max_step_hazard > 0
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


def test_read_ensemble_rejects_version_1(tmp_path):
    # version 1 files carry the counters of an earlier jump scheme in place
    # of max_step_hazard, and versions 1 and 2 a header seed in place of
    # the kernel's flags, which cannot be rebuilt from the record times
    cfg = SimConfig(h=1e-2, eps=0.1, t_end=0.1, n_paths=5, seed=4)
    path = tmp_path / "ens.nlbe"
    write_ensemble(path, simulate_coupled(linear_branching(), STABLE15, 1.0, 0.5, cfg))
    data = bytearray(path.read_bytes())
    assert int.from_bytes(data[4:8], "little") == simulate._VERSION == 3
    for version in (1, 2):
        data[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match=f"unsupported ensemble version {version}"):
            read_ensemble(path)


def test_read_ensemble_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.nlbe"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValidationError):
        read_ensemble(path)
