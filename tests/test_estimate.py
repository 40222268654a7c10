import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlbranch.errors import DomainError
from nlbranch.estimate import (DecayCurve, decay_curve, empirical_w1, fit_rate,
                               invariant_summary, tail_distance, tv_upper,
                               w1_upper)
from nlbranch.simulate import CoupledEnsemble, SimConfig, simulate_single
from nlbranch.model import CoefficientSet


def synthetic_ensemble(gaps_by_time, coalescence, flagged=None):
    """Hand-built coupled ensemble: Y = 0, X = the prescribed gaps."""
    times = np.asarray(sorted(gaps_by_time), dtype=float)
    n = len(coalescence)
    X = np.vstack([np.asarray(gaps_by_time[t], dtype=float) for t in times])
    Y = np.zeros_like(X)
    if flagged is None:
        flagged = np.zeros(n, dtype=bool)
    return CoupledEnsemble(times=times, X=X, Y=Y, x0=1.0, y0=0.0,
                           coalescence=np.asarray(coalescence, dtype=float),
                           order_violations=0, order_repairs=0,
                           flagged=np.asarray(flagged), config={})


# ---------------------------------------------------------------------------
# distance estimators


def test_w1_upper_mean_and_se():
    ens = synthetic_ensemble({0.0: [1, 1, 1, 1], 1.0: [2.0, 0.0, 4.0, 2.0]},
                             [math.inf] * 4)
    est, se = w1_upper(ens, 1.0)
    assert est == pytest.approx(2.0)
    assert se == pytest.approx(np.std([2, 0, 4, 2], ddof=1) / 2.0)


def test_w1_upper_excludes_flagged():
    ens = synthetic_ensemble({0.0: [1, 1, 1], 1.0: [2.0, 100.0, 4.0]},
                             [math.inf] * 3, flagged=[False, True, False])
    est, _ = w1_upper(ens, 1.0)
    assert est == pytest.approx(3.0)


def test_tv_upper_normalization():
    ens = synthetic_ensemble({0.0: [1] * 4, 1.0: [0.0] * 4},
                             [0.5, 0.5, 2.0, math.inf])
    frac, se = tv_upper(ens, 1.0)
    assert frac == pytest.approx(0.5)
    assert se == pytest.approx(0.25)


def test_estimators_reject_empty_ensembles():
    ens = synthetic_ensemble({0.0: [1.0], 1.0: [1.0]}, [math.inf],
                             flagged=[True])
    with pytest.raises(DomainError):
        w1_upper(ens, 1.0)
    with pytest.raises(DomainError):
        tv_upper(ens, 1.0)


# ---------------------------------------------------------------------------
# empirical W1


def test_empirical_w1_known_value():
    assert empirical_w1([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)
    assert empirical_w1([3.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == 0.0


def test_empirical_w1_size_mismatch():
    with pytest.raises(DomainError):
        empirical_w1([1.0, 2.0], [1.0])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=50),
       st.floats(min_value=-10, max_value=10))
@settings(max_examples=80, deadline=None)
def test_empirical_w1_properties(xs, c):
    xs = np.asarray(xs)
    assert empirical_w1(xs, xs) == 0.0
    ys = xs[::-1] + c
    d = empirical_w1(xs, ys)
    assert d == pytest.approx(abs(c), abs=1e-9)
    assert empirical_w1(ys, xs) == pytest.approx(d, abs=1e-12)


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_recovery():
    t = np.linspace(0.5, 8.0, 12)
    d = 3.0 * np.exp(-2.0 * t)
    fit = fit_rate(t, d)
    assert fit.lam == pytest.approx(2.0, abs=1e-10)
    assert fit.C == pytest.approx(3.0, rel=1e-10)
    assert fit.lam_se == pytest.approx(0.0, abs=1e-8)
    assert fit.n_points == 12


def test_fit_rate_drops_noise_dominated_points():
    t = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    d = np.exp(-t)
    d[-1] = 1e-6          # drowned in noise
    ses = np.full(5, 1e-5)
    fit = fit_rate(t, d, ses=ses)
    assert fit.n_points == 4
    assert fit.window == (1.0, 4.0)
    assert fit.lam == pytest.approx(1.0, abs=1e-9)


def test_fit_rate_needs_three_points():
    with pytest.raises(DomainError):
        fit_rate([1.0, 2.0, 3.0], [0.5, 0.0, -1.0])


# ---------------------------------------------------------------------------
# decay curves


def test_decay_curve_assembly_and_csv(tmp_path):
    rng = np.random.default_rng(5)
    times = [0.0, 1.0, 2.0, 3.0, 4.0]
    n = 20_000
    gaps = {t: np.exp(-t) * (1.0 + 0.05 * rng.standard_normal(n)) for t in times}
    coal = rng.exponential(1.5, size=n)
    ens = synthetic_ensemble(gaps, coal)
    curve = decay_curve(ens)
    assert curve.w1_fit is not None and curve.tv_fit is not None
    assert curve.w1_fit.lam == pytest.approx(1.0, abs=0.05)
    assert curve.tv_fit.lam == pytest.approx(1.0 / 1.5, abs=0.1)
    assert np.all(np.diff(curve.tv_frac) <= 0)
    out = tmp_path / "curve.csv"
    curve.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,w1_est,w1_se,tv_frac,tv_se,n_alive"
    assert len(lines) == 5
    assert "lambda_hat" in curve.fit_summary()


def test_decay_curve_validates_signs():
    with pytest.raises(DomainError):
        DecayCurve(t=np.array([1.0]), w1=np.array([-1.0]),
                   w1_se=np.array([0.0]), tv_frac=np.array([0.5]),
                   tv_se=np.array([0.0]), n_alive=np.array([1]))


# ---------------------------------------------------------------------------
# stationary summaries


def test_invariant_summary_moments():
    rng = np.random.default_rng(17)
    x = rng.gamma(4.0, 0.5, size=200_000)
    s = invariant_summary(x)
    assert s.mean == pytest.approx(2.0, abs=0.02)
    assert s.var == pytest.approx(1.0, abs=0.03)
    assert s.n == 200_000


def test_invariant_summary_rejects_empty():
    with pytest.raises(DomainError):
        invariant_summary([math.nan, math.inf])


def test_tail_distance_same_law_near_zero():
    from nlbranch.model import cir_coefficients
    coeffs = cir_coefficients(1.0, 1.0, 1.0)
    cfg_a = SimConfig(h=1e-2, t_end=6.0, n_paths=4000, seed=21,
                      record_times=[0.0, 6.0])
    cfg_b = SimConfig(h=1e-2, t_end=6.0, n_paths=4000, seed=22,
                      record_times=[0.0, 6.0])
    ens_a = simulate_single(coeffs, None, 2.0, cfg_a)
    ens_b = simulate_single(coeffs, None, 0.5, cfg_b)
    assert tail_distance(ens_a, ens_b, 6.0) < 0.05
