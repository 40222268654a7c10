"""Distance estimates, decay-rate fits and invariant-measure summaries.

The coupled ensemble upper-bounds both distances of interest:

* W1 by the mean coupled gap E|X_t - Y_t| (the coupling inequality), and
* total variation by the non-coalescence probability P(T > t), the
  half-normalized distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .simulate import CoupledEnsemble


def w1_upper(ens: CoupledEnsemble, t: float):
    """(mean |X_t - Y_t|, standard error) over unflagged paths."""
    keep = ~ens.flagged
    if not np.any(keep):
        raise DomainError("ensemble has no usable paths")
    gap = np.abs(ens.gap_at(t)[keep])
    n = gap.size
    return float(np.mean(gap)), float(np.std(gap, ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def tv_upper(ens: CoupledEnsemble, t: float):
    """(P(T > t), binomial se): the coalescence bound at t on the
    half-normalized total variation."""
    keep = ~ens.flagged
    if not np.any(keep):
        raise DomainError("ensemble has no usable paths")
    alive = ens.coalescence[keep] > t
    n = alive.size
    frac = float(np.mean(alive))
    return frac, math.sqrt(max(frac * (1.0 - frac), 0.0) / n)


def empirical_w1(sample_a, sample_b) -> float:
    """Exact 1-d empirical W1: mean absolute difference of matched order
    statistics (equal sample sizes required)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError("samples must be 1-d with equal sizes")
    return float(np.mean(np.abs(a - b)))


@dataclass
class FitResult:
    lam: float
    C: float
    lam_se: float
    window: tuple
    n_points: int


def fit_rate(ts, ds, ses=None) -> FitResult:
    """Least squares on log d vs t: d(t) ~ C exp(-lam t).

    Points with d <= 0 (or, when standard errors are given, d <= 10 se,
    i.e. noise-dominated) shrink the window automatically; fewer than three
    surviving points is an error.
    """
    ts = np.asarray(ts, dtype=float)
    ds = np.asarray(ds, dtype=float)
    keep = ds > 0
    if ses is not None:
        keep &= ds > 10.0 * np.asarray(ses, dtype=float)
    t, d = ts[keep], ds[keep]
    if t.size < 3:
        raise DomainError(f"rate fit needs >= 3 usable points, have {t.size}")
    A = np.column_stack([t, np.ones_like(t)])
    sol, res, _rank, _sv = np.linalg.lstsq(A, np.log(d), rcond=None)
    slope, intercept = sol
    dof = t.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        tc = t - t.mean()
        lam_se = math.sqrt(s2 / float(np.dot(tc, tc)))
    else:
        lam_se = 0.0
    return FitResult(lam=float(-slope), C=float(math.exp(intercept)),
                     lam_se=lam_se, window=(float(t[0]), float(t[-1])),
                     n_points=int(t.size))


@dataclass
class DecayCurve:
    """Distance estimates over the record times plus the fitted exponential."""

    t: np.ndarray
    w1: np.ndarray
    w1_se: np.ndarray
    tv_frac: np.ndarray
    tv_se: np.ndarray
    n_alive: np.ndarray
    w1_fit: Optional[FitResult] = None
    tv_fit: Optional[FitResult] = None

    def __post_init__(self):
        if np.any(self.w1 < 0) or np.any(self.w1_se < 0) or np.any(self.tv_se < 0):
            raise DomainError("estimates and standard errors must be nonnegative")

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,w1_est,w1_se,tv_frac,tv_se,n_alive\n")
            for row in zip(self.t, self.w1, self.w1_se, self.tv_frac,
                           self.tv_se, self.n_alive):
                fh.write(",".join(repr(float(v)) for v in row[:5])
                         + f",{int(row[5])}\n")

    def fit_summary(self):
        lines = []
        for name, fit in (("w1", self.w1_fit), ("tv", self.tv_fit)):
            if fit is None:
                lines.append(f"{name}.fit = unavailable")
            else:
                lines.append(f"{name}.lambda_hat = {fit.lam!r}")
                lines.append(f"{name}.C_hat = {fit.C!r}")
                lines.append(f"{name}.lambda_se = {fit.lam_se!r}")
                lines.append(f"{name}.window = {fit.window}")
        return "\n".join(lines)


def decay_curve(ens: CoupledEnsemble) -> DecayCurve:
    """Assemble W1 and TV estimates at the positive record times and fit
    both rates."""
    t = np.asarray([t for t in ens.times if t > 0], dtype=float)
    w1 = np.empty(t.size)
    w1se = np.empty(t.size)
    tv = np.empty(t.size)
    tvse = np.empty(t.size)
    alive = np.empty(t.size, dtype=int)
    keep = ~ens.flagged
    for i, ti in enumerate(t):
        w1[i], w1se[i] = w1_upper(ens, ti)
        tv[i], tvse[i] = tv_upper(ens, ti)
        alive[i] = int(np.count_nonzero(ens.coalescence[keep] > ti))
    curve = DecayCurve(t=t, w1=w1, w1_se=w1se, tv_frac=tv, tv_se=tvse,
                       n_alive=alive)
    try:
        curve.w1_fit = fit_rate(t, w1, ses=w1se)
    except DomainError:
        pass
    try:
        curve.tv_fit = fit_rate(t, tv, ses=tvse)
    except DomainError:
        pass
    return curve


@dataclass
class InvariantSummary:
    mean: float
    var: float
    n: int


def invariant_summary(tail_samples) -> InvariantSummary:
    """Mean and variance of the finite values of a stationary sample."""
    x = np.asarray(tail_samples, dtype=float).ravel()
    x = x[np.isfinite(x)]
    if x.size == 0:
        raise DomainError("no usable samples after burn-in")
    sd = float(np.std(x))
    return InvariantSummary(mean=float(np.mean(x)), var=float(sd * sd), n=int(x.size))


def tail_distance(ens_a, ens_b, t) -> float:
    """empirical_w1 between two stationary tails (ensembles at checkpoint t).

    For ergodic instances this should be near 0 regardless of the two starting
    points; for the non-ergodic negative control it stays bounded away from 0.
    """
    a = ens_a.at(t)[~ens_a.flagged]
    b = ens_b.at(t)[~ens_b.flagged]
    n = min(a.size, b.size)
    return empirical_w1(a[:n], b[:n])
