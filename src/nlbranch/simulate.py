"""Path simulation: the single SDE and the coupled pair.

Euler-Maruyama on a fixed grid with thinned jumps above a cutoff eps.  Small
jumps are dropped together with their compensator (they form a martingale, so
the mean is untouched); optionally a Gaussian term with the matching variance
is added instead.  The coupled scheme drives the Brownian parts by reflection
(refined-basic) or synchronously, and assigns each accepted jump to one of the
four displacement rows of the refined basic coupling by a uniform mark thinned
against the overlap ratio rho.

Both simulators run one kernel: the marginal run is the X leg of the coupled
pair without a partner, so each coupled leg follows the marginal scheme by
construction.

Randomness is counter-based: every (draw-slot, step, thinning-round) triple
owns a Philox stream keyed by the master seed, and path i reads the i-th
variate of each stream it needs.  Jumps are thinned path by path, each path
taking its own number of rounds, so a path's values do not depend on the path
count N: the first k paths of an N-path run are the k-path run, bit for bit.
Because streams are keyed, not consumed in sequence, a step reads only the
streams it uses: the Gaussian one only when some live path carries a
diffusion term, which changes no value.  A model built with ``gamma1=None``
has no diffusion term anywhere, so the kernel skips that work outright.

Two counters report where the thinning scheme is only approximate:
``capped_steps`` counts path-steps that wanted more than ``_MAX_SUBSTEPS``
rounds, ``clipped_jumps`` the proposals whose probability exceeded 1.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .model import CoefficientSet, LevyMeasure

_MAGIC = b"NLBE"
_VERSION = 1
_MAX_SUBSTEPS = 16
_STATE_CAP = 1e12   # beyond this a path is flagged as blown up

_SLOT_BROWNIAN = 0
_SLOT_JUMP_OCCUR = 1
_SLOT_JUMP_SIZE = 2
_SLOT_MARK = 3
_SLOT_GAUSS_COMP = 4


@dataclass(frozen=True)
class SimConfig:
    """Discretization and coupling parameters."""

    h: float = 1e-3
    eps: float = 0.05
    t_end: float = 1.0
    n_paths: int = 1000
    seed: int = 0
    small_jump_policy: str = "drop-with-compensator"
    boundary: str = "clamp-to-zero"
    delta_c: Optional[float] = None   # default 1e-6 * (1 + x0) at run time
    kappa: float = 0.5
    coupling: str = "refined-basic"
    record_times: Optional[Sequence[float]] = None

    def __post_init__(self):
        if self.h <= 0 or self.eps <= 0 or self.t_end <= 0:
            raise DomainError("h, eps and t_end must be positive")
        if self.n_paths < 1:
            raise DomainError("need at least one path")
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")
        if self.delta_c is not None and self.delta_c <= 0:
            raise DomainError("coalescence threshold must be positive")
        if self.small_jump_policy not in ("drop-with-compensator",
                                          "gaussian-compensation"):
            raise DomainError(f"unknown small-jump policy {self.small_jump_policy!r}")
        if self.boundary != "clamp-to-zero":
            raise DomainError(f"unknown boundary policy {self.boundary!r}")
        if self.coupling not in ("refined-basic", "synchronous"):
            raise DomainError(f"unknown coupling kind {self.coupling!r}")

    def resolved_delta_c(self, x0):
        return self.delta_c if self.delta_c is not None else 1e-6 * (1.0 + x0)

    def resolved_record_times(self):
        if self.record_times is not None:
            ts = np.asarray(sorted(set(float(t) for t in self.record_times)))
            if np.any(ts < 0) or ts[-1] > self.t_end * (1 + 1e-9):
                raise DomainError("record times must lie in [0, t_end]")
            return ts
        return np.linspace(0.0, self.t_end, 11)

    def echo(self):
        d = asdict(self)
        d["record_times"] = list(self.resolved_record_times())
        return d


@functools.lru_cache(maxsize=32)
def _stream(key, slot):
    """The Philox generator of one (seed, slot) stream family.  The cache hands
    every caller the same object; ``_draws`` sets its whole state before each
    use, so no caller sees another's position."""
    return np.random.Generator(np.random.Philox(
        key=np.array([key, slot], dtype=np.uint64)))


def _draws(seed, slot, counter, n, normal=False):
    """A cross-section of n variates from the (seed, slot, counter) stream."""
    # the step index lives in the high counter word: generation increments the
    # counter from the low word, so streams of successive steps stay disjoint.
    # Resetting a cached generator to a fresh one's state (empty buffer) gives
    # the variates a newly built Philox(key, counter) would
    key = seed & 0xFFFFFFFFFFFFFFFF
    gen = _stream(key, slot)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, counter), "key": (key, slot)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(n) if normal else gen.random(n)


def _checkpoint(times, t):
    """Index of the record time t in times."""
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * (1.0 + abs(t)):
        raise DomainError(f"t = {t} is not a recorded checkpoint")
    return idx


@dataclass
class SingleEnsemble:
    """N marginal paths sampled at the record times."""

    times: np.ndarray           # (K,)
    X: np.ndarray               # (K, N)
    x0: float
    flagged: np.ndarray         # (N,) bool, blown-up paths (excluded downstream)
    config: dict
    max_jump_prob: float = 0.0  # worst per-substep thinning probability seen
    capped_steps: int = 0       # path-steps whose round count hit the cap
    clipped_jumps: int = 0      # proposals whose probability was clipped to 1

    @property
    def n_paths(self):
        return self.X.shape[1]

    def at(self, t):
        return self.X[_checkpoint(self.times, t)]


@dataclass
class CoupledEnsemble:
    """N coupled pairs with coalescence bookkeeping."""

    times: np.ndarray
    X: np.ndarray               # (K, N)
    Y: np.ndarray               # (K, N)
    x0: float
    y0: float
    coalescence: np.ndarray     # (N,) time T, inf if never
    order_violations: int       # steps with Y - X > delta_c (true violations)
    order_repairs: int          # steps with 0 < Y - X <= delta_c (projected)
    flagged: np.ndarray
    config: dict
    max_jump_prob: float = 0.0
    capped_steps: int = 0
    clipped_jumps: int = 0

    @property
    def n_paths(self):
        return self.X.shape[1]

    def gap_at(self, t):
        i = _checkpoint(self.times, t)
        return self.X[i] - self.Y[i]

    def marginal_at(self, t, which="X"):
        return (self.X if which == "X" else self.Y)[_checkpoint(self.times, t)]


def _milstein_coef(coeffs, X):
    """(1/2) sigma sigma' = (1/4) gamma1', by central difference of gamma1.

    The correction (1/4) gamma1'(X) (xi^2 - 1) h keeps square-root diffusions
    nonnegative at the reflecting boundary and removes the O(sqrt(h)) clamping
    bias there; its increment has zero mean, so coupled gap means are exact.
    """
    d = 1e-5 * (1.0 + np.abs(X))
    lo = np.maximum(X - d, 0.0)
    return 0.25 * (coeffs.gamma1(X + d) - coeffs.gamma1(lo)) / (X + d - lo)


def _jump_setup(nu, cfg):
    if nu is None:
        return 0.0, 0.0, 0.0
    nu_eps = nu.tail_mass(cfg.eps)
    mean_eps = nu.mean_above(cfg.eps) if nu_eps > 0 else 0.0
    small_var = nu.trunc_second_moment(cfg.eps) if \
        cfg.small_jump_policy == "gaussian-compensation" else 0.0
    return nu_eps, mean_eps, small_var


def _record_plan(cfg):
    """Map each record time to a step index on the grid."""
    n_steps = int(round(cfg.t_end / cfg.h))
    if abs(n_steps * cfg.h - cfg.t_end) > 1e-9 * cfg.t_end:
        n_steps = int(math.ceil(cfg.t_end / cfg.h))
    times = cfg.resolved_record_times()
    steps = np.minimum(np.round(times / cfg.h).astype(int), n_steps)
    return n_steps, times, steps


class _Run(NamedTuple):
    """Raw output of the kernel: snapshots per leg and the run's counters."""

    times: np.ndarray           # (K,)
    paths: np.ndarray           # (legs, K, N)
    flagged: np.ndarray         # (N,)
    coalescence: np.ndarray     # (N,)
    order_violations: int
    order_repairs: int
    max_jump_prob: float
    capped_steps: int
    clipped_jumps: int


def _partner_jump(nu, kappa, refined, z, mark, gap, g2y):
    """Displacement of Y for accepted X-jumps of size z: the row of the
    refined basic coupling (or the common jump of the synchronous one) that
    the mark on [0, gamma2(X)) selects, with rho evaluated at the gap."""
    if not refined:
        return np.where(mark < g2y, z, 0.0)
    Uk = np.minimum(np.maximum(gap, 0.0), kappa)
    # rho(-U, z) and rho(U, z) in one call
    rho = np.asarray(nu.rho(np.concatenate((-Uk, Uk)), np.concatenate((z, z))))
    a1 = 0.5 * g2y * rho[:z.size]
    a2 = a1 + 0.5 * g2y * rho[z.size:]
    row1 = mark < a1
    row2 = ~row1 & (mark < a2)
    row3 = ~row1 & ~row2 & (mark < g2y)
    return np.where(row1, z + Uk, np.where(row2, z - Uk, np.where(row3, z, 0.0)))


def _simulate(coeffs, nu, x0, y0, cfg) -> _Run:
    """The one time-step loop behind both simulators.

    The state S is a (legs, N) array: row 0 is the X leg, row 1 the partner Y,
    present only when y0 is not None.  The drift map, every draw and the
    thinning rounds are driven by the X leg alone, so X follows the marginal
    scheme whether or not a partner rides along.  With a partner, before
    coalescence, the Brownian increments are reflected (refined-basic) or
    shared (synchronous); jump proposals are thinned at the dominating rate
    gamma2(X) nu((eps, oo)) and assigned to a displacement row by a uniform
    mark on [0, gamma2(X)) using the overlap ratio rho at the current gap.
    Once the gap falls within delta_c the pair is merged and Y copies X.
    """
    n = cfg.n_paths
    coupled = y0 is not None
    refined = cfg.coupling == "refined-basic"
    nu_eps, mean_eps, small_var = _jump_setup(nu, cfg)
    n_steps, rec_times, rec_steps = _record_plan(cfg)

    S = np.full((2 if coupled else 1, n), float(x0))
    coal = np.full(n, math.inf)
    if coupled:
        delta_c = cfg.resolved_delta_c(x0)
        if x0 - y0 <= delta_c:
            coal[:] = 0.0
        else:
            S[1] = y0
    flagged = np.zeros(n, dtype=bool)
    live = ~flagged
    violations = 0
    repairs = 0
    capped = 0
    clipped = 0
    snaps = np.empty((S.shape[0], rec_times.size, n))
    for k in np.flatnonzero(rec_steps == 0):
        snaps[:, k] = S

    sign = np.ones_like(S)      # per-leg sign of the shared Gaussian draws
    max_p = 0.0
    h = cfg.h
    sqh = math.sqrt(h)
    for step in range(1, n_steps + 1):
        alive = live & (coal == math.inf)
        g0, g2 = coeffs.gamma0(S), coeffs.gamma2(S)
        if coupled:
            # reflection until coalescence; shared noise afterwards
            sign[1] = np.where(alive & refined, -1.0, 1.0)
        # step k owns the stream counters k (M + 1) + r, M = _MAX_SUBSTEPS:
        # r = 0 for the Gaussian draws, r = 1..m_i <= M for thinning rounds
        base = step * (_MAX_SUBSTEPS + 1)
        dS = g0 * h
        if coeffs.has_diffusion:
            # the Gaussian stream is read only when a live path carries a
            # diffusion term (a NaN term counts); a skipped draw shifts no
            # other stream, and the terms it would feed are zero, so no value
            # changes.  Flagged paths hold NaN and would keep the draw on
            # forever
            sig = coeffs.sigma(S)
            mil = _milstein_coef(coeffs, S)
            if np.any(((sig != 0.0) | (mil != 0.0)) & live):
                xi = _draws(cfg.seed, _SLOT_BROWNIAN, base, n, normal=True)
                dS = dS + sig * sqh * (sign * xi) + mil * ((xi * xi - 1.0) * h)
        if nu_eps > 0:
            dS -= g2 * mean_eps * h
            if small_var > 0.0:
                xi2 = _draws(cfg.seed, _SLOT_GAUSS_COMP, base, n, normal=True)
                dS = dS + np.sqrt(np.maximum(g2 * small_var * h, 0.0)) * (sign * xi2)
        Sn = np.maximum(S + dS, 0.0)
        # jumps act on the post-drift state in thinning rounds of acceptance
        # probability <= ~0.1 each: the row geometry (gap, rho) is evaluated
        # where the jump lands, so an exact-meeting row really produces gap 0
        # instead of gap minus one drift increment; and the drift map above
        # never depends on the round count.  Thinning is Lewis-Shedler path by
        # path: each path's round count m_i comes from its own X leg, so no
        # path's draws depend on another path
        if nu_eps > 0:
            rate = np.where(live, g2[0], 0.0) * nu_eps * h
            # ceil and clip are monotone, so this is the largest m_i
            want = np.ceil(rate.max() / 0.1)
            m_max = int(np.clip(want, 1, _MAX_SUBSTEPS))
            wants = np.ceil(rate / 0.1)
            if want > _MAX_SUBSTEPS:
                capped += int(np.count_nonzero(wants > _MAX_SUBSTEPS))
            m = np.clip(wants, 1, _MAX_SUBSTEPS)
            h_round = h / m
            for r in range(1, m_max + 1):
                active = live & (r <= m)
                g2x = coeffs.gamma2(Sn[0])
                p = g2x * nu_eps * h_round
                p_max = float(np.max(p, where=active, initial=0.0))
                max_p = max(max_p, p_max)
                if p_max > 1.0:
                    clipped += int(np.count_nonzero(active & (p > 1.0)))
                # u < 1, so u < p accepts a proposal of p > 1 as if clipped
                u = _draws(cfg.seed, _SLOT_JUMP_OCCUR, base + r, n)
                idx = np.flatnonzero(active & (u < p))
                if idx.size:
                    us = _draws(cfg.seed, _SLOT_JUMP_SIZE, base + r, n)
                    z = np.asarray(nu.quantile_above(cfg.eps, us[idx]))
                    if coupled:
                        um = _draws(cfg.seed, _SLOT_MARK, base + r, n)
                        Sn[1, idx] += _partner_jump(
                            nu, cfg.kappa, refined, z, um[idx] * g2x[idx],
                            Sn[0, idx] - Sn[1, idx], coeffs.gamma2(Sn[1, idx]))
                    Sn[0, idx] += z
        S = np.where(live, Sn, S)

        if coupled:
            # order bookkeeping (only meaningful pre-coalescence).  With an
            # active Gaussian part (the diffusion, or the small-jump term of
            # gaussian-compensation, driven the same way) a sign change means
            # the two paths crossed inside the step, i.e. they met: project to
            # the midpoint and let the coalescence test pick the pair up.  On
            # pure-jump paths the scheme preserves order exactly, so a
            # negative gap beyond the rounding threshold is a genuine
            # violation and is counted.
            gap = S[0] - S[1]
            neg = alive & (gap < 0)
            noise = sig[0] + sig[1] if coeffs.has_diffusion else 0.0
            if small_var > 0.0:
                noise = noise + small_var * (g2[0] + g2[1])
            crossed = neg & (noise > 0)
            small_neg = (neg & ~crossed & (gap >= -delta_c)) | crossed
            if np.any(small_neg):
                repairs += int(np.count_nonzero(small_neg & ~crossed))
                S[:, small_neg] = 0.5 * (S[0] + S[1])[small_neg]
                gap = S[0] - S[1]
            violations += int(np.count_nonzero(neg & ~crossed & (gap < -delta_c)))

            # coalescence detection and permanence (time at step resolution)
            t_now = step * h
            hit = alive & ((np.abs(gap) <= delta_c) | crossed)
            coal = np.where(hit, t_now, coal)
            merged = live & (coal <= t_now)
            S[1] = np.where(merged, S[0], S[1])

        bad = live & np.any(~np.isfinite(S) | (S > _STATE_CAP), axis=0)
        if np.any(bad):
            flagged |= bad
            live = ~flagged
            S[:, bad] = np.nan
        for k in np.flatnonzero(rec_steps == step):
            snaps[:, k] = S
    return _Run(rec_times, snaps, flagged, coal, violations, repairs, max_p,
                capped, clipped)


def simulate_single(coeffs: CoefficientSet, nu: Optional[LevyMeasure],
                    x0: float, cfg: SimConfig) -> SingleEnsemble:
    """Euler-Maruyama ensemble of the marginal SDE started at x0 >= 0."""
    if x0 < 0:
        raise DomainError("x0 must be nonnegative")
    run = _simulate(coeffs, nu, x0, None, cfg)
    return SingleEnsemble(times=run.times, X=run.paths[0], x0=float(x0),
                          flagged=run.flagged, config=cfg.echo(),
                          max_jump_prob=run.max_jump_prob,
                          capped_steps=run.capped_steps,
                          clipped_jumps=run.clipped_jumps)


def simulate_coupled(coeffs: CoefficientSet, nu: Optional[LevyMeasure],
                     x0: float, y0: float, cfg: SimConfig) -> CoupledEnsemble:
    """Coupled ensemble from x0 > y0 >= 0 (x0 = y0 starts coalesced); its X
    leg is the marginal run ``simulate_single`` makes at the same seed."""
    if y0 < 0 or x0 < y0:
        raise DomainError("need x0 >= y0 >= 0")
    run = _simulate(coeffs, nu, x0, y0, cfg)
    return CoupledEnsemble(times=run.times, X=run.paths[0], Y=run.paths[1],
                           x0=float(x0), y0=float(y0), coalescence=run.coalescence,
                           order_violations=run.order_violations,
                           order_repairs=run.order_repairs, flagged=run.flagged,
                           config=cfg.echo(), max_jump_prob=run.max_jump_prob,
                           capped_steps=run.capped_steps,
                           clipped_jumps=run.clipped_jumps)


def marginal_consistency(coeffs, nu, x0, y0, cfg: SimConfig, checkpoints=None):
    """Compare the law of the coupled X-coordinate against an independent
    marginal run: means, second moments and the two-sample KS statistic.

    The coupling must preserve marginals; a large KS statistic is a verdict
    against the jump-row bookkeeping, not an exception.
    """
    from scipy import stats

    single = simulate_single(coeffs, nu, x0, cfg)
    coupled = simulate_coupled(coeffs, nu, x0, y0, replace(cfg, seed=cfg.seed + 0x5D1F))
    if checkpoints is None:
        checkpoints = [t for t in single.times if t > 0]
    rows = []
    worst = 0.0
    for t in checkpoints:
        a = single.at(t)[~single.flagged]
        b = coupled.marginal_at(t, "X")[~coupled.flagged]
        ks = float(stats.ks_2samp(a, b).statistic)
        worst = max(worst, ks)
        rows.append({"t": float(t), "ks": ks,
                     "mean_single": float(np.mean(a)),
                     "mean_coupled": float(np.mean(b)),
                     "m2_single": float(np.mean(a ** 2)),
                     "m2_coupled": float(np.mean(b ** 2))})
    return {"max_ks": worst, "checkpoints": rows}


# ---------------------------------------------------------------------------
# serialization


def _record_dtype(k):
    """One path's record: id, seed, coalescence time and k (t, X, Y) triples,
    packed little-endian."""
    return np.dtype([("id", "<u8"), ("seed", "<u8"), ("coal", "<f8"),
                     ("txy", "<f8", (k, 3))])


def write_ensemble(path, ens: CoupledEnsemble):
    """Binary record file: magic, version, JSON header, then one
    ``_record_dtype`` record per path."""
    header = json.dumps({"config": ens.config, "x0": ens.x0, "y0": ens.y0,
                         "n_paths": int(ens.n_paths),
                         "times": [float(t) for t in ens.times],
                         "order_violations": int(ens.order_violations),
                         "order_repairs": int(ens.order_repairs),
                         "max_jump_prob": float(ens.max_jump_prob),
                         "capped_steps": int(ens.capped_steps),
                         "clipped_jumps": int(ens.clipped_jumps)},
                        sort_keys=True).encode()
    rec = np.empty(ens.n_paths, _record_dtype(ens.times.size))
    rec["id"] = np.arange(ens.n_paths)
    rec["seed"] = int(ens.config.get("seed", 0))
    rec["coal"] = ens.coalescence
    rec["txy"][:, :, 0] = ens.times
    rec["txy"][:, :, 1] = ens.X.T
    rec["txy"][:, :, 2] = ens.Y.T
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(header)))
        fh.write(header)
        rec.tofile(fh)


def read_ensemble(path) -> CoupledEnsemble:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValidationError("not an ensemble file (bad magic)")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _VERSION:
            raise ValidationError(f"unsupported ensemble version {version}")
        header = json.loads(fh.read(hlen).decode())
        times = np.asarray(header["times"])
        rec = np.fromfile(fh, _record_dtype(times.size), count=header["n_paths"])
    X = np.ascontiguousarray(rec["txy"][:, :, 1].T, dtype=float)
    Y = np.ascontiguousarray(rec["txy"][:, :, 2].T, dtype=float)
    flagged = ~np.isfinite(X[-1]) | ~np.isfinite(Y[-1])
    return CoupledEnsemble(times=times, X=X, Y=Y, x0=header["x0"], y0=header["y0"],
                           coalescence=rec["coal"].astype(float),
                           order_violations=header["order_violations"],
                           order_repairs=header["order_repairs"],
                           flagged=flagged, config=header["config"],
                           max_jump_prob=header["max_jump_prob"],
                           capped_steps=header["capped_steps"],
                           clipped_jumps=header["clipped_jumps"])


def write_ensemble_csv(path, ens: CoupledEnsemble, max_paths=1000):
    """CSV export for small ensembles: one row per (path, time)."""
    n = min(ens.n_paths, max_paths)
    with open(path, "w") as fh:
        fh.write("path,t,X,Y,coalescence\n")
        for p in range(n):
            for i, t in enumerate(ens.times):
                fh.write(f"{p},{t},{ens.X[i, p]!r},{ens.Y[i, p]!r},"
                         f"{ens.coalescence[p]!r}\n")
