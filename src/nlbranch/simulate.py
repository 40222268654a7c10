"""Path simulation: the single SDE and the coupled pair.

Euler-Maruyama on a fixed grid with the jumps above a cutoff eps, and the
Milstein term (1/4) gamma1'(X) (xi^2 - 1) h beside the diffusion increment
sqrt(gamma1(X) h) xi.  The term keeps square-root diffusions nonnegative at
the reflecting boundary and removes the O(sqrt(h)) clamping bias there, and
its zero mean leaves coupled gap means exact.  gamma1' comes from the model,
``CoefficientSet.gamma1_prime``, as a callable or, for a linear gamma1, as a
number; a coefficient set that declares none, an INI ``custom`` one among
them, takes the central difference of gamma1.  Small
jumps are dropped together with their compensator (they form a martingale, so
the mean is untouched); optionally a Gaussian term with the matching variance
is added instead.  The coupled scheme drives the Brownian parts by reflection
(refined-basic) or synchronously, and assigns each jump of X to one of the
four displacement rows of the refined basic coupling by a uniform mark thinned
against the overlap ratio rho.

All simulators run one kernel: the marginal run is the X leg of the coupled
pair without a partner, so each coupled leg follows the marginal scheme by
construction, and a ``CoupledEnsemble`` is a ``SingleEnsemble`` with the
partner leg and the coalescence bookkeeping added.  The kernel's state is one
1-d array: X of the N paths of each start in turn, then Y of the pairs that
have not met.  ``simulate_starts`` runs several starts in one pass, and
``simulate_single`` is its one-start case; a coupled run has one start.  A
pair that meets gets its coalescence time and leaves the state, since after
it Y moves with X, and the record times write Y = X before the unmet
partners.  A crossed or repaired pair meets too, X alone moved to the midpoint.
A path that blows up (a value that is not finite, or above ``_STATE_CAP``)
is set to NaN in both legs, and that NaN is the one record of it: the drift
map, the clamp at 0 and the jump clocks carry it through, and a NaN gap
never meets.  An ensemble's ``flagged`` is the NaN mask of the final state,
which may lie past the last record time.

Jumps above eps run on exact per-path clocks, the random time change of the
modified next reaction method (Anderson 2007).  Each path carries the
unit-rate hazard R_i left until its next jump.  A step subtracts its hazard
increment gamma2(X_i) nu((eps, oo)) h, the rate frozen at the post-drift
state, and a path whose clock has run out (R_i <= 0) jumps and refills its
clock with a unit exponential, as often as the clock runs out again within
the step.  So a path's number of jumps in a step is exactly Poisson, with
the frozen rate times h as its mean.  A path that would take more than
``_MAX_EVENTS`` jumps in one step is sent to infinity, so that the blow-up
test flags it: its rate has outrun the step.

Randomness is counter-based.  The Gaussian draws of a step, and the clock
refill, jump size and mark of its k-th event round, each come from a Philox
stream keyed by the master seed, the draw slot, the step and (for events)
k.  Path i of every start reads the i-th variate of the Gaussian streams
and of the initial clocks, the one cross-section of step 0.  An event round
is keyed by firing rank instead: the r-th path of a start, in index order,
to fire in the round reads the r-th refill and size, so the starts share
each draw and a start's paths are those of a run from it alone.  A path's
rank counts only the lower-indexed paths of its start, so every variate a
path reads is fixed by its own index and the history of the paths below it,
never by the path count N: the first k paths of an N-path run are the
k-path run, bit for bit.  The j-th partnered path to fire reads the j-th
mark, from a slot of its own, so the X leg reads the same refills and sizes
with or without a partner.
Because streams are keyed, not consumed in sequence, a step reads only the
streams it uses: the Gaussian one whenever the model has a diffusion part
(a path whose sigma and Milstein coefficient are 0 adds +-0, which leaves
its value as it is), and the event streams only on the rounds where some
path jumps.  Each such round makes one contiguous ``_draws`` read per slot:
the refills and sizes at the largest firing count of a start, the marks at
the number of partnered firing paths.  A model built with ``gamma1=None`` has no
diffusion term anywhere, so the kernel skips that work outright.

A step does only the work that can change a value, and makes one pass per
quantity into a workspace allocated once per run: S and dS take turns in
two buffers sized to the largest state, and every other per-step quantity
is written with ``out=`` into a view of the live size, so the only
state-wide numbers a step allocates are those the coefficient callables and
``_draws`` return.  Where a reduction decides what a write pass would, the
reduction runs instead.  One minimum of the gaps against delta_c guards the
pairs' crossing, repair, violation and meeting arithmetic, and its sign
guards the negative-gap part; one minimum of S + dS skips the clamp at 0 on
a step that leaves no value negative (exact, since the state never holds
-0.0: starts enter as +0.0) and, unless it is NaN, the clocks' NaN mask;
and the blow-up mask is built only on a step whose largest value fails
``<= _STATE_CAP``, as a NaN does.  For a gamma1' given as a number the
Milstein term is one product on the draw's cross-section, added to each
start's row, not a coefficient per path.  A partnered jump whose mark lies at or above
gamma2(Y) selects row 4, where Y stays whatever rho is, so only the marks
below gamma2(Y) read a gap and a row.  Their overlap ratios come from
``LevyMeasure.rho_pair``, which gives rho(-U, z) and rho(U, z) on those
jumps of a round, and reads no density where the displacement runs
downhill on a decreasing density.  Each ensemble reports
``max_step_hazard``, the largest hazard increment of one of its paths in one
step: the expected number of jumps there, which says how coarse h is for the
jump part.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .model import CoefficientSet, LevyMeasure

_MAGIC = b"NLBE"
_VERSION = 2
_MAX_EVENTS = 64    # a path that would jump more often in one step is flagged
_STATE_CAP = 1e12   # beyond this a path is flagged as blown up
# step k's streams sit at counter word k * _STEP_STRIDE; the stride keys
# every Gaussian draw, so changing it changes every diffusion ensemble
_STEP_STRIDE = 17

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
    delta_c: Optional[float] = None   # default 1e-6 * (1 + x0) at run time
    kappa: float = 0.5
    coupling: str = "refined-basic"
    record_times: Optional[Sequence[float]] = None

    def __post_init__(self):
        # "not 0 < v < inf" rejects NaN too, which fails every comparison
        if not all(0 < v < math.inf for v in (self.h, self.eps, self.t_end)):
            raise DomainError("h, eps and t_end must be positive and finite")
        steps = self.t_end / self.h
        if not steps < math.inf:
            raise DomainError(f"t_end / h = {self.t_end} / {self.h} overflows")
        if round(steps) < 1:
            raise DomainError(f"t_end = {self.t_end} rounds to no step of h = {self.h}")
        if self.n_paths < 1:
            raise DomainError("need at least one path")
        if not 0 < self.kappa < math.inf:
            raise DomainError("kappa must be positive and finite")
        if self.delta_c is not None and not 0 < self.delta_c < math.inf:
            raise DomainError("coalescence threshold must be positive and finite")
        if self.small_jump_policy not in ("drop-with-compensator",
                                          "gaussian-compensation"):
            raise DomainError(f"unknown small-jump policy {self.small_jump_policy!r}")
        if self.coupling not in ("refined-basic", "synchronous"):
            raise DomainError(f"unknown coupling kind {self.coupling!r}")
        self.resolved_record_times()

    def resolved_delta_c(self, x0):
        return self.delta_c if self.delta_c is not None else 1e-6 * (1.0 + x0)

    def resolved_record_times(self):
        if self.record_times is not None:
            ts = np.asarray(sorted(set(float(t) for t in self.record_times)))
            if not ts.size:
                raise DomainError("record times must not be empty")
            # "not 0 <= t <= t_end" rejects NaN too, which no step would write
            if not np.all((ts >= 0) & (ts <= self.t_end * (1 + 1e-9))):
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


def _draws(seed, slot, counter, n, normal=False, event=0):
    """A cross-section of n variates from the (seed, slot, counter, event)
    stream."""
    # the step lives in the high counter word and the event number in the
    # second: generation increments the counter from the low word, so the
    # streams of successive steps and events stay disjoint.  Resetting a
    # cached generator to a fresh one's state (empty buffer) gives the
    # variates a newly built Philox(key, counter) would
    key = seed & 0xFFFFFFFFFFFFFFFF
    gen = _stream(key, slot)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, event, 0, counter), "key": (key, slot)},
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
    max_step_hazard: float = 0.0  # largest expected jump count of a path-step

    @property
    def n_paths(self):
        return self.X.shape[1]

    def at(self, t):
        return self.X[_checkpoint(self.times, t)]


@dataclass(kw_only=True)
class CoupledEnsemble(SingleEnsemble):
    """N coupled pairs with coalescence bookkeeping; X is the marginal leg."""

    Y: np.ndarray               # (K, N)
    y0: float
    coalescence: np.ndarray     # (N,) time T, inf if never
    order_violations: int       # steps with Y - X > delta_c (true violations)
    order_repairs: int          # steps with 0 < Y - X <= delta_c (projected)

    def gap_at(self, t):
        i = _checkpoint(self.times, t)
        return self.X[i] - self.Y[i]


def _jump_setup(nu, cfg):
    if nu is None:
        return 0.0, 0.0, 0.0
    nu_eps = nu.tail_mass(cfg.eps)
    mean_eps = nu.mean_above(cfg.eps) if nu_eps > 0 else 0.0
    small_var = nu.trunc_second_moment(cfg.eps) if \
        cfg.small_jump_policy == "gaussian-compensation" else 0.0
    return nu_eps, mean_eps, small_var


def _record_plan(cfg):
    """Map each record time to a step index on the grid: time t is step
    round(t / h), and the run ends at t_end's step, so a run whose last
    record time is t_end takes no step after it."""
    n_steps = int(round(cfg.t_end / cfg.h))
    times = cfg.resolved_record_times()
    steps = np.minimum(np.round(times / cfg.h).astype(int), n_steps)
    return n_steps, times, steps


def _partner_jump(nu, kappa, refined, z, mz, mark, gap, g2y):
    """Displacement of Y for X-jumps of size z whose mark on [0, gamma2(X))
    lies below gamma2(Y): the row of the refined basic coupling (or the
    common jump of the synchronous one) that the mark selects, with rho
    evaluated at the gap.  A mark at or above gamma2(Y) selects row 4, where
    Y stays, so the caller passes none.  mz is the atom mass at z, as
    ``LevyMeasure.jumps_above`` gives it."""
    if not refined:
        return z
    Uk = np.minimum(np.maximum(gap, 0.0), kappa)
    up, down = nu.rho_pair(Uk, z, mz)
    half = 0.5 * g2y
    a1 = half * up
    a2 = a1 + half * down
    # rows 3, 2 and 1 in turn: a lower row's test overrides a higher one's.
    # rho <= 1, so a2 <= gamma2(Y) and row 3 is all that is left
    dy = np.where(mark < a2, z - Uk, z)
    return np.where(mark < a1, z + Uk, dy)


def _simulate(coeffs, nu, starts, y0, cfg):
    """The one time-step loop behind every simulator.

    The state S is one 1-d array: X of the N paths of each start in turn,
    then Y of the k pairs that have not met.  ``pair[j]`` is the path of
    partner j, in increasing order, so a search in it finds the partner of a
    path; only a run from one start has partners, and a marginal run is the
    same loop with k = 0.  Path p of every start reads variate p of each
    Gaussian cross-section and of the initial clocks, which are made once at
    width N and spread over the starts; the r-th firing path of every start
    reads variate r of an event round's refills and sizes; and everything
    else a path does is elementwise: each start's ensemble is the one a run
    from that start alone makes.  The drift map, every draw and the jump
    clocks are driven by the X leg alone, so X follows the marginal scheme
    whether or not a partner rides along.
    Before coalescence the Brownian increments of Y are the reflected
    (refined-basic) or shared (synchronous) ones of its path; X jumps at the
    dominating rate gamma2(X) nu((eps, oo)), and each of its jumps is assigned
    to a displacement row of Y by a uniform mark on [0, gamma2(X)) using the
    overlap ratio rho at the current gap.  Once the gap falls within delta_c
    the pair gets its coalescence time and leaves the state: from then on Y
    is X.
    Returns one ensemble per start: a ``CoupledEnsemble`` with a partner, else
    ``SingleEnsemble``s.
    """
    n = cfg.n_paths
    n_starts = len(starts)
    nx = n_starts * n
    coupled = y0 is not None
    refined = cfg.coupling == "refined-basic"
    nu_eps, mean_eps, small_var = _jump_setup(nu, cfg)
    n_steps, rec_times, rec_steps = _record_plan(cfg)

    x0 = starts[0]
    delta_c = cfg.resolved_delta_c(x0)
    # without a partner, or with one within delta_c, no pair is left to meet
    no_pairs = not coupled or x0 - y0 <= delta_c
    coal = np.full(n, 0.0 if no_pairs else math.inf)
    pair = np.arange(0 if no_pairs else n)
    violations = 0
    repairs = 0
    max_hazard = np.zeros(n_starts)
    # (start, record time, path): each start's snapshots are one block
    snaps_x = np.empty((n_starts, rec_times.size, n))
    snaps_y = np.empty_like(snaps_x[0]) if coupled else None

    # the workspace, sized to the largest state and made once per run.  S
    # and dS take turns in live and spare: S + dS is written over dS, which
    # becomes S, and a pair compaction writes the new S into spare.  Every
    # other per-step quantity is written into a view of its live size in
    # work (sigma keeps its own buffer, which the order bookkeeping reads
    # after the jumps), and nothing is written into an array a coefficient
    # callable returned: a gamma may return S itself
    size = nx + pair.size
    live, spare, work = np.empty(size), np.empty(size), np.empty(size)
    S = live
    S[:nx] = np.repeat(starts, n)
    S[nx:] = y0
    linear = isinstance(coeffs.gamma1_prime, float)
    if coeffs.has_diffusion:
        sig_buf = np.empty(size)
        # gamma1' given as a number: gamma1 is linear, and the Milstein
        # coefficient is that number on every path
        mil_buf = None if linear else np.empty(size)
    # a Gaussian cross-section spread over the partners: X's N draws, then
    # those of each partner's path, reflected under refined-basic
    xi_buf = np.empty(n + pair.size) if pair.size else None
    # glibc maps a block above its mmap threshold and raises that threshold,
    # and its heap trim threshold to twice it, to the size of the largest
    # mapped block freed.  Freeing an untouched block of three state widths
    # here keeps the arrays the coefficient callables return each step (two
    # at once for d - b x) in the heap, instead of being mapped, faulted in
    # and handed back to the system on every step.  It touches no page, and
    # under another allocator it is one allocation and nothing more
    np.empty(3 * size)

    def rows(a):
        """a over the state as one row per start, against which a
        cross-section of N draws broadcasts; with partners, one row."""
        return a.reshape(n_starts, -1)

    # step -> the indices of the record times it writes, in order
    rec_at = {}
    for k, step in enumerate(rec_steps.tolist()):
        rec_at.setdefault(step, []).append(k)

    def record(step):
        for k in rec_at.get(step, ()):
            snaps_x[:, k] = rows(S[:nx])
            if coupled:
                snaps_y[k] = S[:nx]
                snaps_y[k, pair] = S[nx:]

    def times_rows(a, v):
        """a *= v in place, v broadcast over the rows of a."""
        a_rows = rows(a)
        a_rows *= v
        return a

    def shared(xi):
        """A cross-section of Gaussian draws spread over the partners."""
        if not pair.size:
            return xi
        out = xi_buf[:n + pair.size]
        out[:n] = xi
        y = xi.take(pair, out=out[n:])
        if refined:
            np.negative(y, out=y)
        return out

    h = cfg.h
    sqh = math.sqrt(h)

    def add_diffusion(S, dS, base):
        """dS += sigma sqrt(h) xi + mil (xi^2 - 1) h, in that order; leaves
        sigma in sig_buf for the order bookkeeping."""
        m = S.size
        sig = coeffs.sigma(S, out=sig_buf[:m])
        xi = shared(_draws(cfg.seed, _SLOT_BROWNIAN, base, n, normal=True))
        dS += times_rows(np.multiply(sig, sqh, out=work[:m]), xi)
        # the Milstein term: a number times the draw's cross-section, added
        # to each start's row, or one coefficient per path
        q = np.multiply(xi, xi, out=work[:xi.size])
        q -= 1.0
        q *= h
        if linear:
            q *= 0.25 * coeffs.gamma1_prime
            dS_rows = rows(dS)
            dS_rows += q
        else:
            mil = np.multiply(coeffs.gamma1_prime(S), 0.25, out=mil_buf[:m])
            dS += times_rows(mil, q)

    if nu_eps > 0:
        # the initial clocks: path i of every start reads variate i % n
        R = np.tile(-np.log1p(-_draws(cfg.seed, _SLOT_JUMP_OCCUR, 0, n)), n_starts)
        start_at = np.arange(n_starts) * n   # each start's first place in S

    def add_jumps(S, base, nan_free):
        """Runs the clocks over the step and adds its jumps to S in place;
        nan_free states that no value of S is NaN."""
        X = S[:nx]
        g2x = coeffs.gamma2(X)
        p = np.multiply(g2x, nu_eps * h, out=work[:nx])
        # p = NaN keeps a path whose state is NaN off its clock and out of the
        # maximum: a flagged one (gamma2 may map its NaN to a number: np.fmin,
        # a constant) and one this step's drift made NaN (a NaN rate does).
        # A NaN rate at a number is NaN in p by itself
        if not nan_free:
            p[np.isnan(X)] = np.nan
        np.maximum(max_hazard, np.fmax.reduce(rows(p), axis=1, initial=0.0),
                   out=max_hazard)
        np.subtract(R, p, out=R)
        # NaN <= 0 is false: a NaN clock never runs out
        fire = (R <= 0.0).nonzero()[0]
        if not fire.size:
            return
        # partnered marks the firing paths with a partner, kp of them; y holds
        # their partners' places in the state, in index order.  The rates
        # stay frozen at the post-drift state over every event of the step:
        # X's, against which its partner's mark is drawn, and Y's
        kp = 0
        if pair.size:
            # pair is increasing: the partner of a path, if any, is where a
            # search puts it
            yi = np.minimum(np.searchsorted(pair, fire), pair.size - 1)
            partnered = pair[yi] == fire
            kp = int(np.count_nonzero(partnered))
            if kp:
                y = nx + yi[partnered]
                g2y = coeffs.gamma2(S[y])
        g2f = g2x[fire]
        for event in range(_MAX_EVENTS):
            # the r-th firing path of a start, in index order, reads variate r
            # of the round's refill and size streams, so one read of the
            # largest firing count per start serves every start
            if n_starts == 1:
                refill = _draws(cfg.seed, _SLOT_JUMP_OCCUR, base, fire.size, event=event)
                u = _draws(cfg.seed, _SLOT_JUMP_SIZE, base, fire.size, event=event)
            else:
                rank = np.arange(fire.size)
                rank -= np.searchsorted(fire, start_at)[fire // n]
                m = int(rank.max()) + 1
                refill = _draws(cfg.seed, _SLOT_JUMP_OCCUR, base, m, event=event)[rank]
                u = _draws(cfg.seed, _SLOT_JUMP_SIZE, base, m, event=event)[rank]
            clock = R[fire]
            clock -= np.log1p(-refill)
            R[fire] = clock
            z, mz = nu.jumps_above(cfg.eps, u)
            if kp:
                # the j-th partnered firing path reads mark j; a run has
                # partners only from one start.  A mark at or above gamma2(Y)
                # leaves Y where it is, so only the paths whose mark lies
                # below read a gap and a row
                mark = _draws(cfg.seed, _SLOT_MARK, base, kp, event=event)
                mark *= g2f[partnered]
                moves = (mark < g2y).nonzero()[0]
                if moves.size:
                    ym = y[moves]
                    at = partnered.nonzero()[0][moves]
                    S[ym] += _partner_jump(nu, cfg.kappa, refined, z[at],
                                           None if mz is None else mz[at], mark[moves],
                                           S[fire[at]] - S[ym], g2y[moves])
            S[fire] += z
            again = clock <= 0.0
            if not again.any():
                return
            fire, g2f = fire[again], g2f[again]
            if kp:
                keep = again[partnered]
                partnered = partnered[again]
                y, g2y = y[keep], g2y[keep]
                kp = y.size
        # the clock runs out once more: past _MAX_EVENTS jumps in one step
        # the rate has outrun h, and the blow-up test flags the path
        S[fire] = np.inf

    record(0)
    for step in range(1, n_steps + 1):
        base = step * _STEP_STRIDE
        m = S.size
        dS = np.multiply(coeffs.gamma0(S), h, out=spare[:m])
        g2 = coeffs.gamma2(S) if nu_eps > 0 or small_var > 0.0 else None
        if coeffs.has_diffusion:
            add_diffusion(S, dS, base)
        if nu_eps > 0:
            comp = np.multiply(g2, mean_eps, out=work[:m])
            comp *= h
            dS -= comp
            if small_var > 0.0:
                xi2 = shared(_draws(cfg.seed, _SLOT_GAUSS_COMP, base, n, normal=True))
                term = np.multiply(g2, small_var, out=work[:m])
                term *= h
                np.maximum(term, 0.0, out=term)
                np.sqrt(term, out=term)
                dS += times_rows(term, xi2)
        # S = max(S + dS, 0), in the buffer of dS.  The state never holds
        # -0.0 (starts are normalized, and no sum of values that are not
        # -0.0 gives it), so on a step whose smallest value is >= 0 the clamp
        # would write every value back unchanged and is skipped.  A NaN
        # minimum fails the test too, so it also tells the jump clocks
        # whether any value is NaN
        np.add(S, dS, out=dS)
        low = np.minimum.reduce(dS)
        if not low >= 0.0:
            np.maximum(dS, 0.0, out=dS)
        S, live, spare = dS, spare, live
        # jumps act on the post-drift state, at rates frozen there: the row
        # geometry (gap, rho) is evaluated where the jump lands, so an
        # exact-meeting row really produces gap 0 instead of gap minus one
        # drift increment.  Each path runs on its own clock, driven by its X
        # leg, so no path's draws depend on another path
        if nu_eps > 0:
            add_jumps(S, base, not math.isnan(low))

        if pair.size:
            # order bookkeeping of the pairs that have not met.  With an
            # active Gaussian part (the diffusion, or the small-jump term of
            # gaussian-compensation, driven the same way) a sign change means
            # the two paths crossed inside the step, i.e. they met.  On
            # pure-jump paths the scheme preserves order exactly, so a
            # negative gap beyond the rounding threshold is a genuine
            # violation and is counted; a smaller one is a rounding slip,
            # repaired.  A crossing or a repair moves X alone to the
            # midpoint, and the pair meets: its Y leaves the state.
            gap = S.take(pair, out=work[:pair.size])
            gap -= S[nx:]
            # every gap above delta_c (the common step): no pair crossed,
            # needs a repair, counts a violation or meets.  fmin skips a
            # flagged pair's NaN gap, as gap <= delta_c and gap < 0 do
            closest = np.fmin.reduce(gap)
            if closest <= delta_c:
                # with no negative gap, |gap| <= delta_c is gap <= delta_c
                near = gap <= delta_c
                met = near
                if closest < 0:
                    neg = gap < 0
                    # sigma(X) + sigma(Y) of the step's pre-drift state
                    noise = sig_buf[pair] + sig_buf[nx:m] if coeffs.has_diffusion else 0.0
                    if small_var > 0.0:
                        noise = noise + small_var * (g2[pair] + g2[nx:])
                    crossed = neg & (noise > 0)
                    deep = (gap < -delta_c) & ~crossed
                    violations += int(np.count_nonzero(deep))
                    moved = np.flatnonzero(neg & ~deep)
                    repairs += moved.size - int(np.count_nonzero(crossed))
                    S[pair[moved]] = 0.5 * (S[pair[moved]] + S[nx + moved])
                    met = near & ~deep

                # coalescence (time at step resolution): the pair leaves the
                # state
                if met.any():
                    coal[pair[met]] = step * h
                    keep = ~met
                    pair = pair[keep]
                    S = np.concatenate((S[:nx], S[nx:][keep]),
                                       out=spare[:nx + pair.size])
                    live, spare = spare, live

        # a pair blows up as a whole: a bad Y sets its path to NaN too.  No
        # value is -inf (the clamp sends it to 0, and jumps are finite), so
        # one NaN-propagating maximum finds every non-finite or too large
        # one; a NaN from an earlier step fails it too and is written again
        if not np.maximum.reduce(S) <= _STATE_CAP:
            bad = ~(S <= _STATE_CAP)
            bad[pair[bad[nx:]]] = True
            S[:nx][bad[:nx]] = np.nan
            S[nx:][bad[pair]] = np.nan
        record(step)

    # a flagged path's NaN went through later steps' arithmetic, which may
    # set its sign bit; one bit pattern keeps ensemble files independent of it
    for snaps in (snaps_x, snaps_y) if coupled else (snaps_x,):
        snaps[np.isnan(snaps)] = np.nan
    # a path is flagged by its final state, which may lie past the last
    # record time
    flagged = np.isnan(S[:nx])
    marginals = [dict(times=rec_times, X=snaps_x[k], x0=float(starts[k]),
                      flagged=flagged[k * n:(k + 1) * n], config=cfg.echo(),
                      max_step_hazard=float(max_hazard[k]))
                 for k in range(n_starts)]
    if not coupled:
        return tuple(SingleEnsemble(**marginal) for marginal in marginals)
    return (CoupledEnsemble(**marginals[0], Y=snaps_y, y0=float(y0), coalescence=coal,
                            order_violations=violations, order_repairs=repairs),)


def _start(v, name):
    """A start as a float in [0, inf), with -0.0 made +0.0: the kernel
    skips its clamp at 0 on a step that leaves no value negative, which
    keeps the sign of zero only when the state never holds -0.0."""
    v = float(v)
    # "not 0 <= v < inf" rejects NaN too, which fails every comparison
    if not 0.0 <= v < math.inf:
        raise DomainError(f"{name} = {v} must be nonnegative and finite")
    return v + 0.0   # -0.0 + 0.0 is +0.0


def simulate_starts(coeffs: CoefficientSet, nu: Optional[LevyMeasure],
                    starts: Sequence[float], cfg: SimConfig
                    ) -> tuple[SingleEnsemble, ...]:
    """Euler-Maruyama ensembles of the marginal SDE from each start >= 0, in
    one kernel pass that draws each variate once for all starts.  The
    ensemble of ``starts[k]`` is the one ``simulate_single`` makes from it at
    the same seed, bit for bit."""
    starts = tuple(_start(x, "start") for x in starts)
    if not starts:
        raise DomainError("need at least one start")
    return _simulate(coeffs, nu, starts, None, cfg)


def simulate_single(coeffs: CoefficientSet, nu: Optional[LevyMeasure],
                    x0: float, cfg: SimConfig) -> SingleEnsemble:
    """Euler-Maruyama ensemble of the marginal SDE started at x0 >= 0."""
    return simulate_starts(coeffs, nu, (x0,), cfg)[0]


def simulate_coupled(coeffs: CoefficientSet, nu: Optional[LevyMeasure],
                     x0: float, y0: float, cfg: SimConfig) -> CoupledEnsemble:
    """Coupled ensemble from x0 > y0 >= 0 (x0 = y0 starts coalesced); its X
    leg is the marginal run ``simulate_single`` makes at the same seed."""
    x0, y0 = _start(x0, "x0"), _start(y0, "y0")
    if x0 < y0:
        raise DomainError("need x0 >= y0 >= 0")
    return _simulate(coeffs, nu, (x0,), y0, cfg)[0]


def ks_statistic(sample_a, sample_b) -> float:
    """The two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the two empirical CDFs, which is attained at a point of the pooled
    sample."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    pooled = np.concatenate((a, b))
    gap = (np.searchsorted(a, pooled, side="right") / a.size
           - np.searchsorted(b, pooled, side="right") / b.size)
    return float(np.max(np.abs(gap)))


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
                         "max_step_hazard": float(ens.max_step_hazard)},
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
                           max_step_hazard=header["max_step_hazard"])

