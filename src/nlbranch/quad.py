"""Adaptive Gauss-Kronrod quadrature on arrays of panels.

Jump integrands are numpy-vectorized, so the integrator works on arrays: each
refinement round evaluates the integrand on the 21 Kronrod nodes of every
panel that round needs, and compares the 21-point Kronrod value with the
embedded 10-point Gauss value on each panel for its error estimate.  A round
passes the integrand slices of whole panels, so that no call sees more than
``_BATCH_NODES`` nodes, a single large group included; a group's value does
not depend on where the slices fall.

Densities of interest behave like ``z**(-1-alpha)`` near the origin, which is
integrable against ``z**2`` but singular.  An interval with left endpoint 0 is
therefore pre-split into a geometric ladder of panels toward the origin, and
no panel on (0, oo) spans more than a factor 4, so that a power law is smooth
enough on each panel for one Gauss-Kronrod pass; when the panel touching the
origin needs refinement it becomes a fresh ladder.  A range ``[lo, oo)`` is
mapped onto ``[0, 1)`` by ``z = lo + t / (1 - t)``.

Every panel remembers the segment between the caller's edges that it lies in,
so one adaptive run also yields each segment's integral
(``integrate_segments``), e.g. the nodal values of a cumulative integral.

Every panel also belongs to a group, one independent integral, and a round
evaluates the integrand over the panels of all groups still refining
(``integrate_intervals``).  A group is refined exactly as it would be alone;
``integrate_interval`` and ``integrate_segments`` are the one-group case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import QuadratureError

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8
_MAX_SUBDIVISIONS = 200     # panel-split budget of the refinement loop
_BATCH_NODES = 10_000       # integrand nodes of a call and of a batch's first round

# Gauss-Kronrod 21/10 rule on [-1, 1] (Piessens et al., QUADPACK, 1983): the
# 10 Gauss nodes are every other Kronrod node, so the Gauss weights vanish on
# the 11 Kronrod-only nodes.
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980191, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG_HALF = np.array([
    0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338, 0.0])
_X = np.concatenate((-_XK_HALF[:-1], _XK_HALF[::-1]))
_WK = np.concatenate((_WK_HALF[:-1], _WK_HALF[::-1]))
_WG = np.concatenate((_WG_HALF[:-1], _WG_HALF[::-1]))

# panels on (0, oo) span at most a factor 4; the origin ladder has rungs at
# e * 4^-k, k = 1..24, below its top e
_RUNG_RATIO = 0.25
_LADDER = np.concatenate(([0.0], _RUNG_RATIO ** np.arange(24.0, -1.0, -1.0)))
# libm's log and pow on arrays, element by element: numpy's own may round
# differently
_LOG = np.frompyfunc(math.log, 1, 1)
_POW = np.frompyfunc(math.pow, 2, 1)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive integrator."""

    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("quadrature tolerances must be positive")


DEFAULT_QUAD = QuadratureSpec()


def _runs(gid):
    """(start, stop) of each run of one group in the sorted group indices."""
    cuts = (np.flatnonzero(np.diff(gid)) + 1).tolist()
    return zip([0] + cuts, cuts + [gid.size])


def _gauss_kronrod(fn, lo, hi, mapped, z0, gid):
    """Kronrod values and |Kronrod - Gauss| on panels [lo_i, hi_i] of the
    groups ``gid_i``.  Mapped panels live in t, with z = z0_i + t / (1 - t).

    ``fn`` sees the nodes of whole panels, at most ``_BATCH_NODES`` of them
    per call, and its values fill one array.  A slice with no mapped panel
    passes its nodes as they are, and only mapped panels are scaled by the
    Jacobian.  A group's panels are contiguous, and the weighted sums run
    group by group: a matrix-vector product rounds a row by where it sits in
    the matrix, so this keeps each group's values those of a solo run."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    f = np.empty((lo.size, _X.size))
    flat = f.reshape(-1)
    step = _BATCH_NODES // _X.size
    # an overflow or 0/0 shows as a non-finite value, which fails the group
    with np.errstate(all="ignore"):
        for a in range(0, lo.size, step):
            b = min(a + step, lo.size)
            t = mid[a:b, None] + half[a:b, None] * _X
            m = np.flatnonzero(mapped[a:b])
            if m.size:
                s = 1.0 / (1.0 - t[m])
                t[m] = z0[a + m][:, None] + t[m] * s
            flat[a * _X.size:b * _X.size] = fn(t.reshape(-1), np.repeat(gid[a:b], _X.size))
            if m.size:
                f[a + m] *= s * s
        fk, fg = np.empty(lo.size), np.empty(lo.size)
        for a, b in _runs(gid):
            fk[a:b] = f[a:b] @ _WK
            fg[a:b] = f[a:b] @ _WG
        kronrod = half * fk
        return kronrod, np.abs(kronrod - half * fg)


def _first_panels(ranges):
    """The first panels [lo_i, hi_i] of the groups ``ranges[g] = (edges,
    infinite)``, with their mapped flags, segments and groups.

    Each group's panels are contiguous, and the groups come in order.  A
    group's segments between consecutive finite edges come in order, then
    its mapped tail [0, 1) when it is infinite.  A segment from 0 at the
    start of the range becomes a ladder of rungs below its top; any other
    segment is one panel, cut geometrically into n when it spans more than
    a factor 4, so that no panel on (0, oo) does.  The n and the cuts come
    from libm's log and pow, element by element, as scalar code would."""
    sizes = np.array([len(e) for e, _ in ranges], dtype=np.intp)
    edges = np.fromiter(chain.from_iterable(e for e, _ in ranges), dtype=float,
                        count=sizes.sum())
    gid = np.repeat(np.arange(sizes.size), sizes)
    last = np.cumsum(sizes) - 1
    seg = np.arange(edges.size) - (last + 1 - sizes)[gid]
    # the segment from each edge, in count[i] panels; from a group's last
    # edge, its mapped tail when infinite, else no panel
    mapped = np.zeros(edges.size, dtype=bool)
    mapped[last] = True
    lo = np.where(mapped, 0.0, edges)
    hi = np.append(edges[1:], 1.0)
    hi[last] = 1.0
    count = np.ones(edges.size, dtype=np.intp)
    count[last] = [infinite for _, infinite in ranges]
    ladder = np.flatnonzero((seg == 0) & (lo == 0.0) & ~mapped)
    # a segment within a factor 4 is one panel (mapped ones have lo = 0),
    # and a wider one gets n >= 1
    wide = np.flatnonzero((lo > 0.0) & (hi > 4.0 * lo))
    ratio = hi[wide] / lo[wide]
    n = np.ceil(_LOG(ratio).astype(float) / -math.log(_RUNG_RATIO) - 1e-9).astype(np.intp)
    count[ladder] = _LADDER.size - 1
    count[wide] = n
    offset = np.cumsum(count) - count
    top = hi[ladder][:, None]
    # cut j = 1..n-1 of each wide segment: lo * (hi / lo) ** (j / n)
    w = np.repeat(np.arange(wide.size), n - 1)
    j = np.arange(w.size) - (np.cumsum(n - 1) - (n - 1))[w] + 1
    cut = lo[wide][w] * _POW(ratio[w], j / n[w]).astype(float)
    at = offset[wide][w] + j
    lo, hi, mapped, seg, gid = (np.repeat(x, count) for x in (lo, hi, mapped, seg, gid))
    rungs = offset[ladder][:, None] + np.arange(_LADDER.size - 1)
    lo[rungs], hi[rungs] = top * _LADDER[:-1], top * _LADDER[1:]
    lo[at], hi[at - 1] = cut, cut
    return lo, hi, mapped, seg, gid


def _split(lo, hi, mapped, seg, gid):
    """Children of the panels [lo_i, hi_i]: the panel touching the origin
    becomes a fresh ladder below its top, the others are halved.  Within a
    group the children run lower halves, upper halves, ladders; the groups
    keep their order."""
    origin = (lo == 0.0) & ~mapped
    mid = 0.5 * (lo + hi)[~origin]
    top = hi[origin][:, None]
    rungs = _LADDER.size - 1
    child_lo = np.concatenate((lo[~origin], mid, (top * _LADDER[:-1]).ravel()))
    child_hi = np.concatenate((mid, hi[~origin], (top * _LADDER[1:]).ravel()))
    child_mapped = np.zeros(child_lo.size, dtype=bool)
    child_mapped[:2 * mid.size] = np.tile(mapped[~origin], 2)
    child_seg = np.concatenate((np.tile(seg[~origin], 2), np.repeat(seg[origin], rungs)))
    child_gid = np.concatenate((np.tile(gid[~origin], 2), np.repeat(gid[origin], rungs)))
    order = np.argsort(child_gid, kind="stable")
    return tuple(c[order] for c in (child_lo, child_hi, child_mapped, child_seg, child_gid))


def _range(a, b, points):
    """(edges, infinite) of the nonempty interval (a, b) split at the
    interior ``points``: the finite edges, and whether [edges[-1], oo)
    follows them."""
    edges = [a, *sorted({float(p) for p in points if a < p < b})]
    infinite = math.isinf(b)
    if not infinite:
        edges.append(float(b))
    elif a == 0.0 and len(edges) == 1:
        edges.append(1.0)  # the ladder needs a finite first edge
    return edges, infinite


def _integrate(fn, ranges, spec):
    """The adaptive loop over G independent integrals, the groups: group g
    covers the segments between consecutive finite edges of
    ``ranges[g] = (edges, infinite)``, plus [edges[-1], oo) when infinite.
    ``fn(z, g)`` receives the nodes and each node's group.

    Consecutive groups run together in batches whose first round stays
    within ``_BATCH_NODES`` integrand nodes (a batch holds one group at
    least), which bounds the arrays a round builds.  Returns, per group,
    the total and the integral over each segment, or the QuadratureError
    the group failed with."""
    panels = _first_panels(ranges)
    z0 = np.array([edges[-1] for edges, _ in ranges], dtype=float)
    nseg = [len(edges) - 1 + infinite for edges, infinite in ranges]
    counts = np.bincount(panels[4], minlength=len(ranges))
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()

    def batch(a, b):
        """The results of groups a..b-1, refined together."""
        part = slice(bounds[a], bounds[b])
        return _refine(fn, tuple(p[part] for p in panels[:4]) + (panels[4][part] - a,),
                       z0[a:b], nseg[a:b], a, spec)

    results, first, nodes = [], 0, 0
    for g, n in enumerate((counts * _X.size).tolist()):
        if g > first and nodes + n > _BATCH_NODES:
            results += batch(first, g)
            first, nodes = g, 0
        nodes += n
    return results + batch(first, len(ranges))


def _refine(fn, panels, z0, nseg, offset, spec):
    """The adaptive loop over one batch of groups, given by their first
    panels (lo, hi, mapped, seg, gid), the start z0 of each one's mapped
    tail and each one's segment count; group g of the batch is group
    ``offset + g`` to ``fn``.

    Every group keeps the rules of a solo run: its own tolerance, split
    test, split budget and failure tests, and its panels in a solo run's
    order, so its result is the solo result bit for bit."""
    size = len(nseg)
    call = (lambda z, g: fn(z, g + offset)) if offset else fn
    val, err = _gauss_kronrod(call, *panels[:3], z0[panels[4]], panels[4])
    splits = np.zeros(size, dtype=np.intp)
    results = [None] * size
    while True:
        # the groups still refining, each a contiguous run of panels
        gid = panels[4]
        share = np.full(size, math.inf)
        largest = []
        for a, b in _runs(gid):
            g = gid[a]
            total = float(np.add.reduce(val[a:b]))
            achieved = float(np.add.reduce(err[a:b]))
            if not (math.isfinite(total) and math.isfinite(achieved)):
                results[g] = QuadratureError("integral did not converge (non-finite value)",
                                             achieved=math.inf)
                continue
            tol = spec.atol + spec.rtol * abs(total)
            if achieved <= tol or splits[g] >= _MAX_SUBDIVISIONS:
                if achieved > 10.0 * max(tol, 1e-14):
                    results[g] = QuadratureError(
                        f"integral error estimate {achieved:.3e} exceeds tolerance "
                        f"{tol:.3e}", achieved=achieved)
                else:
                    results[g] = (total, np.bincount(panels[3][a:b], weights=val[a:b],
                                                     minlength=nseg[g]))
                continue
            # split every panel holding more than its even share of the
            # tolerance; when rounding leaves none above it, the largest
            share[g] = tol / (b - a)
            if not np.any(err[a:b] > share[g]):
                largest.append(a + int(np.argmax(err[a:b])))
        refining = share[gid] < math.inf
        if not refining.any():
            return results
        bad = err > share[gid]
        bad[largest] = True
        splits += np.bincount(gid[bad], minlength=size)
        children = _split(*(p[bad] for p in panels))
        child_val, child_err = _gauss_kronrod(call, *children[:3], z0[children[4]],
                                              children[4])
        keep = refining & ~bad
        # each group's kept panels, then its children: a solo run's order
        order = np.argsort(np.concatenate((gid[keep], children[4])), kind="stable")
        panels = tuple(np.concatenate((p[keep], c))[order] for p, c in zip(panels, children))
        val = np.concatenate((val[keep], child_val))[order]
        err = np.concatenate((err[keep], child_err))[order]


def integrate_interval(fn, a, b, spec=DEFAULT_QUAD, points=()):
    """Integrate the vectorized ``fn`` over ``(a, b)``, splitting at any
    interior breakpoints.  ``b`` may be ``inf``.  ``fn`` receives 1-d arrays of
    nodes and must return values of the same shape.

    Raises QuadratureError when the value is not finite or the achieved error
    estimate exceeds the requested tolerance by more than a factor of ten.
    """
    if b <= a:
        return 0.0
    (out,) = _integrate(lambda z, g: fn(z), [_range(a, b, points)], spec)
    if isinstance(out, QuadratureError):
        raise out
    return out[0]


def integrate_intervals(fn, intervals, spec=DEFAULT_QUAD):
    """Integrals over the intervals ``[(a, b, points), ...]``, a < b, at
    once, each one a group.  ``fn(z, g)`` receives 1-d arrays of nodes and
    of each node's group, the index of its interval, and returns the values.

    Each group is refined as ``integrate_interval`` refines it alone, and its
    value is that call's, bit for bit.  Returns the values and, per group,
    None or the QuadratureError that call would raise; a failed group's
    value is NaN and leaves the others unchanged.  No intervals give no
    values and no errors.
    """
    if any(b <= a for a, b, _ in intervals):
        raise ValueError("every interval needs a < b")
    if not intervals:
        return np.empty(0), []
    values = np.empty(len(intervals))
    errors = [None] * len(intervals)
    out = _integrate(fn, [_range(*interval) for interval in intervals], spec)
    for g, res in enumerate(out):
        if isinstance(res, QuadratureError):
            values[g], errors[g] = math.nan, res
        else:
            values[g] = res[0]
    return values, errors


def integrate_segments(fn, edges, spec=DEFAULT_QUAD):
    """Integrals of the vectorized ``fn`` over each segment between the
    consecutive finite, increasing ``edges``, from one adaptive run whose
    tolerance and errors are those of ``integrate_interval`` over the whole
    range.  Fewer than two edges bound no segment and give an empty array."""
    edges = np.asarray(edges, dtype=float).tolist()
    if len(edges) < 2:
        return np.empty(0)
    (out,) = _integrate(lambda z, g: fn(z), [(edges, False)], spec)
    if isinstance(out, QuadratureError):
        raise out
    return out[1]
