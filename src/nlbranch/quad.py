"""Adaptive Gauss-Kronrod quadrature on arrays of panels.

Jump integrands are numpy-vectorized, so the integrator works on arrays: each
refinement round evaluates the integrand once, on the 21 Kronrod nodes of
every panel that round needs, and compares the 21-point Kronrod value with the
embedded 10-point Gauss value on each panel for its error estimate.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-8
_MAX_SUBDIVISIONS = 200     # panel-split budget of the refinement loop

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the adaptive integrator."""

    atol: float = DEFAULT_ATOL
    rtol: float = DEFAULT_RTOL

    def __post_init__(self):
        if self.atol <= 0 or self.rtol <= 0:
            raise ValueError("quadrature tolerances must be positive")


DEFAULT_QUAD = QuadratureSpec()


def _gauss_kronrod(fn, lo, hi, mapped, z0):
    """Kronrod values and |Kronrod - Gauss| on panels [lo_i, hi_i], with one
    call of ``fn``.  Mapped panels live in t, with z = z0 + t / (1 - t)."""
    half = 0.5 * (hi - lo)
    t = (0.5 * (lo + hi))[:, None] + half[:, None] * _X
    z = t.copy()
    jac = np.ones_like(t)
    if mapped.any():
        s = 1.0 / (1.0 - t[mapped])
        z[mapped] = z0 + t[mapped] * s
        jac[mapped] = s * s
    # an overflow or 0/0 shows as a non-finite value, which the caller raises on
    with np.errstate(all="ignore"):
        f = np.broadcast_to(np.asarray(fn(z.ravel()), dtype=float), (z.size,))
        f = f.reshape(z.shape) * jac
        kronrod = half * (f @ _WK)
        return kronrod, np.abs(kronrod - half * (f @ _WG))


def _graded(edges):
    """Panels [lo_i, hi_i] over the finite edges ``edges`` and the segment
    between consecutive edges each lies in: a ladder of rungs below the first
    edge when the range starts at 0, and every panel on (0, oo) split
    geometrically so that no panel spans more than a factor 4."""
    cuts = list(edges[1] * _LADDER[:-1]) if edges[0] == 0.0 else [edges[0]]
    seg = [0] * (len(cuts) - 1)
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        n = 1
        if lo > 0.0:
            n = max(1, math.ceil(math.log(hi / lo) / -math.log(_RUNG_RATIO) - 1e-9))
            cuts += [lo * (hi / lo) ** (j / n) for j in range(1, n)]
        cuts.append(hi)
        seg += [k] * n
    return np.array(cuts[:-1]), np.array(cuts[1:]), np.array(seg, dtype=np.intp)


def _split(lo, hi, mapped, seg):
    """Children of the panels [lo_i, hi_i]: the panel touching the origin
    becomes a fresh ladder below its top, the others are halved."""
    origin = (lo == 0.0) & ~mapped
    mid = 0.5 * (lo + hi)[~origin]
    top = hi[origin][:, None]
    child_lo = np.concatenate((lo[~origin], mid, (top * _LADDER[:-1]).ravel()))
    child_hi = np.concatenate((mid, hi[~origin], (top * _LADDER[1:]).ravel()))
    child_mapped = np.zeros(child_lo.size, dtype=bool)
    child_mapped[:2 * mid.size] = np.tile(mapped[~origin], 2)
    child_seg = np.concatenate((np.tile(seg[~origin], 2),
                                np.repeat(seg[origin], _LADDER.size - 1)))
    return child_lo, child_hi, child_mapped, child_seg


def _integrate(fn, edges, infinite, spec):
    """The adaptive loop over the segments between consecutive finite
    ``edges``, plus [edges[-1], oo) when ``infinite``: the total and the
    integral over each segment."""
    lo, hi, seg = _graded(edges)
    mapped = np.zeros(lo.size, dtype=bool)
    if infinite:
        lo, hi = np.append(lo, 0.0), np.append(hi, 1.0)
        mapped = np.append(mapped, True)
        seg = np.append(seg, len(edges) - 1)
    z0 = edges[-1]

    panels = (lo, hi, mapped, seg)
    val, err = _gauss_kronrod(fn, *panels[:3], z0)
    splits = 0
    while True:
        total, achieved = float(np.sum(val)), float(np.sum(err))
        if not (math.isfinite(total) and math.isfinite(achieved)):
            raise QuadratureError("integral did not converge (non-finite value)",
                                  achieved=math.inf)
        tol = spec.atol + spec.rtol * abs(total)
        if achieved <= tol or splits >= _MAX_SUBDIVISIONS:
            break
        # split every panel holding more than its even share of the tolerance
        bad = err > tol / err.size
        splits += int(np.count_nonzero(bad))
        children = _split(*(p[bad] for p in panels))
        child_val, child_err = _gauss_kronrod(fn, *children[:3], z0)
        keep = ~bad
        panels = tuple(np.concatenate((p[keep], c)) for p, c in zip(panels, children))
        val = np.concatenate((val[keep], child_val))
        err = np.concatenate((err[keep], child_err))
    if achieved > 10.0 * max(tol, 1e-14):
        raise QuadratureError(
            f"integral error estimate {achieved:.3e} exceeds tolerance {tol:.3e}",
            achieved=achieved)
    return total, np.bincount(panels[3], weights=val, minlength=len(edges) - 1 + infinite)


def integrate_interval(fn, a, b, spec=DEFAULT_QUAD, points=()):
    """Integrate the vectorized ``fn`` over ``(a, b)``, splitting at any
    interior breakpoints.  ``b`` may be ``inf``.  ``fn`` receives 1-d arrays of
    nodes and must return values of the same shape.

    Raises QuadratureError when the value is not finite or the achieved error
    estimate exceeds the requested tolerance by more than a factor of ten.
    """
    if b <= a:
        return 0.0
    edges = [a, *sorted({float(p) for p in points if a < p < b})]
    infinite = math.isinf(b)
    if not infinite:
        edges.append(float(b))
    elif a == 0.0 and len(edges) == 1:
        edges.append(1.0)  # the ladder needs a finite first edge
    return _integrate(fn, edges, infinite, spec)[0]


def integrate_segments(fn, edges, spec=DEFAULT_QUAD):
    """Integrals of the vectorized ``fn`` over each segment between the
    consecutive finite, increasing ``edges``, from one adaptive run whose
    tolerance and errors are those of ``integrate_interval`` over the whole
    range."""
    return _integrate(fn, [float(e) for e in edges], False, spec)[1]
