"""Concave test functions and contraction constants.

Everything here is built from a drift modulus (Phi1 on short distances,
optionally a dissipation modulus Phi2 beyond l0):

* ``build_g``     -- g(r) = r^theta + c * int_0^r Phi1(z) z^(theta-2) dz,
                     the concavity generator with certified -r g''/g' <= 2 - theta;
* ``build_psi``   -- the two-piece concave distance-like function
                     psi(r) = c1 r + int_0^r exp(-c2 g(s)) ds with an
                     exponential bridge past 2 l0;
* ``build_strong_psi`` -- psi's bounded variant, whose bridge integrates 1/Phi2;
* ``build_tv_fn`` -- the bounded-below three-piece function used for total
                     variation estimates;
* ``assemble``    -- the explicit constants (c0..c3, lambda, C), assembled
                     exactly as the contraction argument prescribes, paired
                     with their test function.

All evaluators are pure, vectorized and immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, QuadratureError, ValidationError
from .quad import QuadratureSpec, integrate_segments

_SUP_GRID_POINTS = 10_000
# the cumulative integrals' nodal values run down to ~1e-6 of the total; a
# tolerance far below the default keeps them accurate relative to their own size
_NODAL_QUAD = QuadratureSpec(atol=1e-14, rtol=1e-12)


# ---------------------------------------------------------------------------
# drift moduli


@dataclass(frozen=True)
class Phi1:
    """Short-distance drift modulus with analytic derivatives.

    ``gint_closed(theta)`` returns a closed form of
    int_0^r value(z) z^(theta-2) dz when one exists, else None.
    """

    value: Callable
    d1: Callable
    d2: Callable
    d3: Callable
    gint_closed: Callable = lambda theta: None
    is_zero: bool = False


def phi1_zero():
    z = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    return Phi1(value=z, d1=z, d2=z, d3=z, is_zero=True)


def phi1_linear(k1):
    # "not 0 <= v < inf" rejects NaN too, which fails every comparison
    if not 0 <= k1 < math.inf:
        raise DomainError("k1 must be nonnegative and finite")

    def closed(theta):
        return lambda r: k1 * np.asarray(r, dtype=float) ** theta / theta

    return Phi1(
        value=lambda r: k1 * np.asarray(r, dtype=float),
        d1=lambda r: np.full_like(np.asarray(r, dtype=float), k1),
        d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        d3=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        gint_closed=closed, is_zero=(k1 == 0))


def phi1_xlog(k1, l0):
    """Phi1(r) = k1 r log(4 l0 / r), the one-sided non-Lipschitz modulus."""
    if not (0 <= k1 < math.inf and 0 < l0 < math.inf):
        raise DomainError("k1 must be nonnegative and l0 positive, both finite")
    L = lambda r: np.log(4.0 * l0 / np.asarray(r, dtype=float))

    def closed(theta):
        def I(r):
            r = np.asarray(r, dtype=float)
            safe = np.maximum(r, 1e-300)
            out = k1 * safe ** theta * (L(safe) / theta + 1.0 / theta ** 2)
            return np.where(r > 0, out, 0.0)
        return I

    return Phi1(
        value=lambda r: np.where(np.asarray(r, dtype=float) > 0,
                                 k1 * np.asarray(r, dtype=float)
                                 * L(np.maximum(np.asarray(r, dtype=float), 1e-300)), 0.0),
        d1=lambda r: k1 * (L(r) - 1.0),
        d2=lambda r: -k1 / np.asarray(r, dtype=float),
        d3=lambda r: k1 / np.asarray(r, dtype=float) ** 2,
        gint_closed=closed, is_zero=(k1 == 0))


def phi1_log1p(b1):
    """Phi1(r) = b1 r log(1 + 1/r)."""
    if not 0 <= b1 < math.inf:
        raise DomainError("b1 must be nonnegative and finite")

    def value(r):
        r = np.asarray(r, dtype=float)
        return np.where(r > 0, b1 * r * np.log1p(1.0 / np.maximum(r, 1e-300)), 0.0)

    return Phi1(
        value=value,
        d1=lambda r: b1 * (np.log1p(1.0 / np.asarray(r, dtype=float))
                           - 1.0 / (1.0 + np.asarray(r, dtype=float))),
        d2=lambda r: -b1 / (np.asarray(r, dtype=float)
                            * (1.0 + np.asarray(r, dtype=float)) ** 2),
        d3=lambda r: b1 * (3.0 * np.asarray(r, dtype=float) + 1.0)
        / (np.asarray(r, dtype=float) ** 2 * (1.0 + np.asarray(r, dtype=float)) ** 3),
        is_zero=(b1 == 0))


@dataclass(frozen=True)
class Phi2:
    """Large-distance dissipation modulus on [l0, oo): coef * r**exponent."""

    coef: float
    exponent: float

    def value(self, r):
        return self.coef * np.asarray(r, dtype=float) ** self.exponent

    def d1(self, r):
        return self.coef * self.exponent * np.asarray(r, dtype=float) ** (self.exponent - 1.0)

    def d2(self, r):
        return self.coef * self.exponent * (self.exponent - 1.0) \
            * np.asarray(r, dtype=float) ** (self.exponent - 2.0)

    @property
    def tail_convergent(self):
        """int_l0^oo ds / Phi2(s) < oo."""
        return self.exponent > 1.0

    def tail_integral(self, r):
        """int_r^oo ds / Phi2(s)."""
        if not self.tail_convergent:
            return math.inf
        return r ** (1.0 - self.exponent) / (self.coef * (self.exponent - 1.0))


def phi2_linear(k2):
    if not 0 < k2 < math.inf:
        raise DomainError("k2 must be positive and finite")
    return Phi2(k2, 1.0)


def phi2_power(coef, exponent):
    """Phi2(r) = coef * r**exponent; tail integrable iff exponent > 1."""
    if not all(0 < v < math.inf for v in (coef, exponent)):
        raise DomainError("coefficient and exponent must be positive and finite")
    return Phi2(coef, exponent)


def _finite(name, values, window):
    """The values of the derivative ``name`` on its validation grid, which
    must all be finite: a NaN passes every sign test."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValidationError(f"{name} is not finite on {window}")
    return values


@dataclass(frozen=True)
class DriftModulus:
    """(Phi1, l0) with optional dissipation data beyond l0.

    Either ``k2`` (linear dissipation rate) or ``phi2`` must be present for
    contraction constants to be derivable.  Phi1's concavity pattern is
    validated on (0, l0] and Phi2's on [l0, 10 l0]; a derivative that is not
    finite there is a ValidationError naming it.  The pattern required on
    the full window (0, 2 l0]
    is certified at the level of g in ``build_g``, which is the form the
    construction actually consumes.
    """

    phi1: Phi1
    l0: float
    k2: Optional[float] = None
    phi2: Optional[Phi2] = None

    def __post_init__(self):
        if not 0 < self.l0 < math.inf:
            raise DomainError("l0 must be positive and finite")
        if self.k2 is not None and not 0 < self.k2 < math.inf:
            raise DomainError("k2 must be positive and finite")
        grid = np.logspace(math.log10(self.l0) - 8, math.log10(self.l0), 400)
        v = self.phi1.value(grid)
        if abs(float(self.phi1.value(np.asarray(0.0)))) > 1e-12:
            raise ValidationError("Phi1(0) must vanish")
        if np.any(v < -1e-12):
            raise ValidationError("Phi1 must be nonnegative")
        d1, d2, d3 = (_finite(name, d(grid), "(0, l0]") for name, d in
                      (("Phi1'", self.phi1.d1), ("Phi1''", self.phi1.d2),
                       ("Phi1'''", self.phi1.d3)))
        if np.any(d1 < -1e-9) or np.any(d2 > 1e-9) or np.any(d3 < -1e-9):
            raise ValidationError("Phi1 must be nondecreasing, concave, with convex slope on (0, l0]")
        if self.phi2 is not None:
            g2 = np.linspace(self.l0, 10.0 * self.l0, 200)
            d1, d2 = (_finite(name, d(g2), "[l0, 10 l0]") for name, d in
                      (("Phi2'", self.phi2.d1), ("Phi2''", self.phi2.d2)))
            if np.any(d1 < -1e-9) or np.any(d2 < -1e-9):
                raise ValidationError("Phi2 must be nondecreasing and convex on [l0, oo)")

    def dissipation_rate(self):
        """Effective linear rate: k2, or inf_{r > l0} Phi2(r)/r."""
        if self.k2 is not None:
            return self.k2
        if self.phi2 is None:
            raise DomainError("modulus carries no dissipation data")
        # Phi2(r)/r = coef r^(exponent-1) is nondecreasing for a convex Phi2
        return float(self.phi2.value(self.l0)) / self.l0


# ---------------------------------------------------------------------------
# cached cumulative integrals


def _cumulative_integral(integrand, hi, n_nodes, powers):
    """r -> int_0^r integrand on [0, hi] (constant beyond) for the vectorized
    ``integrand``, which may be infinite at 0.

    The nodal values come from one adaptive quadrature run over all
    segments, and the nodal slopes are the integrand itself, the exact
    derivative.  Between two nodes the integral is the cubic Hermite
    interpolant of those values and slopes, kept as Horner coefficients in
    t = r - node.  Below the first node x1 it is A (r/x1)^p + B (r/x1)^q
    through the value and slope at x1, where ``powers`` = (p, q) are the
    leading powers of the integral at 0, so that it follows them there.
    """
    # Chebyshev-like clustering toward 0 where the integrand varies fastest
    x = hi * np.sin(np.linspace(0.0, np.pi / 2, n_nodes)) ** 2
    F = np.concatenate(([0.0], np.cumsum(integrate_segments(integrand, x, _NODAL_QUAD))))
    f = np.asarray(integrand(x[1:]), dtype=float)
    h = np.diff(x[1:])
    d = np.diff(F[1:]) / h
    # row k: node x_k, then the cubic's coefficients on [x_k, x_k+1]; row 0
    # is unused, as the power form covers [0, x1], and the last row holds
    # the constant at hi
    coef = np.zeros((n_nodes, 5))
    coef[:, 0], coef[:, 1] = x, F
    coef[1:-1, 2] = f[:-1]
    coef[1:-1, 3] = (3.0 * d - 2.0 * f[:-1] - f[1:]) / h
    coef[1:-1, 4] = (f[:-1] + f[1:] - 2.0 * d) / h ** 2
    p, q = powers
    x1 = x[1]
    B = (x1 * f[0] - p * F[1]) / (q - p)
    A = F[1] - B
    knots = x[1:]

    def cumulative(r):
        r = np.asarray(r, dtype=float)
        i = knots.searchsorted(r, side="right")
        node, c0, c1, c2, c3 = coef.take(i, axis=0).T
        t = np.minimum(r, hi) - node
        out = c0 + t * (c1 + t * (c2 + t * c3))
        if np.count_nonzero(i) < i.size:    # some r below x1
            s = np.maximum(r, 0.0) / x1
            out = np.where(i == 0, A * s ** p + B * s ** q, out)
        return out

    return cumulative


# ---------------------------------------------------------------------------
# g


@dataclass(frozen=True)
class GFunction:
    """g(r) = r^theta + c0g * int_0^r Phi1(z) z^(theta-2) dz on (0, 2 l0]."""

    theta: float
    c0g: float
    phi1: Phi1
    l0: float
    _gint: Callable = field(repr=False, default=None)
    sup_neg_ratio: float = 0.0     # sup of -r g'' / g' over (0, 2 l0]
    sup_r_gprime: float = 0.0      # sup of r g'(r) over (0, 2 l0]

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r > 0, np.maximum(r, 1e-300) ** self.theta, 0.0)
        if not self.phi1.is_zero:
            out = out + self.c0g * self._gint(r)
        return out

    def d1(self, r):
        return self._derivative(r, 1)

    def d2(self, r):
        return self._derivative(r, 2)

    def d3(self, r):
        return self._derivative(r, 3)

    def _derivative(self, r, order):
        return _g_derivative(self.c0g, _g_terms(self.phi1, self.theta,
                                                np.asarray(r, dtype=float), (order,))[0])

    def d1_at_zero(self):
        """The limit g'(0+): infinite for theta < 1, else 1 + c0g Phi1'(0+)."""
        if self.theta < 1.0:
            return math.inf
        slope = 0.0
        if not self.phi1.is_zero and self.c0g:
            # Phi1(r) r^(theta - 2) = Phi1(r) / r tends to Phi1'(0+), which
            # is infinite for the logarithmic moduli
            with np.errstate(divide="ignore"):
                slope = float(self.phi1.d1(np.asarray(0.0)))
        return 1.0 + self.c0g * slope


def _g_terms(phi1: Phi1, theta: float, r, orders):
    """For each of ``orders`` (each 1, 2 or 3), the parts of g's derivative
    of that order at the array r that do not depend on c0g: the power term,
    and the factors that c0g multiplies, which are Phi1(r) and r^(theta-2)
    for g' and the Phi1 bracket for g'' and g''' (none when Phi1 vanishes).
    Each power r^(theta-k) and each derivative of Phi1 is evaluated once
    for all the orders."""
    t = theta
    powers, phis = {}, {}

    def rp(k):
        """r^(theta - k)."""
        if k not in powers:
            powers[k] = r ** (t - k)
        return powers[k]

    def phi(k):
        """Phi1's derivative of order k at r."""
        if k not in phis:
            phis[k] = (phi1.value, phi1.d1, phi1.d2)[k](r)
        return phis[k]

    terms = []
    for order in orders:
        if order == 1:
            power = t * rp(1.0)
        elif order == 2:
            power = t * (t - 1.0) * rp(2.0)
        else:
            power = t * (t - 1.0) * (t - 2.0) * rp(3.0)
        if phi1.is_zero:
            factors = ()
        elif order == 1:
            factors = (phi(0), rp(2.0))
        elif order == 2:
            factors = (phi(1) * rp(2.0) + (t - 2.0) * phi(0) * rp(3.0),)
        else:
            factors = (phi(2) * rp(2.0)
                       + 2.0 * (t - 2.0) * phi(1) * rp(3.0)
                       + (t - 2.0) * (t - 3.0) * phi(0) * rp(4.0),)
        terms.append((power, factors))
    return terms


def _g_derivative(c0g, terms):
    """A derivative of g from its ``_g_terms``: the power term plus c0g
    times the factors, multiplied from the left."""
    power, factors = terms
    if not factors:
        return power
    out = c0g * factors[0]
    for factor in factors[1:]:
        out *= factor
    out += power
    return out


def _g_integral(modulus: DriftModulus, theta: float):
    """r -> int_0^r Phi1(z) z^(theta-2) dz on [0, 2 l0]: the part of g that
    does not depend on c0g, or None when Phi1 vanishes."""
    if not 0.0 < theta <= 1.0:
        raise DomainError("theta must lie in (0, 1]")
    l0 = modulus.l0
    phi1 = modulus.phi1
    if phi1.is_zero:
        return None
    closed = phi1.gint_closed(theta)
    if closed is not None:
        return closed
    try:
        # Phi1(z) ~ k z + m z^2 at 0 puts r^theta and r^(1+theta) first
        return _cumulative_integral(lambda z: phi1.value(z) * z ** (theta - 2.0),
                                    2.0 * l0, n_nodes=2400, powers=(theta, 1.0 + theta))
    except QuadratureError as exc:
        raise DomainError(
            "int_0^{2 l0} Phi1(z) z^(theta-2) dz diverges; g is undefined "
            f"for theta = {theta}") from exc


def _sup_terms(modulus: DriftModulus, theta: float):
    """The grid on (0, 2 l0] on which g is certified and the ``_g_terms`` of
    g', g'' and g''' on it."""
    top = math.log10(2.0 * modulus.l0)
    grid = np.logspace(top - 8, top, _SUP_GRID_POINTS)
    return grid, _g_terms(modulus.phi1, theta, grid, (1, 2, 3))


# g', g'' and g''' on the certificate grid: the name of each, and the bounds
# below and above that the sign pattern g' >= 0, g'' <= 0, g''' >= 0 allows
_SIGN_PATTERN = (("g'", -1e-10, math.inf), ("g''", -math.inf, 1e-10),
                 ("g'''", -1e-8, math.inf))


def _certify_g(modulus: DriftModulus, theta: float, c0g: float, gint,
               sup_terms) -> GFunction:
    """g on the integral ``gint``, with its concavity pattern certified on
    (0, 2 l0] from its ``_sup_terms``.  A derivative that is not finite
    somewhere on the grid is a ValidationError naming it."""
    if c0g <= 0:
        raise DomainError("c0g must be positive")
    grid, terms = sup_terms
    derivs = [_g_derivative(c0g, t) for t in terms]
    for (name, lo, hi), d in zip(_SIGN_PATTERN, derivs):
        # min and max both carry a NaN, and one of them any infinity
        d_min, d_max = d.min(), d.max()
        if not (math.isfinite(d_min) and math.isfinite(d_max)):
            raise ValidationError(f"{name} is not finite on g's certificate grid")
        if d_min < lo or d_max > hi:
            raise ValidationError("g violates the sign pattern g' >= 0, g'' <= 0, g''' >= 0")
    gp, gpp, _ = derivs
    ratio = grid * gpp
    ratio /= gp
    # rounding is symmetric in sign: -min(r g''/g') is max(-r g''/g') to the bit
    sup_neg = -float(ratio.min())
    # analytic limit at 0+ of the pure-power part
    sup_neg = max(sup_neg, 1.0 - theta if modulus.phi1.is_zero else sup_neg)
    if not sup_neg <= 2.0 - theta + 1e-8:     # a NaN ratio fails too
        raise ValidationError(
            f"sup(-r g''/g') = {sup_neg} exceeds the certified cap {2.0 - theta}")
    return GFunction(theta=theta, c0g=c0g, phi1=modulus.phi1, l0=modulus.l0, _gint=gint,
                     sup_neg_ratio=sup_neg, sup_r_gprime=float(np.max(grid * gp)))


def build_g(modulus: DriftModulus, theta: float, c0g: float) -> GFunction:
    """Construct g and certify its concavity pattern on (0, 2 l0]."""
    return _certify_g(modulus, theta, c0g, _g_integral(modulus, theta),
                      _sup_terms(modulus, theta))


# ---------------------------------------------------------------------------
# psi


@dataclass(frozen=True)
class PsiFunction:
    """Concave C^2 distance-like function; two variants.

    'wasserstein': linear growth, exponential bridge past 2 l0.
    'strong': bounded, bridge integrating 1/Phi2 (needs A, B, delta_bridge).

    ``value``, ``d1`` and ``d2`` evaluate each piece on its own points
    only: the inner piece where r <= 2 l0 and the bridge elsewhere (NaN
    included), so no point computes the piece it does not take.  The inner
    integral and the values at 2 l0 are built once, by ``build_psi``.
    """

    c1: float
    c2: float
    g: GFunction
    l0: float
    variant: str = "wasserstein"
    _expint: Callable = field(repr=False, default=None)
    psi_2l0: float = 0.0
    dpsi_2l0: float = 0.0
    d2psi_2l0: float = 0.0
    phi2: Optional[Phi2] = None
    A: Optional[float] = None
    B: Optional[float] = None
    delta_bridge: Optional[float] = None

    # -- evaluators -------------------------------------------------------

    def _pieces(self, r, inner, bridge):
        """inner(r) where r <= 2 l0, bridge(r - 2 l0) elsewhere (NaN
        included), each piece evaluated on its own points only."""
        r = np.asarray(r, dtype=float)
        r0 = 2.0 * self.l0
        near = r <= r0
        n_near = np.count_nonzero(near)
        if n_near == near.size:
            out = inner(r)
        elif n_near == 0:
            out = bridge(r - r0)
        else:
            out = np.empty_like(r)
            out[near] = inner(r[near])
            far = ~near
            out[far] = bridge(r[far] - r0)
        return out if out.shape else float(out)

    def value(self, r):
        if self.variant == "wasserstein":
            a = 2.0 * self.d2psi_2l0 / self.dpsi_2l0
            bridge = lambda s: self.psi_2l0 + 0.5 * self.dpsi_2l0 * (s + np.expm1(a * s) / a)
        else:
            bridge = lambda s: self.psi_2l0 + self._strong_bridge(s)
        return self._pieces(r, lambda r: self.c1 * r + self._expint(r), bridge)

    def d1(self, r):
        if self.variant == "wasserstein":
            a = 2.0 * self.d2psi_2l0 / self.dpsi_2l0
            bridge = lambda s: 0.5 * self.dpsi_2l0 * (1.0 + np.exp(a * s))
        else:
            bridge = lambda s: (self.A / self.phi2.value(self.B * s + 2.0 * self.l0)
                                + self.delta_bridge * self.A
                                / self.phi2.value(s + 2.0 * self.l0))
        return self._pieces(r, lambda r: self.c1 + np.exp(-self.c2 * self.g.value(r)),
                            bridge)

    def d2(self, r):
        if self.variant == "wasserstein":
            a = 2.0 * self.d2psi_2l0 / self.dpsi_2l0
            bridge = lambda s: self.d2psi_2l0 * np.exp(a * s)
        else:
            def bridge(s):
                u1, u2 = self.B * s + 2.0 * self.l0, s + 2.0 * self.l0
                return (-self.A * self.B * self.phi2.d1(u1) / self.phi2.value(u1) ** 2
                        - self.delta_bridge * self.A * self.phi2.d1(u2)
                        / self.phi2.value(u2) ** 2)
        return self._pieces(r, self._d2_inner, bridge)

    def _d2_inner(self, r):
        # g' is singular at 0: there psi'' takes its limit -c2 g'(0+)
        rin = np.where(r > 0, r, 2.0 * self.l0)
        return np.where(r > 0, -self.c2 * self.g.d1(rin) * np.exp(-self.c2 * self.g.value(rin)),
                        -self.c2 * self.g.d1_at_zero())

    def _strong_bridge(self, s):
        coef, expo = self.phi2.coef, self.phi2.exponent
        c = 2.0 * self.l0
        if expo == 1.0:
            jb = np.log1p(self.B * s / c) / (coef * self.B)
            j1 = np.log1p(s / c) / coef
        else:
            jb = (c ** (1.0 - expo) - (self.B * s + c) ** (1.0 - expo)) \
                / (coef * self.B * (expo - 1.0))
            j1 = (c ** (1.0 - expo) - (s + c) ** (1.0 - expo)) / (coef * (expo - 1.0))
        return self.A * jb + self.delta_bridge * self.A * j1

    # -- derived quantities ----------------------------------------------

    def breakpoints(self):
        """Locations where the definition switches pieces (C^2 junctions)."""
        return (2.0 * self.l0,)

    def lower_slope(self):
        """min{c1, psi(2 l0)/(4 l0), psi'(2 l0)/4}: psi(r) >= lower_slope * r."""
        return min(self.c1, self.psi_2l0 / (4.0 * self.l0), self.dpsi_2l0 / 4.0)

    def sup(self):
        """sup of psi; finite only for the strong variant."""
        if self.variant != "strong":
            return math.inf
        tail_1 = self.phi2.tail_integral(2.0 * self.l0)
        return self.psi_2l0 + self.A * (tail_1 / self.B) + self.delta_bridge * self.A * tail_1


def build_psi(g: GFunction, c1: float, c2: float, l0: float) -> PsiFunction:
    """psi(r) = c1 r + int_0^r exp(-c2 g) with the exponential bridge past 2 l0.

    The integral is a cubic Hermite interpolant of exact nodal values and
    slopes, and below its first node x1 = 3.4e-6 l0 it follows the leading
    terms r and r^(1+theta).  For g = sqrt(r), c2 = 1.3 and l0 = 1, psi(r) -
    c1 r is off relative to the closed form by at most 1.5e-6 below x1, by
    at most 1.2e-5 on the next panels up to 1e-4 (where the integrand's
    third derivative is singular), and by 7.2e-9 from r = 1e-3 on, where
    the Lyapunov grid starts.
    """
    if c1 <= 0 or c2 <= 0 or l0 <= 0:
        raise DomainError("c1, c2 and l0 must be positive")
    # exp(-c2 g(s)) = 1 - c2 s^theta + ... at 0 puts r and r^(1+theta) first
    expint = _cumulative_integral(lambda s: np.exp(-c2 * g.value(s)), 2.0 * l0,
                                  n_nodes=1200, powers=(1.0, 1.0 + g.theta))
    r0 = 2.0 * l0
    return PsiFunction(c1=c1, c2=c2, g=g, l0=l0, _expint=expint,
                       psi_2l0=float(c1 * r0 + expint(r0)),
                       dpsi_2l0=float(c1 + math.exp(-c2 * float(g.value(np.asarray(r0))))),
                       d2psi_2l0=float(-c2 * float(g.d1(np.asarray(r0)))
                                       * math.exp(-c2 * float(g.value(np.asarray(r0))))))


def build_strong_psi(psi: PsiFunction, phi2: Phi2) -> PsiFunction:
    """Bounded variant of ``psi``, equal to it on (0, 2 l0] with psi's l0:
    past 2 l0 the slope decays like 1/Phi2, so psi(oo) < oo.

    The bridge's delta starts at 0.5 and is halved until the bridge
    coefficient B is positive.
    """
    if phi2 is None or not phi2.tail_convergent:
        raise DomainError("strong-ergodicity bridge needs Phi2 with convergent "
                          "int 1/Phi2; the tail integral diverges")
    l0 = psi.l0
    p2, dp2 = float(phi2.value(2.0 * l0)), float(phi2.d1(2.0 * l0))
    if dp2 <= 0:
        raise DomainError("Phi2'(2 l0) must be positive for the bounded bridge")
    delta = 0.5
    for _ in range(80):
        B = -psi.d2psi_2l0 * p2 * (delta + 1.0) / (psi.dpsi_2l0 * dp2) - delta
        if B > 0:
            break
        delta *= 0.5
    else:
        raise DomainError("could not find delta > 0 with positive bridge coefficient")
    A = psi.dpsi_2l0 * p2 / (delta + 1.0)
    return replace(psi, variant="strong", phi2=phi2, A=A, B=B, delta_bridge=delta)


# ---------------------------------------------------------------------------
# total-variation test function


@dataclass(frozen=True)
class TVTestFunction:
    """f_n: psi near zero, 1 + b (r/(1+r))^theta + psi(r) beyond 1/n,
    quintic Hermite bridge in between (clipped below the upper envelope)."""

    psi: PsiFunction
    b: float
    theta_tv: float
    n: int
    _coeffs: np.ndarray = field(repr=False, default=None)

    @property
    def r_lo(self):
        return 1.0 / (self.n + 1)

    @property
    def r_hi(self):
        return 1.0 / self.n

    def _bump(self, r, order=0):
        w = r / (1.0 + r)
        t = self.theta_tv
        if order == 0:
            return self.b * w ** t
        wp = 1.0 / (1.0 + r) ** 2
        if order == 1:
            return self.b * t * w ** (t - 1.0) * wp
        wpp = -2.0 / (1.0 + r) ** 3
        return self.b * t * ((t - 1.0) * w ** (t - 2.0) * wp ** 2
                             + w ** (t - 1.0) * wpp)

    def envelope(self, r, order=0):
        base = (self.psi.value, self.psi.d1, self.psi.d2)[order](r)
        return base + self._bump(np.asarray(r, dtype=float), order) + (1.0 if order == 0 else 0.0)

    def _piece(self, r, order):
        """The derivative of the given order: psi's up to 1/(n+1), the
        envelope's from 1/n, the bridge's in between (for the value, the
        bridge clipped below the envelope)."""
        r = np.asarray(r, dtype=float)
        lo, hi = self.r_lo, self.r_hi
        s = (np.clip(r, lo, hi) - lo) / (hi - lo)
        bridge = np.polyval(np.polyder(self._coeffs, order), s) / (hi - lo) ** order
        if order == 0:
            bridge = np.minimum(bridge, self.envelope(np.clip(r, lo, hi)))
        below = (self.psi.value, self.psi.d1, self.psi.d2)[order](np.minimum(r, lo))
        out = np.where(r <= lo, below,
                       np.where(r >= hi, self.envelope(np.maximum(r, hi), order), bridge))
        return out if out.shape else float(out)

    def value(self, r):
        return self._piece(r, 0)

    def d1(self, r):
        return self._piece(r, 1)

    def d2(self, r):
        return self._piece(r, 2)

    def breakpoints(self):
        return (self.r_lo, self.r_hi) + self.psi.breakpoints()


def build_tv_fn(psi: PsiFunction, alpha: float, beta: float, n: int) -> TVTestFunction:
    """Assemble f_n with theta = (alpha - beta)/2 and b = exp(-c2 g(l0))/2."""
    if not 0.0 < beta < alpha < 2.0:
        raise DomainError("need 0 < beta < alpha < 2")
    if n < 1:
        raise DomainError("n must be a positive integer")
    theta = 0.5 * (alpha - beta)
    b = 0.5 * math.exp(-psi.c2 * float(psi.g.value(np.asarray(psi.l0))))
    fn = TVTestFunction(psi=psi, b=b, theta_tv=theta, n=n)
    lo, hi = fn.r_lo, fn.r_hi
    h = hi - lo
    p0, m0, s0 = (float(psi.value(lo)), float(psi.d1(lo)) * h, float(psi.d2(lo)) * h * h)
    p1 = float(fn.envelope(np.asarray(hi)))
    m1 = float(fn.envelope(np.asarray(hi), 1)) * h
    s1 = float(fn.envelope(np.asarray(hi), 2)) * h * h
    # quintic Hermite on s in [0, 1] matching value/slope/curvature at both ends
    A_mat = np.array([
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 2, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [5, 4, 3, 2, 1, 0],
        [20, 12, 6, 2, 0, 0],
    ], dtype=float)
    rhs = np.array([p0, m0, s0, p1, m1, s1])
    coeffs = np.linalg.solve(A_mat, rhs)
    return replace(fn, _coeffs=coeffs)


# ---------------------------------------------------------------------------
# contraction constants


@dataclass(frozen=True)
class ContractionConstants:
    """Explicit constants assembled per the contraction argument."""

    c0: float
    c1: float
    c2: float
    c3: float
    lam: float
    C: float
    provenance: str
    alpha: Optional[float] = None
    beta: Optional[float] = None
    theta_exp: float = 0.0
    C_star: Optional[float] = None
    kappa: Optional[float] = None
    k3: Optional[float] = None
    k2: Optional[float] = None
    b_tv: Optional[float] = None
    theta_tv: Optional[float] = None
    l0_star: Optional[float] = None

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "lam", "C"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValidationError(f"constant {name} = {v} must be positive and finite")

    def as_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}


def assemble(case: str, modulus: DriftModulus, params: dict, variant: str = "w1",
             kappa: Optional[float] = None):
    """Derive constants and build the matching test function.

    case     -- 'A1' (diffusion route, params beta, k3) or 'A2' (jump route,
                params alpha, beta, C_star, k3, and the coupling radius
                ``kappa``).  The three short-form noise conditions map onto
                these: case 1 -> A1, cases 2/3 -> A2.  A scenario's params are
                the derived values of its noise report
                (``generator.check_noise_conditions``), which certifies them.
    variant  -- 'w1', 'tv' or 'strong'.
    The dissipation rate k2 comes from the modulus.  A missing parameter is a
    ValidationError naming it.  Built once per call and shared by every c3
    iterate, as none of it depends on c3: g's integral (``_g_integral``),
    and the certificate grid, its negation and the terms of g', g'' and g'''
    on it (``_sup_terms``, which evaluates each power of r and each Phi1
    derivative once for the three orders).  Each iterate's certificate
    then costs the three derivatives, a min and a max of each (a NaN or an
    infinity among them is a ValidationError naming the derivative) and the
    two sups, and builds its GFunction once, with the sups.
    Returns (constants, test_function).
    """
    if variant not in ("w1", "tv", "strong"):
        raise ValidationError(f"unknown constants variant {variant!r}")
    needed = ("beta", "k3") + (("alpha", "C_star") if case == "A2" else ())
    missing = [name for name in needed if name not in params]
    if missing:
        raise ValidationError(f"case {case} needs the parameters "
                              + ", ".join(missing))
    l0 = modulus.l0
    k2 = modulus.dissipation_rate()
    k3 = params["k3"]
    beta = params["beta"]

    if case == "A2":
        if kappa is None:
            raise DomainError("the jump route needs the coupling radius kappa")
        alpha = params["alpha"]
        C_star = params["C_star"]
        if not (0.0 < alpha < 2.0 and alpha - 1.0 <= beta < alpha and beta > 0):
            raise DomainError("A2 needs alpha in (0,2), beta in [alpha-1, alpha) n (0, oo)")
        theta_exp = alpha - beta
    elif case == "A1":
        if not 1.0 <= beta < 2.0:
            raise DomainError("A1 needs beta in [1, 2)")
        alpha, C_star, kappa = None, None, None
        theta_exp = 2.0 - beta
    else:
        raise DomainError(f"unknown case descriptor {case!r}")

    theta_tv = 0.5 * theta_exp
    l0_star = None
    mult = 2.0
    if variant in ("tv", "strong"):
        if case != "A2":
            raise DomainError("total-variation constants are derived on the jump route")
        # largest dyadic l0* <= min(kappa, 1) taming Phi1 near 0
        target = C_star * k3 * (1.0 - theta_tv) / 216.0
        l0_star = min(kappa, 1.0, l0)
        for _ in range(60):
            grid = np.logspace(math.log10(l0_star) - 10, math.log10(l0_star), 500)
            if float(np.max(modulus.phi1.value(grid) * grid ** (theta_exp - 1.0))) <= target:
                break
            l0_star *= 0.5
        else:
            raise DomainError("Phi1(r) r^(alpha-beta-1) does not vanish near 0; "
                              "the total-variation route is inapplicable")
        mult = 2.0 + l0_star ** (theta_tv - 1.0)

    gint = _g_integral(modulus, theta_exp)
    sup_terms = _sup_terms(modulus, theta_exp)

    def derive(c3):
        """g for this c3, with c0, c2 and the mid-range noise coefficient M
        (the coefficient of theta e^(-c2 g(l0)) r in the short-range rate)."""
        g = _certify_g(modulus, theta_exp, c3, gint, sup_terms)
        S1, S2 = g.sup_neg_ratio, g.sup_r_gprime
        c0 = min(1.0 / l0, 1.0 / S1) if S1 > 0 else 1.0 / l0
        c2 = S1 / S2 if S1 > 0 else 1.0 / float(g.value(np.asarray(l0)))
        if case == "A2":
            M = 0.5 * C_star * c2 * k3 * min(kappa ** (2.0 - alpha) / l0 ** (2.0 - alpha),
                                             c0 ** (2.0 - alpha) / 3.0)
        else:
            M = 0.5 * k3 * c2
        return g, c0, c2, M

    # fixed point in c3 (g depends on c3; the constants depend on g).  The
    # iteration c3 -> mult / M(c2(c3)) is affine-like with slope < 1 exactly
    # when the certified jump activity dominates the Phi1 drift bump; when the
    # slope reaches 1 the constants genuinely do not assemble, so divergence
    # is reported rather than papered over.
    c3 = 1.0
    converged = False
    for _ in range(200):
        c3_new = mult / derive(c3)[3]
        if modulus.phi1.is_zero or abs(c3_new - c3) <= 1e-12 * (1.0 + abs(c3)):
            c3 = c3_new
            converged = True
            break
        c3 = c3_new
        if not np.isfinite(c3) or c3 > 1e8:
            break
    if not converged:
        raise DomainError(
            "the c3 balance equation has no solution: the Phi1 drift bump "
            "exceeds what the certified jump/diffusion activity can absorb "
            "(try a larger noise coefficient or a smaller Phi1)")
    g, c0, c2, M = derive(c3)
    del sup_terms   # freed before psi is built, the peak of an assembly
    c1 = math.exp(-c2 * float(g.value(np.asarray(l0))))
    psi = build_psi(g, c1, c2, l0)

    short_rate = M * theta_exp * c1                # times r, on (0, l0]
    long_rate = 0.5 * k2 * psi.dpsi_2l0            # times r, beyond l0
    lam = min(short_rate, long_rate) / (1.0 + c1)
    C = (1.0 + c1) / psi.lower_slope()

    fn, b_tv = psi, None
    if variant in ("tv", "strong"):
        b_tv = 0.5 * c1
        M2 = b_tv * theta_tv * C_star * k3 * (1.0 - theta_tv) / 216.0 \
            * l0_star ** (-theta_tv)
        if variant == "tv":
            F = lambda r: 1.0 + b_tv + float(psi.value(np.asarray(r)))
            lam = min(short_rate * l0_star / F(l0_star),
                      M2 / F(l0_star),
                      long_rate * l0 / F(l0),
                      short_rate / (1.0 + c1))  # tiny-r region f_n = psi
        else:
            psi = build_strong_psi(psi, modulus.phi2)
            lam = min(short_rate * l0_star,
                      M2,
                      c1 * float(modulus.phi2.value(np.asarray(l0))),
                      psi.delta_bridge * psi.A)
        fn = build_tv_fn(psi, alpha, beta, n=10)

    constants = ContractionConstants(
        c0=c0, c1=c1, c2=c2, c3=c3, lam=lam, C=C,
        provenance=f"{case}/{variant}", alpha=alpha, beta=beta,
        theta_exp=theta_exp, C_star=C_star, kappa=kappa, k3=k3, k2=k2,
        b_tv=b_tv, theta_tv=theta_tv if variant in ("tv", "strong") else None,
        l0_star=l0_star)
    return constants, fn


def psi_table(fn, r_values):
    """Rows (r, value, first, second derivative) for CSV export."""
    r = np.asarray(r_values, dtype=float)
    return np.column_stack([r, fn.value(r), fn.d1(r), fn.d2(r)])
