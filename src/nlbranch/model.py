"""SDE coefficients and jump measures.

The process of interest is the nonnegative solution of

    dX = gamma0(X) dt + sqrt(gamma1(X)) dB
         + (compensated jumps of size z at rate gamma2(X) nu(dz)).

This module holds the coefficient triple, the jump measure ``nu`` in
absolutely-continuous / atomic / mixture form, and the measure-level queries
the coupling construction needs: tail masses, truncated moments, the mass of
the overlap measure ``mu_x = nu ^ (delta_x * nu)`` and its density ratio
``rho(x, z)``, and restricted jump sampling.  The path kernel and the
generator read the ratio through one entry, ``LevyMeasure.rho_pair``, and
every integral against nu, the generator's jump terms and every moment,
through another, ``LevyMeasure.integrate``.  Every integral of a density, a
custom sampler's table too, runs in ``quad``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, NoJumpError, ValidationError
from .quad import (DEFAULT_QUAD, integrate_interval, integrate_intervals,
                   integrate_segments)

_ATOM_RTOL = 1e-12  # relative tolerance for coinciding atom locations


# ---------------------------------------------------------------------------
# coefficients


def _as_vectorized(fn):
    with np.errstate(all="ignore"):
        probe = fn(np.asarray([0.5, 1.0]))
    if np.shape(probe) != (2,):
        return lambda x: np.vectorize(fn, otypes=[float])(x)
    return fn


def _no_diffusion(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _difference_nodes(x):
    """The nodes x -/+ 1e-5 (1 + |x|) of gamma1's difference quotient, the
    lower one clipped at 0 (new arrays)."""
    d = np.abs(x)
    d += 1.0
    d *= 1e-5
    hi = x + d
    lo = np.subtract(x, d, out=d)
    np.maximum(lo, 0.0, out=lo)
    return lo, hi


class _CentralDifference:
    """gamma1' by the difference quotient of gamma1 over its nodes.  It is
    the default of a coefficient set that declares no gamma1', and one
    rebuilt from such a set (``dataclasses.replace``) makes its own for its
    gamma1 rather than keeping this one."""

    def __init__(self, gamma1):
        self.gamma1 = gamma1

    def __call__(self, x):
        lo, hi = _difference_nodes(np.asarray(x, dtype=float))
        # gamma1 may hand back its argument: hi and lo change only after both calls
        quotient = self.gamma1(hi) - self.gamma1(lo)
        hi -= lo
        quotient /= hi
        return quotient


def _check_gamma1_prime(gamma1, gamma1_prime, grid):
    """A declared gamma1' must be finite on the grid and match the difference
    quotient of gamma1 there.  The quotient is the mean of gamma1' over its
    nodes, which a quadratic gamma1 takes at their midpoint, so the two are
    compared at the midpoint: at 0, where the lower node is clipped, too."""
    got = gamma1_prime(grid)
    bad = ~np.isfinite(got)
    if np.any(bad):
        raise ValidationError(f"gamma1_prime({grid[bad][0]}) = {got[bad][0]} is not finite")
    lo, hi = _difference_nodes(grid)
    got = gamma1_prime(0.5 * (lo + hi))
    want = _CentralDifference(gamma1)(grid)
    bad = ~(np.abs(got - want) <= 1e-6 * (1.0 + np.abs(got)))
    if np.any(bad):
        i = np.flatnonzero(bad)[0]
        raise ValidationError(
            f"gamma1_prime = {got[i]} near x = {grid[i]}, where gamma1's "
            f"difference quotient is {want[i]}: it is not gamma1's derivative")


@dataclass(frozen=True)
class CoefficientSet:
    """The triple (gamma0, gamma1, gamma2) defining the SDE.

    gamma0 is the drift (state/time), gamma1 the diffusion variance
    (state^2/time; the diffusion amplitude is its square root), gamma2 the
    branching-rate multiplier (1/time per unit nu-mass).  All three must be
    vectorized over numpy arrays.  ``gamma1=None`` states that the model has
    no diffusion part (as ``nu=None`` states it has no jumps): gamma1 is then
    stored as the zero function and ``has_diffusion`` is false, which lets
    the simulator skip the diffusion terms altogether.

    ``gamma1_prime`` is the derivative of gamma1, which sets the simulator's
    Milstein term (1/4) gamma1'(X) (xi^2 - 1) h.  A model declares it in
    closed form: as a callable, or as a number, which states that gamma1 is
    linear with that slope and lets the simulator form the term once per
    draw rather than once per path.  Construction checks either form against
    the difference quotient of gamma1 on the validation grid, and stores a
    number as a float.  Without one (an INI ``custom`` coefficient set among
    them) it is that quotient: the central difference over
    x -/+ 1e-5 (1 + |x|), one-sided where x - 1e-5 (1 + |x|) < 0.  Like the
    gammas, a callable may return its argument, so nothing it returns is
    written to.
    """

    gamma0: Callable
    gamma1: Optional[Callable]
    gamma2: Callable
    gamma1_vanishes_at_zero: bool = True
    gamma2_vanishes_at_zero: bool = True
    name: str = ""
    gamma1_prime: Union[Callable, float, None] = None

    def __post_init__(self):
        declared = self.gamma1_prime
        if isinstance(declared, _CentralDifference):
            declared = None
        if self.gamma1 is None and declared is not None:
            raise ValidationError("gamma1_prime given without gamma1")
        object.__setattr__(self, "gamma0", _as_vectorized(self.gamma0))
        object.__setattr__(self, "gamma1", _no_diffusion if self.gamma1 is None
                           else _as_vectorized(self.gamma1))
        object.__setattr__(self, "gamma2", _as_vectorized(self.gamma2))
        grid = np.concatenate(([0.0], np.logspace(-6, 1.0, 140)))
        g0, g1, g2 = self.gamma0(grid), self.gamma1(grid), self.gamma2(grid)
        tol = 1e-9
        if g0[0] < -tol:
            raise ValidationError(f"gamma0(0) = {g0[0]} must be >= 0")
        if np.any(g1 < -tol):
            raise ValidationError("gamma1 must be nonnegative")
        if self.gamma1_vanishes_at_zero and abs(g1[0]) > tol:
            raise ValidationError(f"gamma1(0) = {g1[0]} must vanish")
        if self.gamma2_vanishes_at_zero and abs(g2[0]) > tol:
            raise ValidationError(f"gamma2(0) = {g2[0]} must vanish")
        # the coupling's partner marks on [0, gamma2(X)) and the reduced
        # operator's (gamma2(x) - gamma2(y)) jump term both need it
        scale = 1.0 + np.max(np.abs(g2))
        if np.any(np.diff(g2) < -1e-9 * scale):
            raise ValidationError("gamma2 must be non-decreasing on the validation grid")
        if isinstance(declared, numbers.Real):
            slope = float(declared)
            _check_gamma1_prime(self.gamma1, lambda x: np.full_like(x, slope), grid)
            object.__setattr__(self, "gamma1_prime", slope)
        elif declared is not None:
            object.__setattr__(self, "gamma1_prime", _as_vectorized(declared))
            _check_gamma1_prime(self.gamma1, self.gamma1_prime, grid)
        else:
            object.__setattr__(self, "gamma1_prime", _CentralDifference(self.gamma1)
                               if self.has_diffusion else None)

    @property
    def has_diffusion(self):
        return self.gamma1 is not _no_diffusion

    def sigma(self, x, out=None):
        """Diffusion amplitude sqrt(gamma1(x)), in out when given."""
        return np.sqrt(np.maximum(self.gamma1(x), 0.0, out=out), out=out)


def cir_coefficients(b, c, d, diffusion="sqrt2c"):
    """Cox-Ingersoll-Ross drift d - b x with vanishing jump part.

    ``diffusion`` selects gamma1(x) = sqrt(2c) x (the form used alongside the
    hitting-time formula) or the conventional gamma1(x) = 2 c x.  Both give
    the same mean ODE dE[X]/dt = d - b E[X]; the discrepancy between the two
    parameterizations is deliberately left visible here.
    """
    # "not 0 < v < inf" rejects NaN too, which fails every comparison
    if not all(0 < v < math.inf for v in (b, c, d)):
        raise DomainError("CIR parameters b, c, d must be positive and finite")
    if diffusion == "sqrt2c":
        amp = math.sqrt(2.0 * c)
    elif diffusion == "2c":
        amp = 2.0 * c
    else:
        raise DomainError(f"unknown CIR diffusion form {diffusion!r}")
    return CoefficientSet(
        gamma0=lambda x: d - b * np.asarray(x, dtype=float),
        gamma1=lambda x: amp * np.asarray(x, dtype=float),
        gamma2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name=f"cir(b={b},c={c},d={d},{diffusion})",
        gamma1_prime=amp,
    )


def logistic_coefficients(b1, b2, c1=0.0, c2=1.0):
    """Logistic branching coefficients gamma0 = b1 x - b2 x^2, gamma_i = c_i x."""
    if not (all(0 < v < math.inf for v in (b1, b2))
            and all(0 <= v < math.inf for v in (c1, c2))):
        raise DomainError("logistic parameters must be positive (c1, c2 nonnegative) "
                          "and finite")
    return CoefficientSet(
        gamma0=lambda x: b1 * np.asarray(x, dtype=float) - b2 * np.asarray(x, dtype=float) ** 2,
        gamma1=None if c1 == 0 else (lambda x: c1 * np.asarray(x, dtype=float)),
        gamma2=lambda x: c2 * np.asarray(x, dtype=float),
        name=f"logistic(b1={b1},b2={b2},c1={c1},c2={c2})",
        gamma1_prime=None if c1 == 0 else c1,
    )


# ---------------------------------------------------------------------------
# jump measures


def _radius(r):
    """The radius r of a tail or truncated moment, which must be positive."""
    if r <= 0:
        raise DomainError(f"moments of nu need a radius r > 0, got {r}")
    return r


class LevyMeasure:
    """Base class: a sigma-finite measure on (0, oo) with finite (z ^ z^2) moment.

    Subclasses describe the absolutely-continuous part through ``density`` /
    ``upper`` / ``density_decreasing`` and the atomic part through
    ``atom_locations`` / ``atom_masses``; one with closed-form moments
    overrides ``_moment``.
    """

    name = "levy"
    upper = math.inf            # supremum of the AC support (inf allowed)
    # AC density positive and nonincreasing on (0, upper]: rho_pair and
    # overlap_mass take the flag at its word and skip density calls on it
    density_decreasing = False
    atom_locations = np.empty(0)
    atom_masses = np.empty(0)
    quad = DEFAULT_QUAD

    def density(self, z):
        """AC-part density, vectorized; zero off the support."""
        z = np.asarray(z, dtype=float)
        return np.zeros_like(z)

    @property
    def has_ac_part(self):
        return False

    def validate(self):
        m = self.trunc_second_moment(1.0) + self.mean_above(1.0)
        if not np.isfinite(m):
            raise ValidationError("measure violates the (z ^ z^2) moment condition")

    # -- integrals against nu ---------------------------------------------

    def integrate(self, fn, points, spec, lo=0.0, hi=math.inf):
        """Per group p: int_(lo, hi] fn(z, p) nu(dz), the atoms summed and
        the AC part by quadrature, one group per entry of ``points``.

        ``fn`` is vectorized over nodes z and the group p of each node.
        ``points[p]`` marks interior locations where group p's integrand
        loses smoothness (piece junctions of interpolated test functions), so
        the adaptive routine is not penalized for the kinks.  Returns the
        values and, per group, None or the QuadratureError its integral
        failed with; a failed group's value is NaN.
        """
        n = len(points)
        total = np.zeros(n)
        errors = [None] * n
        sel = (self.atom_locations > lo) & (self.atom_locations <= hi)
        if sel.any():
            z = self.atom_locations[sel]
            vals = fn(np.tile(z, n), np.repeat(np.arange(n), z.size))
            total += np.sum(self.atom_masses[sel] * vals.reshape(n, z.size), axis=1)
        top = min(hi, self.upper)
        if self.has_ac_part and lo < top:
            values, errors = integrate_intervals(
                lambda z, p: fn(z, p) * self.density(z),
                [(lo, top, pts) for pts in points], spec)
            total += values
        return total, errors

    def _moment(self, k, lo, hi):
        """int_(lo, hi] z^k nu(dz)."""
        (value,), (error,) = self.integrate(lambda z, p: z ** k, [()], self.quad, lo, hi)
        if error is not None:
            raise error
        return float(value)

    def tail_mass(self, r):
        """nu((r, oo))."""
        return self._moment(0, _radius(r), math.inf)

    def trunc_second_moment(self, r):
        """Integral of z^2 nu(dz) over (0, r]."""
        total = self._moment(2, 0.0, _radius(r))
        if not math.isfinite(total) or total < 0:
            # adaptive extrapolation can return a finite-part value for a
            # divergent singular integrand; a negative "moment" exposes it
            raise ValidationError("divergent truncated second moment")
        return total

    def mean_above(self, r):
        """Integral of z nu(dz) over (r, oo); the compensator rate above a cutoff."""
        return self._moment(1, _radius(r), math.inf)

    def _ac_tail(self, r):
        """The AC part's own mass on (r, oo).  Only a mixture carries atoms
        beside an AC part, so elsewhere this is the whole tail."""
        return self.tail_mass(r)

    # -- overlap ----------------------------------------------------------

    def rho_pair(self, u, z, mz=None):
        """(rho(-u, z), rho(u, z)) for 1-d float arrays u >= 0 (or NaN) and z
        of one size, with rho(x, z) = d(mu_x)/d(nu) at z and rho(0, z) = 1:
        the uphill and the downhill row of the refined basic coupling at gap
        u.  ``mz``, if given, is ``_atom_mass_at(z)``."""
        up = self._rho_core(z, z + u, False, mz)
        down = self._rho_core(z, z - u, True, mz)
        if not u.all():
            # u = 0 (NaN counts as nonzero): rho(0, z) = 1 on both sides
            zero = u == 0.0
            up[zero] = down[zero] = 1.0
        return up, down

    def _rho_core(self, z, s, downhill, mz=None):
        """rho(x, z) at the shifted points s = z - x, for 1-d arrays and
        x != 0: x > 0 everywhere (downhill) or x < 0 or NaN everywhere.

        A declared-decreasing density is positive on its support, and atom
        masses are positive, so the ratio lies in [0, 1] by construction;
        only an undeclared density, or one mixed with atoms, is clipped
        there.
        """
        if not (self.has_ac_part or self.atom_locations.size):
            return np.zeros(z.shape)
        r = None
        if self.has_ac_part:
            if downhill and self.density_decreasing:
                # downhill n(z - x) >= n(z) > 0 on 0 < z - x < z <= upper, so
                # min(n(z), n(z - x)) / n(z) is exactly 1 there and 0
                # elsewhere: no density call
                r = np.where((s > 0) & (z <= self.upper), 1.0, 0.0)
            else:
                # n(z) and n(z - x) in one call
                both = np.empty(2 * z.size)
                both[:z.size] = z
                np.maximum(s, 1e-300, out=both[z.size:])
                both = self.density(both)
                nz = both[:z.size]
                ns = np.where(s > 0, both[z.size:], 0.0)
                pos = nz > 0
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = np.where(pos, np.minimum(nz, ns) / np.where(pos, nz, 1.0), 0.0)
        if self.atom_locations.size:
            ra = self._rho_atomic(z, s, mz)
            if r is None:
                return ra
            r = np.maximum(r, ra)
        elif self.density_decreasing:
            return r
        return np.clip(r, 0.0, 1.0)

    def _atom_mass_at(self, z):
        locs, masses = self.atom_locations, self.atom_masses
        z = np.asarray(z, dtype=float)
        idx = np.searchsorted(locs, z)
        out = np.zeros_like(z)
        # the nearest atoms at or above and below each z (0 <= idx <= size)
        for j in (np.minimum(idx, locs.size - 1), np.maximum(idx - 1, 0)):
            hit = np.abs(locs[j] - z) <= _ATOM_RTOL * np.maximum(np.abs(z), locs[j])
            out = np.where(hit & (out == 0.0), masses[j], out)
        return out

    def _rho_atomic(self, z, s, mz=None):
        if mz is None:
            mz = self._atom_mass_at(z)
        ms = np.where(s > 0, self._atom_mass_at(np.abs(s)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mz > 0, np.minimum(mz, ms) / np.where(mz > 0, mz, 1.0), 0.0)

    def overlap_mass(self, x):
        """Total mass of mu_x, x != 0."""
        x = abs(float(x))
        if x == 0.0:
            raise DomainError("the overlap measure needs a shift x != 0")
        total = 0.0
        if self.atom_locations.size:
            shifted = self.atom_locations + x
            m_at = self._atom_mass_at(shifted)
            total += float(np.sum(np.minimum(self.atom_masses, m_at)[m_at > 0]))
        if self.has_ac_part:
            if self.density_decreasing:
                # min(n(z), n(z - x)) = n(z) on (x, upper]
                total += self._ac_tail(x) if x < self.upper else 0.0
            else:
                hi = self.upper + x if np.isfinite(self.upper) else math.inf
                # the density vanishes off its support, so below the shift too
                fn = lambda z: np.minimum(self.density(z), self.density(z - x))
                total += integrate_interval(fn, x, hi, self.quad,
                                            points=(self.upper,) if np.isfinite(self.upper) else ())
        return total

    # -- sampling ---------------------------------------------------------

    def quantile_above(self, eps, u):
        """Inverse CDF of nu restricted to (eps, oo) and normalized; raises
        NoJumpError when nu((eps, oo)) = 0."""
        raise NotImplementedError

    def jumps_above(self, eps, u):
        """(z, mz): the sizes ``quantile_above(eps, u)`` and the atom mass at
        each, ``_atom_mass_at(z)``, which ``rho_pair`` reads; mz is None when
        nu has no atoms."""
        z = np.asarray(self.quantile_above(eps, u))
        return z, (self._atom_mass_at(z) if self.atom_locations.size else None)


class AbsolutelyContinuousMeasure(LevyMeasure):
    """nu(dz) = n(z) dz on (0, upper]."""

    def __init__(self, density, upper=math.inf, decreasing=False, name="ac"):
        self._density = _as_vectorized(density)
        self.upper = float(upper)
        if not self.upper > 0:
            raise DomainError(f"upper = {self.upper} must be positive")
        self.density_decreasing = bool(decreasing)
        self.name = name
        self._inv_cdf_cache = {}
        self.validate()

    def density(self, z):
        """n(z), zero off (0, upper].  When every z lies in (0, upper], as
        the Lyapunov jump nodes do, this is ``_density(z)`` itself, without
        a masked copy of z."""
        z = np.asarray(z, dtype=float)
        inside = (z > 0) & (z <= self.upper)
        # singular densities overflow harmlessly just above 0
        with np.errstate(over="ignore", divide="ignore"):
            if inside.all():
                return np.asarray(self._density(z), dtype=float)
            out = np.zeros(z.shape)
            if inside.any():
                out[inside] = self._density(z[inside])
        return out

    @property
    def has_ac_part(self):
        return True

    def quantile_above(self, eps, u):
        key = float(eps)
        if key not in self._inv_cdf_cache:
            mass = self.tail_mass(eps)
            if not mass > 0.0:
                raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
            hi = self.upper if np.isfinite(self.upper) else max(10.0, 10.0 * eps)
            while not np.isfinite(self.upper) and self.tail_mass(hi) > 1e-12 * mass:
                hi *= 4.0
            # quad's masses between nodes spaced by ratio, as a power law needs
            zs = np.geomspace(eps, hi, 4097)
            cdf = np.concatenate(([0.0], np.cumsum(integrate_segments(self.density, zs,
                                                                      self.quad))))
            cdf /= cdf[-1]
            self._inv_cdf_cache[key] = (zs, cdf)
        zs, cdf = self._inv_cdf_cache[key]
        return np.interp(u, cdf, zs)


class StableTruncatedMeasure(AbsolutelyContinuousMeasure):
    """nu(dz) = c0 z^(-1-alpha) 1{0 < z <= zmax} dz, with closed forms."""

    def __init__(self, alpha, c0=1.0, zmax=1.0):
        if not 0.0 < alpha < 2.0:
            raise DomainError("stable index alpha must lie in (0, 2)")
        # zmax = inf is the untruncated measure
        if not (0 < c0 < math.inf and zmax > 0):
            raise DomainError("c0 must be positive and finite, zmax positive")
        self.alpha = float(alpha)
        self.c0 = float(c0)
        super().__init__(lambda z: c0 * np.asarray(z, dtype=float) ** (-1.0 - alpha),
                         upper=zmax, decreasing=True,
                         name=f"stable_truncated(alpha={alpha},c0={c0},zmax={zmax})")

    def validate(self):
        pass  # moments are finite in closed form

    def _moment(self, k, lo, hi):
        # c0 int_lo^hi z^(p-1) dz with p = k - alpha
        hi = min(hi, self.upper)
        if lo >= hi:
            return 0.0
        p = k - self.alpha
        if p == 0.0:
            return self.c0 * math.log(hi / lo)
        return self.c0 * (hi ** p - lo ** p) / p

    def quantile_above(self, eps, u):
        if eps >= self.upper:
            raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
        a = self.alpha
        lo, hi = eps ** -a, self.upper ** -a
        return (lo - np.asarray(u) * (lo - hi)) ** (-1.0 / a)


class AtomicMeasure(LevyMeasure):
    """nu = sum_j m_j delta_{z_j} with all z_j > 0."""

    def __init__(self, locations, masses, name="atomic"):
        locations = np.asarray(locations, dtype=float)
        masses = np.asarray(masses, dtype=float)
        if locations.shape != masses.shape or locations.ndim != 1:
            raise DomainError("locations and masses must be matching 1-d sequences")
        if not np.all((0 < locations) & (locations < math.inf)
                      & (0 < masses) & (masses < math.inf)):
            raise ValidationError("atom locations and masses must be positive and finite")
        order = np.argsort(locations)
        self.atom_locations = locations[order]
        self.atom_masses = masses[order]
        self.name = name
        self._inv_cdf_cache = {}
        # the mass at each atom as _atom_mass_at reads it at its location
        self._mass_at_atom = self._atom_mass_at(self.atom_locations)
        self.validate()

    def _atoms_above(self, eps, u):
        """The index of each atom quantile_above(eps, u) returns."""
        key = float(eps)
        if key not in self._inv_cdf_cache:
            # the atoms above eps are the last ones in sorted order
            first = int(np.searchsorted(self.atom_locations, eps, side="right"))
            if first == self.atom_locations.size:
                raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
            cum = np.cumsum(self.atom_masses[first:])
            self._inv_cdf_cache[key] = (first, cum / cum[-1])
        first, cdf = self._inv_cdf_cache[key]
        idx = np.searchsorted(cdf, np.asarray(u), side="right")
        return first + np.minimum(idx, cdf.size - 1)

    def quantile_above(self, eps, u):
        return self.atom_locations[self._atoms_above(eps, u)]

    def jumps_above(self, eps, u):
        # the atom index carries the mass at z: no search for z itself
        j = self._atoms_above(eps, u)
        return self.atom_locations[j], self._mass_at_atom[j]


def dyadic_atoms(alpha, jmax=40):
    """The singular measure sum_j 2^(alpha j) delta_{2^-j}, truncated at jmax."""
    if not 0.0 < alpha < 2.0:
        raise DomainError("alpha must lie in (0, 2)")
    j = np.arange(jmax + 1)
    return AtomicMeasure(2.0 ** (-j), 2.0 ** (alpha * j),
                         name=f"dyadic_atoms(alpha={alpha},jmax={jmax})")


class MixtureMeasure(LevyMeasure):
    """Weighted sum of component measures."""

    def __init__(self, components: Sequence[Tuple[float, LevyMeasure]], name="mixture"):
        if not components:
            raise DomainError("mixture needs at least one component")
        self.components = [(float(w), m) for w, m in components]
        if any(w <= 0 for w, _ in self.components):
            raise DomainError("mixture weights must be positive")
        self.name = name
        locs = np.concatenate([m.atom_locations for _, m in self.components])
        masses = np.concatenate([w * m.atom_masses for w, m in self.components])
        order = np.argsort(locs)
        self.atom_locations = locs[order]
        self.atom_masses = masses[order]
        uppers = [m.upper for _, m in self.components if m.has_ac_part]
        self.upper = max(uppers) if uppers else 0.0
        self.density_decreasing = all(m.density_decreasing for _, m in self.components
                                      if m.has_ac_part)
        self.validate()

    def density(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for w, m in self.components:
            if m.has_ac_part:
                out = out + w * m.density(z)
        return out

    @property
    def has_ac_part(self):
        return any(m.has_ac_part for _, m in self.components)

    def _moment(self, k, lo, hi):
        return sum(w * m._moment(k, lo, hi) for w, m in self.components)

    def _ac_tail(self, r):
        return sum(w * m._ac_tail(r) for w, m in self.components if m.has_ac_part)

    def quantile_above(self, eps, u):
        # split the uniform across components by their tail weight
        tails = np.array([w * m.tail_mass(eps) for w, m in self.components])
        total = tails.sum()
        if total <= 0:
            raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
        edges = np.concatenate(([0.0], np.cumsum(tails) / total))
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        for i, (_, m) in enumerate(self.components):
            lo, hi = edges[i], edges[i + 1]
            if hi <= lo:
                continue
            sel = (u >= lo) & (u < hi) if i < len(self.components) - 1 else (u >= lo)
            if np.any(sel):
                out[sel] = m.quantile_above(eps, (u[sel] - lo) / (hi - lo))
        return out
