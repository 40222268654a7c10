"""SDE coefficients and jump measures.

The process of interest is the nonnegative solution of

    dX = gamma0(X) dt + sqrt(gamma1(X)) dB
         + (compensated jumps of size z at rate gamma2(X) nu(dz)).

This module holds the coefficient triple, the jump measure ``nu`` in
absolutely-continuous / atomic / mixture form, and the measure-level queries
the coupling construction needs: tail masses, truncated moments, the overlap
measure ``mu_x = nu ^ (delta_x * nu)`` and its density ratio ``rho(x, z)``,
and restricted jump sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NoJumpError, ValidationError
from .quad import DEFAULT_QUAD, integrate_interval

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
    """

    gamma0: Callable
    gamma1: Optional[Callable]
    gamma2: Callable
    gamma2_nondecreasing: bool = True
    gamma1_vanishes_at_zero: bool = True
    gamma2_vanishes_at_zero: bool = True
    name: str = ""

    def __post_init__(self):
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
        if self.gamma2_nondecreasing:
            scale = 1.0 + np.max(np.abs(g2))
            if np.any(np.diff(g2) < -1e-9 * scale):
                raise ValidationError("gamma2 must be non-decreasing on the validation grid")

    @property
    def has_diffusion(self):
        return self.gamma1 is not _no_diffusion

    def sigma(self, x):
        """Diffusion amplitude sqrt(gamma1(x))."""
        return np.sqrt(np.maximum(self.gamma1(x), 0.0))


def cir_coefficients(b, c, d, diffusion="sqrt2c"):
    """Cox-Ingersoll-Ross drift d - b x with vanishing jump part.

    ``diffusion`` selects gamma1(x) = sqrt(2c) x (the form used alongside the
    hitting-time formula) or the conventional gamma1(x) = 2 c x.  Both give
    the same mean ODE dE[X]/dt = d - b E[X]; the discrepancy between the two
    parameterizations is deliberately left visible here.
    """
    if b <= 0 or c <= 0 or d <= 0:
        raise DomainError("CIR parameters b, c, d must be positive")
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
    )


def logistic_coefficients(b1, b2, c1=0.0, c2=1.0):
    """Logistic branching coefficients gamma0 = b1 x - b2 x^2, gamma_i = c_i x."""
    if b1 <= 0 or b2 <= 0 or c1 < 0 or c2 < 0:
        raise DomainError("logistic parameters must be positive (c1, c2 nonnegative)")
    return CoefficientSet(
        gamma0=lambda x: b1 * np.asarray(x, dtype=float) - b2 * np.asarray(x, dtype=float) ** 2,
        gamma1=None if c1 == 0 else (lambda x: c1 * np.asarray(x, dtype=float)),
        gamma2=lambda x: c2 * np.asarray(x, dtype=float),
        name=f"logistic(b1={b1},b2={b2},c1={c1},c2={c2})",
    )


# ---------------------------------------------------------------------------
# jump measures


@dataclass(frozen=True)
class OverlapMeasure:
    """mu_x = nu ^ (delta_x * nu), kept as a density ratio against nu.

    ``mass`` may be math.inf (x = 0 with an infinite-activity measure);
    infinite mass is always represented by the dedicated infinite value.
    """

    parent: "LevyMeasure"
    shift: float
    rho: Callable
    mass: float


class LevyMeasure:
    """Base class: a sigma-finite measure on (0, oo) with finite (z ^ z^2) moment.

    Subclasses describe the absolutely-continuous part through ``density`` /
    ``upper`` / ``density_decreasing`` and the atomic part through
    ``atom_locations`` / ``atom_masses``.
    """

    name = "levy"
    upper = math.inf            # supremum of the AC support (inf allowed)
    density_decreasing = False  # AC density nonincreasing on its support
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

    @property
    def has_infinite_mass(self):
        return False

    def validate(self):
        m = self.trunc_second_moment(1.0) + self.mean_above(1.0)
        if not np.isfinite(m):
            raise ValidationError("measure violates the (z ^ z^2) moment condition")

    # -- mass and moment queries ------------------------------------------

    def tail_mass(self, r):
        """nu((r, oo))."""
        if r <= 0:
            raise DomainError("tail mass requires r > 0")
        total = float(np.sum(self.atom_masses[self.atom_locations > r]))
        if self.has_ac_part and r < self.upper:
            total += integrate_interval(lambda z: self.density(z), r, self.upper,
                                        self.quad)
        return total

    def trunc_second_moment(self, r):
        """Integral of z^2 nu(dz) over (0, r]."""
        if r <= 0:
            raise DomainError("truncated second moment requires r > 0")
        sel = self.atom_locations <= r * (1.0 + 1e-15)
        total = float(np.sum(self.atom_masses[sel] * self.atom_locations[sel] ** 2))
        if self.has_ac_part:
            total += integrate_interval(lambda z: z * z * self.density(z),
                                        0.0, min(r, self.upper), self.quad)
        if not np.isfinite(total) or total < 0:
            # adaptive extrapolation can return a finite-part value for a
            # divergent singular integrand; a negative "moment" exposes it
            raise ValidationError("divergent truncated second moment")
        return total

    def mean_above(self, r):
        """Integral of z nu(dz) over (r, oo); the compensator rate above a cutoff."""
        if r <= 0:
            raise DomainError("mean_above requires r > 0")
        total = float(np.sum(self.atom_masses[self.atom_locations > r]
                             * self.atom_locations[self.atom_locations > r]))
        if self.has_ac_part and r < self.upper:
            total += integrate_interval(lambda z: z * self.density(z), r, self.upper,
                                        self.quad)
        return total

    # -- overlap ----------------------------------------------------------

    def rho(self, x, z):
        """Density ratio d(mu_x)/d(nu) evaluated at z, vectorized in both.

        rho(0, z) = 1 by convention.
        """
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        x, z = np.broadcast_arrays(x, z)
        out = np.zeros(x.shape, dtype=float)
        zero = x == 0.0
        out[zero] = 1.0
        rest = ~zero
        if np.any(rest):
            out[rest] = self._rho_nonzero(x[rest], z[rest])
        return out if out.shape else float(out)

    def _rho_nonzero(self, x, z):
        out = np.zeros_like(z)
        if self.has_ac_part:
            nz = self.density(z)
            shifted = z - x
            ns = np.where(shifted > 0, self.density(np.maximum(shifted, 1e-300)), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.where(nz > 0, np.minimum(nz, ns) / np.where(nz > 0, nz, 1.0), 0.0)
            out = np.maximum(out, r)
        if self.atom_locations.size:
            out = np.maximum(out, self._rho_atomic(x, z))
        return np.clip(out, 0.0, 1.0)

    def _atom_mass_at(self, z):
        locs, masses = self.atom_locations, self.atom_masses
        z = np.asarray(z, dtype=float)
        idx = np.searchsorted(locs, z)
        out = np.zeros_like(z)
        for shiftv in (0, -1):
            j = np.clip(idx + shiftv, 0, locs.size - 1)
            hit = np.abs(locs[j] - z) <= _ATOM_RTOL * np.maximum(np.abs(z), locs[j])
            out = np.where(hit & (out == 0.0), masses[j], out)
        return out

    def _rho_atomic(self, x, z):
        mz = self._atom_mass_at(z)
        shifted = z - x
        ms = np.where(shifted > 0, self._atom_mass_at(np.abs(shifted)), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(mz > 0, np.minimum(mz, ms) / np.where(mz > 0, mz, 1.0), 0.0)

    def overlap_mass(self, x):
        """Total mass of mu_x; math.inf when x = 0 and nu is infinite."""
        x = abs(float(x))
        if x == 0.0:
            if self.has_infinite_mass:
                return math.inf
            total = float(np.sum(self.atom_masses))
            if self.has_ac_part:
                total += self.tail_mass(self.upper * 1e-16) if self.upper < math.inf \
                    else integrate_interval(self.density, 0.0, math.inf, self.quad)
            return total
        total = 0.0
        if self.atom_locations.size:
            shifted = self.atom_locations + x
            m_at = self._atom_mass_at(shifted)
            total += float(np.sum(np.minimum(self.atom_masses, m_at)[m_at > 0]))
        if self.has_ac_part:
            if self.density_decreasing:
                # min(n(z), n(z - x)) = n(z) on (x, upper]
                total += self.tail_mass(x) if x < self.upper else 0.0
            else:
                hi = self.upper + x if np.isfinite(self.upper) else math.inf
                # the density vanishes off its support, so below the shift too
                fn = lambda z: np.minimum(self.density(z), self.density(z - x))
                total += integrate_interval(fn, x, hi, self.quad,
                                            points=(self.upper,) if np.isfinite(self.upper) else ())
        return total

    def overlap(self, x):
        x = float(x)
        mass = self.overlap_mass(x)
        return OverlapMeasure(parent=self, shift=x,
                              rho=lambda z, _x=x: self.rho(_x, z), mass=mass)

    # -- sampling ---------------------------------------------------------

    def quantile_above(self, eps, u):
        """Inverse CDF of nu restricted to (eps, oo) and normalized; raises
        NoJumpError when nu((eps, oo)) = 0."""
        raise NotImplementedError


class AbsolutelyContinuousMeasure(LevyMeasure):
    """nu(dz) = n(z) dz on (0, upper]."""

    def __init__(self, density, upper=math.inf, decreasing=False,
                 infinite_mass=None, name="ac"):
        self._density = _as_vectorized(density)
        self.upper = float(upper)
        self.density_decreasing = bool(decreasing)
        self.name = name
        if infinite_mass is None:
            # probe: total mass diverges iff the density is non-integrable at 0
            try:
                integrate_interval(self._density, 0.0, min(1.0, self.upper), self.quad)
                infinite_mass = False
            except Exception:
                infinite_mass = True
        self._infinite_mass = bool(infinite_mass)
        self._inv_cdf_cache = {}
        self.validate()

    def density(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z > 0) & (z <= self.upper)
        out = np.zeros_like(z)
        if np.any(inside):
            # singular densities overflow harmlessly just above 0
            with np.errstate(over="ignore", divide="ignore"):
                out[inside] = self._density(z[inside])
        return out

    @property
    def has_ac_part(self):
        return True

    @property
    def has_infinite_mass(self):
        return self._infinite_mass

    def quantile_above(self, eps, u):
        key = float(eps)
        if key not in self._inv_cdf_cache:
            hi = self.upper if np.isfinite(self.upper) else max(10.0, 10.0 * eps)
            while not np.isfinite(self.upper) and self.tail_mass(hi) > 1e-12 * self.tail_mass(eps):
                hi *= 4.0
            zs = np.linspace(eps, hi, 4097)
            dens = self.density(zs)
            cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(zs))))
            if not cdf[-1] > 0.0:
                raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
            cdf /= cdf[-1]
            self._inv_cdf_cache[key] = (zs, cdf)
        zs, cdf = self._inv_cdf_cache[key]
        return np.interp(u, cdf, zs)


class StableTruncatedMeasure(AbsolutelyContinuousMeasure):
    """nu(dz) = c0 z^(-1-alpha) 1{0 < z <= zmax} dz, with closed forms."""

    def __init__(self, alpha, c0=1.0, zmax=1.0):
        if not 0.0 < alpha < 2.0:
            raise DomainError("stable index alpha must lie in (0, 2)")
        if c0 <= 0 or zmax <= 0:
            raise DomainError("c0 and zmax must be positive")
        self.alpha = float(alpha)
        self.c0 = float(c0)
        super().__init__(lambda z: c0 * np.asarray(z, dtype=float) ** (-1.0 - alpha),
                         upper=zmax, decreasing=True, infinite_mass=True,
                         name=f"stable_truncated(alpha={alpha},c0={c0},zmax={zmax})")

    def validate(self):
        pass  # moments are finite in closed form

    def tail_mass(self, r):
        if r <= 0:
            raise DomainError("tail mass requires r > 0")
        if r >= self.upper:
            return 0.0
        a = self.alpha
        return self.c0 * (r ** -a - self.upper ** -a) / a

    def trunc_second_moment(self, r):
        if r <= 0:
            raise DomainError("truncated second moment requires r > 0")
        r = min(r, self.upper)
        a = self.alpha
        return self.c0 * r ** (2.0 - a) / (2.0 - a)

    def mean_above(self, r):
        if r <= 0:
            raise DomainError("mean_above requires r > 0")
        if r >= self.upper:
            return 0.0
        a = self.alpha
        if a == 1.0:
            return self.c0 * math.log(self.upper / r)
        return self.c0 * (r ** (1.0 - a) - self.upper ** (1.0 - a)) / (a - 1.0)

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
        if np.any(locations <= 0) or np.any(masses <= 0):
            raise ValidationError("atom locations and masses must be strictly positive")
        order = np.argsort(locations)
        self.atom_locations = locations[order]
        self.atom_masses = masses[order]
        self.name = name
        self.validate()

    def quantile_above(self, eps, u):
        sel = self.atom_locations > eps
        locs, masses = self.atom_locations[sel], self.atom_masses[sel]
        if not locs.size:
            raise NoJumpError(f"nu((eps, oo)) = 0 for eps = {eps}")
        cum = np.cumsum(masses)
        idx = np.searchsorted(cum / cum[-1], np.asarray(u), side="right")
        return locs[np.clip(idx, 0, locs.size - 1)]


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

    @property
    def has_infinite_mass(self):
        return any(m.has_infinite_mass for _, m in self.components)

    def tail_mass(self, r):
        if r <= 0:
            raise DomainError("tail mass requires r > 0")
        return sum(w * m.tail_mass(r) for w, m in self.components)

    def trunc_second_moment(self, r):
        if r <= 0:
            raise DomainError("truncated second moment requires r > 0")
        return sum(w * m.trunc_second_moment(r) for w, m in self.components)

    def mean_above(self, r):
        if r <= 0:
            raise DomainError("mean_above requires r > 0")
        return sum(w * m.mean_above(r) for w, m in self.components)

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
