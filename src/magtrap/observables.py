"""Densities, probability currents and velocities of radial eigenstates.

A sector eigenstate psi(rho, phi) = chi(rho) exp(i m phi) / sqrt(rho) is
normalized over the plane, which fixes int_0^inf chi^2 drho = 1/(2 pi).
The gauge-invariant (kinetic) current of such a state is purely azimuthal,

    J(rho) = (m / rho - nu rho / 2) |psi(rho)|^2,   |psi|^2 = chi^2 / rho,

in units sqrt(mu omega_t / hbar) * omega_t; the two terms are the canonical
circulation and the diamagnetic drag of the vector potential.  Integrating
J over the plane gives the azimuthal velocity expectation

    <v_phi> = 2 pi int_0^inf (m / rho - nu rho / 2) chi^2 drho
            = <m / rho> - (nu / 2) <rho>

in units sqrt(hbar omega_t / mu).  For m = 0 this is -(nu/2)<rho> < 0: the
drag term always wins, and jumps of the ground-state velocity along a field
sweep mark the m -> m + 1 ground-state crossings.

A state is one column y of a solver solution's vectors, its eigenvector
in the orthonormal basis phi_k: chi = sum_k y_k phi_k / sqrt(2 pi), summed
by the basis recurrence, and <rho^p> = y^T M_p y is an exact quadratic form
for p = -1, 1, 2: M_-1 is the Coulomb block, M_1 the truncated Jacobi
matrix of the basis recurrence and M_2 twice the trap block, all cached
with the basis.  These are the only moments on offer, and they are all the
observables need: velocity_expectation, CurrentField.plane_integral and the
mean radius of density_profile are built from them, so no observable
runs quadrature.  The density peak of density_profile is the root of
chi', summed by the derivative recurrence of the basis
(RadialBasis._density_slope), so none runs an optimizer either.

rho_max, the outer end of the default sampling grids, lies 1 past where
chi^2 falls to 1e-16 of its largest sample, interpolated between samples.
The samples are the state's own chi, summed once when the state is built
on a grid fixed by the basis (RadialBasis._sampling_grid), fine enough to
see every lobe of chi, including the ripples at 1e-15 of the peak that a
basis too wide for its state leaves in the tail.  rho_max is a sampling
range, so building a state runs no root search.

A state is built once per eigenvector and shared: from_solution returns
the state already built for a vector of the same values in the same basis,
from a bounded cache, and that state keeps its default density profile
once asked for it.  So a state, and the kept profile with its read-only
arrays, are to be treated as immutable.  The moments read a contiguous
copy of the vector, so a state depends on its values alone, however they
are stored.  current_vector_field builds the geometry of its square grid
once per (half_extent, n).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .params import TrapParams
from .radial import (
    DEFAULT_BASIS_SIZE,
    DEFAULT_M_RANGE,
    RadialEigenSolution,
    _illinois_root,
    ground_state_scan,
)

__all__ = [
    "RadialWavefunction",
    "CurrentField",
    "DensityProfile",
    "current_density",
    "current_vector_field",
    "velocity_expectation",
    "ground_velocity_sweep",
    "density_profile",
]

# target normalization of the radial factor, 1/(2 pi)
_CHI_NORM = 1.0 / (2.0 * np.pi)

# a state ends where chi^2 falls below this share of its largest sample;
# rho_max lies one unit further out
_TAIL_SHARE = 1e-16
# stands in for a chi^2 that underflows to zero in a logarithm
_TINY = 5e-324


class RadialWavefunction:
    """Radial factor chi(rho) of one sector eigenstate, plane-normalized.

    Build it with from_solution, which takes the state's eigenvector in the
    solver's orthonormal basis and also carries its exact moments.  The
    constructor accepts any callable chi, but such a state has no moments:
    radial_moment, and with it velocity_expectation and density_profile,
    raise ValueError for it.
    """

    def __init__(self, m: int, chi, rho_max: float):
        self.m = int(m)
        self._chi = chi
        self.rho_max = float(rho_max)
        # <rho^p> known exactly, by power, and a callable rho -> a value
        # with the sign of d(chi^2)/drho; both filled only by from_solution
        self._moments: dict[int, float] = {}
        self._density_slope = None
        # density_profile on the default grid, kept by its first call
        self._profile = None

    @classmethod
    def from_solution(cls, solution: RadialEigenSolution,
                      level: int = 0) -> "RadialWavefunction":
        """State `level` of a solution, 0 the lowest, in [0, K).

        Built once per eigenvector: a vector of the same values, in the
        same basis, returns the very same state, whatever its dtype or
        memory layout; it is shared, and so to be treated as immutable.
        The 64 most recently used states are kept.
        """
        size = solution.vectors.shape[1]
        if not 0 <= level < size:
            raise ValueError(f"level {level} is outside the valid range "
                             f"[0, {size}) of a K = {size} solution")
        column = np.asarray(solution.vectors[:, level], dtype=float)
        return _state(cls, solution.m, solution.basis, column.tobytes())

    def chi(self, rho):
        """Radial factor chi(rho)."""
        return self._chi(rho)

    def density(self, rho):
        """Radial probability density 2 pi chi^2 (integrates to 1)."""
        return 2.0 * np.pi * np.asarray(self._chi(rho)) ** 2

    def psi_squared(self, rho):
        """Planar probability density |psi|^2 = chi^2 / rho."""
        rho_arr = np.asarray(rho, dtype=float)
        if np.any(rho_arr <= 0):
            raise ValueError("rho must be strictly positive")
        return np.asarray(self._chi(rho)) ** 2 / rho_arr

    def radial_moment(self, power: int) -> float:
        """<rho^power> = 2 pi int rho^power chi^2 drho, for power -1, 1, 2.

        The exact quadratic form of RadialBasis.radial_moments.  Any other
        power, or a state not built by from_solution, raises ValueError.
        """
        if power not in self._moments:
            raise ValueError(
                f"<rho^{power}> is not available: exact moments exist for "
                f"powers -1, 1, 2 of a state built by from_solution")
        return self._moments[power]


@functools.lru_cache(maxsize=64)
def _state(cls, m: int, basis, vector: bytes) -> RadialWavefunction:
    """The state of one eigenvector of a basis, built on its first call.

    vector is the eigenvector's float64 bytes, the key of the cache.
    """
    y = np.frombuffer(vector)
    # orthonormal eigenvector => int chi^2 = 1; rescale to 1/(2 pi)
    weights = y * np.sqrt(_CHI_NORM)
    chi = basis.expansion(weights)
    rho = basis._sampling_grid()
    wf = cls(m, chi, _tail_radius(rho, chi(rho)) + 1.0)
    wf._moments = basis.radial_moments(y)
    wf._density_slope = basis._density_slope(weights)
    return wf


def _tail_radius(rho, chi) -> float:
    """Where chi^2 falls to 1e-16 of its largest sample, between samples.

    rho_max lies 1 past it.  chi is the state's own chi summed on the
    basis's sampling grid rho (RadialBasis._sampling_grid), which sees
    every lobe of chi.  The floor is 1e-16 of the largest chi^2 among
    them, and the crossing is interpolated linearly in log chi^2 between
    the outermost sample above the floor and the next one: no search, and
    no chi beyond the samples.
    """
    dens = chi * chi
    floor = _TAIL_SHARE * float(dens.max())
    # sample j + 1 exists: the grid runs past where every phi_k has decayed
    j = int(np.flatnonzero(dens > floor)[-1])
    above, below = (math.log(d or _TINY) for d in dens[j:j + 2].tolist())
    share = (above - math.log(floor)) / (above - below)
    return float(rho[j] + share * (rho[j + 1] - rho[j]))


@dataclass(frozen=True)
class CurrentField:
    """Sampled azimuthal current profile J(rho) of one eigenstate.

    The radial component vanishes identically for stationary sector states;
    J carries the unit sqrt(mu omega_t / hbar) * omega_t.
    """

    rho: np.ndarray
    J: np.ndarray
    wavefunction: RadialWavefunction = field(repr=False)
    params: TrapParams = field(repr=False)

    def plane_integral(self) -> float:
        """int J d^2rho = 2 pi int J(rho) rho drho, the velocity expectation.

        Not a sum over the sampled grid: it is velocity_expectation of the
        same state, equal by construction, m <1/rho> - (nu/2) <rho> from the
        exact quadratic forms of its eigenvector.
        """
        return velocity_expectation(self.wavefunction, self.params)


def current_density(wf: RadialWavefunction, tp: TrapParams,
                    rho_grid: np.ndarray) -> CurrentField:
    """Azimuthal current J(rho) = (m/rho - nu rho/2) chi^2 / rho on a grid.

    For m > 0 and nu > 0 the canonical and diamagnetic terms compete and J
    changes sign exactly once, at rho = sqrt(2 m / nu), independent of b.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if np.any(rho <= 0):
        raise ValueError("rho grid must be strictly positive")
    dens = wf.psi_squared(rho)
    J = (wf.m / rho - 0.5 * tp.nu * rho) * dens
    return CurrentField(rho=rho, J=J, wavefunction=wf, params=tp)


def current_vector_field(wf: RadialWavefunction, tp: TrapParams,
                         half_extent: float, n: int):
    """Cartesian components of the current on a square grid.

    Returns (x, y, Jx, Jy) with Jx = -sin(phi) J, Jy = cos(phi) J; the
    reconstructed field is divergence-free because J is purely azimuthal
    and axisymmetric.  Grid points at the exact origin get J = 0 (the
    current vanishes there for |m| >= 1 states).  chi is summed once per
    distinct radius of the grid: 925 of the 4096 points at n = 64 and
    half_extent = 6.  The grid's geometry is built once per
    (half_extent, n) and kept read-only (the last 4 grids); the four
    returned arrays are the caller's own.
    """
    x, y, safe, radii, where, ex, ey = _field_grid(half_extent, n)
    jx = np.zeros_like(x)
    jy = np.zeros_like(x)
    # J depends on rho alone: sum chi once per distinct radius, then gather
    j_phi = current_density(wf, tp, radii).J[where]
    jx[safe] = ex * j_phi
    jy[safe] = ey * j_phi
    return x.copy(), y.copy(), jx, jy


@functools.lru_cache(maxsize=4)
def _field_grid(half_extent: float, n: int):
    """Read-only geometry of current_vector_field's square grid.

    (x, y, safe, radii, where, ex, ey): the meshes, the mask of the points
    off the origin, their distinct radii with the index that gathers them
    back, and the unit vector (ex, ey) = (-y, x) / rho at each of them.
    """
    axis = np.linspace(-half_extent, half_extent, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    rho = np.hypot(x, y)
    safe = rho > 0
    r = rho[safe]
    radii, where = np.unique(r, return_inverse=True)
    geometry = (x, y, safe, radii, where, -y[safe] / r, x[safe] / r)
    for array in geometry:
        array.flags.writeable = False
    return geometry


def velocity_expectation(wf: RadialWavefunction, tp: TrapParams) -> float:
    """<v_phi> = m <1/rho> - (nu/2) <rho>, in units sqrt(hbar omega_t / mu)."""
    return _velocity(wf.m, wf.radial_moment(-1), wf.radial_moment(1), tp.nu)


def _velocity(m: int, inverse_rho: float, rho: float, nu: float) -> float:
    """m <1/rho> - (nu/2) <rho> from the two moments."""
    canonical = m * inverse_rho if m != 0 else 0.0
    return canonical - 0.5 * nu * rho


@dataclass(frozen=True)
class DensityProfile:
    """Radial probability density 2 pi chi^2 with its low moments."""

    rho: np.ndarray
    density: np.ndarray
    mean_rho: float
    rho_peak: float

    def integral(self) -> float:
        """Trapezoid integral of the sampled profile (should be ~1)."""
        return float(np.trapezoid(self.density, self.rho))


def density_profile(wf: RadialWavefunction,
                    rho_grid: np.ndarray | None = None) -> DensityProfile:
    """Sample 2 pi chi^2 and report <rho> and the density peak position.

    The peak is where d(chi^2)/drho turns from rising to falling within two
    samples of the best grid sample, found to 1e-10 by an Illinois search;
    where it does not turn, as when the grid misses the peak, it is the
    higher end of that bracket.  In the strong-coupling ring regime the
    peak approaches the classical minimum of the effective potential.

    Without a grid the profile is sampled at 4000 points on
    [1e-3, rho_max], once per state: the state keeps it, with read-only
    arrays, and every later call returns that same profile.  A profile
    on a caller's grid is computed afresh on every call.
    """
    if rho_grid is not None:
        return _sampled_profile(wf, rho_grid)
    if wf._profile is None:
        profile = _sampled_profile(wf, np.linspace(1e-3, wf.rho_max, 4000))
        profile.rho.flags.writeable = False
        profile.density.flags.writeable = False
        wf._profile = profile
    return wf._profile


def _sampled_profile(wf: RadialWavefunction, rho_grid) -> DensityProfile:
    rho = np.asarray(rho_grid, dtype=float)
    dens = wf.density(rho)
    mean_rho = wf.radial_moment(1)

    i_best = int(np.argmax(dens))
    i_lo, i_hi = max(i_best - 2, 0), min(i_best + 2, len(rho) - 1)
    lo, hi = float(rho[i_lo]), float(rho[i_hi])

    slope = wf._density_slope
    f_lo, f_hi = slope(lo), slope(hi)
    if f_lo > 0.0 > f_hi:
        peak, _ = _illinois_root(slope, lo, hi, f_lo, f_hi, xtol=1e-10)
    else:
        peak = lo if dens[i_lo] >= dens[i_hi] else hi
    return DensityProfile(rho=rho, density=dens, mean_rho=mean_rho,
                          rho_peak=peak)


def ground_velocity_sweep(b: float, nu_values,
                          size: int = DEFAULT_BASIS_SIZE,
                          m_range: tuple[int, int] = DEFAULT_M_RANGE,
                          workers: int = 1):
    """Ground-state velocity along a field sweep at fixed b.

    For each nu the ground sector is found by scanning m_range; rows are
    (nu, m_star, energy, velocity) in ascending nu order.  It builds no
    state: the velocity is velocity_expectation's, from the two moments
    of the ground eigenvector (RadialBasis.radial_moments), bit for bit.
    workers is accepted for compatibility and ignored: a sector scan takes
    a few milliseconds, and a thread pool made sweeps several times slower.
    """
    rows = []
    for nu in sorted({float(nu) for nu in nu_values}):
        rec = ground_state_scan(TrapParams(nu=nu, b=b), m_range=m_range,
                                size=size)
        sol = rec.solution
        moments = sol.basis.radial_moments(sol.vectors[:, 0])
        rows.append((nu, rec.m_star, rec.energy,
                     _velocity(sol.m, moments[-1], moments[1], nu)))
    return rows
