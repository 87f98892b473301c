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
runs quadrature.  The density peak is the root of chi', summed by the
derivative recurrence of the basis (RadialBasis._density_slope), so none
runs an optimizer either.  rho_max, the outer end of the default sampling
grids, is where chi^2 falls below 1e-16 of its peak.
"""

from __future__ import annotations

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
        # <rho^p> known exactly, by power, and a callable with the sign of
        # d(chi^2)/drho; both filled only by from_solution
        self._moments: dict[int, float] = {}
        self._slope = None

    @classmethod
    def from_solution(cls, solution: RadialEigenSolution,
                      level: int = 0) -> "RadialWavefunction":
        """State `level` of a solution, 0 the lowest, in [0, K)."""
        size = solution.vectors.shape[1]
        if not 0 <= level < size:
            raise ValueError(f"level {level} is outside the valid range "
                             f"[0, {size}) of a K = {size} solution")
        # orthonormal eigenvector => int chi^2 = 1; rescale to 1/(2 pi)
        y = solution.vectors[:, level]
        chi = solution.basis.expansion(y * np.sqrt(_CHI_NORM))

        # outermost radius where the state still carries weight; beyond the
        # classical turning point chi decays like a Gaussian
        grid = np.linspace(0.05, 60.0, 1200)
        vals = chi(grid) ** 2
        above = np.nonzero(vals > 1e-16 * vals.max())[0]
        rho_max = grid[above[-1]] + 1.0
        wf = cls(solution.m, chi, rho_max)
        wf._moments = solution.basis.radial_moments(y)
        wf._slope = solution.basis._density_slope(y)
        return wf

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
    current vanishes there for |m| >= 1 states).
    """
    axis = np.linspace(-half_extent, half_extent, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    rho = np.hypot(x, y)
    safe = rho > 0
    jx = np.zeros_like(rho)
    jy = np.zeros_like(rho)
    r = rho[safe]
    dens = wf.psi_squared(r)
    j_phi = (wf.m / r - 0.5 * tp.nu * r) * dens
    jx[safe] = -y[safe] / r * j_phi
    jy[safe] = x[safe] / r * j_phi
    return x, y, jx, jy


def velocity_expectation(wf: RadialWavefunction, tp: TrapParams) -> float:
    """<v_phi> = m <1/rho> - (nu/2) <rho>, in units sqrt(hbar omega_t / mu)."""
    canonical = wf.m * wf.radial_moment(-1) if wf.m != 0 else 0.0
    return canonical - 0.5 * tp.nu * wf.radial_moment(1)


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
    """
    if rho_grid is None:
        rho_grid = np.linspace(1e-3, wf.rho_max, 4000)
    rho = np.asarray(rho_grid, dtype=float)
    dens = wf.density(rho)
    mean_rho = wf.radial_moment(1)

    i_best = int(np.argmax(dens))
    i_lo, i_hi = max(i_best - 2, 0), min(i_best + 2, len(rho) - 1)
    lo, hi = float(rho[i_lo]), float(rho[i_hi])
    f_lo, f_hi = wf._slope(lo), wf._slope(hi)
    if f_lo > 0.0 > f_hi:
        peak, _ = _illinois_root(wf._slope, lo, hi, f_lo, f_hi, xtol=1e-10)
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
    (nu, m_star, energy, velocity) in ascending nu order.  workers is
    accepted for compatibility and ignored: a sector scan takes a few
    milliseconds, and a thread pool made sweeps several times slower.
    """
    rows = []
    for nu in sorted({float(nu) for nu in nu_values}):
        tp = TrapParams(nu=nu, b=b)
        rec = ground_state_scan(tp, m_range=m_range, size=size)
        wf = RadialWavefunction.from_solution(rec.solution)
        rows.append((nu, rec.m_star, rec.energy, velocity_expectation(wf, tp)))
    return rows
