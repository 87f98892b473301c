"""Parameterization of a trapped charge in a homogeneous magnetic field.

Two identically charged particles in a harmonic trap with an axial magnetic
field separate into center-of-mass and relative motion.  The relative motion
is a single particle of reduced mass mu in the plane perpendicular to the
field, with a repulsive Coulomb core.  Everything in this package works in
the natural units of that reduced problem:

    length      sqrt(hbar / (mu * omega_t))
    energy      hbar * omega_t
    time        1 / omega_t          (dimensionless time tau = omega_t * t)
    velocity    sqrt(hbar * omega_t / mu)
    current     sqrt(mu * omega_t / hbar) * omega_t

where omega_t is the trap frequency.  Two dimensionless numbers then fix the
physics completely:

    nu = omega_c / omega_t          field strength, omega_c = |q| B_z / mu
    b  = (k q^2 / hbar) * sqrt(mu / (hbar * omega_t))    Coulomb strength

with k = 1 / (4 pi eps0).  nu is stored non-negative; the orientation of the
field is tracked separately as a sign, and flipping the orientation is
equivalent to flipping the sign of the angular momentum quantum number m in
every formula (nu, m) -> (nu, -m).

The radial problem in the m sector, after substituting
psi = chi(rho) exp(i m phi) / sqrt(rho), is governed by the effective
potential (energies in units of hbar * omega_t, h = (1/2)(-d^2/drho^2 + V))

    V(rho) = -m nu + (1 + nu^2/4) rho^2 + (m^2 - 1/4) / rho^2 + 2 b / rho

Note the exact -1/4 in the centrifugal term: for m = 0 it makes V plunge to
-infinity at the origin even though the spectrum is perfectly bounded; the
quantum problem sits exactly at the critical inverse-square coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COULOMB_K",
    "PhysicalParams",
    "QuantumNumbers",
    "TrapParams",
    "effective_potential",
    "effective_potential_minimum",
    "fock_darwin_energy",
    "from_physical",
]

# vacuum permittivity eps0, F/m (CODATA 2022)
_EPSILON_0 = 8.8541878188e-12

# Coulomb constant k = 1/(4 pi eps0), SI units (kg m^3 s^-2 C^-2)
COULOMB_K = 1.0 / (4.0 * math.pi * _EPSILON_0)

# reduced Planck constant h / 2 pi, J s; h is exact in the 2019 SI
HBAR = 6.62607015e-34 / (2.0 * math.pi)


@dataclass(frozen=True)
class PhysicalParams:
    """Laboratory-frame inputs for the relative-motion problem.

    reduced_mass        kg, mu = m/2 for two equal masses m
    charge              C, charge of each particle (nonzero)
    trap_frequency      rad/s, omega_t > 0
    magnetic_induction  T, axial component B_z (any sign)
    """

    reduced_mass: float
    charge: float
    trap_frequency: float
    magnetic_induction: float

    def __post_init__(self) -> None:
        vals = (self.reduced_mass, self.charge, self.trap_frequency,
                self.magnetic_induction)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("physical parameters must be finite")
        if self.reduced_mass <= 0:
            raise ValueError("reduced_mass must be positive")
        if self.trap_frequency <= 0:
            raise ValueError("trap_frequency must be positive")
        if self.charge == 0:
            raise ValueError("charge must be nonzero")


@dataclass(frozen=True)
class TrapParams:
    """Dimensionless control parameters of the reduced problem.

    nu          ratio omega_c / omega_t, canonical orientation nu >= 0:
                E(-nu, m) = E(nu, -m), so a reversed field is |nu| with m
                mirrored (or from_signed)
    b           Coulomb coupling, b >= 0 (identical charges repel)
    field_sign  +1 or -1, orientation of q * B_z.  For field_sign = -1 a
                physical state with angular momentum m corresponds to the
                canonical calculation at -m.
    """

    nu: float
    b: float = 0.0
    field_sign: int = +1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and math.isfinite(self.b)):
            raise ValueError("nu and b must be finite")
        if self.nu < 0:
            raise ValueError(
                f"nu = {self.nu:g} is negative: energies obey E(-nu, m) = "
                f"E(nu, -m), so pass |nu| and mirror m, or canonicalize a "
                f"signed field with TrapParams.from_signed")
        if self.b < 0:
            raise ValueError("b must be non-negative (repulsive core)")
        if self.field_sign not in (+1, -1):
            raise ValueError("field_sign must be +1 or -1")

    @classmethod
    def from_signed(cls, nu: float, b: float = 0.0) -> "TrapParams":
        """Canonicalize a signed field ratio into (nu >= 0, field_sign)."""
        sign = -1 if nu < 0 else +1
        return cls(nu=abs(nu), b=b, field_sign=sign)

    @property
    def b_prime(self) -> float:
        """Coulomb coefficient 2b of the radial equation."""
        return 2.0 * self.b

    @property
    def gauss_width(self) -> float:
        """Oscillator stiffness a = sqrt(1 + nu^2/4) of the b = 0 problem."""
        return math.sqrt(1.0 + 0.25 * self.nu * self.nu)


@dataclass(frozen=True)
class QuantumNumbers:
    """Angular momentum m (any integer) and radial excitation n >= 0."""

    m: int
    n: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)):
            raise ValueError("m must be an integer")
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError("n must be a non-negative integer")


def from_physical(p: PhysicalParams) -> TrapParams:
    """Convert laboratory parameters to the dimensionless pair (nu, b).

    Uses the reduced mass throughout: the cyclotron frequency is
    omega_c = |q| B_z / mu and the length unit is sqrt(hbar / (mu omega_t)).
    The sign of q * B_z is recorded as field_sign.
    """
    mu = p.reduced_mass
    omega_c = p.charge * p.magnetic_induction / mu
    nu = abs(omega_c) / p.trap_frequency
    b = (COULOMB_K * p.charge ** 2 / HBAR) * math.sqrt(
        mu / (HBAR * p.trap_frequency))
    sign = -1 if omega_c < 0 else +1
    return TrapParams(nu=nu, b=b, field_sign=sign)


def effective_potential(tp: TrapParams, m: int, rho):
    """Radial effective potential V(rho) of the m sector, in hbar*omega_t.

    V(rho) = -m nu + (1 + nu^2/4) rho^2 + (m^2 - 1/4)/rho^2 + 2b/rho

    rho may be a scalar or array; all entries must be strictly positive.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0):
        raise ValueError("rho must be strictly positive (V is singular at 0)")
    a2 = 1.0 + 0.25 * tp.nu * tp.nu
    v = (-m * tp.nu
         + a2 * rho_arr ** 2
         + (m * m - 0.25) / rho_arr ** 2
         + tp.b_prime / rho_arr)
    if np.ndim(rho) == 0:
        return float(v)
    return v


def effective_potential_minimum(tp: TrapParams, m: int) -> float:
    """Radius of the stationary minimum of V(rho), if one exists.

    Stationary points solve a^2 rho^4 - b rho - (m^2 - 1/4) = 0 with
    a^2 = 1 + nu^2/4.  For |m| >= 1 there is exactly one positive root and
    it is the global minimum.  For m = 0 the potential falls to -infinity
    at the origin; an outer local minimum (ring configuration) exists only
    for sufficiently large b, otherwise a ValueError is raised.
    """
    a2 = 1.0 + 0.25 * tp.nu * tp.nu
    roots = np.roots([a2, 0.0, 0.0, -tp.b, -(m * m - 0.25)])
    best = None
    for r in roots:
        if abs(r.imag) > 1e-9 * (1.0 + abs(r.real)):
            continue
        rho = r.real
        if rho <= 0:
            continue
        # keep only genuine minima (V'' > 0); for m = 0 this drops the
        # inner maximum that separates the well from the singular core
        v2 = 2.0 * a2 + 6.0 * (m * m - 0.25) / rho ** 4 + 4.0 * tp.b / rho ** 3
        if v2 <= 0:
            continue
        if best is None or rho > best:
            best = rho
    if best is None:
        raise ValueError(
            f"V has no stationary minimum for m={m}, nu={tp.nu}, b={tp.b}")
    return float(best)


def fock_darwin_energy(tp: TrapParams, q: QuantumNumbers) -> float:
    """Closed-form level of the b = 0 problem, in units of hbar*omega_t.

    E = a (2n + |m| + 1) - m nu / 2,  a = sqrt(1 + nu^2/4)

    This is the exact spectrum of a charge in a harmonic trap plus uniform
    field (Fock-Darwin levels) written for the relative-motion units used
    here.  It anchors the b = 0 limit of the Rayleigh-Ritz solver.
    """
    a = tp.gauss_width
    return a * (2 * q.n + abs(q.m) + 1) - 0.5 * q.m * tp.nu
