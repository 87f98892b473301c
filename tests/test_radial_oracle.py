"""Orthonormal-basis sector solver against the per-point mpf oracle.

The oracle in `oracles.mp_sector_solve` assembles and Cholesky-reduces the
whole monomial pencil at extended precision for every (nu, b, m); the
package reduces each basis once and solves each point in float64.  Both
are Rayleigh-Ritz in the same K-dimensional space, so their low levels,
level-0 drift velocities and level-0 radial moments must coincide to
rounding.
"""

import functools

import numpy as np
import pytest

import oracles
from magtrap import TrapParams
from magtrap.observables import RadialWavefunction, velocity_expectation
from magtrap.radial import solve_sector

ENERGY_RTOL = 1e-11
VELOCITY_ATOL = 1e-10

GRID = [(nu, b, m) for nu in (0.0, 1.3) for b in (0.0, 4.0)
        for m in (-1, 0, 2)]
CASES = ([(K, *point) for K in (10, 20, 30, 40) for point in GRID]
         + [(80, 1.0, 1.0, 0), (80, 2.0, 5.0, 1)])


# one extended-precision oracle solve per case, shared by both tests
_oracle_solve = functools.lru_cache(maxsize=None)(oracles.mp_sector_solve)


@pytest.mark.parametrize("size,nu,b,m", CASES)
def test_matches_per_point_oracle(size, nu, b, m):
    tp = TrapParams(nu=nu, b=b)
    sol = solve_sector(tp, m, size=size)
    ref_energies, ref_coeff = _oracle_solve(m, nu, b, size)
    np.testing.assert_allclose(sol.energies[:5], ref_energies[:5],
                               rtol=ENERGY_RTOL, atol=0)

    velocity = velocity_expectation(RadialWavefunction.from_solution(sol), tp)
    assert velocity == pytest.approx(
        oracles.mp_velocity(m, nu, ref_coeff[:, 0]), abs=VELOCITY_ATOL, rel=0)


@pytest.mark.parametrize("size,nu,b,m", CASES)
def test_radial_moments_match_oracle(size, nu, b, m):
    # the package takes these as quadratic forms over its float64 blocks,
    # the oracle over exact Gaussian moments of the raw coefficients
    sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
    wf = RadialWavefunction.from_solution(sol)
    _, ref_coeff = _oracle_solve(m, nu, b, size)
    for p in (-1, 1, 2):
        assert wf.radial_moment(p) == pytest.approx(
            oracles.mp_radial_moment(m, ref_coeff[:, 0], p),
            abs=VELOCITY_ATOL, rel=0)
