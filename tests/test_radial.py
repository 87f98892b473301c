"""Sector eigensolver: exact limits, invariants, and failure modes."""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from magtrap import TrapParams, radial
from magtrap.observables import (
    RadialWavefunction,
    density_profile,
    velocity_expectation,
)
from magtrap.params import QuantumNumbers, fock_darwin_energy
from magtrap.radial import (
    MAX_BASIS_K,
    BasisConditioningError,
    BracketingError,
    RadialBasis,
    _discretization,
    _panel_count,
    _reduce,
    _sector_blocks,
    _sector_eigh,
    _stieltjes,
    find_crossing,
    ground_state_scan,
    overlap_and_hamiltonian_matrices,
    solve_sector,
    spectrum_sweep,
)


class TestZeroCouplingLimit:
    def test_harmonic_ground_energy(self):
        sol = solve_sector(TrapParams(nu=0.0, b=0.0), 0, size=20)
        assert sol.energies[0] == pytest.approx(1.0, abs=1e-8)

    def test_magnetic_ground_energy(self):
        sol = solve_sector(TrapParams(nu=1.0, b=0.0), 1, size=25)
        assert sol.energies[0] == pytest.approx(math.sqrt(5) - 0.5, abs=1e-6)

    def test_excited_levels_match_closed_form(self):
        tp = TrapParams(nu=2.0, b=0.0)
        sol = solve_sector(tp, -2)
        for n in range(3):
            expected = oracles.fock_darwin_energy(2.0, -2, n)
            assert sol.energies[n] == pytest.approx(expected, abs=1e-8)

    def test_largest_basis_matches_closed_form_to_rounding(self):
        # Rayleigh quotients of the eigenvectors: the eigenvalues themselves
        # carry eps ||H||, about 1.7e-10 at this size
        for nu in (0.0, 0.5, 1.0):
            for m in (0, 1, 3):
                sol = solve_sector(TrapParams(nu=nu, b=0.0), m, size=240)
                for n in range(3):
                    expected = oracles.fock_darwin_energy(nu, m, n)
                    assert abs(sol.energies[n] - expected) < 1e-12


class TestSectorSymmetry:
    def test_sign_flip_shifts_by_m_nu(self):
        # h(-m) = h(m) + m nu: every level shifts rigidly, any b
        tp = TrapParams(nu=1.3, b=4.0)
        plus = solve_sector(tp, 2).energies[:5]
        minus = solve_sector(tp, -2).energies[:5]
        np.testing.assert_allclose(minus, plus + 2 * 1.3, rtol=1e-10)

    @given(nu=st.floats(0.1, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(1, 3))
    @settings(max_examples=15)
    def test_sign_flip_property(self, nu, b, m):
        tp = TrapParams(nu=nu, b=b)
        e_plus = solve_sector(tp, m, size=12).energies[0]
        e_minus = solve_sector(tp, -m, size=12).energies[0]
        assert e_minus == pytest.approx(e_plus + m * nu, rel=1e-9)


class TestVariationalStructure:
    def test_energy_decreases_with_basis_size(self):
        tp = TrapParams(nu=1.0, b=5.0)
        energies = [solve_sector(tp, 0, size=k).energies[0]
                    for k in (5, 10, 20, 30)]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12)

    def test_levels_ascending(self):
        sol = solve_sector(TrapParams(nu=0.5, b=2.0), 1)
        assert np.all(np.diff(sol.energies) > 0)

    def test_crude_bound_is_exact_at_zero_coupling(self):
        # at b = 0 the one-Gaussian trial is the Fock-Darwin ground state
        assert oracles.single_gaussian_bound(0.0, 0.0, 0) == 1.0
        for nu, m in ((1.0, 0), (0.5, 2), (2.0, 3)):
            exact = fock_darwin_energy(TrapParams(nu=nu), QuantumNumbers(m=m))
            assert oracles.single_gaussian_bound(nu, 0.0, m) == pytest.approx(
                exact, abs=1e-14)

    def test_crude_upper_bounds_converged_energy(self):
        # the single-Gaussian trial keeps its bound property even deep in
        # the ring regime, where its error is enormous
        for b in (0.0, 1.0, 10.0):
            tp = TrapParams(nu=0.5, b=b)
            crude = oracles.single_gaussian_bound(0.5, b, 0)
            assert crude >= solve_sector(tp, 0).energies[0] - 1e-10


class TestCoefficients:
    @pytest.mark.parametrize("size,nu,b,m", [
        (8, 1.0, 1.0, 0), (10, 0.5, 3.0, 1), (9, 0.0, 0.0, 2),
        (10, 2.0, 5.0, -1), (8, 1.3, 10.0, 3)])
    def test_raw_pencil_eigenvalues_match_solver(self, size, nu, b, m):
        # the raw monomial pencil, solved directly, spans the same space as
        # the orthonormal basis; the overlap matrix is representable in
        # float64 only at small K (condition ~1e9 at K = 8), and there its
        # unit-diagonal (equilibrated) form still yields the low levels
        from scipy.linalg import eigh
        tp = TrapParams(nu=nu, b=b)
        S, H = overlap_and_hamiltonian_matrices(RadialBasis(m=m, size=size),
                                                tp)
        d = 1.0 / np.sqrt(np.diag(S))
        raw = eigh(d[:, None] * H * d, d[:, None] * S * d, eigvals_only=True)
        sol = solve_sector(tp, m, size=size)
        np.testing.assert_allclose(raw[:3], sol.energies[:3], rtol=1e-9,
                                   atol=0)

    def test_cached_solutions_are_isolated_copies(self):
        tp = TrapParams(nu=0.25, b=0.5)
        first = solve_sector(tp, 0, size=6)
        first.energies[0] = -1.0
        second = solve_sector(tp, 0, size=6)
        assert second.energies[0] > 0

    def test_params_carried_through(self):
        tp = TrapParams(nu=1.0, b=2.0, field_sign=-1)
        sol = solve_sector(tp, 1, size=6)
        assert sol.params.field_sign == -1
        assert sol.m == 1
        assert sol.vectors.shape == (6, 6)


class TestInvariantProperties:
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-4, 4), size=st.integers(4, 40))
    def test_field_reversal_mirrors_sector_bit_for_bit(self, nu, b, m, size):
        # the pencil sees nu only through nu^2 and m nu
        plus, _ = _sector_eigh(m, size, 0.5, nu, b)
        minus, _ = _sector_eigh(-m, size, 0.5, -nu, b)
        np.testing.assert_array_equal(minus, plus)

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-3, 3), size=st.integers(4, 40))
    def test_ground_energy_never_rises_with_basis(self, nu, b, m, size):
        tp = TrapParams(nu=nu, b=b)
        small = solve_sector(tp, m, size=size).energies[0]
        large = solve_sector(tp, m, size=size + 5).energies[0]
        assert large <= small + 1e-12 * abs(small)

    @given(size=st.integers(4, 100), m=st.integers(-6, 6),
           nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0))
    @example(size=86, m=3, nu=1.0, b=1.0)
    @example(size=90, m=0, nu=1.0, b=1.0)
    @example(size=92, m=0, nu=1.0, b=1.0)
    @settings(max_examples=20)
    def test_any_size_solves_or_names_itself(self, size, m, nu, b):
        # never a bare LinAlgError: a precision failure names the basis size
        try:
            sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        except BasisConditioningError as err:
            assert err.size == size and f"K={size}" in str(err)
        else:
            assert np.all(np.isfinite(sol.energies))


class TestConditioningFailure:
    def test_hundred_function_basis_matches_oracle(self):
        # K = 100 used to raise once a fixed extended-precision budget ran
        # out; the float64 recurrence has no such budget.  The per-point
        # oracle needs about 1.2 K digits for the monomial Gram matrix, and
        # 200 and 240 digits give the same energies
        tp = TrapParams(nu=1.0, b=1.0)
        sol = solve_sector(tp, 0, size=100)
        ref, _ = oracles.mp_sector_solve(0, 1.0, 1.0, 100, dps=200)
        np.testing.assert_allclose(sol.energies[:5], ref[:5], rtol=1e-13,
                                   atol=0)

    @pytest.mark.parametrize("alpha", [1e-300, 1e300])
    def test_weight_outside_float_range_raises(self, alpha):
        # the mass of rho^13 exp(-2 alpha rho^2) overflows (small alpha) or
        # underflows (large alpha) float64
        with pytest.raises(BasisConditioningError) as err:
            solve_sector(TrapParams(nu=1.0, b=1.0), 6, size=10, alpha=alpha)
        assert err.value.size == 10
        assert "K=10" in str(err.value)

    @pytest.mark.parametrize("m, alpha", [(6, 1e-300), (6, 1e300),
                                          (400, 0.5), (-400, 0.5)])
    def test_weight_outside_float_range_names_alpha_and_m(self, m, alpha):
        # no basis size mends a weight mass outside float64, so the error
        # names what does decide it, and asks for no smaller K
        misses = radial._reduce.cache_info().misses
        with pytest.raises(BasisConditioningError) as err:
            solve_sector(TrapParams(nu=1.0, b=1.0), m, size=10, alpha=alpha)
        message = str(err.value)
        assert f"alpha={alpha:g}, |m|={abs(m)}" in message
        assert "no K mends" in message and "reduce K" not in message
        assert (err.value.size, err.value.m) == (10, m)
        assert radial._reduce.cache_info().misses == misses

    def test_block_that_is_not_finite_names_the_size(self, monkeypatch):
        monkeypatch.setattr(radial, "_reduce", lambda m_abs, size: None)
        with pytest.raises(BasisConditioningError,
                           match=r"K=12 .*sector m=2: a block .* not finite"):
            solve_sector(TrapParams(nu=1.0), 2, size=12)

    def test_failing_eigensolve_names_the_size(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(BasisConditioningError,
                           match=r"K=12 .*sector m=2: the float64 eigensolve"):
            solve_sector(TrapParams(nu=1.0), 2, size=12)

    def test_unconverged_sentinel_warns(self):
        with pytest.warns(RuntimeWarning, match="increase the basis"):
            solve_sector(TrapParams(nu=0.5, b=10.0), 0, size=4,
                         check_convergence=True)

    def test_converged_sentinel_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_sector(TrapParams(nu=0.5, b=10.0), 0, size=30,
                         check_convergence=True)

    def test_sentinel_above_the_ceiling_warns_unverified(self):
        with pytest.warns(RuntimeWarning, match=(
                f"sentinel at K={MAX_BASIS_K + 10} .*ceiling of "
                f"{MAX_BASIS_K}.*unverified")):
            sol = solve_sector(TrapParams(nu=0.5, b=1.0), 0,
                               size=MAX_BASIS_K, check_convergence=True)
        assert len(sol.energies) == MAX_BASIS_K


class TestBasisCeiling:
    def test_ceiling_is_exact(self):
        assert RadialBasis(m=0, size=MAX_BASIS_K).size == MAX_BASIS_K
        with pytest.raises(ValueError, match=f"ceiling of {MAX_BASIS_K}"):
            RadialBasis(m=0, size=MAX_BASIS_K + 1)

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_basis_is_refused(self, size):
        with pytest.raises(ValueError, match="at least 1"):
            RadialBasis(m=0, size=size)

    def test_solve_above_the_ceiling_is_refused_before_any_reduction(self):
        misses = radial._reduce.cache_info().misses
        with pytest.raises(ValueError, match=f"ceiling of {MAX_BASIS_K}"):
            solve_sector(TrapParams(nu=1.0, b=1.0), 0, size=MAX_BASIS_K + 1)
        assert radial._reduce.cache_info().misses == misses

    def test_one_function_basis_solves(self):
        # at nu = b = 0 the single alpha = 1/2 Gaussian is the ground state
        sol = solve_sector(TrapParams(nu=0.0), 0, size=1)
        assert sol.energies == pytest.approx([1.0], abs=1e-14)


class TestDilatedBasis:
    # a width alpha != 1/2 reuses the alpha = 1/2 blocks, dilated by
    # sqrt(2 alpha); the oracle reduces the alpha basis itself
    @pytest.mark.parametrize("alpha", [0.3, 0.8])
    @pytest.mark.parametrize("size,nu,b,m", [
        (10, 1.0, 1.0, 0), (16, 0.5, 2.0, -1), (20, 1.3, 4.0, 2)])
    def test_matches_oracle_of_the_same_width(self, alpha, size, nu, b, m):
        tp = TrapParams(nu=nu, b=b)
        sol = solve_sector(tp, m, size=size, alpha=alpha)
        ref, coeff = oracles.mp_sector_solve(m, nu, b, size, alpha=alpha)
        np.testing.assert_allclose(sol.energies[:5], ref[:5], rtol=1e-13,
                                   atol=0)

        wf = RadialWavefunction.from_solution(sol)
        ground = coeff[:, 0]
        assert abs(velocity_expectation(wf, tp)
                   - oracles.mp_velocity(m, nu, ground, alpha)) < 1e-12
        assert abs(wf.radial_moment(2)
                   - oracles.mp_radial_moment(m, ground, 2, alpha)) < 1e-12
        profile = density_profile(wf)
        assert abs(profile.rho_peak - oracles.mp_density_peak(
            m, ground, profile.rho, alpha)) < 1e-12


def _relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want)))


# relative tolerance of a recurrence coefficient, set from float64 before
# any comparison: the coefficients are positive sums, so each carries a
# few rounding errors per step of the recurrence (~90 eps)
RECURRENCE_RTOL = 2e-14

# the extended-precision reference loses ~1.2 digits per coefficient
_mp_recurrence = functools.lru_cache(maxsize=None)(
    lambda power, n, alpha: oracles.mp_recurrence(power, n, alpha,
                                                  int(1.3 * n) + 40))


def _shared_measure(m_abs, size, alpha):
    # the one discrete measure a basis of this size is reduced on; its
    # weights are the measure of w / rho, x times them that of w
    return _discretization(m_abs, size + 1, alpha, _panel_count(size + 1))


def _weight_recurrence(m_abs, size, alpha):
    x, weights = _shared_measure(m_abs, size, alpha)
    return _stieltjes(x, x * weights, size + 1)[:2]


class TestRecurrence:
    @pytest.mark.parametrize("m_abs", [0, 3, 6])
    @pytest.mark.parametrize("size", [1, 20, 80])
    @pytest.mark.parametrize("alpha", [0.5, 0.8])
    def test_matches_extended_precision_chebyshev(self, m_abs, size, alpha):
        # the recurrence of w the blocks are built on, and the one of w / rho
        # on the same nodes: exact coefficients of the latter mean that the
        # measure resolves the weight the Coulomb block sums over
        x, weights = _shared_measure(m_abs, size, alpha)
        a, b = _stieltjes(x, x * weights, size + 1)[:2]
        a_inv, b_inv = _stieltjes(x, weights, size)[:2]
        ref = _mp_recurrence(2 * m_abs + 1, size + 1, alpha)
        ref_inv = _mp_recurrence(2 * m_abs, size, alpha)
        assert _relative_error(a, ref[0]) < RECURRENCE_RTOL
        assert _relative_error(b, ref[1]) < RECURRENCE_RTOL
        assert _relative_error(a_inv, ref_inv[0]) < RECURRENCE_RTOL
        assert _relative_error(b_inv, ref_inv[1]) < RECURRENCE_RTOL

    @pytest.mark.parametrize("n", [21, 81, 161, 241])
    def test_half_the_node_rule_still_resolves(self, n):
        # the rule keeps a factor of two in hand at every size it serves
        for m_abs in (0, 6):
            x, weights = _discretization(m_abs, n, 0.5, _panel_count(n) // 2)
            a, b = _stieltjes(x, x * weights, n)[:2]
            ref = _mp_recurrence(2 * m_abs + 1, n, 0.5)
            assert _relative_error(a, ref[0]) < RECURRENCE_RTOL
            assert _relative_error(b, ref[1]) < RECURRENCE_RTOL

    @given(alpha=st.floats(0.01, 100.0), m_abs=st.integers(0, 6),
           size=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_alpha_only_rescales_the_coordinate(self, alpha, m_abs, size):
        # rho -> rho / sqrt(2 alpha) maps the alpha = 1/2 weight onto this
        # one: a_k scales as (2 alpha)^(-1/2), b_k as (2 alpha)^(-1) for
        # k >= 1 and the mass b_0 as (2 alpha)^(-(|m| + 1))
        a, b = _weight_recurrence(m_abs, size, alpha)
        a_ref, b_ref = _weight_recurrence(m_abs, size, 0.5)
        beta = 2.0 * alpha
        assert _relative_error(a * math.sqrt(beta), a_ref) < RECURRENCE_RTOL
        assert _relative_error(b[1:] * beta, b_ref[1:]) < RECURRENCE_RTOL
        assert _relative_error(b[0] * beta ** (m_abs + 1),
                               b_ref[0]) < RECURRENCE_RTOL


# relative tolerance of a pencil entry against sqrt(H_jj H_kk), set from
# float64 before any comparison: the blocks are sums over the measure of
# polynomials built from the recurrence coefficients, so an entry inherits
# their RECURRENCE_RTOL and no more
PENCIL_RTOL = RECURRENCE_RTOL


class TestPencilBlocks:
    @pytest.mark.parametrize("size", [10, 20, 30])
    @pytest.mark.parametrize("nu,b,m", [
        (0.0, 0.0, 0), (1.3, 0.0, -1), (1.0, 1.0, 0), (1.3, 4.0, 2),
        (2.0, 10.0, 1)])
    def test_match_extended_precision_cholesky(self, size, nu, b, m):
        # both bases orthonormalize the monomial Gaussians in order with
        # positive leading coefficients, so the pencils agree entry by entry
        blocks, _ = _sector_blocks(m, size, 0.5)
        pencil = (blocks.kinetic + (1.0 + 0.25 * nu * nu) * blocks.trap
                  + b * blocks.coulomb - 0.5 * m * nu * np.eye(size))
        ref = oracles.mp_reduced_pencil(m, nu, b, size)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.max(np.abs(pencil - ref) / scale) < PENCIL_RTOL


class TestGroundStateScan:
    def test_zero_field_winner_is_m0(self):
        for b in (0.0, 5.0):
            assert ground_state_scan(TrapParams(nu=0.0, b=b)).m_star == 0

    def test_strong_coupling_winner_is_m1(self):
        rec = ground_state_scan(TrapParams(nu=1.0, b=5.0))
        assert rec.m_star == 1
        assert rec.solution.energies[0] == rec.energy

    def test_record_carries_every_scanned_sector(self):
        tp = TrapParams(nu=1.0, b=5.0)
        rec = ground_state_scan(tp, m_range=(-2, 4), size=12)
        assert rec.sectors == tuple(
            (m, solve_sector(tp, m, size=12).energies[0])
            for m in range(-2, 5))
        assert dict(rec.sectors)[rec.m_star] == rec.energy

    @pytest.mark.parametrize("m_range", [(-1, 4), (-2, 3), (1, 6)])
    def test_rejects_short_scan_windows(self, m_range):
        with pytest.raises(ValueError):
            ground_state_scan(TrapParams(nu=1.0, b=1.0), m_range=m_range)

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 8.0))
    @settings(max_examples=10)
    def test_winner_minimizes_over_window(self, nu, b):
        tp = TrapParams(nu=nu, b=b)
        rec = ground_state_scan(tp, size=12)
        sector0 = solve_sector(tp, 0, size=12).energies[0]
        assert rec.energy <= sector0 + 1e-12


class TestFindCrossing:
    def test_locates_degeneracy(self):
        tp = TrapParams(nu=0.0, b=1.0)
        nu_star = find_crossing(tp, 0, 1, (0.05, 5.0))
        assert nu_star == pytest.approx(1.2480082416, abs=1e-6)
        at = TrapParams(nu=nu_star, b=1.0)
        gap = (solve_sector(at, 0).energies[0]
               - solve_sector(at, 1).energies[0])
        assert abs(gap) < 1e-9

    def test_illinois_search_takes_few_solves(self, monkeypatch):
        # each gap is two sector solves: 18 here, where bisection took 64
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_sector(*args, **kwargs)

        monkeypatch.setattr(radial, "solve_sector", counted)
        find_crossing(TrapParams(nu=0.0, b=1.0), 0, 1, (0.05, 5.0))
        assert len(calls) <= 24

    def test_stalled_search_is_a_bracketing_error(self):
        # no float64 gap is below tol = 0, so rounding ends the search
        with pytest.raises(BracketingError, match="stalled"):
            find_crossing(TrapParams(nu=0.0, b=1.0), 0, 1, (0.05, 5.0),
                          tol=0.0)

    def test_no_crossing_at_zero_coupling(self):
        with pytest.raises(BracketingError):
            find_crossing(TrapParams(nu=0.0, b=0.0), 0, 1, (0.1, 3.0))

    def test_rejects_bad_bracket(self):
        tp = TrapParams(nu=0.0, b=1.0)
        with pytest.raises(ValueError):
            find_crossing(tp, 0, 1, (2.0, 1.0))
        with pytest.raises(ValueError):
            find_crossing(tp, 0, 1, (-1.0, 2.0))

    def test_rejects_equal_sectors(self):
        # a sector against itself has zero gap everywhere; the search used
        # to return the bracket's lower end as a crossing
        with pytest.raises(ValueError, match="m1 and m2 are both 1"):
            find_crossing(TrapParams(nu=0.0, b=1.0), 1, 1, (0.3, 5.0))


class TestSpectrumSweep:
    def test_row_layout_and_order(self):
        rows = spectrum_sweep(1.0, [0.0, 0.5], [1, 0], size=10, n_levels=2)
        assert len(rows) == 2 * 2 * 2
        keys = [(r[0], r[1], r[2]) for r in rows]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("n_levels", [0, 11])
    def test_rejects_levels_the_basis_does_not_have(self, n_levels):
        with pytest.raises(ValueError, match="n_levels"):
            spectrum_sweep(1.0, [0.5], [0], size=10, n_levels=n_levels)

    def test_values_match_direct_solves(self):
        rows = spectrum_sweep(0.5, [1.1], [0], size=10, n_levels=3)
        sol = solve_sector(TrapParams(nu=1.1, b=0.5), 0, size=10)
        for (_, _, level, energy) in rows:
            assert energy == sol.energies[level]


class TestSampleGrid:
    """The facts RadialBasis._sampling_grid's docstring rests on.

    Over K <= 240, |m| <= 40, on the grid of the alpha = 1/2 basis, where
    each phi_k is expansion of a unit vector.
    """

    @pytest.mark.parametrize("m_abs", [0, 1, 6, 20, 40])
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 15, 30, 60, 240])
    def test_grid_sees_the_zeros_and_outruns_every_function(self, m_abs,
                                                            size):
        zeros = np.linalg.eigvalsh(_reduce(m_abs, size).position)
        radius = math.sqrt(4 * size + 2 * m_abs - 2)
        basis = RadialBasis(m=m_abs, size=size)
        r = basis._sampling_grid()
        table = np.column_stack([basis.expansion(unit)(r)
                                 for unit in np.eye(size)])
        step = r[1] - r[0]
        # every zero of q_K below R, at most 0.86 of it
        assert zeros[-1] < 0.87 * radius
        # in the outer half of the zeros, at least 2.8 steps between two,
        # and 4.2 from K = 15 on
        outer = np.diff(zeros)[zeros[1:] > 0.5 * zeros[-1]]
        assert np.all(outer >= (4.2 if size >= 15 else 2.8) * step)
        # at R + 8 each phi_k is below 1e-18 of its largest sample
        assert r[-1] >= radius + 8.0
        peaks = np.abs(table).max(axis=0)
        assert np.all(np.abs(table[-1]) < 1e-18 * peaks)
