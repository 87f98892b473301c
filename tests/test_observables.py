"""Wavefunction reconstruction, currents, velocities, density profiles."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from magtrap import TrapParams, observables, radial
from magtrap.observables import (
    RadialWavefunction,
    current_density,
    current_vector_field,
    density_profile,
    ground_velocity_sweep,
    velocity_expectation,
)
from magtrap.params import effective_potential_minimum
from magtrap.radial import (
    RadialBasis,
    RadialEigenSolution,
    ground_state_scan,
    solve_sector,
)


def _reference_chi(sol, level=0):
    # the state's chi summed by the former allocating recurrence, with the
    # weights scaled as from_solution scales them
    weights = sol.vectors[:, level] * np.sqrt(1.0 / (2.0 * np.pi))
    return oracles.reference_expansion(*sol.basis._recurrence(weights))


@pytest.fixture(scope="module")
def wf_m1():
    tp = TrapParams(nu=1.0, b=1.0)
    return RadialWavefunction.from_solution(solve_sector(tp, 1)), tp


class TestRadialWavefunction:
    def test_plane_normalization(self, wf_m1):
        from scipy.integrate import quad
        wf, _ = wf_m1
        norm, _ = quad(wf.density, 0.0, wf.rho_max, limit=400,
                       epsabs=1e-13, epsrel=1e-12)
        assert norm == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("level", [-1, 30])
    def test_from_solution_rejects_levels_outside_the_basis(self, level):
        # a K = 30 solution has levels 0 .. 29; -1 used to return the
        # highest, unconverged one and 30 raised a bare IndexError
        sol = solve_sector(TrapParams(nu=1.0, b=1.0), 1, size=30)
        with pytest.raises(ValueError, match=r"\[0, 30\)"):
            RadialWavefunction.from_solution(sol, level)

    def test_moments_beyond_the_exact_forms_raise(self, wf_m1):
        wf, _ = wf_m1
        for power in (-2, 0, 3):
            with pytest.raises(ValueError, match="powers -1, 1, 2"):
                wf.radial_moment(power)
        bare = RadialWavefunction(1, wf.chi, wf.rho_max)
        with pytest.raises(ValueError):
            bare.radial_moment(1)
        with pytest.raises(ValueError):
            density_profile(bare)

    def test_origin_behavior(self, wf_m1):
        # chi ~ rho^(|m| + 1/2), so |psi|^2 = chi^2/rho stays finite
        wf, _ = wf_m1
        assert wf.psi_squared(1e-6) < 1e-3

    def test_psi_squared_rejects_origin(self, wf_m1):
        wf, _ = wf_m1
        with pytest.raises(ValueError):
            wf.psi_squared(0.0)


class TestCurrentDensity:
    def test_sign_change_at_sqrt_two_m_over_nu(self, wf_m1):
        wf, tp = wf_m1
        rho = np.linspace(0.05, 6.0, 2000)
        J = current_density(wf, tp, rho).J
        flips = np.nonzero(np.diff(np.sign(J)) != 0)[0]
        assert len(flips) == 1
        r_flip = rho[flips[0]]
        assert r_flip == pytest.approx(math.sqrt(2.0), abs=rho[1] - rho[0])

    def test_inner_region_corotates(self, wf_m1):
        # canonical circulation m/rho dominates inside the flip radius
        wf, tp = wf_m1
        J = current_density(wf, tp, np.array([0.5, 3.0])).J
        assert J[0] > 0 > J[1]

    def test_m0_current_is_everywhere_diamagnetic(self):
        tp = TrapParams(nu=1.0, b=1.0)
        wf = RadialWavefunction.from_solution(solve_sector(tp, 0))
        J = current_density(wf, tp, np.linspace(0.1, 8.0, 500)).J
        assert np.all(J <= 0)

    def test_plane_integral_equals_velocity(self, wf_m1):
        wf, tp = wf_m1
        cf = current_density(wf, tp, np.linspace(0.1, 6.0, 100))
        assert cf.plane_integral() == velocity_expectation(wf, tp)

    def test_rejects_nonpositive_grid(self, wf_m1):
        wf, tp = wf_m1
        with pytest.raises(ValueError):
            current_density(wf, tp, np.array([0.0, 1.0]))

    def test_vector_field_geometry(self, wf_m1):
        wf, tp = wf_m1
        x, y, jx, jy = current_vector_field(wf, tp, 4.0, 5)
        center = 2  # origin row/column of the 5-point axis
        assert jx[center, center] == 0.0 and jy[center, center] == 0.0
        # on the +x axis the flow is purely azimuthal: jx = 0, jy = J
        J_here = current_density(wf, tp, np.array([x[4, center]])).J[0]
        assert jx[4, center] == pytest.approx(0.0, abs=1e-15)
        assert jy[4, center] == pytest.approx(J_here, rel=1e-12)


class TestVelocityExpectation:
    def test_m0_identity_against_independent_moment(self):
        from scipy.integrate import quad
        tp = TrapParams(nu=1.0, b=1.0)
        wf = RadialWavefunction.from_solution(solve_sector(tp, 0))
        v = velocity_expectation(wf, tp)
        mean_rho, _ = quad(lambda r: r * wf.density(r), 0.0, wf.rho_max,
                           limit=200)
        assert v == pytest.approx(-0.5 * tp.nu * mean_rho, abs=1e-10)

    def test_m0_drag_closed_form_at_zero_coupling(self):
        # b = 0 ground density is 2 a rho exp(-a rho^2): <rho> closes in
        # Gamma functions and v = -(nu/4) sqrt(pi/a)
        tp = TrapParams(nu=1.0, b=0.0)
        wf = RadialWavefunction.from_solution(solve_sector(tp, 0))
        a = tp.gauss_width
        expected = -0.25 * tp.nu * math.sqrt(math.pi / a)
        assert velocity_expectation(wf, tp) == pytest.approx(expected,
                                                             abs=1e-8)

    def test_zero_field_state_carries_no_current(self):
        tp = TrapParams(nu=0.0, b=2.0)
        wf = RadialWavefunction.from_solution(solve_sector(tp, 0))
        assert velocity_expectation(wf, tp) == pytest.approx(0.0, abs=1e-12)


# central-difference step for the Hellmann-Feynman checks: its truncation
# error (~step^2) and the eigensolver's rounding (~1e-14 / step) both stay
# at or below about 1e-9, far inside the 1e-7 tolerance
HF_STEP = 1e-4
HF_TOL = 1e-7


def _ground_energy(nu: float, b: float, m: int, size: int) -> float:
    return solve_sector(TrapParams(nu=nu, b=b), m, size=size).energies[0]


class TestHellmannFeynman:
    """dE0/dx = <dh/dx> for the Ritz ground level of a fixed sector basis."""

    @given(nu=st.floats(0.0, 3.0), b=st.floats(HF_STEP, 10.0),
           m=st.integers(-3, 3), size=st.integers(8, 40))
    def test_coupling_slope_is_inverse_radius(self, nu, b, m, size):
        wf = RadialWavefunction.from_solution(
            solve_sector(TrapParams(nu=nu, b=b), m, size=size))
        slope = (_ground_energy(nu, b + HF_STEP, m, size)
                 - _ground_energy(nu, b - HF_STEP, m, size)) / (2 * HF_STEP)
        assert slope == pytest.approx(wf.radial_moment(-1), abs=HF_TOL, rel=0)

    @given(nu=st.floats(HF_STEP, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-3, 3), size=st.integers(8, 40))
    def test_field_slope_is_paramagnetic_plus_diamagnetic(self, nu, b, m,
                                                           size):
        # dh/dnu = -m/2 + (nu/4) rho^2
        wf = RadialWavefunction.from_solution(
            solve_sector(TrapParams(nu=nu, b=b), m, size=size))
        slope = (_ground_energy(nu + HF_STEP, b, m, size)
                 - _ground_energy(nu - HF_STEP, b, m, size)) / (2 * HF_STEP)
        expected = -0.5 * m + 0.25 * nu * wf.radial_moment(2)
        assert slope == pytest.approx(expected, abs=HF_TOL, rel=0)


# rounding allowance of the moment inequalities: a few units in the last
# place of the quadratic forms, which treat the eigenvector as normalized
MOMENT_ULPS = 4 * np.finfo(float).eps


class TestMomentInequalities:
    """The exact moments of any state obey the inequalities of a density."""

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-4, 4), size=st.integers(1, 40), data=st.data())
    def test_cauchy_schwarz_and_jensen(self, nu, b, m, size, data):
        level = data.draw(st.integers(0, size - 1), label="level")
        wf = RadialWavefunction.from_solution(
            solve_sector(TrapParams(nu=nu, b=b), m, size=size), level)
        inverse, mean, square = (wf.radial_moment(p) for p in (-1, 1, 2))
        # <rho^2> >= <rho>^2
        assert square >= mean * mean * (1.0 - MOMENT_ULPS)
        # <1/rho> >= 1/<rho>, convexity of 1/rho
        assert inverse * mean >= 1.0 - MOMENT_ULPS


class TestGroundVelocitySweep:
    NUS = [0.4, 0.9, 1.6, 2.4]

    def test_rows_sorted_and_consistent(self):
        rows = ground_velocity_sweep(1.0, self.NUS, size=14)
        assert [r[0] for r in rows] == sorted(self.NUS)
        for nu, m_star, energy, _ in rows:
            rec = ground_state_scan(TrapParams(nu=nu, b=1.0), size=14)
            assert (m_star, energy) == (rec.m_star, rec.energy)

    def test_threaded_sweep_is_deterministic(self):
        serial = ground_velocity_sweep(1.0, self.NUS, size=14, workers=1)
        threaded = ground_velocity_sweep(1.0, self.NUS, size=14, workers=4)
        assert serial == threaded

    def test_winning_sector_never_decreases_with_field(self):
        rows = ground_velocity_sweep(1.0, self.NUS, size=14)
        sectors = [r[1] for r in rows]
        assert sectors == sorted(sectors)

    def test_builds_no_state_and_gives_each_states_velocity(self):
        # the velocities come from the ground eigenvectors' moments, with
        # no state built, and equal those of the states bit for bit
        before = observables._state.cache_info()
        rows = ground_velocity_sweep(2.3, self.NUS, size=14)
        assert observables._state.cache_info() == before
        for nu, _, _, velocity in rows:
            tp = TrapParams(nu=nu, b=2.3)
            rec = ground_state_scan(tp, size=14)
            wf = RadialWavefunction.from_solution(rec.solution)
            assert velocity == velocity_expectation(wf, tp)


class TestDensityProfile:
    def test_profile_normalized(self, wf_m1):
        wf, _ = wf_m1
        prof = density_profile(wf)
        assert prof.integral() == pytest.approx(1.0, abs=1e-4)
        assert prof.mean_rho == pytest.approx(wf.radial_moment(1), abs=1e-12)

    def test_ring_regime_peaks_near_classical_minimum(self):
        tp = TrapParams(nu=0.0, b=20.0)
        wf = RadialWavefunction.from_solution(solve_sector(tp, 0))
        prof = density_profile(wf)
        rho_cl = effective_potential_minimum(tp, 0)
        assert prof.rho_peak == pytest.approx(rho_cl, rel=0.05)

    def test_peak_refinement_beats_grid_resolution(self, wf_m1):
        wf, _ = wf_m1
        for coarse in (np.linspace(0.1, 8.0, 60),
                       np.linspace(0.2, 1.0, 9),    # best sample last
                       np.linspace(1.6, 8.0, 60)):  # best sample first
            prof = density_profile(wf, coarse)
            # refined peak must sit inside the search bracket, two samples
            # either side of the best one
            i = int(np.argmax(prof.density))
            lo = coarse[max(i - 2, 0)]
            hi = coarse[min(i + 2, len(coarse) - 1)]
            assert lo <= prof.rho_peak <= hi

    @pytest.mark.parametrize("nu, b, m, size", [
        (1.0, 1.0, 1, 20), (0.5, 3.0, 0, 20), (2.0, 5.0, 2, 30),
        (0.0, 20.0, 0, 30),    # the strong-coupling ring
    ])
    def test_peak_is_the_root_of_chi_prime(self, nu, b, m, size):
        # differential: the root of chi' of the extended-precision solver's
        # raw coefficients, summed at 120 digits
        _, coeff = oracles.mp_sector_solve(m, nu, b, size)
        root = oracles.mp_density_peak(m, coeff[:, 0],
                                       np.linspace(0.05, 6.0, 120))
        sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        prof = density_profile(RadialWavefunction.from_solution(sol))
        assert abs(prof.rho_peak - root) <= 1e-10


class TestAgainstFormerCode:
    """The in-place recurrence and the per-radius field, bit for bit."""

    @pytest.mark.parametrize("size", [1, 2, 30, 240])
    @pytest.mark.parametrize("m", [0, 1, -3, 40])
    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    def test_expansion_matches_the_allocating_recurrence(self, size, m,
                                                         alpha):
        basis = RadialBasis(m=m, size=size, alpha=alpha)
        rng = np.random.default_rng(1000 * size + abs(m))
        weights = rng.standard_normal(size)
        chi = basis.expansion(weights)
        reference = oracles.reference_expansion(*basis._recurrence(weights))
        rho = np.geomspace(1e-3, 40.0, 301)
        assert np.array_equal(chi(rho), reference(rho))
        for point in (np.array(0.7), 2.5):
            value = chi(point)
            assert np.ndim(value) == 0
            assert np.array_equal(value, reference(point))

    @pytest.mark.parametrize("n, half_extent, m", [
        (5, 4.0, 1),    # odd: the middle point is the exact origin
        (17, 6.0, 0),   # odd, m = 0 state, origin again
        (32, 6.0, 2),   # even: no origin, radii repeat across the grid
    ])
    def test_current_field_matches_a_per_point_evaluation(self, n,
                                                          half_extent, m):
        tp = TrapParams(nu=1.0, b=1.0)
        sol = solve_sector(tp, m, size=20)
        wf = RadialWavefunction.from_solution(sol)
        got = current_vector_field(wf, tp, half_extent, n)
        want = oracles.reference_current_field(_reference_chi(sol), m,
                                               tp.nu, half_extent, n)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        if n % 2:
            assert got[0][n // 2, n // 2] == got[1][n // 2, n // 2] == 0.0


class TestRhoMax:
    """rho_max is 1 past where chi^2 falls to 1e-16 of its largest sample.

    The crossing is interpolated between samples.
    """

    @pytest.mark.parametrize("nu, b, m, size, level", [
        (1.0, 1.0, 1, 30, 0),     # the README current example
        (1.0, 1.0, 1, 1, 0),      # its --K 1 run
        (1.2, 2.0, 1, 30, 0),
        (0.5, 0.0, 0, 20, 0),
        (2.0, 5.0, 2, 30, 0),
        (0.3, 3.0, 0, 20, 0),
        (1.0, 1.0, 0, 30, 1),
        (1.0, 1.0, 2, 30, 2),
        (0.0, 20.0, 0, 30, 0),    # the strong-coupling ring
        (5.0, 8.5, -5, 23, 0),    # a narrow state: ripples at 1e-15 of peak
    ])
    def test_within_one_cell_of_the_former_scan(self, nu, b, m, size, level):
        sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        wf = RadialWavefunction.from_solution(sol, level)
        scan = oracles.reference_rho_max(_reference_chi(sol, level))
        assert abs(wf.rho_max - scan) <= 0.05

    @given(nu=st.floats(0.0, 5.0), b=st.floats(0.0, 10.0),
           m=st.integers(-6, 6), size=st.integers(1, 60), data=st.data())
    def test_nothing_of_the_state_lies_beyond(self, nu, b, m, size, data):
        level = data.draw(st.integers(0, min(2, size - 1)), label="level")
        wf = RadialWavefunction.from_solution(
            solve_sector(TrapParams(nu=nu, b=b), m, size=size), level)
        rho = np.arange(1, 30001) * (max(60.0, 2.0 * wf.rho_max) / 30000)
        dens = wf.chi(rho) ** 2
        assert dens[rho >= wf.rho_max].max() < 1e-16 * dens.max()

    @given(nu=st.floats(0.0, 5.0), b=st.floats(0.0, 10.0),
           m=st.integers(-6, 6), size=st.integers(1, 60), data=st.data())
    def test_the_tail_is_read_off_the_states_own_chi(self, nu, b, m, size,
                                                     data):
        level = data.draw(st.integers(0, min(2, size - 1)), label="level")
        sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        wf = RadialWavefunction.from_solution(sol, level)
        rho = sol.basis._sampling_grid()
        assert wf.rho_max == observables._tail_radius(rho, wf.chi(rho)) + 1.0

    def test_building_a_state_runs_no_root_search(self, monkeypatch):
        # rho_max is read off the state's chi on the basis's grid: only
        # density_profile's peak runs a search, on the state's scalar
        # recurrence
        def refuse(*args, **kwargs):
            raise AssertionError("root search")

        calls = []
        scalar = RadialBasis._density_slope

        def counted(basis, weights):
            density_slope = scalar(basis, weights)
            return lambda rho: calls.append(rho) or density_slope(rho)

        monkeypatch.setattr(observables, "_illinois_root", refuse)
        monkeypatch.setattr(RadialBasis, "_density_slope", counted)
        # a state cache of this test's own: every state here is built here,
        # and none built on the counted recurrence outlives the test
        monkeypatch.setattr(observables, "_state", functools.lru_cache(
            maxsize=64)(observables._state.__wrapped__))
        for nu, b, m, size, level in [(1.0, 1.0, 1, 30, 0),
                                      (1.0, 1.0, 1, 1, 0),
                                      (0.0, 20.0, 0, 30, 0),
                                      (5.0, 8.5, -5, 23, 0),
                                      (0.2, 1.0, 3, 10, 2),
                                      (2.5, 0.0, -5, 240, 2)]:
            sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
            wf = RadialWavefunction.from_solution(sol, level)
            assert wf.rho_max > 1.0
        assert calls == []
        with pytest.raises(AssertionError, match="root search"):
            density_profile(wf)


def _clear_every_cache():
    for cache in (observables._state, observables._field_grid,
                  radial._reduce, radial._panel_rule):
        cache.cache_clear()


def _assert_same_state(got, want):
    """Bit-equal chi, moments, rho_max and default profile."""
    rho = np.linspace(0.01, want.rho_max, 301)
    assert np.array_equal(got.chi(rho), want.chi(rho))
    assert got._moments == want._moments
    assert got.rho_max == want.rho_max
    a, b = density_profile(got), density_profile(want)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.density, b.density)
    assert (a.mean_rho, a.rho_peak) == (b.mean_rho, b.rho_peak)


class TestStateCache:
    """A state is built once per eigenvector; a cold build gives its bits."""

    TP = TrapParams(nu=1.3, b=2.1)

    def test_a_repeat_returns_the_same_state(self):
        sol = solve_sector(self.TP, 2, size=24)
        wf = RadialWavefunction.from_solution(sol)
        assert RadialWavefunction.from_solution(sol) is wf
        # a fresh solve of the same point carries the same vector
        again = solve_sector(self.TP, 2, size=24)
        assert again.vectors is not sol.vectors
        assert RadialWavefunction.from_solution(again) is wf

    def test_a_cold_rebuild_is_bit_equal(self):
        sol = solve_sector(self.TP, 1, size=30)
        wf = RadialWavefunction.from_solution(sol, 1)
        field = current_vector_field(wf, self.TP, 5.0, 33)
        _clear_every_cache()
        cold = RadialWavefunction.from_solution(sol, 1)
        assert cold is not wf
        _assert_same_state(cold, wf)
        for a, b in zip(current_vector_field(cold, self.TP, 5.0, 33), field):
            assert np.array_equal(a, b)

    def test_levels_and_altered_vectors_have_states_of_their_own(self):
        sol = solve_sector(self.TP, 0, size=20)
        ground = RadialWavefunction.from_solution(sol, 0)
        assert RadialWavefunction.from_solution(sol, 1) is not ground

        def by_hand(vectors):
            return RadialEigenSolution(m=sol.m, params=sol.params,
                                       basis=sol.basis, energies=sol.energies,
                                       vectors=vectors)

        flipped = RadialWavefunction.from_solution(by_hand(-sol.vectors))
        assert flipped is not ground
        rho = np.linspace(0.05, ground.rho_max, 200)
        assert np.array_equal(flipped.chi(rho), -ground.chi(rho))
        assert flipped._moments == ground._moments

        mutated = sol.vectors.copy()
        mutated[3, 0] += 1e-3
        assert RadialWavefunction.from_solution(by_hand(mutated)) \
            is not ground
        # the same content by hand is the same state
        copied = RadialWavefunction.from_solution(by_hand(sol.vectors.copy()))
        assert copied is ground
        # the same values in another layout are the same state, whose
        # moments are those of its own column, as a cold build has them
        fortran = np.asfortranarray(sol.vectors)
        transposed = RadialWavefunction.from_solution(by_hand(fortran))
        assert transposed is ground
        assert transposed._moments == sol.basis.radial_moments(fortran[:, 0])

    def test_the_kept_profile_is_read_only(self):
        wf = RadialWavefunction.from_solution(solve_sector(self.TP, 1, 20))
        kept = density_profile(wf)
        assert density_profile(wf) is kept
        for array in (kept.rho, kept.density):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_arrays_on_a_callers_grid_are_the_callers_own(self):
        wf = RadialWavefunction.from_solution(solve_sector(self.TP, 1, 20))
        grid = np.linspace(0.1, 6.0, 50)
        profile = density_profile(wf, grid)
        want = profile.density.copy()
        profile.density[:] = -1.0
        assert np.array_equal(density_profile(wf, grid).density, want)

        field = current_vector_field(wf, self.TP, 4.0, 9)
        want = [a.copy() for a in field]
        for array in field:
            array[:] = 7.0
        for a, b in zip(current_vector_field(wf, self.TP, 4.0, 9), want):
            assert np.array_equal(a, b)

    def test_the_cache_keeps_at_most_its_bound(self):
        sol = solve_sector(self.TP, 0, size=70)
        first = RadialWavefunction.from_solution(sol, 0)
        for level in range(1, 70):
            RadialWavefunction.from_solution(sol, level)
        info = observables._state.cache_info()
        assert info.currsize <= info.maxsize == 64
        # the least recently used state was dropped, and is built anew
        assert RadialWavefunction.from_solution(sol, 0) is not first

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-4, 4), size=st.integers(1, 40), data=st.data())
    def test_any_state_is_shared_and_rebuilds_bit_equal(self, nu, b, m, size,
                                                        data):
        level = data.draw(st.integers(0, size - 1), label="level")
        tp = TrapParams(nu=nu, b=b)
        sol = solve_sector(tp, m, size=size)
        wf = RadialWavefunction.from_solution(sol, level)
        again = solve_sector(tp, m, size=size)
        assert RadialWavefunction.from_solution(again, level) is wf
        _clear_every_cache()
        cold = RadialWavefunction.from_solution(sol, level)
        assert cold is not wf
        _assert_same_state(cold, wf)
        # the moments are BLAS forms of a contiguous copy of the column, so
        # the strided column and a contiguous copy of it give the same bits
        assert cold._moments == sol.basis.radial_moments(sol.vectors[:, level])

    def test_the_same_values_in_any_layout_are_one_state(self):
        sol = solve_sector(self.TP, 1, size=40)
        _assert_one_state_in_every_layout(sol, 1)

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-4, 4), size=st.integers(1, 60), data=st.data())
    def test_any_state_is_one_state_in_every_layout(self, nu, b, m, size,
                                                    data):
        level = data.draw(st.integers(0, size - 1), label="level")
        sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        _assert_one_state_in_every_layout(sol, level)


def _layouts(vectors):
    """The same values in C and Fortran order, in a buffer offset by one
    byte, and as every other column of a wider matrix."""
    unaligned = np.frombuffer(bytearray(vectors.nbytes + 1), offset=1,
                              count=vectors.size).reshape(vectors.shape)
    unaligned[...] = vectors
    wide = np.zeros((vectors.shape[0], 2 * vectors.shape[1]))
    wide[:, ::2] = vectors
    return [vectors, np.asfortranarray(vectors), unaligned, wide[:, ::2]]


def _assert_one_state_in_every_layout(sol, level):
    """Every layout of the vectors gives one state and bit-equal moments."""
    want = sol.basis.radial_moments(np.ascontiguousarray(
        sol.vectors[:, level]))
    states = []
    for vectors in _layouts(sol.vectors):
        assert np.array_equal(vectors, sol.vectors)
        assert sol.basis.radial_moments(vectors[:, level]) == want
        by_hand = RadialEigenSolution(m=sol.m, params=sol.params,
                                      basis=sol.basis, energies=sol.energies,
                                      vectors=vectors)
        wf = RadialWavefunction.from_solution(by_hand, level)
        assert wf._moments == want
        states.append(wf)
    assert all(wf is states[0] for wf in states)
