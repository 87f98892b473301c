"""Grid propagation: packets, ramps, frames, guards, imaginary time."""

import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ive

import oracles
from magtrap import RadialBasis, TrapParams, solve_sector
from magtrap.dynamics import (
    MAX_GRID_N,
    BoundaryLeakError,
    GridSpec,
    GridState,
    RampProtocol,
    angular_maxima_count,
    circular_variance,
    evolve,
    gaussian_packet,
    imaginary_time_ground,
    rotate_frame,
    sector_seed,
    state_observables,
    strang_step,
    to_lab_frame,
    _Propagator,
    _Tables,
    _step_factors,
    _tables_for,
)

SPEC128 = GridSpec(n=128, half_extent=8.0)
SPEC64 = GridSpec(n=64, half_extent=8.0)
FREE = TrapParams(nu=0.0, b=0.0)


def center_of_mass(state):
    xi, eta = state.spec.meshes()
    w = state.density() * state.spec.h ** 2
    return float((xi * w).sum()), float((eta * w).sum())


class TestGridSpec:
    def test_spacing_and_softcore_radius(self):
        spec = GridSpec(n=8, half_extent=4.0)
        assert spec.h == 1.0
        assert spec.coulomb_epsilon == 0.5

    def test_offset_axis_avoids_origin_and_is_symmetric(self):
        ax = SPEC64.axis()
        assert np.abs(ax).min() == pytest.approx(0.5 * SPEC64.h)
        np.testing.assert_allclose(ax + ax[::-1], 0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [0, 2, 5, 48])
    def test_rejects_bad_point_count(self, n):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(n=n)

    def test_point_ceiling_is_exact(self):
        # a spec holds no array, so the ceiling costs nothing to probe
        assert GridSpec(n=MAX_GRID_N).n == MAX_GRID_N
        with pytest.raises(ValueError, match=f"ceiling of {MAX_GRID_N}"):
            GridSpec(n=2 * MAX_GRID_N)

    @pytest.mark.parametrize("L", [0.0, -3.0, math.inf])
    def test_rejects_bad_extent(self, L):
        with pytest.raises(ValueError):
            GridSpec(n=64, half_extent=L)

    def test_wavenumbers_match_fft_convention(self):
        spec = GridSpec(n=8, half_extent=4.0)
        np.testing.assert_allclose(
            spec.wavenumbers(), 2 * np.pi * np.fft.fftfreq(8, d=1.0))


class TestGridState:
    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            GridState(spec=SPEC64, amplitudes=np.zeros((3, 3), complex))

    def test_rejects_unknown_frame(self):
        amp = np.zeros((64, 64), complex)
        with pytest.raises(ValueError, match="frame"):
            GridState(spec=SPEC64, amplitudes=amp, frame="galilean")

    def test_lab_frame_requires_zero_angle(self):
        amp = np.zeros((64, 64), complex)
        with pytest.raises(ValueError, match="theta"):
            GridState(spec=SPEC64, amplitudes=amp, frame="lab", theta=0.1)


class TestPackets:
    def test_gaussian_packet_normalized(self):
        st = gaussian_packet(SPEC128, center=2.0, width=0.5)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        assert center_of_mass(st) == pytest.approx((2.0, 0.0), abs=1e-10)

    def test_packet_width_sets_variance(self):
        st = gaussian_packet(SPEC128, center=0.0, width=2.0)
        xi, _ = SPEC128.meshes()
        var = float((xi ** 2 * st.density()).sum() * SPEC128.h ** 2)
        assert var == pytest.approx(1.0 / (4.0 * 2.0), rel=1e-9)

    def test_packet_must_fit_in_box(self):
        with pytest.raises(ValueError, match="edge"):
            gaussian_packet(SPEC128, center=6.0, width=0.5)
        with pytest.raises(ValueError, match="width"):
            gaussian_packet(SPEC128, center=0.0, width=0.0)

    def test_a_nan_center_is_refused(self):
        with pytest.raises(ValueError, match="xi0 = nan"):
            gaussian_packet(SPEC128, center=math.nan)

    def test_a_nan_width_is_refused(self):
        with pytest.raises(ValueError, match="width = nan"):
            gaussian_packet(SPEC128, center=0.0, width=math.nan)

    @pytest.mark.parametrize("m", [0, 1, -2, 3])
    def test_sector_seed_carries_its_angular_momentum(self, m):
        st = sector_seed(SPEC128, m)
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        assert state_observables(st, FREE)["Lz"] == pytest.approx(m, abs=1e-9)


class TestRampProtocol:
    @pytest.mark.parametrize("kwargs", [
        {"kind": "quench", "nu_final": 1.0},
        {"kind": "step", "nu_final": 1.0, "tau_ramp": 2.0},
        {"kind": "linear", "nu_final": 1.0},
        {"kind": "smooth", "nu_final": 1.0, "tau_ramp": -1.0},
        {"kind": "step", "nu_final": -0.5},
        {"kind": "linear", "nu_final": 1.0, "tau_ramp": math.inf},
        {"kind": "smooth", "nu_final": 1.0, "tau_ramp": math.inf},
    ])
    def test_rejects_inconsistent_protocols(self, kwargs):
        with pytest.raises(ValueError):
            RampProtocol(**kwargs)

    @pytest.mark.parametrize("nu_final", [math.nan, math.inf])
    def test_rejects_a_field_that_is_not_finite(self, nu_final):
        with pytest.raises(ValueError, match=f"nu_final = {nu_final}"):
            RampProtocol("step", nu_final)

    def test_step_profile(self):
        r = RampProtocol("step", 1.5)
        assert r.nu(-1.0) == 0.0 and r.nu(0.0) == 0.0
        assert r.nu(1e-9) == 1.5

    def test_linear_profile_clamps(self):
        r = RampProtocol("linear", 2.0, tau_ramp=4.0)
        assert r.nu(2.0) == pytest.approx(1.0)
        assert r.nu(4.0) == r.nu(9.0) == 2.0

    def test_smooth_profile_starts_tiny_and_saturates(self):
        r = RampProtocol("smooth", 1.0, tau_ramp=2.0)
        assert 0.0 < r.nu(0.0) < 1e-3
        assert 0.999 < r.nu(2.0) < 1.0
        taus = np.linspace(0.0, 4.0, 200)
        assert np.all(np.diff(r.nu(taus)) > 0)

    @pytest.mark.parametrize("ramp", [
        RampProtocol("step", 1.5),
        RampProtocol("linear", 1.5, tau_ramp=2.0),
        RampProtocol("smooth", 1.5, tau_ramp=2.0),
    ])
    @pytest.mark.parametrize("tau", [0.3, 1.7, 5.0])
    def test_closed_form_integral_matches_quadrature(self, ramp, tau):
        ref, _ = quad(ramp.nu, 0.0, tau, limit=200)
        assert ramp.nu_integral(tau) == pytest.approx(ref, abs=1e-9)


class TestFrameOperations:
    def test_quarter_turn_is_exact(self):
        st = gaussian_packet(SPEC128, center=2.0)
        cx, cy = center_of_mass(rotate_frame(st, math.pi / 2))
        assert (cx, cy) == pytest.approx((0.0, 2.0), abs=1e-12)

    def test_generic_angle_round_trips(self):
        st = gaussian_packet(SPEC128, center=2.0)
        rot = rotate_frame(st, 0.7)
        assert rot.norm() == pytest.approx(1.0, abs=1e-12)
        back = rotate_frame(rot, -0.7)
        assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-12

    def test_to_lab_frame_clears_angle(self):
        st = GridState(spec=SPEC128,
                       amplitudes=gaussian_packet(SPEC128, 2.0).amplitudes,
                       frame="rotating", tau=1.0, theta=0.3)
        lab = to_lab_frame(st)
        assert lab.frame == "lab" and lab.theta == 0.0 and lab.tau == 1.0
        assert lab.norm() == pytest.approx(1.0, abs=1e-8)
        # pattern rotated by -theta
        assert center_of_mass(lab) == pytest.approx(
            (2.0 * math.cos(0.3), -2.0 * math.sin(0.3)), abs=1e-9)

    def test_to_lab_frame_is_idempotent(self):
        lab = to_lab_frame(gaussian_packet(SPEC128, 2.0))
        assert to_lab_frame(lab) is lab


class TestStateObservables:
    def test_displaced_packet_energy_and_center(self):
        # coherent state of the bare trap: E = 1 + xi0^2 / 2
        obs = state_observables(gaussian_packet(SPEC128, 2.0, 0.5), FREE)
        assert obs["energy"] == pytest.approx(3.0, abs=1e-8)
        assert obs["cx"] == pytest.approx(2.0, abs=1e-9)
        assert obs["cy"] == pytest.approx(0.0, abs=1e-12)
        assert obs["Lz"] == pytest.approx(0.0, abs=1e-12)

    def test_gauge_velocity_of_real_packet(self):
        # <p> = 0 but the kinetic velocity is (0, -(nu/2) xi0)
        tp = TrapParams(nu=1.3, b=0.0)
        obs = state_observables(gaussian_packet(SPEC128, 2.0, 0.5), tp)
        assert obs["vx"] == pytest.approx(0.0, abs=1e-12)
        assert obs["vy"] == pytest.approx(-0.5 * 1.3 * 2.0, abs=1e-12)

    def test_frame_angle_rotates_vector_outputs(self):
        tp = TrapParams(nu=1.3, b=0.0)
        amp = gaussian_packet(SPEC128, 2.0, 0.5).amplitudes
        rot = state_observables(GridState(spec=SPEC128, amplitudes=amp), tp)
        seen = state_observables(
            GridState(spec=SPEC128, amplitudes=amp, theta=math.pi / 2), tp)
        assert seen["cx"] == pytest.approx(rot["cy"], abs=1e-12)
        assert seen["cy"] == pytest.approx(-rot["cx"], abs=1e-12)
        assert seen["vx"] == pytest.approx(rot["vy"], abs=1e-12)
        assert seen["vy"] == pytest.approx(-rot["vx"], abs=1e-12)


def moving_packet(spec, x0, y0, kx0, ky0):
    """Normalized unit-width Gaussian at (x0, y0) with momentum (kx0, ky0)."""
    xi, eta = spec.meshes()
    psi = np.exp(-0.5 * ((xi - x0) ** 2 + (eta - y0) ** 2)
                 + 1j * (kx0 * xi + ky0 * eta))
    return psi / math.sqrt(spec.h ** 2 * np.vdot(psi, psi).real)


def assert_observables_match(got, ref):
    assert set(got) == set(ref)
    for name, value in ref.items():
        assert got[name] == pytest.approx(value, rel=1e-12, abs=1e-12), name


class TestKernelAgainstReference:
    """strang_step and state_observables against the oracles' split step,
    which rebuilds the whole potential on every call and weights the 2-D
    transform by k^2."""

    @settings(max_examples=30, deadline=None)
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           dtau=st.floats(1e-4, 1e-2),
           x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0),
           kx0=st.floats(-2.0, 2.0), ky0=st.floats(-2.0, 2.0),
           theta=st.floats(-4.0, 4.0))
    @example(nu=0.0, b=0.0, dtau=1e-3, x0=2.0, y0=0.0, kx0=0.0, ky0=0.0,
             theta=0.0)
    def test_step_and_observables(self, nu, b, dtau, x0, y0, kx0, ky0, theta):
        tp = TrapParams(nu=nu, b=b)
        psi = moving_packet(SPEC64, x0, y0, kx0, ky0)
        state = GridState(spec=SPEC64, amplitudes=psi, theta=theta)
        got = strang_step(state, tp, dtau).amplitudes
        ref = oracles.reference_strang_step(psi, SPEC64.half_extent, nu, b,
                                            dtau)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
        assert_observables_match(
            state_observables(state, tp),
            oracles.reference_observables(psi, SPEC64.half_extent, nu, b,
                                          theta))

    def test_ramp_changes_nu_every_step(self):
        tp = TrapParams(nu=1.5, b=1.0)
        ramp = RampProtocol("linear", 1.5, tau_ramp=1.0)
        dtau = 1e-2
        psi = moving_packet(SPEC64, 2.0, -1.0, 0.5, 1.0)
        res = evolve(GridState(spec=SPEC64, amplitudes=psi), tp, dtau,
                     20 * dtau, ramp, record_every=20)
        ref = psi
        for i in range(20):
            ref = oracles.reference_strang_step(
                ref, SPEC64.half_extent, ramp.nu((i + 0.5) * dtau), tp.b, dtau)
        final = res.final_state
        np.testing.assert_allclose(final.amplitudes, ref, rtol=0, atol=1e-12)
        expected = oracles.reference_observables(
            ref, SPEC64.half_extent, ramp.nu(final.tau), tp.b, final.theta)
        last_row = {name: col[-1] for name, col in res.as_columns().items()
                    if name in expected}
        assert_observables_match(last_row, expected)


class TestMergedKicksAgainstReference:
    """evolve's loop, which applies each step's trailing half kick and the
    next step's leading one as one product, against as many calls of the
    oracles' split step, which takes both half kicks and rebuilds the whole
    potential on every call."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 32, 64]), k=st.integers(1, 25),
           smooth=st.booleans(), record_every=st.integers(1, 30),
           nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           dtau=st.floats(1e-4, 1e-2),
           x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
           kx0=st.floats(-1.0, 1.0), ky0=st.floats(-1.0, 1.0))
    @example(n=64, k=25, smooth=False, record_every=10, nu=1.0, b=1.0,
             dtau=1e-2, x0=2.0, y0=0.0, kx0=0.0, ky0=1.0)
    @example(n=16, k=25, smooth=True, record_every=3, nu=2.5, b=0.5,
             dtau=1e-2, x0=-1.0, y0=1.0, kx0=0.5, ky0=0.0)
    def test_steps(self, n, k, smooth, record_every, nu, b, dtau, x0, y0,
                   kx0, ky0):
        # the smooth ramp moves nu on every step, at its midpoint.  The edge
        # guard is not under test: a 16^2 grid rings out to its edge
        spec = GridSpec(n=n, half_extent=8.0)
        tp = TrapParams(nu=nu, b=b)
        ramp = RampProtocol("smooth", nu, tau_ramp=k * dtau) if smooth else None
        psi = moving_packet(spec, x0, y0, kx0, ky0)
        res = evolve(GridState(spec=spec, amplitudes=psi), tp, dtau, k * dtau,
                     ramp, record_every=record_every, edge_tol=math.inf)
        ref = psi
        for i in range(k):
            nu_i = ramp.nu((i + 0.5) * dtau) if smooth else nu
            ref = oracles.reference_strang_step(ref, spec.half_extent, nu_i, b,
                                                dtau)
        assert res.final_state.tau == pytest.approx(k * dtau, rel=1e-12)
        np.testing.assert_allclose(res.final_state.amplitudes, ref, rtol=0,
                                   atol=1e-12)


class TestRecordSymmetries:
    """The record of a field and of its image under the square's symmetries.

    A quarter turn psi'(xi, eta) = psi(eta, -xi) is an exact permutation of
    the offset grid and commutes with h2; the reflection xi <-> eta maps
    the problem at nu onto the one at -nu."""

    @settings(max_examples=25, deadline=None)
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0),
           kx0=st.floats(-2.0, 2.0), ky0=st.floats(-2.0, 2.0),
           quarters=st.integers(1, 3))
    def test_quarter_turns_and_reflection(self, nu, b, x0, y0, kx0, ky0,
                                          quarters):
        tp = TrapParams(nu=nu, b=b)
        psi = moving_packet(SPEC64, x0, y0, kx0, ky0)
        obs = state_observables(GridState(spec=SPEC64, amplitudes=psi), tp)
        turned = dict(obs)
        for _ in range(quarters):
            turned.update(cx=-turned["cy"], cy=turned["cx"],
                          vx=-turned["vy"], vy=turned["vx"])
        rotated = np.rot90(psi, quarters)
        assert_observables_match(
            state_observables(GridState(spec=SPEC64, amplitudes=rotated), tp),
            turned)
        mirrored = state_observables(
            GridState(spec=SPEC64, amplitudes=psi.T.copy()), tp, nu=-nu)
        assert_observables_match(mirrored, dict(
            obs, Lz=-obs["Lz"], cx=obs["cy"], cy=obs["cx"], vx=obs["vy"],
            vy=obs["vx"]))


class TestEdgeMassAgainstReference:
    """The border-strip sum of the edge guard against the oracles' sum of
    the full density under a border mask."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([8, 16, 64]), cells=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_edge_mass(self, n, cells, seed):
        spec = GridSpec(n=n, half_extent=8.0)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = _tables_for(spec, 0.0, "softcore").edge_mass(psi, cells)
        ref = oracles.reference_edge_mass(psi, spec.h, cells)
        assert got == pytest.approx(ref, rel=1e-13)


class TestTransformAgainstReference:
    """The stepper's one-axis transforms against the oracles' kernel step on
    scipy's 2-D transforms, with the same kick and kinetic factors."""

    # of max|psi|, fixed before the step; the two differ by the rounding of
    # the kick's products, and this leaves room for other pocketfft builds
    RTOL = 1e-13

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([16, 64, 128]),
           nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           dtau=st.floats(1e-4, 1e-2), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=16, nu=1.0, b=1.0, dtau=1e-3, seed=0)
    @example(n=128, nu=2.5, b=0.5, dtau=5e-3, seed=1)
    def test_step(self, n, nu, b, dtau, seed):
        spec = GridSpec(n=n, half_extent=8.0)
        propagator = _Propagator(spec, b, dtau)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        atol = self.RTOL * float(np.abs(psi).max())
        got = propagator.step(psi.copy(), nu)
        half = propagator.settle(np.ones_like(psi))  # the pending kick
        propagator.settle(got, out=got)
        ref = oracles.reference_transform_step(psi, half, propagator.kinetic)
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


class TestRotationAgainstReference:
    """rotate_frame and the autocorrelation column against the oracles'
    rotation, which applies every shear as a direct N^2 exponential table
    and builds the lab field."""

    ATOL = 1e-12

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from([SPEC64, SPEC128]),
           theta=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0),
           kx0=st.floats(-2.0, 2.0), ky0=st.floats(-2.0, 2.0))
    @example(spec=SPEC128, theta=0.3, x0=2.0, y0=-1.0, kx0=1.5, ky0=-0.5)
    @example(spec=SPEC64, theta=-0.5 * math.pi, x0=2.0, y0=1.0, kx0=0.0,
             ky0=1.0)
    def test_rotate_frame(self, spec, theta, x0, y0, kx0, ky0):
        psi = moving_packet(spec, x0, y0, kx0, ky0)
        got = rotate_frame(GridState(spec=spec, amplitudes=psi), theta)
        ref = oracles.reference_rotation(psi, spec.half_extent, theta)
        np.testing.assert_allclose(got.amplitudes, ref, rtol=0,
                                   atol=self.ATOL)

    def test_autocorr_is_the_lab_overlap(self):
        # the frame angle sweeps past 3 pi/4 on the ramp, so the records
        # meet three quarter-turn counts, theta = 0 among them
        seen = []

        def keep(state):
            seen.append((state.theta, state.amplitudes))
            return 0.0

        # a weak coupling: at b = 1 the soft core scatters this packet to
        # the edge of the 8-unit box
        tp = TrapParams(nu=2.5, b=0.3)
        ramp = RampProtocol("smooth", 2.5, tau_ramp=1.0)
        psi0 = moving_packet(SPEC64, 2.0, -1.0, 0.5, 1.0)
        res = evolve(GridState(spec=SPEC64, amplitudes=psi0), tp, 1e-2, 3.0,
                     ramp, observers=(("keep", keep),))
        assert len(seen) == len(res.autocorr) == 31
        assert seen[-1][0] > 0.75 * math.pi
        h2 = SPEC64.h ** 2
        for (theta, psi), got in zip(seen, res.autocorr):
            lab = oracles.reference_rotation(psi, SPEC64.half_extent, -theta)
            assert got == pytest.approx(abs(h2 * np.vdot(psi0, lab)),
                                        rel=0, abs=self.ATOL)


class TestClassicalMotion:
    def test_zero_field_packet_oscillates_as_cosine(self):
        res = evolve(gaussian_packet(SPEC128, 2.0, 0.5), FREE,
                     1e-3, 2 * math.pi, record_every=100)
        assert np.abs(res.cx - 2.0 * np.cos(res.tau)).max() < 1e-4
        assert np.abs(res.cy).max() < 1e-10
        assert res.worst_norm_drift < 1e-10

    def test_lab_frame_records_follow_classical_orbit(self):
        tp = TrapParams(nu=1.0, b=0.0)
        res = evolve(gaussian_packet(SPEC128, 2.0, 0.5), tp,
                     1e-3, 2.0, record_every=100)
        ref = oracles.classical_trajectory(1.0, 2.0, res.tau)
        for col, j in ((res.cx, 0), (res.cy, 1), (res.vx, 2), (res.vy, 3)):
            assert np.abs(col - ref[:, j]).max() < 1e-5
        # the t = 0 row already carries the gauge drift
        assert res.vy[0] == pytest.approx(-0.5 * tp.nu * 2.0, abs=1e-10)


# the continuum reference integrates over rho in [0, _REF_RHO_MAX]: a packet
# of width 1/2 centred at xi0 <= 4 falls below 1e-31 there
_REF_RHO_MAX = 16.0


@functools.lru_cache(maxsize=None)
def _weighted_sector_basis(m_abs, size, nodes):
    """Gauss-Legendre nodes on [0, _REF_RHO_MAX], and the sector's
    orthonormal phi_k on them times sqrt(rho) and the quadrature weights."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    rho = 0.5 * _REF_RHO_MAX * (x + 1.0)
    basis = RadialBasis(m=m_abs, size=size)
    phi = np.array([basis.expansion(e)(rho) for e in np.eye(size)])
    return rho, phi * (np.sqrt(rho) * 0.5 * _REF_RHO_MAX * w)


def continuum_autocorrelation(tp, xi0, width, taus, m_max=28, size=50,
                              nodes=300):
    """(A(tau), E) of the packet exp(-width ((xi - xi0)^2 + eta^2)) at
    constant nu, stepped exactly in each sector's radial eigenbasis.

    h2 is rotationally symmetric, so the packet's sectors evolve apart.  The
    m-component of the normalized packet is, with N = sqrt(2 width / pi),

        sqrt(2 pi) N exp(-width (rho^2 + xi0^2)) I_m(2 width xi0 rho),

    its population in state n is c_mn^2, c_mn = int f_m chi_mn sqrt(rho),
    and A(tau) = |sum c_mn^2 exp(-i E_mn tau)|, the lab-frame overlap that
    evolve records; solve_sector's E_mn include -m nu / 2.  A(0) is the
    total population, 1 when the sectors hold the whole packet.
    """
    amp = np.zeros(len(taus), dtype=complex)
    energy = 0.0
    for m in range(-m_max, m_max + 1):
        rho, weighted = _weighted_sector_basis(abs(m), size, nodes)
        # ive(m, z) = I_m(z) exp(-z) keeps the product finite far out
        f = (2.0 * math.sqrt(width) * ive(m, 2.0 * width * xi0 * rho)
             * np.exp(-width * (rho - xi0) ** 2))
        sol = solve_sector(tp, m, size=size)
        pop = (sol.vectors.T @ (weighted @ f)) ** 2
        amp += np.exp(-1j * np.outer(taus, sol.energies)) @ pop
        energy += pop @ sol.energies
    return np.abs(amp), energy


class TestContinuumReference:
    """evolve's autocorrelation and energy against the continuum reference
    of a packet kicked to xi0 = 4 (width 1/2, nu = 1, L = 12, tau <= 2).

    At b = 0 only dtau enters: the grid is spectrally accurate there.  At
    b > 0 the gap is spatial and first order in h: evolve steps the soft
    core b / sqrt(rho^2 + (h/2)^2), and the gap is the same at dtau = 4e-3
    as at 1e-3.  The bounds sit just above the measured figures, so a form
    of the Coulomb term that converges faster passes, and a changed field
    factor or Coulomb strength does not."""

    @pytest.mark.parametrize("b,n,dtau,gap_bound,energy_bound", [
        (0.0, 128, 1e-3, 1e-7, 1e-11),   # measured 6.3e-8, 1.1e-13
        (1.0, 128, 1e-3, 5e-4, 9e-5),    # measured 4.8e-4, -8.1e-5
        (1.0, 256, 4e-3, 2.5e-4, 2.2e-5),  # measured 2.4e-4, -2.0e-5
    ])
    def test_autocorrelation_and_energy(self, b, n, dtau, gap_bound,
                                        energy_bound):
        spec = GridSpec(n=n, half_extent=12.0)
        tp = TrapParams(nu=1.0, b=b)
        res = evolve(gaussian_packet(spec, 4.0, 0.5), tp, dtau, 2.0)
        autocorr, energy = continuum_autocorrelation(tp, 4.0, 0.5, res.tau)
        assert np.max(np.abs(res.autocorr - autocorr)) <= gap_bound
        # the packet's grid energy; later records move by O(dtau^2)
        assert abs(res.energy[0] - energy) <= energy_bound

    @settings(max_examples=6, deadline=None)
    @given(nu=st.floats(0.0, 2.0), xi0=st.floats(1.0, 4.0))
    @example(nu=2.0, xi0=4.0)
    def test_zero_coupling_gap_is_the_time_step(self, nu, xi0):
        # the Strang step's dtau^2 error: 1.5e-6 at nu = 2, xi0 = 4
        spec = GridSpec(n=128, half_extent=12.0)
        tp = TrapParams(nu=nu, b=0.0)
        res = evolve(gaussian_packet(spec, xi0, 0.5), tp, 4e-3, 1.0)
        autocorr, energy = continuum_autocorrelation(tp, xi0, 0.5, res.tau)
        assert np.max(np.abs(res.autocorr - autocorr)) <= 2e-6
        assert abs(res.energy[0] - energy) <= 1e-11

    def test_reference_is_converged(self):
        tp = TrapParams(nu=1.0, b=1.0)
        taus = np.linspace(0.0, 2.0, 41)
        autocorr, energy = continuum_autocorrelation(tp, 4.0, 0.5, taus)
        wider, wider_energy = continuum_autocorrelation(
            tp, 4.0, 0.5, taus, m_max=34, size=70, nodes=400)
        assert autocorr[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(autocorr - wider)) <= 1e-10
        assert energy == pytest.approx(wider_energy, abs=1e-11)


class TestEvolveBookkeeping:
    def test_span_snaps_to_whole_steps(self):
        res = evolve(gaussian_packet(SPEC128, 2.0), FREE, 0.01, 0.055,
                     record_every=1)
        assert abs(res.tau[-1] - 0.055) <= 0.005 + 1e-12

    def test_record_cadence(self):
        res = evolve(gaussian_packet(SPEC128, 2.0), FREE, 1e-3, 0.5,
                     record_every=100)
        assert len(res.tau) == 6
        cols = res.as_columns()
        assert set(cols) == {"tau", "norm", "energy", "Lz", "vx", "vy",
                             "autocorr", "cx", "cy"}

    def test_observer_columns(self):
        res = evolve(gaussian_packet(SPEC128, 2.0), FREE, 1e-3, 0.1,
                     record_every=50,
                     observers=(("cv", circular_variance),))
        assert "cv" in res.as_columns()
        assert len(res.extra["cv"]) == len(res.tau)
        assert res.extra["cv"][0] == pytest.approx(
            circular_variance(gaussian_packet(SPEC128, 2.0)), abs=1e-12)

    def test_snapshots_snap_to_grid_times(self):
        res = evolve(gaussian_packet(SPEC128, 2.0), TrapParams(nu=1.0, b=0.0),
                     1e-3, 0.5, snapshot_times=(0.2503, 0.4),
                     snapshot_frame="lab")
        assert [s.requested_tau for s in res.snapshots] == [0.2503, 0.4]
        for snap in res.snapshots:
            assert abs(snap.state.tau - snap.requested_tau) <= 5e-4 + 1e-12
            assert snap.state.frame == "lab" and snap.state.theta == 0.0

    @pytest.mark.parametrize("smooth", [False, True])
    def test_stepped_field_ignores_the_record_cadence(self, smooth):
        # a record settles a copy of the field with its pending half kick,
        # so the stepped field, and every row, is the same bit for bit
        # however often the run records
        tp = TrapParams(nu=1.5, b=1.0)
        ramp = RampProtocol("smooth", 1.5, tau_ramp=0.2) if smooth else None
        state = GridState(spec=SPEC64,
                          amplitudes=moving_packet(SPEC64, 2.0, -1.0, 0.5, 1.0))
        runs = {every: evolve(state, tp, 1e-2, 0.3, ramp, record_every=every)
                for every in (1, 3, 10)}
        every_step = runs[1]
        for every, res in runs.items():
            np.testing.assert_array_equal(res.final_state.amplitudes,
                                          every_step.final_state.amplitudes)
            # each row sits at a tau that the run recording every step shares
            _, rows, steps = np.intersect1d(res.tau, every_step.tau,
                                            return_indices=True)
            assert len(rows) == len(res.tau) == -(-30 // every) + 1
            for name, col in res.as_columns().items():
                np.testing.assert_array_equal(
                    col[rows], every_step.as_columns()[name][steps],
                    err_msg=f"{name}, record_every = {every}")

    def test_record_makes_six_transforms(self, monkeypatch):
        # a step is four one-axis passes; the record at theta = 0 reads two
        # power spectra, the reference is transformed once, and every later
        # record makes six passes: the axis-0 transform of its power
        # spectrum is the first of its shears
        calls = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                calls.append(transform.__name__)
                return transform(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        state = gaussian_packet(SPEC64, 2.0)
        tp = TrapParams(nu=1.0, b=1.0)
        for every, later_records in ((10, 2), (5, 4)):
            calls.clear()
            evolve(state, tp, 1e-2, 0.2, record_every=every)
            assert len(calls) == 4 * 20 + 2 + 1 + 6 * later_records

    def test_autocorr_starts_at_unity(self):
        res = evolve(gaussian_packet(SPEC128, 2.0), FREE, 1e-3, 0.05)
        assert res.autocorr[0] == pytest.approx(1.0, abs=1e-12)

    def test_final_state_carries_frame_angle(self):
        tp = TrapParams(nu=1.0, b=0.0)
        res = evolve(gaussian_packet(SPEC128, 2.0), tp, 1e-3, 0.5)
        assert res.final_state.theta == pytest.approx(0.5 * 1.0 * 0.5)
        assert res.final_lab().frame == "lab"

    def test_changing_dtau_matches_fresh_runs(self):
        # the step factors are cached per dtau; a run after one at another
        # dtau must not see them
        tp = TrapParams(nu=1.0, b=0.5)
        state = gaussian_packet(SPEC64, 2.0)

        def run(dtau):
            return evolve(state, tp, dtau, 0.1, record_every=5)

        fresh = {}
        for dtau in (2e-3, 1e-3):
            _tables_for.cache_clear()
            _step_factors.cache_clear()
            fresh[dtau] = run(dtau)
        _tables_for.cache_clear()
        _step_factors.cache_clear()
        for dtau in (2e-3, 1e-3, 2e-3):
            got = run(dtau)
            np.testing.assert_array_equal(got.final_state.amplitudes,
                                          fresh[dtau].final_state.amplitudes)
            for name, col in fresh[dtau].as_columns().items():
                np.testing.assert_array_equal(got.as_columns()[name], col)

    def test_rejects_bad_arguments(self):
        st = gaussian_packet(SPEC128, 2.0)
        with pytest.raises(ValueError):
            evolve(st, FREE, -1e-3, 1.0)
        with pytest.raises(ValueError):
            evolve(st, FREE, 1e-3, 0.0)
        with pytest.raises(ValueError):
            evolve(st, FREE, 1e-3, 1.0, snapshot_frame="corotating")
        # an unnormalized input is named as such, not blamed on dtau
        doubled = GridState(spec=SPEC128, amplitudes=2.0 * st.amplitudes)
        with pytest.raises(ValueError, match="input state norm is 2"):
            evolve(doubled, FREE, 1e-3, 1.0)

    def test_coarse_step_warns_about_phase_wrap(self):
        with pytest.warns(UserWarning, match="phase wraps"):
            evolve(gaussian_packet(SPEC128, 2.0), FREE, 0.1, 0.3)


class TestConcurrentRuns:
    def test_threads_match_serial_runs(self):
        # the runs read one grid's cached tables, built here by whichever
        # thread comes first; each keeps its own half kick, which the
        # ramps rebuild on every step.  More threads than cores and a short
        # switch interval make the threads interleave often
        tp = TrapParams(nu=1.0, b=0.0)
        state = gaussian_packet(SPEC128, 1.5)
        ramps = (RampProtocol("step", 1.0),
                 RampProtocol("smooth", 1.0, tau_ramp=0.3),
                 RampProtocol("linear", 1.0, tau_ramp=0.2), None)

        def run(ramp):
            return evolve(state, tp, 1e-3, 0.6, ramp, record_every=50)

        serial = [run(ramp) for ramp in ramps]
        threaded = [None] * len(ramps)

        def target(i):
            threaded[i] = run(ramps[i])

        _tables_for.cache_clear()
        _step_factors.cache_clear()
        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(len(ramps))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for alone, together in zip(serial, threaded):
            np.testing.assert_array_equal(together.final_state.amplitudes,
                                          alone.final_state.amplitudes)
            for name, col in alone.as_columns().items():
                np.testing.assert_array_equal(together.as_columns()[name],
                                              col)


class TestGuards:
    def test_edge_guard_trips_when_region_covers_packet(self):
        with pytest.raises(BoundaryLeakError, match="enlarge the box"):
            evolve(gaussian_packet(SPEC128, 0.0), FREE, 1e-3, 0.01,
                   edge_cells=60)

    def test_edge_leak_advice_belongs_to_the_run(self):
        # both runs share one grid's cached tables; the second, at nu = 1,
        # wraps nothing, so its leak is the box's fault whatever the first saw
        spec = GridSpec(n=64, half_extent=12.0)
        with pytest.warns(UserWarning, match="phase wraps"), \
                pytest.raises(BoundaryLeakError, match="reduce dtau"):
            evolve(gaussian_packet(spec), TrapParams(nu=20.0, b=0.0), 1e-3,
                   0.5)
        with pytest.raises(BoundaryLeakError, match="enlarge the box"):
            evolve(gaussian_packet(spec, 0.0), TrapParams(nu=1.0, b=0.0),
                   1e-3, 0.01, edge_cells=25)

    def test_edge_guard_fires_between_records(self):
        # a tight packet breathes out to the edge around tau = pi/2 and is
        # back at the centre by tau = pi, so the only two records (steps 0
        # and 628) both look clean; the guard must fire in between
        with pytest.raises(BoundaryLeakError, match=r"tau = 1\.\d+;"):
            evolve(gaussian_packet(SPEC64, 0.0, width=2.2), FREE, 5e-3,
                   math.pi, record_every=1000)

    def test_edge_guard_schedule_ignores_the_record_cadence(self):
        # the guard runs every 10th step and at the last one, never on the
        # record steps between, so a leaking run raises at one tau however
        # often it records
        messages = set()
        for record_every in (1, 3, 7, 10, 1000):
            with pytest.raises(BoundaryLeakError) as info:
                evolve(gaussian_packet(SPEC64, 0.0, width=2.2), FREE, 5e-3,
                       math.pi, record_every=record_every)
            messages.add(str(info.value))
        assert len(messages) == 1, messages
        assert "at tau = 1.05;" in messages.pop()

    @pytest.mark.parametrize("cells", [0, -1, 40])
    def test_edge_cells_outside_half_the_grid_are_refused(self, cells):
        # 0 or a negative count would read psi[-0:], the whole field, and
        # 40 of 64 cells would count overlapping strips twice
        with pytest.raises(ValueError,
                           match="edge_cells must be from 1 to n/2 = 32"):
            evolve(gaussian_packet(SPEC64, 0.0), FREE, 1e-3, 0.01,
                   edge_cells=cells)

    @pytest.mark.parametrize("n, smooth", [(256, False), (512, True)])
    def test_steps_between_records_allocate_no_field(self, monkeypatch, n,
                                                     smooth):
        # tracing starts at step 10's record, from an observer, and stops
        # at step 20's edge check, before its record: the nine steps between
        # and step 20 itself work in the field's own buffer.  A ramp rebuilds
        # its merged kick on every step through broadcast products, which
        # take numpy's fixed 128 KiB iteration buffer: a tenth of a 512^2
        # field, not of a 256^2 one
        spec = GridSpec(n=n, half_extent=12.0)
        state = gaussian_packet(spec, 4.0)
        ramp = RampProtocol("smooth", 1.0, tau_ramp=0.02) if smooth else None
        seen, peaks = [], []

        def start(view):
            seen.append(view.tau)
            if len(seen) == 2:
                tracemalloc.start()
            return 0.0

        edge_mass = _Tables.edge_mass

        def stop(self, psi, cells):
            if tracemalloc.is_tracing():
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            return edge_mass(self, psi, cells)

        monkeypatch.setattr(_Tables, "edge_mass", stop)
        try:
            evolve(state, TrapParams(nu=1.0, b=1.0), 1e-3, 0.02, ramp,
                   record_every=10, observers=(("start", start),))
        finally:
            if tracemalloc.is_tracing():
                tracemalloc.stop()
        assert len(seen) == 3 and len(peaks) == 1
        assert peaks[0] <= 0.1 * state.amplitudes.nbytes

    def test_interaction_flavor_mismatch_radiates(self):
        # a state relaxed under the cell-averaged interaction is not
        # stationary for the soft-core stepper: the defect at the origin
        # cells radiates and eventually hits the edge guard
        spec = GridSpec(n=128, half_extent=8.0)
        tp = TrapParams(nu=0.0, b=1.0)
        _, st = imaginary_time_ground(spec, tp, 0, coulomb="cell")
        with pytest.raises(BoundaryLeakError):
            evolve(st, tp, 2e-3, 3.0)

    def test_matched_flavor_is_stationary(self):
        spec = GridSpec(n=128, half_extent=8.0)
        tp = TrapParams(nu=0.0, b=1.0)
        _, st = imaginary_time_ground(spec, tp, 0, coulomb="softcore")
        res = evolve(st, tp, 2e-3, 1.0)
        assert res.autocorr.min() > 1.0 - 1e-6
        assert np.ptp(res.energy) < 1e-6

    def test_step_holds_one_field_besides_its_input(self):
        # the kernel transforms and multiplies in its input's buffer; an
        # N x N temporary beyond one would double the peak
        spec = GridSpec(n=256, half_extent=12.0)
        propagator = _Propagator(spec, 1.0, 1e-3)
        psi = gaussian_packet(spec, 4.0).amplitudes
        for _ in range(2):  # opens the run and builds its merged kick
            propagator.step(psi, 1.0)
        tracemalloc.start()
        try:
            propagator.step(psi, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * psi.nbytes

    def test_evolve_holds_no_copy_of_its_input(self):
        # at theta0 = 0 the autocorrelation's reference is the caller's own
        # field.  With the grid's tables cached, a record peaks at seven
        # fields: the stepped one, the run's merged kick, the settled copy,
        # the record's transform, the reference's transform and the two
        # shear tables.  A private copy of the input would be an eighth
        spec = GridSpec(n=256, half_extent=12.0)
        state = gaussian_packet(spec, 4.0)
        tp = TrapParams(nu=1.0, b=1.0)
        evolve(state, tp, 1e-3, 0.02)  # builds the cached tables
        tracemalloc.start()
        try:
            evolve(state, tp, 1e-3, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7.5 * state.amplitudes.nbytes

    def test_evolve_keeps_one_reference_transform(self):
        # from just below 3 pi/4 the frame passes a quarter-turn boundary.
        # Off theta0 = 0 the reference is a rotated copy, an eighth field
        # beside the seven above; its transform is replaced, not added to,
        # and is C-ordered, so no record copies it.  Keeping the transform
        # of each quarter-turn count peaked at nine fields
        spec = GridSpec(n=256, half_extent=12.0)
        amplitudes = gaussian_packet(spec, 4.0).amplitudes
        state = GridState(spec, amplitudes, theta=0.75 * math.pi - 0.005)
        tp = TrapParams(nu=1.0, b=1.0)
        evolve(state, tp, 1e-3, 0.02)  # builds the cached tables
        tracemalloc.start()
        try:
            result = evolve(state, tp, 1e-3, 0.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.final_state.theta > 0.75 * math.pi
        assert peak <= 8.5 * amplitudes.nbytes

    def test_strang_step_validation(self):
        st = gaussian_packet(SPEC128, 2.0)
        with pytest.raises(ValueError, match="dtau"):
            strang_step(st, FREE, 0.0)

    def test_strang_step_refuses_a_nan_step(self):
        with pytest.raises(ValueError, match="dtau = nan"):
            strang_step(gaussian_packet(SPEC128, 2.0), FREE, math.nan)

    def test_evolve_refuses_a_nan_step(self):
        with pytest.raises(ValueError, match="dtau = nan"):
            evolve(gaussian_packet(SPEC128, 2.0), FREE, math.nan, 1.0)

    @pytest.mark.parametrize("tau_end", [math.nan, math.inf])
    def test_evolve_refuses_an_end_that_is_not_finite(self, tau_end):
        with pytest.raises(ValueError, match=f"tau_end = {tau_end}"):
            evolve(gaussian_packet(SPEC128, 2.0), FREE, 1e-3, tau_end)

    def test_evolve_names_a_step_count_that_overflows(self):
        # both inputs are finite, but span / dtau is not
        with pytest.raises(OverflowError, match="dtau = 1e-320"):
            evolve(gaussian_packet(SPEC128, 2.0), FREE, 1e-320, 1.0)


class TestImaginaryTime:
    def test_bare_trap_ground_energy(self):
        energy, state = imaginary_time_ground(SPEC64, FREE, 0)
        assert energy == pytest.approx(1.0, abs=1e-6)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)
        assert state.frame == "rotating" and state.tau == 0.0

    def test_excited_sector_stays_seeded(self):
        energy, state = imaginary_time_ground(SPEC64, FREE, 1)
        assert energy == pytest.approx(2.0, abs=1e-6)
        assert state_observables(state, FREE)["Lz"] == pytest.approx(
            1.0, abs=1e-6)

    def test_field_shifts_sector_energy(self):
        energy, _ = imaginary_time_ground(SPEC64, TrapParams(nu=1.0, b=0.0), 0)
        assert energy == pytest.approx(math.sqrt(1.25), abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            imaginary_time_ground(SPEC64, FREE, 0, tol=-1e-9)
        with pytest.raises(ValueError, match="flavor"):
            imaginary_time_ground(SPEC64, FREE, 0, coulomb="hardcore")
        # there is no time step to set, by name or in its old slot
        with pytest.raises(TypeError):
            imaginary_time_ground(SPEC64, FREE, 0, dtau=5e-3)
        with pytest.raises(TypeError):
            imaginary_time_ground(SPEC64, FREE, 0, 5e-3)


class TestEigensolveAgainstDense:
    """imaginary_time_ground against the oracles' dense diagonalization of
    the grid h2 in the seed's C4 class.  A Ritz value bounds the eigenvalue
    from above, and on these grids it stops within tol of it.  On the 16^2
    grids m = +-1 runs only at b = 0: with the interaction, <L_z> of the
    grid state there is more than 1e-6 away from m and the sector guard
    trips."""

    @pytest.mark.parametrize("coulomb", ["cell", "softcore"])
    @pytest.mark.parametrize("n, L, nu, b, m", [
        *((16, 5.0, 0.0, 0.0, m) for m in (-1, 0, 1)),
        (16, 5.0, 1.0, 1.0, 0), (16, 4.5, 2.0, 0.5, 0),
        *((32, 5.0, 1.0, 1.0, m) for m in (-1, 0, 1)),
        *((32, 5.0, 2.0, 0.5, m) for m in (-1, 0, 1)),
        (32, 4.5, 0.5, 0.3, -1), (32, 4.5, 0.5, 0.3, 1),
    ])
    def test_lowest_level_of_the_sector(self, n, L, nu, b, m, coulomb):
        tol = 1e-9
        energy, _ = imaginary_time_ground(
            GridSpec(n=n, half_extent=L), TrapParams(nu=nu, b=b), m, tol=tol,
            coulomb=coulomb)
        reference = oracles.dense_h2_ground(n, L, nu, b, m, coulomb)
        assert -1e-12 < energy - reference < tol


class TestEigensolveProperties:
    """Physics invariants of the relaxed sector states on a 128^2 grid."""

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.0, 3.0), m=st.integers(-2, 2))
    def test_zero_coupling_is_fock_darwin(self, nu, m):
        energy, _ = imaginary_time_ground(SPEC128, TrapParams(nu=nu, b=0.0), m)
        assert energy == pytest.approx(oracles.fock_darwin_energy(nu, m, 0),
                                       abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           coulomb=st.sampled_from(["cell", "softcore"]))
    def test_sectors_one_apart_differ_by_nu(self, nu, b, coulomb):
        # h2 is even under eta -> -eta, which swaps m = 1 and m = -1, so
        # the two differ only by the -(nu/2) m of the field
        tp = TrapParams(nu=nu, b=b)
        e_minus, _ = imaginary_time_ground(SPEC128, tp, -1, coulomb=coulomb)
        e_plus, _ = imaginary_time_ground(SPEC128, tp, 1, coulomb=coulomb)
        assert e_minus - e_plus == pytest.approx(nu, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           m=st.integers(-2, 2))
    def test_state_is_normalized(self, nu, b, m):
        _, state = imaginary_time_ground(SPEC128, TrapParams(nu=nu, b=b), m)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 2.0),
           m=st.integers(-2, 2), coulomb=st.sampled_from(["cell", "softcore"]))
    def test_state_carries_the_seeded_angular_momentum(self, nu, b, m,
                                                       coulomb):
        tp = TrapParams(nu=nu, b=b)
        _, state = imaginary_time_ground(SPEC128, tp, m, coulomb=coulomb)
        assert state_observables(state, tp)["Lz"] == pytest.approx(m, abs=1e-6)


class TestAngularDiagnostics:
    def test_symmetric_state_has_full_circular_variance(self):
        assert circular_variance(sector_seed(SPEC128, 2)) > 0.999

    def test_localized_packet_has_small_circular_variance(self):
        assert circular_variance(gaussian_packet(SPEC128, 3.0)) < 0.1

    def test_maxima_count_resolves_separated_lobes(self):
        h2 = SPEC128.h ** 2
        psi = (gaussian_packet(SPEC128, 3.0).amplitudes
               + gaussian_packet(SPEC128, -3.0).amplitudes)
        psi /= math.sqrt(h2 * np.vdot(psi, psi).real)
        two = GridState(spec=SPEC128, amplitudes=psi)
        assert angular_maxima_count(two) == 2
        assert angular_maxima_count(gaussian_packet(SPEC128, 3.0)) == 1

    def test_maxima_count_is_rotation_invariant(self):
        h2 = SPEC128.h ** 2
        psi = (gaussian_packet(SPEC128, 3.0).amplitudes
               + gaussian_packet(SPEC128, -3.0).amplitudes)
        psi /= math.sqrt(h2 * np.vdot(psi, psi).real)
        two = GridState(spec=SPEC128, amplitudes=psi)
        assert angular_maxima_count(rotate_frame(two, 0.4)) == 2
