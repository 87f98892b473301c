"""Parameter containers, unit conversion, and the effective potential."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from magtrap.params import (
    COULOMB_K,
    HBAR,
    PhysicalParams,
    QuantumNumbers,
    TrapParams,
    effective_potential,
    fock_darwin_energy,
    from_physical,
)


class TestTrapParams:
    def test_defaults_and_derived_quantities(self):
        tp = TrapParams(nu=1.0, b=3.0)
        assert tp.field_sign == +1
        assert tp.gauss_width == pytest.approx(math.sqrt(1.25), abs=1e-15)

    def test_zero_field_width_is_one(self):
        assert TrapParams(nu=0.0).gauss_width == 1.0

    @pytest.mark.parametrize("kwargs", [
        {"nu": -0.5}, {"nu": 1.0, "b": -1.0}, {"nu": math.nan},
        {"nu": 1.0, "b": math.inf}, {"nu": 1.0, "field_sign": 0},
    ])
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            TrapParams(**kwargs)

    def test_negative_field_ratio_names_the_mirror(self):
        with pytest.raises(ValueError, match=(
                r"E\(-nu, m\) = E\(nu, -m\), so pass \|nu\| and mirror m")):
            TrapParams(nu=-1.0)

    def test_from_signed_canonicalizes_orientation(self):
        tp = TrapParams.from_signed(-2.0, b=1.0)
        assert tp.nu == 2.0
        assert tp.field_sign == -1
        assert TrapParams.from_signed(2.0).field_sign == +1

    def test_frozen(self):
        tp = TrapParams(nu=1.0)
        with pytest.raises(Exception):
            tp.nu = 2.0


class TestPhysicalConversion:
    # Be+ ion pair scale: the conversion must reproduce nu = |q| B / (mu w_t)
    MU = 0.5 * 9.012 * 1.66053906660e-27
    Q = 1.602176634e-19

    def test_nu_matches_cyclotron_ratio(self):
        w_t = 2 * math.pi * 1e6
        B = 0.5
        p = PhysicalParams(reduced_mass=self.MU, charge=self.Q,
                           trap_frequency=w_t, magnetic_induction=B)
        tp = from_physical(p)
        assert tp.nu == pytest.approx(self.Q * B / (self.MU * w_t), rel=1e-12)
        assert tp.field_sign == +1

    def test_reversed_field_sets_sign(self):
        p = PhysicalParams(reduced_mass=self.MU, charge=self.Q,
                           trap_frequency=2 * math.pi * 1e6,
                           magnetic_induction=-0.5)
        assert from_physical(p).field_sign == -1

    def test_b_scales_as_inverse_sqrt_frequency(self):
        # b ~ omega_t^(-1/2): quadrupling the trap frequency halves b
        mk = lambda w: from_physical(PhysicalParams(
            reduced_mass=self.MU, charge=self.Q, trap_frequency=w,
            magnetic_induction=0.1)).b
        assert mk(4e6) == pytest.approx(0.5 * mk(1e6), rel=1e-12)

    def test_b_positive_for_either_charge_sign(self):
        for q in (self.Q, -self.Q):
            p = PhysicalParams(reduced_mass=self.MU, charge=q,
                               trap_frequency=1e7, magnetic_induction=0.0)
            assert from_physical(p).b > 0

    @pytest.mark.parametrize("field,value", [
        ("reduced_mass", 0.0), ("trap_frequency", -1.0), ("charge", 0.0),
        ("magnetic_induction", math.inf),
    ])
    def test_physical_validation(self, field, value):
        kwargs = dict(reduced_mass=self.MU, charge=self.Q,
                      trap_frequency=1e6, magnetic_induction=0.1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)


class TestQuantumNumbers:
    def test_accepts_any_integer_m(self):
        assert QuantumNumbers(m=-3, n=2).m == -3

    @pytest.mark.parametrize("kwargs", [
        {"m": 0.5}, {"m": 0, "n": -1}, {"m": 1, "n": 1.5},
    ])
    def test_rejects_non_integers(self, kwargs):
        with pytest.raises(ValueError):
            QuantumNumbers(**kwargs)


class TestEffectivePotential:
    def test_m0_plunges_at_origin(self):
        # the -1/4 substitution term dominates: V -> -inf even with b > 0
        tp = TrapParams(nu=0.0, b=1.0)
        v = effective_potential(tp, 0, np.array([1e-3, 1e-4]))
        assert v[1] < v[0] < 0

    def test_nonzero_m_diverges_upward_at_origin(self):
        tp = TrapParams(nu=0.0, b=1.0)
        assert effective_potential(tp, 1, 1e-4) > 1e6

    def test_scalar_and_array_agree(self):
        tp = TrapParams(nu=0.7, b=2.0)
        arr = effective_potential(tp, 2, np.array([0.5, 1.5]))
        assert arr[0] == effective_potential(tp, 2, 0.5)
        assert isinstance(effective_potential(tp, 2, 0.5), float)

    def test_rejects_nonpositive_radius(self):
        tp = TrapParams(nu=0.0)
        with pytest.raises(ValueError):
            effective_potential(tp, 0, 0.0)
        with pytest.raises(ValueError):
            effective_potential(tp, 0, np.array([1.0, -1.0]))

    @given(nu=st.floats(0.0, 3.0), b=st.floats(0.0, 10.0),
           m=st.integers(-3, 3))
    def test_large_radius_growth_is_quadratic(self, nu, b, m):
        tp = TrapParams(nu=nu, b=b)
        a2 = 1.0 + 0.25 * nu * nu
        v = effective_potential(tp, m, 100.0)
        assert v == pytest.approx(-m * nu + a2 * 1e4, rel=1e-3)

    def test_minimum_is_stationary_point(self):
        # the ring radius from V' = 0 is a minimum of the package's V
        tp = TrapParams(nu=1.0, b=5.0)
        rho0 = oracles.classical_ring_radius(1.0, 5.0, 1)
        eps = 1e-6
        v_lo = effective_potential(tp, 1, rho0 - eps)
        v_hi = effective_potential(tp, 1, rho0 + eps)
        v_at = effective_potential(tp, 1, rho0)
        assert v_at <= v_lo and v_at <= v_hi

    def test_m0_small_b_has_no_minimum(self):
        # V = rho^2 - 1/(4 rho^2) rises everywhere
        rho = np.linspace(0.01, 10.0, 10_000)
        v = effective_potential(TrapParams(nu=0.0, b=0.0), 0, rho)
        assert np.all(np.diff(v) > 0)
        with pytest.raises(ValueError):
            oracles.classical_ring_radius(0.0, 0.0, 0)

    def test_m0_ring_minimum_appears_at_large_b(self):
        rho0 = oracles.classical_ring_radius(0.0, 10.0, 0)
        assert rho0 > 1.0
        # away from the plunge at the origin, the package's V bottoms out
        # at the same radius
        rho = np.linspace(0.5, 5.0, 45_001)
        v = effective_potential(TrapParams(nu=0.0, b=10.0), 0, rho)
        assert rho[np.argmin(v)] == pytest.approx(rho0, abs=1e-4)


class TestFockDarwin:
    def test_ground_state_zero_field(self):
        assert fock_darwin_energy(TrapParams(nu=0.0),
                                  QuantumNumbers(m=0)) == 1.0

    def test_level_formula(self):
        tp = TrapParams(nu=2.0)
        a = math.sqrt(2.0)
        e = fock_darwin_energy(tp, QuantumNumbers(m=-1, n=2))
        assert e == pytest.approx(a * 6 + 1.0, rel=1e-14)

    @given(nu=st.floats(0.0, 4.0), m=st.integers(-4, 4),
           n=st.integers(0, 3))
    def test_positive_for_canonical_orientation(self, nu, m, n):
        # a > nu/2 guarantees positivity of every level
        e = fock_darwin_energy(TrapParams(nu=nu), QuantumNumbers(m=m, n=n))
        assert e > 0


class TestConstants:
    def test_si_literals_match_scipy_bit_for_bit(self):
        # the package writes them out so that importing it loads no scipy
        from scipy import constants

        assert COULOMB_K == 1.0 / (4.0 * math.pi * constants.epsilon_0)
        assert HBAR == constants.hbar
