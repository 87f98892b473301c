"""Split-operator time evolution of planar wave packets in the rotating frame.

In trap units the Hamiltonian of the relative motion splits as h = h1 + h2,

    h1 = -(nu/2) L_z,
    h2 = -(1/2)(d^2/dxi^2 + d^2/deta^2) + V0 + (nu^2/8) rho^2,
    V0 = (1/2) rho^2 + b/rho,

and [h1, h2] = 0 at all times, even for time-dependent nu(tau), because h2
is rotationally symmetric.  The factorization

    U(tau) = exp(+i theta(tau) L_z) Texp(-i int_0^tau h2 ds),
    theta(tau) = (1/2) int_0^tau nu(s) ds,

is therefore exact, and the stepper only ever advances h2 on the grid; the
magnetic rotation is a frame angle applied in closed form.  States carried
here live in that rotating frame.  Lab-frame patterns follow by rotating
the field clockwise by theta (for nu > 0); lab-frame vector observables by
rotating the 2-vectors, which costs nothing.

h2 is advanced with one unitary symmetric second-order kernel,

    K . IFFT exp(z k^2/2) FFT . K,    K = exp(z V0/2) e(xi) e(eta),

with z = -i dtau and e(x) = exp(z nu^2 x^2/16).  evolve applies the
trailing K of one step and the leading K of the next as one product, by a
table the run owns: the field enters only through the separable factor, so
a change of nu costs 2n exponentials and three products to rebuild it, and
at constant nu it is built once.  Between steps the field lacks its
trailing K, a phase that the norm and edge guards do not see; a record
settles a copy, so the stepped field does not depend on how often output
is written.  Samples sit half a cell off the origin, at
-L + (i + 1/2) h, so none lies on the Coulomb singularity.  Real time uses
the bounded soft core b/sqrt(rho^2 + eps^2) with eps = h/2.  A sector's
lowest state is solved for, not relaxed: LOBPCG on the unsplit h2 = T + V2,
by default with the exact cell average of 1/rho, whose energy bias is
small enough for 1e-4 cross-checks against the radial eigensolver.

The kinetic factor, T and the eigensolve's preconditioner are one filter
IFFT(table FFT f), numpy.fft along axis 0 and then axis 1 in the filter's
own buffer: the order that reproduces fft2 and ifft2 bit for bit.

Frame rotations by arbitrary angles need no interpolation: multiples of
90 degrees are index permutations (the half-cell offset grid maps onto
itself), and the residual angle t in [-pi/4, pi/4] is the shear product

    Rot(t) = Sx(-tan(t/2)) Sy(sin t) Sx(-tan(t/2)),

each factor a row- or column-wise translation applied as FFT phase
factors.  Every factor is unitary, so rotation preserves the norm to
machine precision rather than to an interpolation tolerance.  A shear's
phase table exp(-i c k_q x_p) is built from the chirp identity
q p = (q^2 + p^2 - (q - p)^2)/2 (Bluestein 1970): two 1-D chirps and a
Toeplitz chirp in q - p, 4n - 1 exponentials instead of n^2.

A record is one density and six one-axis passes, two of them inverse: two
power spectra and four more for the autocorrelation.  By Parseval along one
axis every momentum moment is a weighted sum of |F_a psi|^2, F_a the
transform along axis a.  The autocorrelation is an overlap with the initial
lab pattern, at frame angle 0 the caller's own field rather than a copy,
that never builds the lab field: the quarter turns move onto the
reference, the shears start from the spectrum's F_0 psi, and their closing
inverse transform becomes, by Parseval, an overlap of axis-0 transforms.
The three shears are one sequence that takes and returns an axis-0
transform; rotate_frame, to_lab_frame and snapshots wrap it in one forward
and one inverse pass.

Sums over an N x N field are numpy's own fixed-order sums (einsum over the
float view), never BLAS: norms, overlaps, the Gram entries of the
eigensolve and the moment weights of a record.  OpenBLAS splits a dot
product or a matrix-vector product above about 10^4 elements across its
threads, so its rounding follows the thread count, and its pool then spins
on a core that another run could use.  Artifacts therefore do not depend on
OPENBLAS_NUM_THREADS, and two runs can share the machine's cores.  The
cached tables of a grid are read-only; what a run changes, its merged
kick, it owns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .params import TrapParams

__all__ = [
    "DEFAULT_PACKET_WIDTH",
    "GridSpec",
    "MAX_GRID_N",
    "GridState",
    "RampProtocol",
    "EvolutionResult",
    "Snapshot",
    "NormDriftError",
    "BoundaryLeakError",
    "SectorLeakageError",
    "gaussian_packet",
    "sector_seed",
    "strang_step",
    "rotate_frame",
    "to_lab_frame",
    "evolve",
    "imaginary_time_ground",
    "state_observables",
    "angular_harmonics",
    "circular_variance",
    "angular_maxima_count",
]

DEFAULT_PACKET_WIDTH = 0.5

MAX_GRID_N = 4096  # points per axis; one 4096^2 complex field is 256 MiB

_HALF_PI = 0.5 * math.pi

# fft2 and ifft2 are these one-axis transforms in this order, bit for bit
_AXES = (0, 1)

# evolve checks the edge guard every this many steps and at the last one,
# whatever the record cadence: a packet must not wrap around unseen between
# records, and a guard that followed the records would fire at a time that
# depends on how often output is written
_EDGE_CHECK_EVERY = 10

# the record columns, each named as its EvolutionResult field but for case
_COLUMNS = ("tau", "norm", "energy", "Lz", "vx", "vy", "autocorr", "cx", "cy")


class NormDriftError(RuntimeError):
    """Real-time norm left its tolerance band; the run is unreliable."""


class BoundaryLeakError(RuntimeError):
    """Probability reached the box edge; periodic wrap-around would follow."""


class SectorLeakageError(RuntimeError):
    """A relaxed grid state left its angular-momentum sector."""


@dataclass(frozen=True)
class GridSpec:
    """Square FFT grid: n points per axis on [-half_extent, half_extent).

    Samples sit at -L + (i + 1/2) h, half a cell off the origin, so none
    coincides with it and the point set is closed under the square's
    rotations and reflections.  n is a power of two from 4 to MAX_GRID_N
    (4096); a larger grid is refused here, before any array is built.
    """

    n: int = 256
    half_extent: float = 8.0

    def __post_init__(self):
        if not 4 <= self.n <= MAX_GRID_N or self.n & (self.n - 1):
            raise ValueError(
                f"n = {self.n} points per axis must be a power of two from 4 "
                f"to the ceiling of {MAX_GRID_N}")
        if not (self.half_extent > 0 and np.isfinite(self.half_extent)):
            raise ValueError("half_extent must be positive and finite")

    @property
    def h(self) -> float:
        return 2.0 * self.half_extent / self.n

    @property
    def coulomb_epsilon(self) -> float:
        """Soft-core radius used by the real-time stepper."""
        return 0.5 * self.h

    def axis(self) -> np.ndarray:
        return -self.half_extent + 0.5 * self.h + self.h * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def meshes(self):
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")


@dataclass(frozen=True)
class GridState:
    """N x N complex field with frame metadata.

    tau is the physical time of the state; theta the accumulated frame
    angle.  A lab-frame state must carry theta = 0.  Amplitude arrays are
    adopted, not copied.
    """

    spec: GridSpec
    amplitudes: np.ndarray
    frame: str = "rotating"
    tau: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.spec.n, self.spec.n):
            raise ValueError(
                f"amplitudes shape {amp.shape} does not match n = {self.spec.n}")
        object.__setattr__(self, "amplitudes", amp)
        if self.frame not in ("lab", "rotating"):
            raise ValueError(f"frame must be 'lab' or 'rotating', got {self.frame!r}")
        if self.frame == "lab" and self.theta != 0.0:
            raise ValueError("a lab-frame state must have theta = 0")

    def norm(self) -> float:
        a = self.amplitudes
        return math.sqrt(self.spec.h ** 2 * _vdot(a, a).real)

    def density(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class RampProtocol:
    """Field switch-on profile nu(tau), monotone from 0 toward nu_final.

    kind 'step' switches at tau = 0; 'linear' rises over tau_ramp; 'smooth'
    is the tanh profile nu_final (1 + tanh(4 (2 tau/tau_ramp - 1)))/2, which
    starts at ~3e-4 nu_final and approaches nu_final smoothly (it is not
    clamped at tau_ramp).  nu_integral gives int_0^tau nu ds in closed form,
    so the frame angle carries no quadrature error.
    """

    kind: str
    nu_final: float
    tau_ramp: float = 0.0

    def __post_init__(self):
        if self.kind not in ("step", "linear", "smooth"):
            raise ValueError(f"unknown ramp kind {self.kind!r}")
        if not (self.nu_final >= 0 and math.isfinite(self.nu_final)):
            raise ValueError(f"nu_final = {self.nu_final} must be finite "
                             f"and >= 0 (orientation is field_sign)")
        if self.kind == "step":
            if self.tau_ramp != 0.0:
                raise ValueError("a step ramp has tau_ramp = 0")
        elif not 0 < self.tau_ramp < math.inf:
            raise ValueError(f"{self.kind} ramp needs 0 < tau_ramp < inf, "
                             f"got {self.tau_ramp!r}")

    def nu(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.kind == "step":
            out = np.where(tau > 0, self.nu_final, 0.0)
        elif self.kind == "linear":
            out = self.nu_final * np.clip(tau / self.tau_ramp, 0.0, 1.0)
        else:
            g = 4.0 * (2.0 * tau / self.tau_ramp - 1.0)
            out = 0.5 * self.nu_final * (1.0 + np.tanh(g))
        return out if out.ndim else float(out)

    def nu_integral(self, tau):
        """int_0^tau nu(s) ds, exact."""
        tau = np.asarray(tau, dtype=float)
        t = np.maximum(tau, 0.0)
        if self.kind == "step":
            out = self.nu_final * t
        elif self.kind == "linear":
            tr = self.tau_ramp
            out = self.nu_final * np.where(
                t <= tr, 0.5 * t * t / tr, 0.5 * tr + (t - tr))
        else:
            tr = self.tau_ramp
            g = 4.0 * (2.0 * t / tr - 1.0)
            out = self.nu_final * (
                0.5 * t + tr / 16.0 * (_log_cosh(g) - _log_cosh(-4.0)))
        return out if out.ndim else float(out)


def _log_cosh(x):
    # overflow-safe: log cosh x = |x| + log1p(exp(-2|x|)) - log 2
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def _signed_corner_primitive(x, y):
    """s with d^2 s / dx dy = 1/sqrt(x^2 + y^2), odd in each argument."""
    ax, ay = np.abs(x), np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = ax * np.arcsinh(ay / ax) + ay * np.arcsinh(ax / ay)
    f = np.where((ax == 0) | (ay == 0), 0.0, f)
    return np.sign(x) * np.sign(y) * f


def _cell_averaged_inverse_radius(spec: GridSpec) -> np.ndarray:
    """Exact average of 1/rho over each grid cell.

    Inclusion-exclusion of the corner primitive over the cell faces; finite
    for the cells touching the origin and equal to 1/rho + O(h^2) away from
    it.  The sector eigensolve uses it by default, where the soft core's
    O(h) energy bias would dominate the error budget.
    """
    faces = -spec.half_extent + spec.h * np.arange(spec.n + 1)
    s = _signed_corner_primitive(faces[:, None], faces[None, :])
    return (s[1:, 1:] - s[:-1, 1:] - s[1:, :-1] + s[:-1, :-1]) / spec.h ** 2


def _filter(f: np.ndarray, table: np.ndarray, axes=_AXES) -> np.ndarray:
    """f <- IFFT(table FFT f) along axes in f's own buffer; by default both,
    in the fft2 axis order."""
    for a in axes:
        np.fft.fft(f, axis=a, out=f)
    f *= table
    for a in axes:
        np.fft.ifft(f, axis=a, out=f)
    return f


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b) of two N x N fields in one fixed order, without BLAS.

    The real part is one einsum over the float views; a self-overlap stops
    there.  The imaginary part pairs the strided real and imaginary views.
    """
    x = np.ascontiguousarray(a).view(float)
    if b is a:
        return complex(np.einsum("ij,ij->", x, x))
    y = np.ascontiguousarray(b).view(float)
    return complex(np.einsum("ij,ij->", x, y),
                   np.einsum("ij,ij->", x[:, ::2], y[:, 1::2])
                   - np.einsum("ij,ij->", x[:, 1::2], y[:, ::2]))


class _Tables:
    """The read-only tables of h2 for one (grid, b, Coulomb flavor).

    V0, the axis and the wavenumbers k, which every consumer reads, and the
    record's sums over a field.  Runs on several threads share one
    instance, so nothing here changes after it is built.
    """

    def __init__(self, spec: GridSpec, b: float, coulomb: str):
        self.spec = spec
        self.ax = spec.axis()
        self.ax2 = self.ax ** 2
        rho2 = np.add.outer(self.ax2, self.ax2)
        if coulomb == "softcore":
            eps = spec.coulomb_epsilon
            inv_rho = 1.0 / np.sqrt(rho2 + eps * eps)
        elif coulomb == "cell":
            inv_rho = _cell_averaged_inverse_radius(spec)
        else:
            raise ValueError(f"unknown Coulomb flavor {coulomb!r}")
        self.v0 = 0.5 * rho2 + b * inv_rho
        self.v0_max = float(self.v0.max())
        self.rho2_max = float(rho2.max())
        self.k = spec.wavenumbers()
        for table in (self.ax, self.ax2, self.v0, self.k):
            table.flags.writeable = False

    def v2(self, nu: float) -> np.ndarray:  # V0 + (nu^2/8) rho^2
        return self.v0 + 0.125 * nu * nu * np.add.outer(self.ax2, self.ax2)

    def t(self) -> np.ndarray:  # T = k^2/2, built per use: not kept
        return 0.5 * np.add.outer(self.k ** 2, self.k ** 2)

    def observables(self, psi: np.ndarray, nu: float, ft=None) -> dict:
        """Rotating-frame expectation values of the state, normalized.

        Parseval along axis a gives <p_a^j> = sum k^j |F_a psi|^2 / n, F_a
        the transform along a; as xi commutes with p_eta, <xi p_eta> is
        sum_xi xi sum_k k |F_1 psi|^2 / n, and <eta p_xi> likewise.  The
        transforms are taken in ft, if given, which is left holding F_0 psi.
        """
        k, ax = self.k, self.ax
        dens = np.square(psi.real) + np.square(psi.imag)  # no hypot
        dens_xi, dens_eta = dens.sum(axis=1), dens.sum(axis=0)
        total = _vdot(psi, psi).real  # h^2 cancels in every mean
        pot = float(np.einsum("ij,ij->", self.v0, dens))
        del dens
        per_k, on_line = [0, 0], [0, 0]  # sums over lines; <p_a> on each line
        for a in _AXES[::-1]:  # F_0 psi last
            ft = np.fft.fft(psi, axis=a, out=ft)
            power = np.square(ft.real) + np.square(ft.imag)
            power = power.T if a else power  # wavenumber down the rows
            per_k[a] = power.sum(axis=1)
            on_line[a] = np.einsum("q,qj->j", k, power)
        scale = self.spec.n * total
        kin = 0.5 * float((k * k) @ (per_k[0] + per_k[1])) / scale
        rho2 = float(dens_xi @ self.ax2 + dens_eta @ self.ax2)
        pot = (pot + 0.125 * nu * nu * rho2) / total
        lz = float(ax @ on_line[1] - ax @ on_line[0]) / scale
        cx = float(dens_xi @ ax) / total
        cy = float(dens_eta @ ax) / total
        return {
            "norm": math.sqrt(self.spec.h ** 2 * total),
            "energy": kin + pot - 0.5 * nu * lz,
            "Lz": lz,
            "vx": float(k @ per_k[0]) / scale + 0.5 * nu * cy,
            "vy": float(k @ per_k[1]) / scale - 0.5 * nu * cx,
            "cx": cx,
            "cy": cy,
        }

    def edge_mass(self, psi: np.ndarray, cells: int) -> float:
        c = cells  # 1 <= c <= n/2, so that the four strips do not overlap
        total = sum(_vdot(strip, strip).real for strip in (
            psi[:c, :], psi[-c:, :], psi[c:-c, :c], psi[c:-c, -c:]))
        return self.spec.h ** 2 * total


@lru_cache(maxsize=16)
def _tables_for(spec: GridSpec, b: float, coulomb: str) -> _Tables:
    return _Tables(spec, b, coulomb)


# one set at a time: the two factors of a 4096^2 grid take 512 MiB
@lru_cache(maxsize=1)
def _step_factors(spec: GridSpec, b: float, dtau: float):
    """exp(z T) and exp(z V0/2) of the real-time step, z = -i dtau."""
    tables = _tables_for(spec, b, "softcore")
    kinetic = np.exp(-1j * dtau * tables.t())
    kick0 = np.exp(0.5 * (-1j * dtau) * tables.v0)
    kinetic.flags.writeable = kick0.flags.writeable = False
    return kinetic, kick0


class _Propagator:
    """One run's real-time step at a fixed dtau, its trailing half kick
    deferred.

    The half kick K(nu) = exp(z V0/2) e(xi) e(eta) is a phase.  A step
    leaves the field without its trailing K(nu) and the next step applies it
    together with its own leading kick, as one product by
    K(nu) K(nu') = exp(z V0/2)^2 e e'(xi) e e'(eta): a table this run owns,
    rebuilt only when the pair changes, so once at constant nu.  settle
    applies the pending kick.  exp(z T) and exp(z V0/2) are the shared
    read-only factors.
    """

    def __init__(self, spec: GridSpec, b: float, dtau: float):
        self.tables = _tables_for(spec, b, "softcore")
        self.dtau = dtau
        self.kinetic, self.kick0 = _step_factors(spec, b, dtau)
        # the pending kick (none before a step) and the merged one
        self.nu = self.e = self.pair = self.pair_nu = None

    def _field(self, nu: float) -> np.ndarray:
        """e(x) = exp(z nu^2 x^2/16); warns if the phase at nu wraps."""
        quad = 0.125 * nu * nu
        if not math.isfinite(quad):
            raise OverflowError(
                f"nu = {nu!r}: the field term nu^2/8 overflows float64")
        dtau, tables = self.dtau, self.tables
        # max V2 is taken only when its bound max V0 + (nu^2/8) max rho^2
        # exceeds pi
        if (tables.v0_max + quad * tables.rho2_max) * dtau > np.pi:
            if advice := self.wrap_advice(nu):
                warnings.warn(advice, stacklevel=4)
        return np.exp(0.0625 * (-1j * dtau) * nu * nu * tables.ax2)

    def wrap_advice(self, nu: float) -> str:
        """Advice when a step at nu wraps its potential phase, else ''.

        A kick phase max|V2| dtau above pi aliases the corner potential;
        beyond 1e3 pi the step no longer resolves the potential, and this
        raises FloatingPointError.
        """
        wrap = float(self.tables.v2(nu).max()) * self.dtau
        if not wrap > np.pi:
            return ""
        advice = (f"max|V2| dtau = {wrap:.3g} exceeds "
                  f"{'1e3 pi' if wrap > 1e3 * np.pi else 'pi'} at dtau = "
                  f"{self.dtau!r}; the potential phase wraps, reduce dtau "
                  "or the box")
        if wrap > 1e3 * np.pi:
            raise FloatingPointError(advice)
        return advice

    def step(self, psi: np.ndarray, nu: float) -> np.ndarray:
        """psi <- IFFT exp(z T) FFT K(nu) K(nu') psi in psi's own buffer, nu'
        the pending kick's (none before the first step); K(nu) is left
        pending.  A step after the first makes two N x N products."""
        e, self.e = self.e, (self.e if nu == self.nu else self._field(nu))
        if self.nu is None:
            self.settle(psi, out=psi)
        else:
            if (self.nu, nu) != self.pair_nu:
                self.pair = self.settle(self.kick0, self.pair, e * self.e)
                self.pair_nu = (self.nu, nu)
            psi *= self.pair
        self.nu = nu
        return _filter(psi, self.kinetic)

    def settle(self, psi: np.ndarray, out=None, e=None) -> np.ndarray:
        """psi exp(z V0/2) e(xi) e(eta), in a new array unless out is given;
        e is the pending kick's unless given, so this is K(nu) psi."""
        e = self.e if e is None else e
        out = np.multiply(psi, self.kick0, out=out)
        out *= e[:, None]
        out *= e[None, :]
        return out


def gaussian_packet(spec: GridSpec, center: float = 4.0,
                    width: float = DEFAULT_PACKET_WIDTH) -> GridState:
    """Normalized Gaussian exp(-width ((xi - center)^2 + eta^2)).

    width is the inverse squared length in the exponent, so the position
    variance per axis is 1/(4 width); width = 1/2 matches the trap ground
    state at nu = 0.  The 3-sigma support must fit inside the box.
    """
    if not 0 < width < math.inf:
        raise ValueError(f"width = {width} must be positive and finite")
    if not abs(center) + 3.0 / math.sqrt(2.0 * width) < spec.half_extent:
        raise ValueError(
            f"packet at xi0 = {center} with width {width} reaches the box "
            f"edge L = {spec.half_extent}; enlarge the box (aliasing hazard)")
    xi, eta = spec.meshes()
    psi = np.exp(-width * ((xi - center) ** 2 + eta ** 2)).astype(complex)
    psi /= math.sqrt(spec.h ** 2 * _vdot(psi, psi).real)
    return GridState(spec=spec, amplitudes=psi)


def sector_seed(spec: GridSpec, m: int) -> GridState:
    """Normalized (xi + i sgn(m) eta)^|m| exp(-rho^2/2) seed for sector m."""
    xi, eta = spec.meshes()
    psi = np.exp(-0.5 * (xi ** 2 + eta ** 2)).astype(complex)
    if m != 0:
        psi *= (xi + 1j * np.sign(m) * eta) ** abs(m)
    psi /= math.sqrt(spec.h ** 2 * _vdot(psi, psi).real)
    return GridState(spec=spec, amplitudes=psi)


def strang_step(state: GridState, tp: TrapParams, dtau: float) -> GridState:
    """One symmetric real-time split step of the co-rotating Hamiltonian part.

    Advances tau by dtau; the frame angle is untouched (that bookkeeping
    belongs to evolve, which applies it in closed form).
    """
    if not 0 < dtau < math.inf:
        raise ValueError(f"dtau = {dtau} must be positive and finite")
    propagator = _Propagator(state.spec, tp.b, dtau)
    psi = propagator.step(state.amplitudes.copy(), tp.nu)
    return replace(state, amplitudes=propagator.settle(psi, out=psi),
                   tau=state.tau + dtau)


def _shear_table(spec: GridSpec, c: float, axis: int) -> np.ndarray:
    """exp(-i c k_q x_p) in the layout of a transform along axis: wavenumber
    q down the rows and sample p across for axis 0, the transpose for axis 1.

    Applied as IFFT(table FFT f) along axis, it translates each line by its
    own offset, exactly.  With k_q = 2 pi q / (n h) for the signed FFT index
    q and x_p = (p + 1/2) h for p = j - n/2, the phase is
    (pi c / n)(q^2 + q + p^2 - (q - p)^2), so the table is two 1-D chirps
    times a Toeplitz chirp in q - p: 4n - 1 exponentials and row gathers
    instead of n^2 exponentials.
    """
    n, half = spec.n, spec.n // 2
    w = math.pi * c / n
    p = np.arange(n) - half
    q = np.fft.ifftshift(p)
    d = np.arange(1 - n, n)
    chirp = np.exp(1j * (w * (d * d)))  # even in d
    window = np.lib.stride_tricks.sliding_window_view
    # row m of `rows` starts at d = n/2 - m, and halves[i] holds rows i and
    # i + n/2.  Row p of the axis-1 table runs over d = q - p from q = 0,
    # then from q = -n/2: rows p + n/2 and p + n; row q of the axis-0 table
    # over d = p - q, rows q + n and q + n/2.  Either takes one copy
    rows = window(chirp, half)[::-1]
    halves = window(rows, half + 1, axis=0)[:, :, ::half].transpose(0, 2, 1)
    table = (halves[half + q, ::-1] if axis == 0 else halves).reshape(n, n)
    table *= np.expand_dims(np.exp(-1j * (w * (q * q + q))), 1 - axis)
    table *= np.expand_dims(np.exp(-1j * (w * (p * p))), axis)
    return table


def _rotation_parts(spec: GridSpec, theta: float):
    """(q, a, s) with Rot(theta) = P^q Sa Sb Sa, P the quarter turn.

    a and s are the shear tables of the residual angle, None when it
    vanishes; Sa is applied along axis 0 and Sb along axis 1.
    """
    quarters = round(theta / _HALF_PI)
    residual = theta - quarters * _HALF_PI
    if abs(residual) <= 1e-15:
        return quarters % 4, None, None
    return (quarters % 4, _shear_table(spec, -math.tan(0.5 * residual), 0),
            _shear_table(spec, math.sin(residual), 1))


def _shears(ft: np.ndarray, outer, inner) -> np.ndarray:
    """ft <- F0 Sa Sb Sa f for ft = F0 f, in ft's own buffer: the shears of
    _rotation_parts, taken and returned as axis-0 transforms."""
    ft *= outer
    np.fft.ifft(ft, axis=0, out=ft)
    _filter(ft, inner, (1,))
    np.fft.fft(ft, axis=0, out=ft)
    ft *= outer
    return ft


def _rotate_amplitudes(spec: GridSpec, psi: np.ndarray,
                       theta: float) -> np.ndarray:
    """psi rotated by theta; a whole number of turns returns psi's own
    data, not a copy."""
    quarters, outer, inner = _rotation_parts(spec, theta)
    if outer is not None:
        ft = _shears(np.fft.fft(psi, axis=0), outer, inner)
        psi = np.fft.ifft(ft, axis=0, out=ft)
    # psi'(xi, eta) = psi(eta, -xi) per quarter turn, an exact permutation:
    # the offset axis negates under i -> n-1-i
    return np.ascontiguousarray(np.rot90(psi, quarters))


def rotate_frame(state: GridState, theta: float) -> GridState:
    """Rotate the sampled field counterclockwise by theta.

    The new field at (xi', eta') equals the old one at
    (xi' cos theta + eta' sin theta, -xi' sin theta + eta' cos theta).
    Implemented by exact index permutations (quarter turns) and spectral
    shears (residual angle); unitary, so the norm is preserved to machine
    precision.  Frame metadata is untouched: this is a resampling utility.
    """
    rotated = _rotate_amplitudes(state.spec, state.amplitudes, theta)
    return replace(state, amplitudes=rotated)


def to_lab_frame(state: GridState) -> GridState:
    """Undo the accumulated frame angle; lab pattern = rotation by -theta."""
    if state.frame == "lab":
        return state
    psi = _rotate_amplitudes(state.spec, state.amplitudes, -state.theta)
    return GridState(spec=state.spec, amplitudes=psi, frame="lab",
                     tau=state.tau, theta=0.0)


def _lab_vectors(obs: dict, theta: float) -> dict:
    """obs with (vx, vy) and (cx, cy) rotated from the frame at theta."""
    c, s = math.cos(theta), math.sin(theta)
    out = dict(obs)
    for x, y in (("vx", "vy"), ("cx", "cy")):
        out[x] = c * obs[x] + s * obs[y]
        out[y] = -s * obs[x] + c * obs[y]
    return out


@dataclass(frozen=True)
class Snapshot:
    """Field snapshot taken during evolve, in the requested frame."""

    requested_tau: float
    state: GridState


@dataclass(frozen=True)
class EvolutionResult:
    """Observable time series plus the final rotating-frame state.

    autocorr is |<psi(0)|psi(tau)>| with psi(tau) in the lab frame (the
    physical overlap with the initial state); vectors (vx, vy), (cx, cy)
    are lab-frame components.  extra holds observer columns by name.
    """

    tau: np.ndarray
    norm: np.ndarray
    energy: np.ndarray
    lz: np.ndarray
    vx: np.ndarray
    vy: np.ndarray
    autocorr: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    extra: dict = field(default_factory=dict)
    snapshots: tuple = ()
    final_state: GridState | None = None
    worst_norm_drift: float = 0.0

    def as_columns(self) -> dict:
        return {**{name: getattr(self, name.lower()) for name in _COLUMNS},
                **self.extra}

    def final_lab(self) -> GridState:
        return to_lab_frame(self.final_state)


def _step_count(span: float, dtau: float) -> int:
    """The nearest whole number of dtau steps to span, at least one."""
    steps = span / dtau
    if not math.isfinite(steps):
        raise OverflowError(f"span = {span!r} over dtau = {dtau!r} is more "
                            f"steps than float64 counts")
    return max(1, round(steps))


def evolve(state: GridState, tp: TrapParams, dtau: float, tau_end: float,
           ramp: RampProtocol | None = None, *, record_every: int = 10,
           snapshot_times=(), snapshot_frame: str = "rotating",
           observers=(), norm_tol: float = 1e-6, edge_tol: float = 1e-8,
           edge_cells: int = 2, workers=None) -> EvolutionResult:
    """Propagate to tau_end, recording observables every record_every steps.

    With a ramp, nu(tau) comes from the protocol (tp.nu is ignored) and is
    sampled at step midpoints, which keeps the splitting second order; the
    frame angle uses the protocol's closed-form integral.  The span is
    integrated as the nearest whole number of dtau steps, so the final time
    can differ from tau_end by up to dtau/2.  The autocorrelation of each
    record is the overlap with the initial lab pattern, taken without
    building the lab field (see the module docstring).  observers is a
    sequence of (name, callable) pairs evaluated on the current rotating
    frame state at record times.  Aborts with NormDriftError when the norm
    leaves 1 +- norm_tol or stops being finite (checked every step), with
    BoundaryLeakError when more than edge_tol probability sits within
    edge_cells of the box edge (checked every 10th step and at the last,
    whatever record_every is), and with OverflowError when nu^2 overflows
    float64 or when span / dtau does (the latter before any grid array is
    built).  Each step advances the state, checks the norm, then the edge,
    and only then records and takes its snapshots.
    workers is accepted for compatibility and ignored: every transform runs
    on one thread.
    """
    if not 0 < dtau < math.inf:
        raise ValueError(f"dtau = {dtau} must be positive and finite")
    if snapshot_frame not in ("lab", "rotating"):
        raise ValueError("snapshot_frame must be 'lab' or 'rotating'")
    spec = state.spec
    if not 1 <= edge_cells <= spec.n // 2:
        raise ValueError(f"edge_cells must be from 1 to n/2 = {spec.n // 2}")
    tau0 = state.tau
    theta0 = state.theta
    span = tau_end - tau0
    if not 0 < span < math.inf:
        raise ValueError(f"tau_end = {tau_end} must be finite and exceed "
                         f"the state's tau = {tau0}")
    # the tau column reports the times actually reached
    n_steps = _step_count(span, dtau)

    # the step's tables before the copy: built later, they raise the peak
    propagator = _Propagator(spec, tp.b, dtau)
    tables = propagator.tables
    psi = np.array(state.amplitudes, dtype=complex, copy=True)
    h2 = spec.h ** 2
    norm0 = math.sqrt(h2 * _vdot(psi, psi).real)
    if not abs(norm0 - 1.0) <= norm_tol:
        raise ValueError(
            f"input state norm is {norm0:.6g}, not 1 within norm_tol = "
            f"{norm_tol:g}; normalize the state before evolving it")

    def nu_at(tau):  # a float or an array, as tau is
        return ramp.nu(tau) if ramp is not None else tp.nu + 0.0 * tau

    def theta_at(tau: float) -> float:
        if ramp is not None:
            return theta0 + 0.5 * (ramp.nu_integral(tau) - ramp.nu_integral(tau0))
        return theta0 + 0.5 * tp.nu * (tau - tau0)

    # the autocorrelation's reference is the initial lab pattern: at
    # theta0 = 0 the caller's own field, which nothing here writes
    psi_ref = to_lab_frame(state).amplitudes
    # (q, F0 of the reference turned back by q quarters) for the latest q
    # only: the frame angle never decreases, and a decrease would only
    # recompute it
    ref_ft = [None, None]

    def autocorr(psi_now: np.ndarray, ft: np.ndarray, th: float) -> float:
        # |<psi_ref|R psi>| with R = Rot(-th) = P^q Sa Sb Sa, without the lab
        # field: <psi_ref|P^q f> = <P^-q psi_ref|f>, and by Parseval along
        # axis 0 the overlap is one of F0 transforms, that of the reference
        # retaken only when q changes.  ft holds F0 psi, where the shears
        # start, and is consumed
        quarters, outer, inner = _rotation_parts(spec, -th)
        ref = np.rot90(psi_ref, -quarters)
        if outer is None:
            return abs(h2 * _vdot(ref, psi_now))
        if ref_ft[0] != quarters:
            # the old transform goes first; the new one is C-ordered, as
            # _vdot reads it without a copy (an odd turn's is not)
            ref_ft[:] = quarters, None
            ref_ft[1] = np.fft.fft(ref, axis=0, out=np.empty_like(psi_now))
        return abs(h2 * _vdot(ref_ft[1], _shears(ft, outer, inner))) / spec.n

    record_every = max(1, record_every)
    snap_idx: dict[int, list[float]] = {}
    for t_req in snapshot_times:
        i = min(max(round((float(t_req) - tau0) / dtau), 0), n_steps)
        snap_idx.setdefault(i, []).append(float(t_req))

    columns = {name: [] for name in _COLUMNS}
    extra_cols = {name: [] for name, _ in observers}
    snapshots: list[Snapshot] = []
    worst_drift = 0.0
    # nu at each step's midpoint, from one call of nu_at per 256 steps
    mids = (tau0 + (np.arange(j, min(j + 256, n_steps)) + 0.5) * dtau
            for j in range(0, n_steps, 256))
    nus = (nu for mid in mids for nu in nu_at(mid).tolist())
    for i in range(n_steps + 1):
        tau_i = tau0 + i * dtau
        if i:
            # psi lacks its trailing half kick, a phase, which the guards
            # need not see
            propagator.step(psi, next(nus))
            drift = abs(math.sqrt(h2 * _vdot(psi, psi).real) - 1.0)
            worst_drift = max(worst_drift, drift)
            if not drift <= norm_tol:
                raise NormDriftError(
                    f"norm drifted by {drift:.3e} after {i} steps "
                    f"(tau = {tau_i:.6g}, dtau = {dtau}); "
                    "reduce dtau or check the potential for phase wrapping")
        if ((i % _EDGE_CHECK_EVERY == 0 or i == n_steps)
                and not tables.edge_mass(psi, edge_cells) <= edge_tol):
            # a wrapped kick aliases the packet outward: the step is at fault
            advice = propagator.wrap_advice(nu_at(tau_i)) or "enlarge the box"
            raise BoundaryLeakError(
                f"more than {edge_tol:g} probability within {edge_cells} "
                f"cells of the edge at tau = {tau_i:.6g}; {advice}")
        record = i % record_every == 0 or i == n_steps
        if not (record or i in snap_idx):
            continue
        th = theta_at(tau_i)
        # the state with its pending kick: a copy, so that the stepped field
        # does not depend on the output cadence, but at the last step
        now = psi if i == 0 else propagator.settle(
            psi, psi if i == n_steps else None)
        if record:
            ft = np.empty_like(psi)
            obs = _lab_vectors(tables.observables(now, nu_at(tau_i), ft), th)
            obs.update(tau=tau_i, autocorr=autocorr(now, ft, th))
            del ft  # before the observers run
            for name in _COLUMNS:
                columns[name].append(obs[name])
        if i in snap_idx or observers:
            # one field that no step touches serves the observers and the
            # snapshots
            view = GridState(spec=spec, frame="rotating", tau=tau_i, theta=th,
                             amplitudes=now.copy() if now is psi else now)
            if record:
                for name, fn in observers:
                    extra_cols[name].append(float(fn(view)))
            if i in snap_idx:
                if snapshot_frame == "lab":
                    view = to_lab_frame(view)
                snapshots.extend(Snapshot(requested_tau=t_req, state=view)
                                 for t_req in snap_idx[i])
        now = view = None  # not held over the steps to the next record

    # the last step always records, so tau_i and th are the final ones
    return EvolutionResult(
        **{name.lower(): np.array(columns[name]) for name in _COLUMNS},
        extra={name: np.array(vals) for name, vals in extra_cols.items()},
        snapshots=tuple(snapshots),
        final_state=GridState(spec=spec, amplitudes=psi, frame="rotating",
                              tau=tau_i, theta=th),
        worst_norm_drift=worst_drift,
    )


_SHIFT = 8.0  # preconditioner (T + _SHIFT)^-1; fewest passes over 0.25..32
_GRAM_FLOOR = 1e-14  # a direction below this Gram eigenvalue share is dropped


def imaginary_time_ground(spec: GridSpec, tp: TrapParams, m_seed: int, *,
                          tol: float = 1e-9, max_steps: int = 200_000,
                          coulomb: str = "cell", workers=None):
    """Lowest state of the m_seed sector on the grid; return (energy, state).

    Single-vector LOBPCG (Knyazev 2001) on the unsplit h2 = T + V2 from
    sector_seed, over the state, its residual preconditioned by
    (T + _SHIFT)^-1 and its last update; both operators commute with
    quarter turns, so the seed's C4 class is kept.  It stops when the
    Rayleigh quotient, an upper bound of the grid eigenvalue, moves by less
    than tol (within max_steps iterations).  That does not bound its error,
    which was below tol on 16^2 and 32^2 grids and up to 2 tol on 128^2 and
    512^2.  Returns the quotient minus (nu/2) m_seed.  An <L_z> more than
    1e-6 from m_seed raises SectorLeakageError; a quotient that is not
    finite, or a max V2 that rounds T away in float64, FloatingPointError.
    The default cell-average interaction has the better energy constant;
    "softcore" prepares a state for evolve, which steps that form and would
    see the other radiate.  workers is ignored, as in evolve.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    tables = _tables_for(spec, tp.b, coulomb)
    v2, kinetic = tables.v2(tp.nu), tables.t()
    if not v2.max() * np.finfo(float).eps < kinetic.max():
        raise FloatingPointError(
            f"max V2 = {v2.max():.3g} at nu = {tp.nu!r} rounds the kinetic "
            "energy away in float64; the grid cannot resolve the state")
    precondition = 1.0 / (kinetic + _SHIFT)
    # rows x, w, p (0 at first: the Gram floor drops it) and their h2 images
    rows = np.zeros((2, 3, spec.n, spec.n), dtype=complex)
    basis, image = rows

    def norm(row):
        return math.sqrt(_vdot(row, row).real)

    def apply_h2(i):  # image of row i, both scaled to a unit row i
        basis[i] /= norm(basis[i])
        np.add(_filter(basis[i].copy(), kinetic), v2 * basis[i], out=image[i])

    def gram(kets):  # <basis[i]|kets[j]>, without a conjugated copy
        return np.array([[_vdot(bi, kj) for kj in kets] for bi in basis])

    def overlap():  # <basis[i]|basis[j]> for j <= i, all that eigh reads
        rows = list(basis)  # rows[i] is rows[i]: a diagonal is one real sum
        return np.array([[_vdot(rows[i], rows[j]) if j <= i else 0.0
                          for j in range(3)] for i in range(3)])

    basis[0] = sector_seed(spec, m_seed).amplitudes
    apply_h2(0)
    energy, moved = _vdot(basis[0], image[0]).real, math.inf
    for _ in range(max_steps):
        np.subtract(image[0], energy * basis[0], out=basis[1])
        _filter(basis[1], precondition)
        apply_h2(1)
        s, u = np.linalg.eigh(overlap())
        keep = s > _GRAM_FLOOR * s[-1]
        t = u[:, keep] / np.sqrt(s[keep])
        ritz, vec = np.linalg.eigh(t.conj().T @ gram(image) @ t)
        c = t @ vec[:, 0]
        c *= abs(c[0]) / c[0]  # the seed's phase
        moved, energy = abs(ritz[0] - energy), float(ritz[0])
        if not math.isfinite(energy):
            raise FloatingPointError(
                f"the Rayleigh quotient is {energy!r} (m_seed = {m_seed}, "
                f"nu = {tp.nu!r}); the state is not finite")
        for a in (basis, image):
            a[2] *= c[2]
            a[2] += c[1] * a[1]
            np.add(c[0] * a[0], a[2], out=a[0])
        rows[:, 2] /= norm(basis[2])
        if moved < tol:
            break
    else:
        raise RuntimeError(
            f"imaginary_time_ground did not converge within {max_steps} "
            f"iterations (m_seed = {m_seed}, last dE = {moved:.3e})")
    psi = basis[0] / (spec.h * norm(basis[0]))
    lz = tables.observables(psi, tp.nu)["Lz"]
    if abs(lz - m_seed) > 1e-6:
        raise SectorLeakageError(
            f"<L_z> = {lz:.8f} drifted from the seeded sector m = {m_seed}; "
            "the grid is breaking the symmetry")
    return energy - 0.5 * tp.nu * m_seed, GridState(spec=spec, amplitudes=psi)


def state_observables(state: GridState, tp: TrapParams,
                      nu: float | None = None) -> dict:
    """Lab-frame norm, energy, L_z, velocity and center of one state.

    Rotating-frame input vectors are rotated back through the state's
    accumulated angle; pass nu to override tp.nu (ramp diagnostics).
    """
    nu_now = tp.nu if nu is None else nu
    tables = _tables_for(state.spec, tp.b, "softcore")
    return _lab_vectors(tables.observables(state.amplitudes, nu_now),
                        state.theta)


def angular_harmonics(state: GridState, n_harmonics: int = 48) -> np.ndarray:
    """<e^{i k phi}> for k = 0..n_harmonics, weighted by the density.

    These are the Fourier components of the angular marginal (up to
    conjugation and 1/2pi); they are computed without binning and are
    invariant under frame rotation up to a phase, so spreading diagnostics
    built from their moduli need no lab-frame conversion.
    """
    # the samples sit half a cell off the origin, so rho > 0 everywhere
    xi = state.spec.axis()[:, None]  # a column; eta is the row xi.T
    w = state.density() * state.spec.h ** 2
    z = (xi + 1j * xi.T) / np.hypot(xi, xi.T)
    coeffs = np.empty(n_harmonics + 1, dtype=complex)
    acc = np.ones_like(z)
    coeffs[0] = w.sum()
    for k in range(1, n_harmonics + 1):
        acc = acc * z
        coeffs[k] = np.sum(w * acc)
    return coeffs / coeffs[0].real


def circular_variance(state: GridState) -> float:
    """1 - |<e^{i phi}>|: 0 for a ray-localized state, 1 for uniform."""
    return 1.0 - abs(angular_harmonics(state, 1)[1])


def angular_maxima_count(state: GridState, n_harmonics: int = 48,
                         resolution: int = 1440, floor: float = 0.02) -> int:
    """Count local maxima of the angular density above floor * its peak.

    The marginal is reconstructed from these harmonics with a
    Lanczos sigma factor, which damps truncation ringing; ringing would
    otherwise fabricate maxima.
    """
    coeffs = angular_harmonics(state, n_harmonics)
    k = np.arange(1, n_harmonics + 1)
    sigma = np.sinc(k / (n_harmonics + 1.0))
    phi = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    waves = np.exp(1j * k[:, None] * phi)
    marginal = (1.0 + 2.0 * (sigma[:, None] * coeffs[1:, None].conj()
                             * waves).real.sum(axis=0)) / (2.0 * np.pi)
    peak = marginal.max()
    left = np.roll(marginal, 1)
    right = np.roll(marginal, -1)
    is_max = (marginal > left) & (marginal > right) & (marginal > floor * peak)
    return int(np.count_nonzero(is_max))
