"""Independent reference implementations used by the test suite.

Everything here is deliberately written from scratch against the model
definitions, not by calling into the package: closed-form Landau-level
energies, a brute-force radial grid diagonalization, adaptive-quadrature
matrix elements, a classical trajectory integrator, a grid split step
and grid observables that rebuild the full potential on every call, and a
dense diagonalization of the grid h2 in one C4 class.
Agreement between these and the package is what the cross-checks in the
tests mean.  The
extended-precision sector solver here is the package's former per-point
eigensolver, kept as the reference for the orthonormal-basis solver that
replaced it; the extended-precision Chebyshev recurrence is the package's
former basis reduction, kept as the reference for its float64 Stieltjes
recurrence; the extended-precision Cholesky reduction of the pencil is the
reference for the float64 blocks, entry by entry; the grid rotation with
direct N^2 shear tables is the package's former frame rotation, kept as the
reference for the chirp-built tables and for the autocorrelation taken
without the lab field; and the recursive-descent pi-expression parser is
the CLI's former parser, kept as the reference for the one built on `ast`;
and the kernel step on scipy's 2-D transforms is the package's former
transform path, kept as the reference for the one-axis numpy transforms.
The root of chi', summed over raw coefficients at 120 digits, is the
reference for the density peak, which the package finds on the orthonormal
basis recurrence.  The radial sum that allocates at every step, the
current field evaluated one point at a time and the 1200-point scan for
rho_max are the package's former code, kept as the references for the
in-place recurrence, the field summed once per distinct radius and the
rho_max found by root searches.  The full density summed under a border mask is the
reference for the edge guard's strip sums.  The dense h2, with its own soft
core and its own cell mean of 1/rho, is the reference for the package's
LOBPCG sector solve; the
imaginary-time relaxation that solve replaced is no oracle, since its
splitting bias reached 1.4e-4.  The one-Gaussian variational bound and the
classical ring radius are the package's former helpers, kept as the upper
bound on the solver's ground energy and as the radius the ring-regime
density peak approaches.
"""

from __future__ import annotations

import functools
import math
import re

import numpy as np
import scipy.fft
from mpmath import mp
from scipy.linalg import eigh_tridiagonal


def fock_darwin_energy(nu: float, m: int, n: int) -> float:
    """Exact level of the trapped charge at b = 0.

    E(n, m) = a (2n + |m| + 1) - m nu / 2 with a = sqrt(1 + nu^2/4),
    in units of hbar*omega_t.
    """
    a = math.sqrt(1.0 + 0.25 * nu * nu)
    return a * (2 * n + abs(m) + 1) - 0.5 * m * nu


def single_gaussian_bound(nu: float, b: float, m: int) -> float:
    """Rayleigh quotient of the one-Gaussian trial state of sector m >= 0.

    The trial chi = rho^(m + 1/2) exp(-a rho^2 / 2) with the b = 0 width
    a = sqrt(1 + nu^2/4) closes in Gamma functions:

        E = a (m + 1) - m nu / 2 + b sqrt(a) Gamma(m + 1/2) / Gamma(m + 1)

    It is exact at b = 0 and an upper bound on the sector's lowest level
    for every b.
    """
    if m < 0:
        raise ValueError("the trial state is written for m >= 0")
    a = math.sqrt(1.0 + 0.25 * nu * nu)
    ratio = math.exp(math.lgamma(m + 0.5) - math.lgamma(m + 1.0))
    return a * (m + 1) - 0.5 * m * nu + b * math.sqrt(a) * ratio


def classical_ring_radius(nu: float, b: float, m: int) -> float:
    """Radius of the outer minimum of the effective potential V(rho).

    V'(rho) = (2 / rho^3) f(rho) with f = a^2 rho^4 - b rho - (m^2 - 1/4)
    and a^2 = 1 + nu^2/4, so the stationary points are the positive roots
    of f and V'' > 0 where f' > 0.  The outermost such root is returned;
    for m = 0 at small b, f has no positive root and a ValueError is raised.
    """
    a2 = 1.0 + 0.25 * nu * nu
    roots = np.roots([a2, 0.0, 0.0, -b, -(m * m - 0.25)])
    real = roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))]
    minima = [r for r in real.real
              if r > 0 and 4.0 * a2 * r ** 3 - b > 0]
    if not minima:
        raise ValueError(f"V has no minimum for nu={nu}, b={b}, m={m}")
    return float(max(minima))


def grid_ground_energy(nu: float, b: float, m: int,
                       n_points: int = 10_000, rho_max: float = 12.0) -> float:
    """Ground energy of one m sector by finite-difference diagonalization.

    Uniform grid rho_i = i h on (0, rho_max]; the reduced radial operator
    h = (1/2)(-d^2/drho^2 + V) with

        V = -m nu + (1 + nu^2/4) rho^2 + (m^2 - 1/4)/rho^2 + 2 b/rho

    becomes symmetric tridiagonal under the standard 3-point Laplacian with
    hard-wall ends, which is correct here because chi(0) = 0 and the trap
    kills the wavefunction long before rho_max.  Accuracy is O(h^2), about
    1e-5 absolute at the default resolution.
    """
    h = rho_max / n_points
    rho = h * np.arange(1, n_points + 1)
    V = (-m * nu + (1.0 + 0.25 * nu * nu) * rho ** 2
         + (m * m - 0.25) / rho ** 2 + 2.0 * b / rho)
    diag = 0.5 * (2.0 / h ** 2 + V)
    off = np.full(n_points - 1, -0.5 / h ** 2)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return float(vals[0])


def quadrature_matrices(m: int, nu: float, b: float, size: int,
                        dps: int = 30):
    """Overlap and Hamiltonian matrices by adaptive quadrature.

    Basis u_k = rho^(1/2 + |m| + k) exp(-rho^2/2); the Hamiltonian entry is
    the one-sided form int u_j (h u_k),

        H_jk = (1/2) [T_jk + a^2 int rho^2 u_j u_k + 2b int u_j u_k / rho
                      - m nu S_jk],

    where T_jk = int u_j (-u_k'' + (m^2 - 1/4) rho^-2 u_k) takes the second
    derivative in closed form.  Each term alone diverges like rho^-1 at
    m = 0, j = k = 0, so they share one integrand.  None of the four
    integrals depends on (nu, b); they are integrated once per (m, size,
    dps) and combined at the working precision.  Returns (S, H) as float
    arrays.
    """
    S, R2, R1, T = _quadrature_parts(m, size, dps)
    with mp.workdps(dps):
        a2 = 1 + mp.mpf(nu) ** 2 / 4
        H = (T + R2 * a2 + R1 * (2 * mp.mpf(b)) - S * (m * nu)) / 2
        return (np.array([[float(x) for x in row] for row in S]),
                np.array([[float(x) for x in row] for row in H]))


@functools.lru_cache(maxsize=None)
def _quadrature_parts(m: int, size: int, dps: int):
    """S, int rho^2 uu, int uu / rho and T of quadrature_matrices, as mpf.

    The integrand changes character at the origin and in the Gaussian
    tail, so the integration interval is split at 1 and 4.  Returns four
    symmetric, read-only (size, size) object arrays.
    """
    with mp.workdps(dps):
        alpha = mp.mpf(1) / 2
        c_cent = m * m - mp.mpf(1) / 4

        def u(k, r):
            return r ** (mp.mpf(1) / 2 + abs(m) + k) * mp.e ** (-alpha * r * r)

        def upp(k, r):
            s = mp.mpf(1) / 2 + abs(m) + k
            return (s * (s - 1) * r ** (s - 2)
                    - 2 * alpha * (2 * s + 1) * r ** s
                    + 4 * alpha ** 2 * r ** (s + 2)) * mp.e ** (-alpha * r * r)

        integrands = (
            lambda j, k, r: u(j, r) * u(k, r),
            lambda j, k, r: r * r * u(j, r) * u(k, r),
            lambda j, k, r: u(j, r) * u(k, r) / r,
            lambda j, k, r: u(j, r) * (-upp(k, r) + c_cent * u(k, r) / r ** 2),
        )
        pts = [0, 1, 4, mp.inf]
        parts = [np.empty((size, size), dtype=object) for _ in integrands]
        for j in range(size):
            for k in range(j, size):
                for part, f in zip(parts, integrands):
                    part[j, k] = part[k, j] = mp.quad(
                        lambda r: f(j, k, r), pts)
    for part in parts:
        part.flags.writeable = False  # shared by every caller of the cache
    return parts


def _mp_working_dps(size: int) -> int:
    return min(100, max(50, int(1.6 * size) + 20))


def _mp_moment(p: int, beta):
    """M(p; beta) = int_0^inf rho^p exp(-beta rho^2) drho at the active dps."""
    q = mp.mpf(p + 1) / 2
    return mp.gamma(q) / (2 * beta ** q)


def _mp_equilibrated_pencil(m: int, nu: float, b: float, size: int, alpha):
    """Raw (S, H) of the monomial Gaussian basis, scaled to unit S diagonal.

    Basis u_k = rho^(1/2 + |m| + k) exp(-alpha rho^2); every entry is an
    integer translate of one Gamma ladder.  The kinetic and centrifugal
    terms are combined on u_k so that the divergent rho^-2 moment at m = 0
    only ever meets a vanishing coefficient.  Returns (Se, He, d) as mpf
    object arrays; raw coefficients are d times equilibrated ones.
    """
    beta = 2 * alpha
    nu = mp.mpf(nu)
    a2 = 1 + nu * nu / 4
    p0 = 1 + 2 * abs(m)  # s_j + s_k = p0 + j + k

    mom = np.empty(2 * size + 3, dtype=object)
    for t in range(-2, 2 * size + 1):
        mom[t + 2] = mp.mpf(0) if p0 + t <= -1 else _mp_moment(p0 + t, beta)

    jk = np.add.outer(np.arange(size), np.arange(size))
    S = mom[jk + 2]
    k_idx = np.arange(size)
    c_sing = np.array([m * m - (abs(m) + k) ** 2 for k in k_idx], dtype=object)
    s_k = np.array([mp.mpf(1) / 2 + abs(m) + k for k in k_idx], dtype=object)
    kin = (s_k * 2 + 1) * (2 * alpha)

    H = (mom[jk] * c_sing[None, :] + S * kin[None, :]
         + mom[jk + 4] * (a2 - 4 * alpha * alpha) - S * (m * nu)
         + mom[jk + 1] * (2 * mp.mpf(b))) / 2
    H = (H + H.T) / 2

    d = np.array([1 / mp.sqrt(S[j, j]) for j in range(size)], dtype=object)
    scale = d[:, None] * d[None, :]
    return S * scale, H * scale, d


def _mp_cholesky(A) -> np.ndarray:
    size = A.shape[0]
    L = np.zeros((size, size), dtype=object)
    for j in range(size):
        pivot = A[j, j] - (L[j, :j] @ L[j, :j] if j else 0)
        if pivot <= 0:
            raise ArithmeticError(f"Cholesky pivot {j} is not positive")
        root = mp.sqrt(pivot)
        L[j, j] = root
        if j + 1 < size:
            below = A[j + 1:, j] - (L[j + 1:, :j] @ L[j, :j] if j else 0)
            L[j + 1:, j] = below / root
    return L


def mp_sector_solve(m: int, nu: float, b: float, size: int,
                    alpha: float = 0.5, dps: int | None = None):
    """Energies and raw S-orthonormal coefficients of one sector, per point.

    The whole generalized problem is assembled and Cholesky-reduced at
    extended precision for this one (nu, b); the reduced problem is solved
    in float64 in the inverted form B = L^T H^-1 L, whose eigenvalues are
    the reciprocal energies, and the eigenvectors are back-transformed
    exactly.  Raises ArithmeticError when either Cholesky factorization
    fails at the working precision, which by default is the package's
    former budget, 1.6 K + 20 digits capped at 100; pass dps to resolve
    larger bases.
    """
    with mp.workdps(dps or _mp_working_dps(size)):
        Se, He, d = _mp_equilibrated_pencil(m, nu, b, size, mp.mpf(alpha))
        L = _mp_cholesky(Se)
        R = _mp_cholesky(He)

        G = np.empty((size, size), dtype=object)  # G = R^-1 L
        for i in range(size):
            acc = L[i] - (R[i, :i] @ G[:i] if i else 0)
            G[i] = acc / R[i, i]
        B = np.array([[float(x) for x in row] for row in G.T @ G])

        lam, Y = np.linalg.eigh(B)
        lam, Y = lam[::-1], Y[:, ::-1]
        lam = np.maximum(lam, np.finfo(float).eps * lam[0])

        X = np.empty((size, size), dtype=object)  # X = L^-T Y
        for i in range(size - 1, -1, -1):
            acc = Y[i] - (L[i + 1:, i] @ X[i + 1:] if i + 1 < size else 0)
            X[i] = acc / L[i, i]
        coeff = np.array([[float(x) for x in row] for row in X * d[:, None]])
    return 1.0 / lam, coeff


def mp_reduced_pencil(m: int, nu: float, b: float, size: int,
                      alpha: float = 0.5, dps: int | None = None) -> np.ndarray:
    """The sector Hamiltonian in the orthonormal basis, L^-1 He L^-T.

    Se = L L^T is the Cholesky factorization of the equilibrated overlap at
    extended precision, so the rows of L^-1 combine the equilibrated
    monomial Gaussians d_k u_k into their Gram-Schmidt orthonormalization,
    in order.  Each of these functions has a positive leading coefficient,
    as the package's Stieltjes basis does, so the two bases are the same
    functions and the returned float64 matrix is the package's pencil
    entry by entry.  The working precision defaults to the one of
    mp_sector_solve.
    """
    with mp.workdps(dps or _mp_working_dps(size)):
        Se, He, _ = _mp_equilibrated_pencil(m, nu, b, size, mp.mpf(alpha))
        L = _mp_cholesky(Se)

        def solve_lower(B):
            X = np.empty((size, size), dtype=object)  # X = L^-1 B
            for i in range(size):
                acc = B[i] - (L[i, :i] @ X[:i] if i else 0)
                X[i] = acc / L[i, i]
            return X

        reduced = solve_lower(solve_lower(He).T)
        return np.array([[float(x) for x in row] for row in reduced])


def mp_recurrence(power: int, n: int, alpha: float, dps: int):
    """Recurrence coefficients (a_k, b_k), k < n, of a half-line weight.

    The weight is rho^power exp(-2 alpha rho^2) on [0, inf); b_0 is its
    total mass.  The moments
    come from two Gamma values and the exact ladder M(p + 2) = M(p) (p + 1)
    / (2 beta), and the Chebyshev algorithm (Gautschi, SIAM J. Sci. Stat.
    Comput. 3, 289, 1982) turns them into the coefficients of the monic
    orthogonal polynomials pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}.  The
    algorithm loses about 1.2 decimal digits per coefficient, so dps must
    exceed 1.2 n by the digits wanted in the result.  This is the package's
    former basis reduction; returns float lists, and raises ArithmeticError
    when a norm is not positive at the working precision.
    """
    with mp.workdps(dps):
        beta = 2 * mp.mpf(alpha)
        mom = [_mp_moment(power + t, beta) for t in (0, 1)]
        for t in range(2, 2 * n):
            mom.append(mom[-2] * (mp.mpf(power + t - 1) / 2) / beta)
        cur = np.array(mom, dtype=object)
        prev = np.zeros(2 * n, dtype=object)
        a, b = [mom[1] / mom[0]], [mom[0]]
        for k in range(1, n):
            nxt = np.zeros(2 * n, dtype=object)
            top = 2 * n - k
            # array operand first: an mpf left operand would try to convert
            # the whole array through its repr
            nxt[k:top] = (cur[k + 1:top + 1] - cur[k:top] * a[-1]
                          - prev[k:top] * b[-1])
            if nxt[k] <= 0:
                raise ArithmeticError(
                    f"norm {k} is not positive at {dps} digits")
            a.append(nxt[k + 1] / nxt[k] - cur[k] / cur[k - 1])
            b.append(nxt[k] / cur[k - 1])
            prev, cur = cur, nxt
        return [float(v) for v in a], [float(v) for v in b]


def mp_radial_moment(m: int, coeff, p: int, alpha: float = 0.5) -> float:
    """<rho^p> of one raw coefficient vector, for integer p >= -1.

    The expectation is a ratio of quadratic forms over exact Gaussian
    moments, evaluated at 120 digits so that the alternating raw
    coefficients cancel without loss.
    """
    with mp.workdps(120):
        beta = 2 * mp.mpf(alpha)
        c = [mp.mpf(float(x)) for x in coeff]
        size = len(c)
        p0 = 1 + 2 * abs(m)  # s_j + s_k = p0 + j + k
        mom = {t: _mp_moment(t, beta)
               for t in range(p0 + min(p, 0), p0 + 2 * size + max(p, 0))}

        def form(power):
            return mp.fsum(c[j] * c[k] * mom[p0 + j + k + power]
                           for j in range(size) for k in range(size))

        return float(form(p) / form(0))


def mp_velocity(m: int, nu: float, coeff, alpha: float = 0.5) -> float:
    """<v_phi> = m <1/rho> - (nu/2) <rho> of one raw coefficient vector."""
    return (m * mp_radial_moment(m, coeff, -1, alpha)
            - nu / 2 * mp_radial_moment(m, coeff, 1, alpha))


def mp_density_peak(m: int, coeff, rho_grid, alpha: float = 0.5) -> float:
    """Radius of the density peak of one raw coefficient vector.

    chi = sum_k c_k rho^(s_k) exp(-alpha rho^2), s_k = 1/2 + |m| + k, and

        chi' = sum_k c_k (s_k / rho - 2 alpha rho) rho^(s_k) exp(-alpha rho^2)

    are summed at 120 digits, so that the alternating raw coefficients
    cancel without loss.  The peak is the root of chi' that mp.findroot
    reaches from the sample of rho_grid where chi^2 is largest.
    """
    with mp.workdps(120):
        c = [mp.mpf(float(x)) for x in coeff]
        s = [mp.mpf(1) / 2 + abs(m) + k for k in range(len(c))]
        alpha = mp.mpf(alpha)

        def chi(r):
            return (mp.fsum(ck * r ** sk for ck, sk in zip(c, s))
                    * mp.e ** (-alpha * r * r))

        def chi_prime(r):
            return mp.fsum(ck * (sk / r - 2 * alpha * r) * r ** sk
                           for ck, sk in zip(c, s)) * mp.e ** (-alpha * r * r)

        start = max((mp.mpf(float(r)) for r in rho_grid),
                    key=lambda r: chi(r) ** 2)
        return float(mp.findroot(chi_prime, start))


def reference_expansion(a, sb, weights, s: float, c: float):
    """Callable rho -> sum_k weights[k] phi_k(c rho), a new array per step.

    The package's former radial sum: the three-term recurrence of the q_k
    with the Gaussian factor g = r^s exp(-r^2 / 2) carried from the start,
    r = c rho, every step allocating its result.  a, sb (sqrt of b_k) and
    the weights, already scaled by sqrt(c), are data taken from a basis.
    """
    def series(rho):
        r = c * np.asarray(rho, dtype=float)
        q = np.exp(s * np.log(r) - 0.5 * r * r) / sb[0]
        q_prev, total = 0.0, weights[0] * q
        for k in range(len(weights) - 1):
            q, q_prev = ((r - a[k]) * q - sb[k] * q_prev) / sb[k + 1], q
            total = total + weights[k + 1] * q
        return total

    return series


def reference_current_field(chi, m: int, nu: float, half_extent: float,
                            n: int):
    """(x, y, Jx, Jy) on the n x n square grid, one point at a time.

    J = (m / rho - nu rho / 2) chi^2 / rho is azimuthal, Jx = -(y / rho) J,
    Jy = (x / rho) J, and 0 at the origin; chi is called on each point
    alone, as a 0-d array.
    """
    axis = np.linspace(-half_extent, half_extent, n)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    jx, jy = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xi, yj = float(x[i, j]), float(y[i, j])
            rho = float(np.hypot(xi, yj))
            if rho > 0:
                value = float(chi(np.array(rho)))
                j_phi = (m / rho - 0.5 * nu * rho) * (value * value / rho)
                jx[i, j] = -yj / rho * j_phi
                jy[i, j] = xi / rho * j_phi
    return x, y, jx, jy


def reference_rho_max(chi) -> float:
    """The package's former rho_max: a 1200-point scan out to rho = 60.

    The last of the points 0.05, 0.10, ..., 60 where chi^2 exceeds 1e-16 of
    its largest sample, plus 1.
    """
    grid = np.linspace(0.05, 60.0, 1200)
    vals = np.asarray(chi(grid)) ** 2
    above = np.nonzero(vals > 1e-16 * vals.max())[0]
    return float(grid[above[-1]] + 1.0)


def _offset_grid(n: int, half_extent: float):
    """Spacing, sample meshes and wavenumber meshes of the n x n grid.

    Samples sit half a cell off the origin, at -L + (i + 1/2) h.
    """
    h = 2.0 * half_extent / n
    ax = -half_extent + h * (np.arange(n) + 0.5)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    xi, eta = np.meshgrid(ax, ax, indexing="ij")
    kx, ky = np.meshgrid(k, k, indexing="ij")
    return h, xi, eta, kx, ky


def _softcore_v2(h, xi, eta, nu: float, b: float) -> np.ndarray:
    """(1/2)(1 + nu^2/4) rho^2 + b/sqrt(rho^2 + eps^2) with eps = h/2."""
    rho2 = xi ** 2 + eta ** 2
    return (0.5 * (1.0 + 0.25 * nu * nu) * rho2
            + b / np.sqrt(rho2 + 0.25 * h * h))


def reference_strang_step(psi, half_extent: float, nu: float, b: float,
                          dtau: float) -> np.ndarray:
    """One symmetric real-time split step of the co-rotating Hamiltonian h2.

    The whole potential V2 is rebuilt on every call and the kinetic factor
    weights the 2-D transform by k^2 = kx^2 + ky^2: the step multiplies by
    exp(-i V2 dtau/2) and exp(-i k^2 dtau/2).
    """
    h, xi, eta, kx, ky = _offset_grid(psi.shape[0], half_extent)
    half = np.exp(-0.5j * dtau * _softcore_v2(h, xi, eta, nu, b))
    kin = np.exp(-0.5j * dtau * (kx ** 2 + ky ** 2))
    return half * np.fft.ifft2(kin * np.fft.fft2(half * psi))


def _cell_mean_inverse_radius(n: int, half_extent: float) -> np.ndarray:
    """Mean of 1/rho over each cell of the n x n grid, in closed form.

    F(x, y) = x log(y + r) + y log(x + r), r = sqrt(x^2 + y^2), has
    d^2 F / dx dy = 1/r for x, y >= 0, so a cell's integral is the mixed
    difference of F over its corners.  The cells of the quadrant x, y > 0
    are integrated that way and mirrored onto the other three.
    """
    h = 2.0 * half_extent / n
    x = h * np.arange(n // 2 + 1)           # faces from the origin outward
    X, Y = np.meshgrid(x, x, indexing="ij")
    R = np.hypot(X, Y)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (np.where(X > 0, X * np.log(Y + R), 0.0)
             + np.where(Y > 0, Y * np.log(X + R), 0.0))
    quadrant = (F[1:, 1:] - F[:-1, 1:] - F[1:, :-1] + F[:-1, :-1]) / h ** 2
    upper = np.concatenate([quadrant[::-1], quadrant])  # rows: xi ascending
    return np.concatenate([upper[:, ::-1], upper], axis=1)


def dense_h2_ground(n: int, half_extent: float, nu: float, b: float,
                    m: int, coulomb: str) -> float:
    """Lowest level of the grid h2 in the C4 class of m, minus (nu/2) m.

    h2 = T + V2 is assembled as a dense n^2 x n^2 matrix: T is the Kronecker
    sum of the 1-D spectral kinetic matrix
    (1/n) sum_q (k_q^2 / 2) cos(k_q (i - j) h) over the n wavenumbers
    k_q = 2 pi q / (n h), q = -n/2 .. n/2 - 1, and V2 is diagonal, with the
    soft core b/sqrt(rho^2 + (h/2)^2) or the cell mean of b/rho.  The C4
    class of m is the range of P = (1/4) sum_r exp(i m r pi/2) R^r, R the
    quarter turn psi(xi, eta) -> psi(eta, -xi); the columns of 2P at one
    point per rotation orbit are an orthonormal basis of it, and the
    lowest eigenvalue of h2 there comes from a dense eigvalsh.
    """
    h = 2.0 * half_extent / n
    ax = -half_extent + h * (np.arange(n) + 0.5)
    k = 2.0 * np.pi / (n * h) * np.arange(-(n // 2), n // 2)
    d = np.subtract.outer(np.arange(n), np.arange(n))
    t1 = (0.5 * k ** 2 * np.cos(k * h * d[..., None])).sum(axis=-1) / n
    eye = np.eye(n)
    xi, eta = np.meshgrid(ax, ax, indexing="ij")
    rho2 = xi ** 2 + eta ** 2
    if coulomb == "softcore":
        inv_rho = 1.0 / np.sqrt(rho2 + 0.25 * h * h)
    else:
        inv_rho = _cell_mean_inverse_radius(n, half_extent)
    v2 = 0.5 * (1.0 + 0.25 * nu * nu) * rho2 + b * inv_rho
    H = np.kron(t1, eye) + np.kron(eye, t1) + np.diag(v2.ravel())
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    turn = (j * n + (n - 1 - i)).ravel()   # (R psi)[i, j] = psi[j, n-1-i]
    P = np.zeros((n * n, n * n), dtype=complex)
    index = np.arange(n * n)
    for r in range(4):
        P[np.arange(n * n), index] += 0.25 * np.exp(0.5j * math.pi * m * r)
        index = index[turn]
    reps = ((i < n // 2) & (j < n // 2)).ravel()
    Q = 2.0 * P[:, reps]
    return float(np.linalg.eigvalsh(Q.conj().T @ H @ Q)[0]) - 0.5 * nu * m


def reference_transform_step(psi, half, kinetic) -> np.ndarray:
    """half * IFFT2(kinetic * FFT2(half * psi)) with scipy's 2-D transforms.

    The kick and kinetic factors are given, so this checks the transform
    path alone: scipy.fft.fft2 and ifft2, the package's former transforms.
    Each product keeps the operand order of the package's in-place
    products; with fused multiply-adds a complex product need not commute
    to the last bit.
    """
    return scipy.fft.ifft2(scipy.fft.fft2(half * psi) * kinetic) * half


def reference_observables(psi, half_extent: float, nu: float, b: float,
                          theta: float = 0.0) -> dict:
    """Norm, energy, L_z, kinetic velocity and centre of a grid state.

    psi lives in the frame rotated by theta; the vectors are returned in the
    lab frame.  Momenta come from the 2-D transform, the kinetic energy from
    its k^2 weighting, and the potential from the full V2 grid.  Kinetic
    velocity is <p> + (nu/2)(eta, -xi), the symmetric-gauge drift.
    """
    h, xi, eta, kx, ky = _offset_grid(psi.shape[0], half_extent)
    ft = np.fft.fft2(psi)
    px = np.fft.ifft2(kx * ft)
    py = np.fft.ifft2(ky * ft)
    dens = np.abs(psi) ** 2
    total = np.sum(dens)
    pc = psi.conj()
    kin = 0.5 * np.sum((kx ** 2 + ky ** 2) * np.abs(ft) ** 2) / psi.size
    pot = np.sum(_softcore_v2(h, xi, eta, nu, b) * dens)
    lz = np.sum((pc * (xi * py - eta * px)).real) / total
    cx = np.sum(xi * dens) / total
    cy = np.sum(eta * dens) / total
    vx = np.sum((pc * px).real) / total + 0.5 * nu * cy
    vy = np.sum((pc * py).real) / total - 0.5 * nu * cx
    c, s = math.cos(theta), math.sin(theta)
    return {
        "norm": math.sqrt(h * h * total),
        "energy": (kin + pot) / total - 0.5 * nu * lz,
        "Lz": lz,
        "vx": c * vx + s * vy,
        "vy": -s * vx + c * vy,
        "cx": c * cx + s * cy,
        "cy": -s * cx + c * cy,
    }


def reference_edge_mass(psi, h: float, cells: int) -> float:
    """Probability within `cells` of the box edge: h^2 times the sum of the
    full density under a mask of the four border strips."""
    border = np.ones(psi.shape, dtype=bool)
    border[cells:-cells, cells:-cells] = False
    return h * h * float(np.sum((np.abs(psi) ** 2)[border]))


def reference_rotation(psi, half_extent: float, theta: float) -> np.ndarray:
    """psi rotated counterclockwise by theta on the offset grid.

    The new field at (xi, eta) is the old one at
    (xi cos theta + eta sin theta, -xi sin theta + eta cos theta).  The
    residual angle t = theta - q pi/2 is the shear product
    Sx(-tan(t/2)) Sy(sin t) Sx(-tan(t/2)), each shear applied as the full
    N^2 phase table exp(-i c k x) on a one-axis transform; the q quarter
    turns follow as the index permutation psi'(xi, eta) = psi(eta, -xi),
    exact because the offset axis negates under i -> n-1-i.
    """
    _, xi, eta, kx, ky = _offset_grid(psi.shape[0], half_extent)
    quarters = round(theta / (0.5 * math.pi))
    t = theta - quarters * 0.5 * math.pi
    a, s = -math.tan(0.5 * t), math.sin(t)
    along_xi = np.exp(-1j * a * kx * eta)   # line at eta moves by a eta
    along_eta = np.exp(-1j * s * ky * xi)   # line at xi moves by s xi
    out = np.fft.ifft(along_xi * np.fft.fft(psi, axis=0), axis=0)
    out = np.fft.ifft(along_eta * np.fft.fft(out, axis=1), axis=1)
    out = np.fft.ifft(along_xi * np.fft.fft(out, axis=0), axis=0)
    for _ in range(quarters % 4):
        out = out.T[::-1, :]
    return out


def classical_trajectory(nu: float, xi0: float, taus,
                         dt: float = 1e-4) -> np.ndarray:
    """Classical relative-motion trajectory for b = 0, lab frame.

    Equations of motion for the kinetic velocity v = (v_xi, v_eta):

        xi'  = v_xi          v_xi' = -xi  + nu v_eta
        eta' = v_eta         v_eta' = -eta - nu v_xi

    started from rest *in canonical momentum*: a real-amplitude state has
    <p> = 0, which in the symmetric gauge means kinetic velocity
    (0, -(nu/2) xi0), not zero.  RK4 with fixed step; every requested tau
    must be an integer multiple of dt.  Returns rows (xi, eta, v_xi, v_eta).
    """
    def deriv(y):
        xi, eta, vx, vy = y
        return np.array([vx, vy, -xi + nu * vy, -eta - nu * vx])

    taus = np.asarray(taus, dtype=float)
    out = np.empty((len(taus), 4))
    y = np.array([xi0, 0.0, 0.0, -0.5 * nu * xi0])
    t = 0.0
    for i, target in enumerate(taus):
        n_steps = round((target - t) / dt)
        if abs(target - t - n_steps * dt) > 1e-9:
            raise ValueError(f"tau = {target} is not a multiple of dt = {dt}")
        for _ in range(n_steps):
            k1 = deriv(y)
            k2 = deriv(y + 0.5 * dt * k1)
            k3 = deriv(y + 0.5 * dt * k2)
            k4 = deriv(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = n_steps * dt + t
        out[i] = y
    return out


_PI_TOKEN = re.compile(r"\d+(?:\.\d*)?(?:e[+-]?\d+)?|\.\d+(?:e[+-]?\d+)?"
                       r"|pi|[()+\-*/]")


def reference_pi_expression(text: str) -> float:
    """Evaluate + - * /, unary minus and parentheses over numbers and pi.

    A tokenizer and a recursive-descent parser; malformed input raises
    ValueError.  Number tokens are read by float(), so a literal beyond the
    float range is inf, and division by zero raises ZeroDivisionError.
    """
    s = text.strip().lower()
    tokens = _PI_TOKEN.findall(s)
    if not tokens or "".join(tokens) != s.replace(" ", ""):
        raise ValueError(f"cannot parse numeric expression {text!r}")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def atom():
        tok = peek()
        if tok == "(":
            advance()
            val = expr()
            if peek() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            advance()
            return val
        if tok == "pi":
            advance()
            return math.pi
        if tok is None or tok in "+*/)":
            raise ValueError(f"malformed expression {text!r}")
        if tok == "-":
            advance()
            return -atom()
        advance()
        return float(tok)

    def term():
        val = atom()
        while peek() in ("*", "/"):
            if advance() == "*":
                val *= atom()
            else:
                val /= atom()
        return val

    def expr():
        val = term()
        while peek() in ("+", "-"):
            if advance() == "+":
                val += term()
            else:
                val -= term()
        return val

    result = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing junk in expression {text!r}")
    return float(result)
