"""Rayleigh-Ritz diagonalization of the radial problem, sector by sector.

In the angular momentum sector m the radial Hamiltonian (energies in units
of hbar*omega_t) is

    h = (1/2) [ -d^2/drho^2 + V(rho) ]
    V(rho) = -m nu + a^2 rho^2 + (m^2 - 1/4)/rho^2 + 2b/rho,  a^2 = 1 + nu^2/4

It is diagonalized in the radial Gaussian basis

    u_k(rho) = rho^(1/2 + |m| + k) exp(-alpha rho^2),   k = 0 .. K-1

which spans rho^(1/2 + |m|) exp(-alpha rho^2) times every polynomial of
degree below K.  Overlaps are moments of the weight
w(rho) = rho^(2|m| + 1) exp(-2 alpha rho^2) on the half line,

    mu_t = int_0^inf rho^t w drho = M(2|m| + 1 + t; 2 alpha),
    M(p; beta) = Gamma((p+1)/2) / (2 beta^((p+1)/2)),

and the solver works in the basis phi_k = rho^(1/2 + |m|) exp(-alpha rho^2)
q_k(rho) built from the polynomials q_k orthonormal under w, so that the
overlap is the identity.  Only the alpha = 1/2 basis is ever reduced: the
basis of width alpha is its dilation by c = sqrt(2 alpha),
phi_k^alpha(rho) = sqrt(c) phi_k(c rho), so alpha enters only as scalars
where the blocks are used.  At alpha = 1/2 the pencil splits into three
blocks fixed by (|m|, K) alone, and at any alpha it is

    H(nu, b) = c^2 T + (a^2 / c^2) P + b c C - (m nu / 2) I,

    T_jk = (1/2) int w g_j g_k,  g_k = q_k' - rho q_k,
    P_jk = (1/2) int w rho^2 q_j q_k,   C_jk = int (w / rho) q_j q_k.

T is the kinetic plus centrifugal term integrated by parts; the (m^2 - 1/4)
/ rho^2 part cancels exactly, so T is regular even at the critical m = 0
coupling.  P is half the square of the Jacobi matrix of the recurrence.
The K x K truncated Jacobi matrix is the exact block of rho; with C and 2P
it gives the radial moments <1/rho>, <rho> and <rho^2> of any state as
quadratic forms (RadialBasis.radial_moments), times c, 1/c and 1/c^2.

Everything rests on one discrete measure: a composite Gauss-Legendre rule
in sqrt(rho) standing in for w / rho, with rho times its weights standing
in for w, fine enough to integrate either weight times every polynomial
the recurrence and the blocks meet (degree up to 2K + 2) to rounding.  The
recurrence comes from the discretized Stieltjes procedure (Gautschi,
Orthogonal Polynomials: Computation and Approximation, OUP 2004, sec. 2.2)
run on it in float64, with inner products that are sums of positive
terms, and T and C are weighted sums over the same nodes.  The moments
themselves are never formed, so nothing is lost to the ~1.2 decimal
digits per basis function by which the moment matrix grows
ill-conditioned.  This runs once per (|m|, K), and the float64 blocks are
cached; a solve at any (nu, b, alpha) is then one float64 symmetric
eigendecomposition.  Its energies are the Rayleigh quotients y^T H y of
the eigenvectors y, accurate to relative rounding, where the eigenvalues
themselves carry an absolute error of eps ||H|| (Parlett, The Symmetric
Eigenvalue Problem, SIAM 1998).  A basis holds 1 to MAX_BASIS_K (240)
functions, the range over which the tests check the recurrence.  A weight
whose mass under- or overflows float64 at the requested (alpha, |m|) is
reported as a basis conditioning error naming alpha and |m|, a block that
is not finite or a failing eigensolve as one naming K; a pencil that
overflows at the requested (nu, b) raises OverflowError.

A state is its eigenvector in the orthonormal basis phi_k, and nothing
else: no expansion over the raw u_k is formed, since its high terms carry
alternating entries of order 1e10 and beyond that cancel in float64.
overlap_and_hamiltonian_matrices still assembles the raw pencil (S, H) in
float64, as an independent reference for the tests, from log-Gamma moments
with the kinetic and centrifugal terms combined on u_k so that the
divergent rho^-2 moment at m = 0 only meets a vanishing coefficient; the
solver itself does not use it.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .params import TrapParams

__all__ = [
    "RadialBasis",
    "RadialEigenSolution",
    "GroundStateRecord",
    "BasisConditioningError",
    "BracketingError",
    "MAX_BASIS_K",
    "overlap_and_hamiltonian_matrices",
    "solve_sector",
    "ground_state_scan",
    "find_crossing",
    "spectrum_sweep",
]

DEFAULT_BASIS_SIZE = 30
DEFAULT_M_RANGE = (-3, 6)

# the largest basis size; tests/test_radial.py checks the recurrence, which
# runs one step past the basis, to n = 241
MAX_BASIS_K = 240

# ground energy movement under K -> K + 10 that triggers a convergence warning
_SENTINEL_SHIFT = 1e-7

# Gauss-Legendre points per panel of the discretized weight
_PANEL_ORDER = 40


class BasisConditioningError(RuntimeError):
    """Raised when the sector basis cannot be used in float64; names why.

    The float64 recurrence has no precision budget that a large K exhausts;
    it fails only when the weight's mass leaves the float64 range (an
    extreme alpha or |m|, which no K mends) or a pencil block is not
    finite.  A failing float64 eigensolve of the reduced pencil is reported
    here too.
    """

    def __init__(self, size: int, m: int, cause: str):
        super().__init__(f"basis of K={size} functions in sector m={m}: "
                         f"{cause}")
        self.size = size
        self.m = m


class BracketingError(ValueError):
    """Raised when a requested level crossing does not exist in a bracket."""


@dataclass(frozen=True)
class RadialBasis:
    """Monomial radial Gaussians for one angular momentum sector.

    Functions are u_k(rho) = rho^(1/2 + |m| + k) exp(-alpha rho^2) for
    k = 0 .. size-1, unnormalized.  alpha = 1/2 is the exact width of the
    nu = 0, b = 0 ground state; pass alpha = gauss_width/2 to match the
    b = 0 state at finite nu.  Every width shares the one alpha = 1/2
    reduction of its (|m|, size): this basis is that one dilated by
    c = sqrt(2 alpha), which expansion, _density_slope, _sampling_grid and
    radial_moments apply as scalars.  size runs from 1 to MAX_BASIS_K (240),
    the largest basis whose recurrence the tests check; a larger one is
    refused here, before any reduction.
    """

    m: int
    size: int
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 1 <= self.size <= MAX_BASIS_K:
            raise ValueError(
                f"basis size K = {self.size} must be at least 1 and at most "
                f"the ceiling of {MAX_BASIS_K}, the largest basis whose "
                f"recurrence is tested")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be positive and finite")

    def powers(self) -> np.ndarray:
        """Exponents s_k = 1/2 + |m| + k of the raw functions u_k."""
        return 0.5 + abs(self.m) + np.arange(self.size, dtype=float)

    def _recurrence(self, weights):
        """(a, sb, sqrt(c) weights, s, c) for summing a state at c rho.

        phi_k^alpha(rho) = sqrt(c) phi_k(c rho), so a state of this basis is
        the state of the alpha = 1/2 basis with weights sqrt(c) times these,
        evaluated at c rho; a and sb are that basis's recurrence.
        """
        blocks, c = _sector_blocks(self.m, self.size, self.alpha)
        w = (math.sqrt(c) * np.asarray(weights, dtype=float)).tolist()
        return blocks.a, blocks.sb, w, 0.5 + abs(self.m), c

    def expansion(self, weights):
        """Callable rho -> sum_k weights[k] phi_k(rho) on an array of rho.

        phi_k = rho^(1/2 + |m|) exp(-alpha rho^2) q_k(rho) is the orthonormal
        basis that RadialEigenSolution.vectors refers to.  The sum runs the
        three-term recurrence of the q_k with the Gaussian factor carried
        from the start, so it neither cancels like a sum over the raw u_k
        nor overflows far out.  A scalar rho is a 0-d array here, and the
        value a numpy float.  Each call runs the recurrence in four buffers
        of rho's shape, allocated once per call.
        """
        a, sb, w, s, c = self._recurrence(weights)

        def series(rho):
            rho = np.asarray(rho, dtype=float)
            if np.any(rho <= 0):
                raise ValueError("rho must be strictly positive")
            r = c * rho
            q, q_prev, step, total = (np.empty_like(r) for _ in range(4))
            # q_0 = exp(s log r - r^2 / 2) / sb_0
            np.log(r, out=q)
            q *= s
            np.multiply(0.5, r, out=step)
            step *= r
            q -= step
            np.exp(q, out=q)
            q /= sb[0]
            np.multiply(w[0], q, out=total)
            for k in range(len(w) - 1):
                # q_{k+1} = ((r - a_k) q_k - sb_k q_{k-1}) / sb_{k+1}, into
                # the buffer of q_{k-1}; at k = 0 the subtrahend is zero
                np.subtract(r, a[k], out=step)
                step *= q
                if k:
                    np.multiply(sb[k], q_prev, out=q_prev)
                    step -= q_prev
                np.divide(step, sb[k + 1], out=q_prev)
                q, q_prev = q_prev, q
                np.multiply(w[k + 1], q, out=step)
                total += step
            return total[()]

        return series

    def _density_slope(self, weights):
        """Callable rho -> g^2 P (r P' + (s - r^2) P) at r = c rho > 0.

        With chi = expansion(weights) = g P at r, g = r^s exp(-r^2 / 2),
        s = 1/2 + |m| and P = sqrt(c) sum_k weights[k] q_k, the value is
        rho/2 times d(chi^2)/drho.  g P and g P' run the recurrences of
        _stieltjes with g carried from the start, in plain float arithmetic:
        the density peak search of observables.density_profile calls it one
        point at a time, where numpy would pay its per-operation overhead
        at every step of the recurrence.
        """
        a, sb, w, s, c = self._recurrence(weights)

        def density_slope(rho):
            r = c * rho
            q = math.exp(s * math.log(r) - 0.5 * r * r) / sb[0]
            q_prev = dq = dq_prev = dp = 0.0
            p = w[0] * q
            for k in range(len(w) - 1):
                x = r - a[k]
                q, q_prev, dq, dq_prev = (
                    (x * q - sb[k] * q_prev) / sb[k + 1], q,
                    (q + x * dq - sb[k] * dq_prev) / sb[k + 1], dq)
                p += w[k + 1] * q
                dp += w[k + 1] * dq
            return p * (r * dp + (s - r * r) * p)

        return density_slope

    def _sampling_grid(self) -> np.ndarray:
        """Ascending rho on which a state of this basis shows every lobe.

        A state of K functions is g times a polynomial of degree K - 1,
        which oscillates on the scale of the zeros of q_K, the eigenvalues
        of the truncated Jacobi matrix.  At alpha = 1/2 they all lie below
        R = sqrt(4K + 2|m| - 2), at 0.6 to 0.86 of it.  The grid steps by
        pi / (4 R) and runs to R + 8, where every phi_k has fallen below
        1e-18 of its largest value; it is divided by c for the dilation.
        In the outer half of the zeros, where a state ends, two zeros are
        at least 2.8 steps apart, and 4.2 from K = 15 on, where a basis has
        room for the ripples a narrow state leaves in its tail
        (tests/test_radial.py checks these facts for K <= 240, |m| <= 40).
        """
        radius = math.sqrt(4 * self.size + 2 * abs(self.m) - 2)
        step = math.pi / (4.0 * radius)
        r = step * np.arange(1, math.ceil((radius + 8.0) / step) + 1)
        return r / math.sqrt(2.0 * self.alpha)

    def radial_moments(self, weights) -> dict[int, float]:
        """<rho^p> for p = -1, 1, 2 of the state sum_k weights[k] phi_k.

        Exact quadratic forms w^T M_p w over the cached alpha = 1/2 blocks,
        times c^-p for the dilation: the Coulomb block for 1/rho, the
        truncated Jacobi matrix for rho and twice the trap block for rho^2.
        weights are taken as normalized.  The forms read a contiguous
        float64 copy of them, so the moments depend on their values alone:
        BLAS sums a strided vector in another order than a contiguous one.
        """
        blocks, c = _sector_blocks(self.m, self.size, self.alpha)
        w = np.array(weights, dtype=float)
        return {-1: c * float(w @ blocks.coulomb @ w),
                1: float(w @ blocks.position @ w) / c,
                2: 2.0 * float(w @ blocks.trap @ w) / (c * c)}


_lgamma = np.vectorize(math.lgamma, otypes=[float])


def _log_moment(p, beta: float):
    """log of M(p; beta) = int_0^inf rho^p exp(-beta rho^2) drho, p > -1."""
    p = np.asarray(p, dtype=float)
    return (_lgamma(0.5 * (p + 1.0)) - 0.5 * (p + 1.0) * math.log(beta)
            - math.log(2.0))


def overlap_and_hamiltonian_matrices(basis: RadialBasis, tp: TrapParams):
    """Assemble the raw overlap and Hamiltonian matrices (S, H).

    Entries refer to the unnormalized basis functions of `basis`; H is
    symmetrized to (H + H^T)/2 to remove the last-bit asymmetry of the
    one-sided kinetic formula.
    """
    m = basis.m
    beta = 2.0 * basis.alpha
    s = basis.powers()
    k_idx = np.arange(basis.size, dtype=float)
    a2 = 1.0 + 0.25 * tp.nu * tp.nu

    p = s[:, None] + s[None, :]
    S = np.exp(_log_moment(p, beta))
    M_plus2 = np.exp(_log_moment(p + 2.0, beta))
    M_minus1 = np.exp(_log_moment(p - 1.0, beta))

    # combined kinetic + centrifugal coefficient of the rho^(p-2) moment;
    # it vanishes identically for k = 0, exactly where p - 2 hits -1
    c_sing = m * m - (abs(m) + k_idx) ** 2
    safe = p - 2.0 > -1.0 + 1e-12
    M_minus2 = np.where(safe, np.exp(_log_moment(np.where(safe, p - 2.0, 0.0), beta)), 0.0)

    H = 0.5 * (
        c_sing[None, :] * M_minus2
        + (beta * (2.0 * s[None, :] + 1.0)) * S
        + (a2 - beta * beta) * M_plus2
        - m * tp.nu * S
        + 2.0 * tp.b * M_minus1
    )
    H = 0.5 * (H + H.T)
    return S, H


def _panel_count(n: int) -> int:
    """Gauss-Legendre panels that resolve n steps of the recurrence.

    At least 2.5 times the count at which every a_k and b_k reaches 1e-14,
    which grows about as n / 10 + 1 (tests/test_radial.py checks half the
    rule against the extended-precision reference up to n = 241).
    """
    return -(-n // 4) + 5


@functools.lru_cache(maxsize=1)
def _panel_rule():
    """Nodes and weights of the 40-point Gauss-Legendre rule on [-1, 1].

    Computed on first use, once per process, and kept read-only.
    """
    t, tw = np.polynomial.legendre.leggauss(_PANEL_ORDER)
    t.flags.writeable = tw.flags.writeable = False
    return t, tw


def _discretization(m_abs: int, n: int, alpha: float, panels: int):
    """Nodes and weights of the discrete measure standing in for w / rho.

    Composite 40-point Gauss-Legendre in u = sqrt(rho) on [0, sqrt(R)],
    with the Jacobian 2u and the weight rho^(2|m|) exp(-2 alpha rho^2)
    folded into the rule's weights; the measure of w itself has weights rho
    times these.  The orthogonal polynomials' zeros crowd the hard edge at
    rho = 0, where their spacing shrinks like R / n^2, but are about evenly
    spread in u: panels even in rho would need of order n^2 nodes, panels
    even in u need of order n.  R lies far beyond the largest zero of the
    degree-n polynomial,
    rho^2 < (4n + 2|m| + 2) / (2 alpha), so the dropped tail is below
    rounding for every polynomial the recurrence and the blocks meet.
    """
    radius = (math.sqrt(4 * n + 2 * m_abs + 80) + 4) / math.sqrt(2 * alpha)
    t, tw = _panel_rule()
    h = math.sqrt(radius) / panels
    u = (h * (np.arange(panels)[:, None] + 0.5 * (t + 1.0))).ravel()
    x = u * u
    weights = np.tile(h * tw, panels) * u * np.exp(
        4 * m_abs * np.log(u) - 2.0 * alpha * x * x)
    return x, weights


def _stieltjes(x: np.ndarray, weights: np.ndarray, n: int):
    """Recurrence terms (a_k, b_k) of a discrete measure, and its q_k, q_k'.

    Discretized Stieltjes procedure (Gautschi, Orthogonal Polynomials:
    Computation and Approximation, OUP 2004, sec. 2.2) in the orthonormal
    form sqrt(b_{k+1}) q_{k+1} = (x - a_k) q_k - sqrt(b_k) q_{k-1}, with
    b_0 the total mass.  a_k and b_{k+1} are sums of positive terms over
    the nodes, so forming them loses nothing to cancellation, as the
    moment-based Chebyshev algorithm does.  Returns (a, b, q, dq), k < n,
    q[k] and dq[k] the values of q_k and q_k' at the nodes; a norm that is
    not positive and finite (the weights under- or overflow float64) None.
    """
    a, b = np.empty(n), np.empty(n)
    q, dq = np.empty((n, len(x))), np.zeros((n, len(x)))
    b[0] = weights.sum()
    if not 0.0 < b[0] < math.inf:
        return None
    q[0] = 1.0 / math.sqrt(b[0])
    for k in range(n):
        a[k] = (weights * q[k]) @ (x * q[k])
        if k + 1 == n:
            break
        sb = math.sqrt(b[k])
        q_prev, dq_prev = (q[k - 1], dq[k - 1]) if k else (0.0, 0.0)
        r = (x - a[k]) * q[k] - sb * q_prev
        b[k + 1] = (weights * r) @ r
        if not 0.0 < b[k + 1] < math.inf:
            return None
        sb_next = math.sqrt(b[k + 1])
        q[k + 1] = r / sb_next
        dq[k + 1] = (q[k] + (x - a[k]) * dq[k] - sb * dq_prev) / sb_next
    return a, b, q, dq


@dataclass(frozen=True)
class _SectorMatrices:
    """Float64 pencil blocks of one (|m|, K) basis at alpha = 1/2.

    H(nu, b) = kinetic + a^2 trap + b coulomb - (m nu / 2) I at alpha = 1/2;
    a basis of width alpha dilates it by c = sqrt(2 alpha), which scales
    kinetic by c^2, trap by 1/c^2 and coulomb by c (module docstring).
    kinetic and coulomb are sums over the discrete measure; trap and
    position come from the Jacobi matrix, position being its K x K
    truncation, the block of rho itself.  a and sb determine it, but it is
    kept dense so that <1/rho>, <rho> and <rho^2> are the same BLAS form
    y^T M y, on a contiguous copy of y, over read-only float64 blocks
    (under 2 MB per sector at K = 240) instead of a Python-list
    recurrence.  a and sb, with sb_k = sqrt(b_k), are the recurrence of
    the q_k.
    """

    kinetic: np.ndarray
    trap: np.ndarray
    coulomb: np.ndarray
    position: np.ndarray
    a: list
    sb: list


@functools.lru_cache(maxsize=64)
@np.errstate(all="ignore")
def _reduce(m_abs: int, size: int) -> _SectorMatrices | None:
    """Reduce the alpha = 1/2 sector pencil to the orthonormal basis, once.

    One discrete measure serves every block: the recurrence of w is run on
    it, and the kinetic and Coulomb blocks are weighted sums over its nodes,
    exact to rounding because the measure integrates w and w / rho times
    every polynomial the blocks meet.  Returns None (and caches that) when
    the weight under- or overflows float64 or a block is not finite; both
    outcomes are checked, so the floating-point warnings on the way there
    are silenced.
    """
    # the nodes' weights are the measure of w / rho; x times them is w's
    x, weights = _discretization(m_abs, size + 1, 0.5,
                                 _panel_count(size + 1))
    recurrence = _stieltjes(x, x * weights, size + 1)
    if recurrence is None:
        return None
    a, b, q, dq = recurrence
    sb = np.sqrt(b)
    # node by basis function, the layout the block products were built on
    q, dq = (np.ascontiguousarray(t[:size].T) for t in (q, dq))
    # kinetic + centrifugal, integrated by parts: T_jk = (1/2) int w g_j g_k
    # with g_k = q_k' - rho q_k, regular at m = 0
    g = dq - x[:, None] * q
    kinetic = 0.5 * (g.T * (x * weights)) @ g
    # rho q_k is the three-term recurrence, so the K x K truncation of the
    # (K+1) Jacobi matrix is the exact rho block; (1/2) rho^2 is half the
    # truncated square of the full one
    J = np.diag(a) + np.diag(sb[1:], 1) + np.diag(sb[1:], -1)
    position = J[:size, :size].copy()
    trap = 0.5 * (J @ J)[:size, :size]
    coulomb = (q.T * weights) @ q

    blocks = (kinetic, trap, coulomb, position)
    if not all(np.isfinite(block).all() for block in blocks):
        return None
    for block in blocks:
        block.flags.writeable = False
    return _SectorMatrices(*blocks, a.tolist(), sb.tolist())


def _sector_blocks(m: int, size: int, alpha: float):
    """(blocks, c): the alpha = 1/2 blocks of sector m, and c = sqrt(2 alpha).

    c is the dilation that maps the blocks onto the width-alpha basis.
    Every consumer of a basis comes through here, so this is where an
    extreme alpha or |m| is refused, before any reduction:
    BasisConditioningError is raised when the mass of the width-alpha
    weight, (2 alpha)^-(|m|+1) Gamma(|m|+1) / 2, leaves the normal float64
    range, or when the alpha = 1/2 reduction has a block that is not
    finite.
    """
    m_abs = abs(m)
    log2_mass = (math.lgamma(m_abs + 1) / math.log(2.0) - 1.0
                 - (m_abs + 1) * math.log2(2.0 * alpha))
    if not -1022 <= log2_mass < 1024:
        raise BasisConditioningError(
            size, m, f"the weight mass (2 alpha)^-(|m|+1) Gamma(|m|+1) / 2 "
            f"at alpha={alpha:g}, |m|={m_abs} is 2^{log2_mass:.0f}, outside "
            f"the float64 range; no K mends this, alpha and |m| decide it")
    blocks = _reduce(m_abs, size)
    if blocks is None:
        raise BasisConditioningError(
            size, m, "a block of its reduction is not finite in float64")
    return blocks, math.sqrt(2.0 * alpha)


def _sector_eigh(m: int, size: int, alpha: float, nu: float, b: float):
    """Ascending energies and orthonormal-basis eigenvectors.

    The energies are the Rayleigh quotients y^T H y of the eigenvectors,
    not the eigenvalues.  nu may carry a sign here: the pencil depends on
    it only through nu^2 and m nu, so (nu, m) and (-nu, -m) give
    bit-identical spectra.  Raises OverflowError when the pencil at (nu, b)
    is not finite in float64, as (nu/2)^2 is for |nu| beyond ~2.7e154.
    """
    blocks, c = _sector_blocks(m, size, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        pencil = ((c * c) * blocks.kinetic
                  + ((1.0 + 0.25 * nu * nu) / (c * c)) * blocks.trap
                  + (b * c) * blocks.coulomb)
    if not np.isfinite(pencil).all():
        raise OverflowError(
            f"the sector pencil at nu={nu}, b={b} (m={m}) overflows float64")
    try:
        _, vectors = np.linalg.eigh(pencil)
    except np.linalg.LinAlgError:
        raise BasisConditioningError(
            size, m, "the float64 eigensolve of its pencil failed") from None
    quotients = (vectors * (pencil @ vectors)).sum(axis=0)
    return quotients - 0.5 * m * nu, vectors


@dataclass(frozen=True)
class RadialEigenSolution:
    """Eigenpairs of one (nu, b, m) sector.

    energies   ascending, in units of hbar*omega_t; the Rayleigh quotients
               of the columns of vectors
    vectors    (K, K), orthonormal; column j is state j in the orthonormal
               basis phi_k of basis.expansion, the only form of a state:
               its radial factor is basis.expansion(vectors[:, j]) and its
               moments basis.radial_moments(vectors[:, j])
    """

    m: int
    params: TrapParams
    basis: RadialBasis
    energies: np.ndarray
    vectors: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GroundStateRecord:
    """Winner of a ground-state scan over m at fixed (nu, b).

    sectors holds the scanned (m, ground energy) pairs in ascending m.
    """

    nu: float
    b: float
    m_star: int
    energy: float
    solution: RadialEigenSolution = field(repr=False)
    sectors: tuple = ()


def solve_sector(tp: TrapParams, m: int, size: int = DEFAULT_BASIS_SIZE,
                 alpha: float = 0.5,
                 check_convergence: bool = False) -> RadialEigenSolution:
    """Diagonalize the m sector in a basis of `size` radial Gaussians.

    The first solve of a (|m|, size) basis orthonormalizes it at
    alpha = 1/2 with the float64 Stieltjes recurrence and caches the pencil
    blocks; any other alpha is a dilation of that basis, applied as three
    scalars on the blocks (module docstring).  Every solve, that one
    included, is then a single float64 symmetric eigendecomposition at
    (nu, b), whose eigenvectors are the states in the orthonormal basis,
    orthonormal to rounding, and whose energies are their Rayleigh
    quotients.  Raises ValueError for a size outside [1, MAX_BASIS_K] and
    BasisConditioningError when the basis cannot be used in float64.  With
    check_convergence=True the solve is repeated at size + 10 and a warning
    is emitted if the ground energy moves by more than 1e-7, or if that
    larger basis is above the ceiling or cannot be solved.
    """
    basis = RadialBasis(m=m, size=size, alpha=alpha)
    energies, vectors = _sector_eigh(m, size, alpha, tp.nu, tp.b)
    sol = RadialEigenSolution(m=m, params=tp, basis=basis, energies=energies,
                              vectors=vectors)

    if check_convergence and size + 10 > MAX_BASIS_K:
        warnings.warn(
            f"convergence sentinel at K={size + 10} (m={m}) is above the "
            f"basis ceiling of {MAX_BASIS_K}; ground energy unverified",
            RuntimeWarning)
    elif check_convergence:
        try:
            bigger = solve_sector(tp, m, size=size + 10, alpha=alpha,
                                  check_convergence=False)
        except BasisConditioningError as exc:
            warnings.warn(
                f"convergence sentinel at K={size + 10} (m={m}) did not "
                f"solve ({exc}); ground energy unverified", RuntimeWarning)
        else:
            shift = abs(bigger.energies[0] - energies[0])
            if shift > _SENTINEL_SHIFT:
                warnings.warn(
                    f"ground energy moved by {shift:.3e} between K={size} "
                    f"and K={size + 10} (m={m}, nu={tp.nu}, b={tp.b}); "
                    f"increase the basis", RuntimeWarning)
    return sol


def ground_state_scan(tp: TrapParams,
                      m_range: tuple[int, int] = DEFAULT_M_RANGE,
                      size: int = DEFAULT_BASIS_SIZE,
                      check_convergence: bool = False) -> GroundStateRecord:
    """Find the global ground state by scanning sectors m in m_range.

    m_range must contain 0 and cover at least [-2, +4] so that the known
    crossing sequence cannot silently escape the scan window.  Exact energy
    ties are broken toward smaller |m|, then toward positive m.
    """
    lo, hi = m_range
    if lo > -2 or hi < 4 or not (lo <= 0 <= hi):
        raise ValueError(
            f"m_range {m_range} must include 0 and cover at least [-2, 4]")

    sectors, best, best_key = [], None, None
    for m in range(lo, hi + 1):
        sol = solve_sector(tp, m, size=size,
                           check_convergence=check_convergence)
        energy = float(sol.energies[0])
        sectors.append((m, energy))
        key = (energy, abs(m), m < 0)
        if best_key is None or key < best_key:
            best, best_key = sol, key
    return GroundStateRecord(nu=tp.nu, b=tp.b, m_star=best.m,
                             energy=best_key[0], solution=best,
                             sectors=tuple(sectors))


def _ground_energy(b: float, m: int, nu: float, size: int) -> float:
    return float(solve_sector(TrapParams(nu=nu, b=b), m, size=size).energies[0])


def _illinois_root(f, lo: float, hi: float, f_lo: float, f_hi: float, *,
                   xtol: float = 0.0, ftol: float = 0.0):
    """A root x of f in [lo, hi], where f_lo > 0 > f_hi, as (x, fx).

    Regula falsi with the Illinois modification (Dowell and Jarratt, BIT
    11, 168, 1971): an end kept in two successive steps has its value
    halved, so both ends close in and the order is about 1.44.  Stops at a
    point where |f| < ftol or f vanishes, fx being f there; when the bracket
    is narrower than xtol; or when rounding leaves the secant no interior
    point to try.  In the last two cases fx is f at the last point tried.
    """
    moved, fx = 0, f_hi  # moved: +1 when the last step moved lo, -1 hi
    while True:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            return x, fx
        fx = f(x)
        if fx == 0.0 or abs(fx) < ftol:
            return x, fx
        if fx > 0.0:
            if moved == 1:
                f_hi *= 0.5
            lo, f_lo, moved = x, fx, 1
        else:
            if moved == -1:
                f_lo *= 0.5
            hi, f_hi, moved = x, fx, -1
        if hi - lo <= xtol:
            return x, fx


def find_crossing(tp: TrapParams, m1: int, m2: int,
                  nu_bracket: tuple[float, float],
                  size: int = DEFAULT_BASIS_SIZE,
                  tol: float = 1e-10) -> float:
    """Field ratio nu* where the sector ground energies of m1 and m2 cross.

    An Illinois search on E(m1; nu) - E(m2; nu) over nu_bracket, until the
    gap is below tol (default 1e-10).  Raises BracketingError when the
    difference does not change sign over the bracket, e.g. for b = 0 where
    the m = 0 / m = 1 gap a(nu) - nu/2 stays positive at every finite nu,
    or when rounding stalls the search first.  m1 and m2 must differ: a
    sector has zero gap to itself everywhere.
    """
    lo, hi = nu_bracket
    if not (0 <= lo < hi):
        raise ValueError(f"need 0 <= lo < hi in nu_bracket, got {lo}:{hi}")
    if m1 == m2:
        raise ValueError(
            f"m1 and m2 are both {m1}; a sector cannot cross itself")

    def gap(nu: float) -> float:
        return (_ground_energy(tp.b, m1, nu, size)
                - _ground_energy(tp.b, m2, nu, size))

    f_lo, f_hi = gap(lo), gap(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    sign = math.copysign(1.0, f_lo)
    if sign == math.copysign(1.0, f_hi):
        raise BracketingError(
            f"ground energies of m={m1} and m={m2} do not cross for "
            f"nu in [{lo}, {hi}] at b={tp.b}")
    nu, f_nu = _illinois_root(lambda nu: sign * gap(nu), lo, hi,
                              sign * f_lo, sign * f_hi, ftol=tol)
    if not abs(f_nu) < tol:
        raise BracketingError(
            f"root search stalled at nu={nu} with residual gap {f_nu:.3e}")
    return nu


def spectrum_sweep(b: float, nu_values, m_values, size: int = DEFAULT_BASIS_SIZE,
                   n_levels: int = 1):
    """Sector energies on a (nu, m) grid, as rows (nu, m, level, energy).

    Rows come in sorted (nu, m) order.  Each (nu, m) pair is one sector
    solve, which after the first solve of a basis is one float64
    eigendecomposition.  n_levels may not exceed size, the number of
    levels a basis of that size has.
    """
    if not 1 <= n_levels <= size:
        raise ValueError(
            f"n_levels = {n_levels} must lie in [1, size = {size}]")
    tasks = sorted({(float(nu), int(m)) for nu in nu_values for m in m_values})
    rows = []
    for nu, m in tasks:
        sol = solve_sector(TrapParams(nu=nu, b=b), m, size=size)
        for level, energy in enumerate(sol.energies[:n_levels]):
            rows.append((nu, m, level, float(energy)))
    return rows
