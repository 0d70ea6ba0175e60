"""Eigenvalues, numerical range boundary, and norm computations.

Everything is computed in Euclidean coordinates after conjugating by the
square root of the metric (see operators.to_euclidean), which preserves the
spectrum and turns metric inner products into plain ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NoConvergenceError
from .generators import SplitMix64
from .operators import Operator, to_euclidean

_HERMITIAN_RTOL = 1e-12
# kernel_dimension counts the moduli at most this times the largest one
_KERNEL_RTOL = 1e-8
# numerical_range_boundary finds extreme eigenvectors of H(theta) / ||A||_2
# by inverse iteration (_extreme_vector) from one fixed start vector,
# SplitMix64(_START_SEED).complex_vector(n). A shift of 1 ulp leaves the
# shifted matrix singular on cycles; one of n eps ||A||_F needs two solves
# per extreme at n = 300, where _SHIFT needs one at almost every extreme.
_EPS = float(np.finfo(float).eps)
_SHIFT = 16 * _EPS
_RESIDUAL_ULPS = 4
_MAX_SOLVES = 3
_START_SEED = 0


@dataclass(frozen=True, eq=False)
class NumericalRangeBoundary:
    """Boundary samples of {(A f, f) : ||f|| = 1} for the metric product.

    points[k] is the boundary point found in sweep direction angles[k].
    """

    angles: np.ndarray
    points: np.ndarray


@contextmanager
def converging(iteration: str = "eigenvalue"):
    """Re-raise a LAPACK failure to converge inside the block as
    NoConvergenceError."""
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"{iteration} iteration did not converge: {exc}") from exc


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(A + A^*) / 2, whose eigenvalues bound Re of the numerical range."""
    return 0.5 * (a + a.conj().T)


def _is_hermitian(a: np.ndarray) -> bool:
    scale = float(np.max(np.abs(a)))
    return float(np.max(np.abs(a - a.conj().T))) <= _HERMITIAN_RTOL * (1.0 + scale)


def eig(matrix: np.ndarray) -> np.ndarray:
    """Dense eigenvalues in a deterministic order, as a complex array.

    Hermitian (in particular real symmetric) inputs are routed to the
    symmetric solver and come back real and ascending; everything else goes
    through the general solver and is sorted by (Re, Im). The LAPACK QR
    iteration failing to converge surfaces as NoConvergenceError.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if not a.size:
        raise InvalidArgumentError("matrix must not be empty")
    with converging():
        if _is_hermitian(a):
            vals = np.linalg.eigvalsh(a).astype(complex)
        else:
            vals = np.linalg.eigvals(a)
            vals = vals[np.lexsort((vals.imag, vals.real))]
    return vals


def numerical_range_boundary(op: Operator, n_angles: int) -> NumericalRangeBoundary:
    """Sample the numerical range boundary by a rotation sweep.

    For each angle theta, a top eigenvector x of H(theta), the Hermitian
    part of e^{i theta} A (Euclidean coordinates), maximizes
    Re e^{i theta}(A f, f) over unit f, so its Rayleigh quotient
    x^* A x / x^* x is a boundary point with outer normal direction
    e^{-i theta}. Angles are 2 pi k / n_angles, k = 0..n_angles-1.

    H(theta) = cos theta Herm(A) + i sin theta (A - A^*) / 2, since
    Herm(iA) = i (A - A^*) / 2. A keeps its own dtype, so for a real A
    (every operator dirlap builds) both halves are real n x n matrices,
    formed once and scaled by 1 / ||A||_2. Besides A and the halves, the
    sweep holds one complex n x n work matrix, which each solved angle
    fills in place with H(theta); no n x n array is allocated per angle or
    per extreme besides LAPACK's own copies. Each solved angle takes the
    eigenvalues of H(theta) alone and then, for each extreme it fills, the
    eigenvector by inverse iteration (_extreme_vector). That eigenvalue
    solve fills every angle it determines:
    - the top eigenvalue gives angle k;
    - when n_angles is even, the bottom eigenvalue gives angle
      k + n_angles / 2, because H(theta + pi) = -H(theta);
    - when the Euclidean matrix A is real, H(-theta) is the conjugate of
      H(theta), so each of these points, conjugated, also gives the
      opposite angle (n_angles - j) % n_angles.
    The loop visits k in ascending order and solves only the angles not yet
    filled; each angle keeps the first value that reaches it, in the order
    top, its conjugate, bottom, its conjugate. So points[(n_angles - k) %
    n_angles] is exactly points[k].conj() for a real A (k other than 0 and
    n_angles / 2). A real A takes n_angles // 4 + 1 eigenvalue solves for
    an even n_angles and n_angles // 2 + 1 for an odd one; a complex A
    takes n_angles / 2 and n_angles.

    Where the extreme eigenvalue is multiple, W(A) has a flat edge normal
    to the direction, and the point is the one of that edge which the
    fixed start vector of the inverse iteration leads to, up to rounding.
    """
    if n_angles < 4:
        raise InvalidArgumentError(f"need n_angles >= 4, got {n_angles}")
    a = to_euclidean(op)
    real = np.isrealobj(a)
    with converging("singular value"):
        # every vector of the zero operator is extreme; any scale will do
        scale = float(np.linalg.norm(a, 2)) or 1.0
    # Herm(A) and the skew half (A - A^*) / 2: real for a real A
    halves = np.stack([hermitian_part(a), 0.5 * (a - a.conj().T)]) / scale
    h = np.empty(a.shape, dtype=complex)
    start = SplitMix64(_START_SEED).complex_vector(a.shape[0])
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    points = np.empty(n_angles, dtype=complex)
    filled = np.zeros(n_angles, dtype=bool)
    with converging():
        for k in range(n_angles):
            if filled[k]:
                continue
            # H(theta) into h; einsum casts the halves in small buffers
            np.einsum("k,kij->ij", [np.cos(angles[k]), 1j * np.sin(angles[k])], halves, out=h)
            vals = np.linalg.eigvalsh(h)
            ends = [(k, vals[-1] + _SHIFT)]
            if n_angles % 2 == 0:
                ends.append((k + n_angles // 2, vals[0] - _SHIFT))
            for j, sigma in ends:
                if filled[j]:
                    continue
                x = _extreme_vector(h, sigma, start)
                # two products with the parts of x: a real a @ a complex x
                # would first copy a to complex
                ax = a @ x.real + 1j * (a @ x.imag)
                points[j] = (x.conj() @ ax) / (x.conj() @ x)
                filled[j] = True
                mirror = (n_angles - j) % n_angles
                if real and not filled[mirror]:
                    points[mirror] = points[j].conj()
                    filled[mirror] = True
    return NumericalRangeBoundary(angles=angles, points=points)


def _extreme_vector(h: np.ndarray, sigma: float, start: np.ndarray) -> np.ndarray:
    """Unit eigenvector for the extreme eigenvalue of the Hermitian h,
    scaled to norm at most 1, by inverse iteration from start.

    sigma is the computed extreme eigenvalue moved outward by _SHIFT. Solve
    (h - sigma I) x = start, then again from x, until the residual
    |h x - rho x| with rho = x^* h x is at most _RESIDUAL_ULPS (n + 1) eps;
    the residual is taken with the shifted matrix, which leaves it
    unchanged. With a shift this small one solve is enough unless start is
    nearly orthogonal to the eigenvector (Ipsen, SIAM Review 1997). The
    shift is applied to the diagonal of h in place, and the diagonal is
    restored bit for bit on return or on error.
    """
    n = h.shape[0]
    diagonal = h.diagonal().copy()
    bound = _RESIDUAL_ULPS * (n + 1) * _EPS
    x = start
    try:
        h.flat[:: n + 1] -= sigma
        for _ in range(_MAX_SOLVES):
            x = np.linalg.solve(h, x)
            x = x / np.linalg.norm(x)
            hx = h @ x
            if np.linalg.norm(hx - (x.conj() @ hx) * x) <= bound:
                return x
    finally:
        h.flat[:: n + 1] = diagonal
    raise NoConvergenceError(
        f"inverse iteration did not reach residual {bound!r} in {_MAX_SOLVES} solves"
    )


def _hermitian_eigh(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of Herm(a), ascending. Every dense solve of a
    Hermitian part runs here."""
    with converging():
        return np.linalg.eigvalsh(hermitian_part(a))


def _hermitian_extremes(op: Operator) -> tuple[float, float]:
    """inf and sup Re of the numerical range: the Hermitian part's extreme eigenvalues."""
    sym = _hermitian_eigh(to_euclidean(op))
    return float(sym[0]), float(sym[-1])


def nu(op: Operator) -> float:
    """inf Re of the numerical range: smallest eigenvalue of the Hermitian
    part in Euclidean coordinates. Computed spectrally, not by sampling."""
    return _hermitian_extremes(op)[0]


def operator_norm(op: Operator) -> float:
    """Metric operator norm = largest singular value in Euclidean coordinates."""
    with converging("singular value"):
        return float(np.linalg.svd(to_euclidean(op), compute_uv=False)[0])


def kernel_dimension(op: Operator) -> int:
    """Number of eigenvalues with modulus <= 1e-8 * (largest modulus).

    The tolerance is relative, so rescaling the operator does not change
    the count. For the normalized Laplacian of a balanced graph this counts
    connected components (1 when connected: the kernel is spanned by
    constants and the zero eigenvalue is simple). The count is unreliable
    once the spread of |lambda| passes about 1e8: the dense solver's
    absolute error, about eps * max |lambda|, then reaches the threshold.
    """
    return _kernel_count(eig(op.matrix))


def _kernel_count(vals: np.ndarray) -> int:
    """kernel_dimension of a matrix with the eigenvalues vals."""
    moduli = np.abs(vals)
    return int(np.count_nonzero(moduli <= _KERNEL_RTOL * moduli.max()))
