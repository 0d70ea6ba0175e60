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
from .operators import Operator, to_euclidean

_HERMITIAN_RTOL = 1e-12
# kernel_dimension counts the moduli at most this times the largest one
_KERNEL_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted by (real part, imaginary part)."""

    eigenvalues: np.ndarray


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
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    return float(np.max(np.abs(a - a.conj().T))) <= _HERMITIAN_RTOL * (1.0 + scale)


def eig(matrix: np.ndarray) -> Spectrum:
    """Dense eigenvalues in a deterministic order.

    Hermitian (in particular real symmetric) inputs are routed to the
    symmetric solver and come back real and ascending; everything else goes
    through the general solver and is sorted by (Re, Im). The LAPACK QR
    iteration failing to converge surfaces as NoConvergenceError.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    with converging():
        if _is_hermitian(a):
            vals = np.linalg.eigvalsh(a).astype(complex)
        else:
            vals = np.linalg.eigvals(a)
            vals = vals[np.lexsort((vals.imag, vals.real))]
    return Spectrum(eigenvalues=vals)


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Deterministic representative: first nonzero component real positive."""
    scale = float(np.max(np.abs(v)))
    for x in v:
        if abs(x) > 1e-12 * scale:
            return v * (np.conj(x) / abs(x))
    return v


def numerical_range_boundary(op: Operator, n_angles: int) -> NumericalRangeBoundary:
    """Sample the numerical range boundary by a rotation sweep.

    For each angle theta, the top eigenvector v of H(theta), the Hermitian
    part of e^{i theta} A (Euclidean coordinates), maximizes
    Re e^{i theta}(A f, f) over unit f, so (A v, v) is a boundary point with
    outer normal direction e^{-i theta}. Angles are 2 pi k / n_angles,
    k = 0..n_angles-1.

    One eigh of H(theta_k) fills every angle it determines:
    - the top eigenvector gives angle k;
    - when n_angles is even, the bottom eigenvector gives angle
      k + n_angles / 2, because H(theta + pi) = -H(theta);
    - when the Euclidean matrix A is real, H(-theta) is the conjugate of
      H(theta), so each of these points, conjugated, also gives the
      opposite angle (n_angles - j) % n_angles.
    The loop visits k in ascending order and solves only the angles not yet
    filled; each angle keeps the first value that reaches it, in the order
    top, its conjugate, bottom, its conjugate. So points[(n_angles - k) %
    n_angles] is exactly points[k].conj() for a real A (k other than 0 and
    n_angles / 2). A real A takes n_angles // 4 + 1 eigensolves for an even
    n_angles and n_angles // 2 + 1 for an odd one; a complex A takes
    n_angles / 2 and n_angles.
    """
    if n_angles < 4:
        raise InvalidArgumentError(f"need n_angles >= 4, got {n_angles}")
    euclidean = to_euclidean(op)
    real = np.isrealobj(euclidean)
    a = euclidean.astype(complex)
    angles = 2.0 * np.pi * np.arange(n_angles) / n_angles
    points = np.empty(n_angles, dtype=complex)
    filled = np.zeros(n_angles, dtype=bool)
    with converging():
        for k in range(n_angles):
            if filled[k]:
                continue
            _, vecs = np.linalg.eigh(hermitian_part(np.exp(1j * angles[k]) * a))
            ends = [(k, vecs[:, -1])]
            if n_angles % 2 == 0:
                ends.append((k + n_angles // 2, vecs[:, 0]))
            for j, v in ends:
                if filled[j]:
                    continue
                v = _phase_normalize(v)
                points[j] = v.conj() @ (a @ v)
                filled[j] = True
                mirror = (n_angles - j) % n_angles
                if real and not filled[mirror]:
                    points[mirror] = points[j].conj()
                    filled[mirror] = True
    return NumericalRangeBoundary(angles=angles, points=points)


def _hermitian_extremes(op: Operator) -> tuple[float, float]:
    """inf and sup Re of the numerical range: the Hermitian part's extreme eigenvalues."""
    with converging():
        sym = np.linalg.eigvalsh(hermitian_part(to_euclidean(op)))  # ascending
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
    constants and the zero eigenvalue is simple).
    """
    moduli = np.abs(eig(op.matrix).eigenvalues)
    return int(np.count_nonzero(moduli <= _KERNEL_RTOL * moduli.max()))
