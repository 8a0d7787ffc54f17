"""Dense symmetric-matrix utilities.

Everything operates on plain numpy arrays. Two kinds of function live
here, and the split is the rule for the whole package: validate where a
matrix enters, trust it inside.

* Validating entries (``as_symmetric``, ``eig_sym``, ``det_sym``,
  ``logdet_sym``, ``inv_sym``, ``min_eig``, ``loewner_leq``) accept any
  array, reject malformed or asymmetric input and then do their work.
* Trusted kernels (``inv_pd``, ``logdet_pd``) take a matrix the caller
  built symmetric positive definite and check nothing but the pivots of
  its Cholesky factor: they raise SingularInput when the factorization
  fails or when ``min(diag L)^2 <= 1e-14 * max(diag L)^2``. Solver code
  calls them on the precisions, covariances and offsets it assembles, so
  nothing is validated twice. ``logdet_pd`` also takes a stack of shape
  (..., n, n) and returns one log-determinant per matrix; the pivot guard
  then applies to every matrix of the stack, and each result has the same
  bits it would have if that matrix were factored alone.

Inverses and log-determinants of positive definite matrices come from the
Cholesky factor; spectra come from LAPACK's symmetric eigensolver through
``np.linalg.eigvalsh`` (eigenvalues only) or ``np.linalg.eigh`` (with a
basis, in ``eig_sym``).

Determinism: the same input gives bit-identical output on reruns with the
same numpy and LAPACK build on the same machine. Results from another build
or machine agree to rounding error, not necessarily to the last bit.

Parameters
----------
Matrices are float ndarrays of shape (n, n). Symmetry is enforced on entry:
``as_symmetric`` rejects inputs whose asymmetry exceeds a small relative
tolerance and returns an exactly symmetric copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimMismatch, InvalidMatrix, SingularInput

__all__ = [
    "Spectrum",
    "as_symmetric",
    "eig_sym",
    "det_sym",
    "logdet_sym",
    "inv_sym",
    "logdet_pd",
    "inv_pd",
    "min_eig",
    "loewner_leq",
    "householder_to_axis",
]


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray
        Ascending eigenvalues, shape (n,).
    basis : ndarray
        Orthonormal eigenvectors as columns, aligned with ``eigenvalues``.
        The first nonzero component of each column is positive, which makes
        the decomposition deterministic up to eigenvalue ties.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.basis * self.eigenvalues) @ self.basis.T


def as_symmetric(m, rel_tol: float = 1e-8) -> np.ndarray:
    """Validate a symmetric matrix and return an exactly symmetric copy."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if gap > rel_tol * scale:
        raise InvalidMatrix(f"matrix is not symmetric (max asymmetry {gap:.3e})")
    return 0.5 * (a + a.T)


def eig_sym(m) -> Spectrum:
    """Eigendecomposition of a symmetric matrix via LAPACK ``eigh``."""
    a = as_symmetric(m)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise InvalidMatrix(f"eigendecomposition failed to converge: {exc}") from None
    # Deterministic sign: first non-negligible component of each column > 0.
    for j in range(v.shape[1]):
        col = v[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        lead = nz[0] if nz.size else 0
        if col[lead] < 0.0:
            v[:, j] = -col
    return Spectrum(eigenvalues=w, basis=v)


def det_sym(m) -> float:
    """Determinant of a symmetric matrix as the product of its eigenvalues."""
    return float(np.prod(np.linalg.eigvalsh(as_symmetric(m))))


def _cholesky(a) -> np.ndarray:
    # Lower Cholesky factor of a matrix or a stack, with a pivot guard on
    # every matrix; the negated comparisons also reject an infinite pivot.
    # A single matrix keeps the scalar guard, which costs half as much as
    # the vector one at n=2.
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise SingularInput("matrix is not positive definite") from None
    if low.ndim == 2:
        pivots = low.diagonal().tolist()
        lo, hi = min(pivots), max(pivots)
        if not lo * lo > 1e-14 * hi * hi:
            raise SingularInput("matrix is singular or numerically singular")
    else:
        pivots = np.diagonal(low, axis1=-2, axis2=-1)
        lo, hi = pivots.min(axis=-1), pivots.max(axis=-1)
        if not np.all(lo * lo > 1e-14 * hi * hi):
            raise SingularInput("a matrix of the stack is singular or numerically singular")
    return low


def logdet_pd(a):
    """Log-determinant of a trusted symmetric positive definite matrix.

    A float for one matrix; for a stack (..., n, n) an array of shape (...)
    with one log-determinant per matrix.
    """
    low = _cholesky(a)
    if low.ndim == 2:
        return 2.0 * float(np.log(low.diagonal()).sum())
    return 2.0 * np.log(np.diagonal(low, axis1=-2, axis2=-1)).sum(axis=-1)


def inv_pd(a) -> np.ndarray:
    """Exactly symmetric inverse of a trusted symmetric positive definite
    matrix.

    The Cholesky factor certifies definiteness and conditioning; the
    inverse itself is LAPACK's LU inverse, which keeps exact results exact
    (the inverse of [[2]] is [[0.5]], not the square of 1/sqrt(2)).
    """
    _cholesky(a)
    inv = np.linalg.inv(a)
    return 0.5 * (inv + inv.T)


def logdet_sym(m) -> float:
    """Log-determinant of a symmetric positive definite matrix."""
    return logdet_pd(as_symmetric(m))


def inv_sym(m) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix."""
    return inv_pd(as_symmetric(m))


def min_eig(m) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(as_symmetric(m))[0])


def loewner_leq(a, b, tol: float | None = None) -> bool:
    """Test a <= b in the Loewner (positive semidefinite) order.

    True iff the smallest eigenvalue of ``b - a`` is >= -tol. The default
    tolerance is 1e-9 scaled by max(1, max-abs entry of b - a).
    """
    a = as_symmetric(a)
    b = as_symmetric(b)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    diff = b - a
    if tol is None:
        tol = 1e-9 * max(1.0, float(np.max(np.abs(diff))) if diff.size else 0.0)
    return float(np.linalg.eigvalsh(diff)[0]) >= -tol


def householder_to_axis(v, k: int) -> np.ndarray:
    """Orthogonal matrix T with (v @ T) = ||v|| e_k (zero-based axis k).

    The returned matrix is the canonical Householder reflection; T.T @ T is
    the identity to machine precision.
    """
    vec = np.asarray(v, dtype=float).ravel()
    n = vec.shape[0]
    if not 0 <= k < n:
        raise DegenerateInput(f"axis {k} out of range for length {n}")
    nrm = float(np.linalg.norm(vec))
    if not np.isfinite(nrm) or nrm <= 0.0:
        raise DegenerateInput("cannot aim a zero or non-finite vector at an axis")
    u = vec.copy()
    u[k] -= nrm
    uu = float(u @ u)
    if uu <= (1e-15 * nrm) ** 2:
        return np.eye(n)
    h = np.eye(n) - (2.0 / uu) * np.outer(u, u)
    return h
