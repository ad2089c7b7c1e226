"""Dense complex-matrix kernel: Hermitian eigenproblems, PSD square roots,
Kronecker products and operator norms.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` dtype and
row-major layout. All dimensions in scope are small (states up to 16, GNS
spaces up to 256), so everything is dense. Eigenvalues (with eigenvectors
only where they are read) and singular values come from LAPACK via
``numpy.linalg`` behind the contracts below."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, InvalidMatrix, NotHermitian, NotPSD, OutOfRange

# Entrywise Hermiticity tolerance, fixed package-wide.
HERM_ATOL = 1e-10
# Eigenvalues in [-PSD_CLAMP, 0) are clamped to 0; below -PSD_CLAMP is an error.
PSD_CLAMP = 1e-10
# Relative eigenvalue threshold separating the support of a PSD matrix from
# roundoff.
RANK_REL_TOL = 1e-12


def as_matrix(m, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array, or with ``stack`` a 3-D stack."""
    try:
        a = np.asarray(m, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidMatrix(f"{name} is not an array of numbers ({exc})") from exc
    if a.ndim != 2 + stack:
        raise InvalidMatrix(f"{name} must be {2 + stack}-D, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrix(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise InvalidMatrix(f"{name} contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of one matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def require_hermitian(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = as_matrix(m, name)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"{name} is not square: shape {m.shape}")
    dev = float(np.max(np.abs(m - dagger(m))))
    if dev > HERM_ATOL:
        raise NotHermitian(f"{name} deviates from Hermiticity by {dev:.3e} (> {HERM_ATOL:.1e})")
    return m


def _lapack(solver, m: np.ndarray, **kwargs):
    """``solver(m, **kwargs)``, a LAPACK failure raised as ``ConvergenceFailure``."""
    try:
        return solver(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{solver.__name__} failed: {exc}") from exc


def hermitian_eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with eigenvectors as
    columns). Reconstruction ``V @ diag(w) @ V.conj().T`` reproduces the
    input to 1e-10 relative Frobenius error.
    """
    m = require_hermitian(m)
    return tuple(_lapack(np.linalg.eigh, (m + dagger(m)) / 2.0))


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of ``hermitian_eigendecompose``, with its checks."""
    m = require_hermitian(m)
    return _lapack(np.linalg.eigvalsh, (m + dagger(m)) / 2.0)


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues below -1e-10 raise ``NotPSD``; those at or below RANK_REL_TOL
    times the largest, outside the support ``psd_support`` keeps, are set to
    0, so a rank-deficient matrix has a root of the same rank.
    """
    w, v = hermitian_eigendecompose(m)
    if w[0] < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.1e}")
    w = np.where(w > max(w[-1], 0.0) * RANK_REL_TOL, w, 0.0)
    r = (v * np.sqrt(w)) @ dagger(v)
    return (r + dagger(r)) / 2.0


def psd_support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a validated PSD matrix,
    restricted to eigenvalues above RANK_REL_TOL times the largest."""
    w, v = np.linalg.eigh(m)
    keep = w > max(w[-1], 0.0) * RANK_REL_TOL
    return w[keep], v[:, keep]


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor as the slow (row-block) index."""
    return np.kron(as_matrix(a, "a"), as_matrix(b, "b"))


def operator_norm(m: np.ndarray) -> float:
    """Largest singular value of m itself: no Gram matrix m†m is formed, so
    any norm within the float range is accurate; one beyond it is invalid."""
    norm = float(_lapack(np.linalg.svd, as_matrix(m), compute_uv=False)[0])
    if not np.isfinite(norm):
        raise InvalidMatrix("matrix operator norm overflows")
    return norm


def matrix_units(d: int) -> np.ndarray:
    """Matrix units E_kl of M_d as a (d^2, d, d) stack in row-major order
    (E_00, E_01, ..., E_dd)."""
    if d < 1:
        raise OutOfRange(f"matrix dimension must be >= 1, got {d}")
    return np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)


def hermitian_basis(d: int) -> np.ndarray:
    """Real-orthonormal basis of the Hermitian matrices in M_d as a
    (d^2, d, d) stack: the diagonal units, then for each k < l the pair
    (E_kl + E_lk) / sqrt(2), i (E_kl - E_lk) / sqrt(2)."""
    e = matrix_units(d).reshape(d, d, d, d)
    s = 1.0 / np.sqrt(2.0)
    # i (E_kl - E_lk) is expanded so that its zero entries are +0.0
    pairs = [m for k in range(d) for l in range(k + 1, d)
             for m in (s * (e[k, l] + e[l, k]), 1j * s * e[k, l] - 1j * s * e[l, k])]
    return np.stack([e[k, k] for k in range(d)] + pairs)
