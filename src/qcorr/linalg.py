"""Dense complex-matrix kernel: Hermitian eigenproblems, PSD square roots,
Kronecker products and operator norms.

Matrices are plain ``numpy.ndarray`` values with ``complex128`` dtype and
row-major layout. All dimensions in scope are small (states up to 16, GNS
spaces up to 256), so everything is dense. Eigensolves are delegated to
LAPACK via ``numpy.linalg`` behind the contracts below.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, InvalidMatrix, NotHermitian, NotPSD

# Entrywise Hermiticity tolerance, fixed package-wide.
HERM_ATOL = 1e-10
# Eigenvalues in [-PSD_CLAMP, 0) are clamped to 0; below -PSD_CLAMP is an error.
PSD_CLAMP = 1e-10
# Relative eigenvalue threshold separating the support of a PSD matrix from
# roundoff.
RANK_REL_TOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-D, got shape {a.shape}")
    if a.size == 0:
        raise InvalidMatrix(f"{name} must be non-empty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
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


def hermitian_eigendecompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix with eigenvectors as
    columns). Reconstruction ``V @ diag(w) @ V.conj().T`` reproduces the
    input to 1e-10 relative Frobenius error.
    """
    m = require_hermitian(m)
    try:
        w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc
    return w, v


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are clamped to 0; anything lower raises
    ``NotPSD``.
    """
    w, v = hermitian_eigendecompose(m)
    if w[0] < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {w[0]:.3e} below -{PSD_CLAMP:.1e}")
    w = np.maximum(w, 0.0)
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
    """Largest singular value, via the Hermitian eigenproblem of m†m."""
    m = as_matrix(m)
    w, _ = hermitian_eigendecompose(dagger(m) @ m)
    return float(np.sqrt(max(w[-1], 0.0)))


def matrix_units(d: int) -> list[np.ndarray]:
    """Matrix units E_kl of M_d, row-major order (E_00, E_01, ..., E_dd)."""
    out = []
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[k, l] = 1.0
            out.append(e)
    return out


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Real-orthonormal basis of the Hermitian matrices in M_d (d^2 elements)."""
    out = []
    for k in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[k, k] = 1.0
        out.append(e)
    s = 1.0 / np.sqrt(2.0)
    for k in range(d):
        for l in range(k + 1, d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[k, l] = s
            e[l, k] = s
            out.append(e)
            f = np.zeros((d, d), dtype=np.complex128)
            f[k, l] = 1j * s
            f[l, k] = -1j * s
            out.append(f)
    return out
