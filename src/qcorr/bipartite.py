"""Bipartite density operators, restriction maps (partial traces) and
named test-state constructors.

Layout convention, fixed package-wide: the first factor is the slow
(row-block) index of the Kronecker layout, i.e. a joint index (i1, i2)
linearizes to i1 * d2 + i2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix, NotHermitian, OutOfRange
from .linalg import PSD_CLAMP, as_matrix, dagger, kron, require_hermitian

TRACE_ATOL = 1e-10


def validate_density(rho, dim: int | None = None, name: str = "rho") -> np.ndarray:
    """Check Hermitian / PSD / unit-trace and return a read-only copy."""
    try:
        rho = require_hermitian(rho, name=name).copy()
    except NotHermitian as exc:
        raise InvalidDensityMatrix(str(exc)) from exc
    n = rho.shape[0]
    if dim is not None and n != dim:
        raise InvalidDensityMatrix(f"{name} has dimension {n}, expected {dim}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise InvalidDensityMatrix(f"{name} trace {tr} != 1")
    w = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
    if w[0] < -PSD_CLAMP:
        raise InvalidDensityMatrix(f"{name} min eigenvalue {w[0]:.3e} < -{PSD_CLAMP:.1e}")
    rho.setflags(write=False)
    return rho


@dataclass(frozen=True)
class BipartiteSpace:
    """Factor dimensions of a bipartite system."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise DimensionMismatch(f"factor dimensions must be >= 1, got {self.d1}x{self.d2}")

    @property
    def dim(self) -> int:
        return self.d1 * self.d2


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix on a d1*d2-dimensional space with declared factors."""

    space: BipartiteSpace
    rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", validate_density(self.rho, self.space.dim))


def marginal(rho: np.ndarray, space: BipartiteSpace, factor: int) -> np.ndarray:
    """Partial trace of an unvalidated dim x dim matrix onto factor 0 (the
    first) or 1 (the second)."""
    r4 = rho.reshape(space.d1, space.d2, space.d1, space.d2)
    return np.einsum("ikjk->ij" if factor == 0 else "kikj->ij", r4)


def restrict_first(s: BipartiteState) -> np.ndarray:
    """Marginal on the first factor: trace out the second."""
    return marginal(s.rho, s.space, 0)


def restrict_second(s: BipartiteState) -> np.ndarray:
    """Marginal on the second factor: trace out the first."""
    return marginal(s.rho, s.space, 1)


def expect(s: BipartiteState, a: np.ndarray) -> complex:
    """Expectation Tr(rho A). Real up to roundoff when A is Hermitian."""
    a = as_matrix(a, "A")
    if a.shape != (s.space.dim, s.space.dim):
        raise DimensionMismatch(f"observable shape {a.shape} != {(s.space.dim, s.space.dim)}")
    return complex(np.trace(s.rho @ a))


def singlet_vector() -> np.ndarray:
    """(|01> - |10>) / sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return v


def make_bell() -> BipartiteState:
    """Singlet projector |psi-><psi-| on 2x2."""
    v = singlet_vector()
    return BipartiteState(BipartiteSpace(2, 2), np.outer(v, v.conj()))


def make_werner(p: float) -> BipartiteState:
    """p |psi-><psi-| + (1-p) I/4 on 2x2, p in [0, 1]."""
    if not (0.0 <= p <= 1.0):
        raise OutOfRange(f"p must lie in [0, 1], got {p}")
    v = singlet_vector()
    rho = p * np.outer(v, v.conj()) + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0
    return BipartiteState(BipartiteSpace(2, 2), rho)


def make_product(sigma, tau) -> BipartiteState:
    """Product state sigma (x) tau from two density matrices."""
    sigma = validate_density(sigma, name="sigma")
    tau = validate_density(tau, name="tau")
    space = BipartiteSpace(sigma.shape[0], tau.shape[0])
    return BipartiteState(space, kron(sigma, tau))


def make_random_state(space: BipartiteSpace, rank: int, seed: int) -> BipartiteState:
    """Seeded random state G G† / Tr(G G†) with G a complex Gaussian (dim x rank)."""
    if rank < 1 or rank > space.dim:
        raise OutOfRange(f"rank must lie in [1, {space.dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((space.dim, rank)) + 1j * rng.standard_normal((space.dim, rank))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    return BipartiteState(space, rho)


def random_full_rank_density(d: int, seed: int) -> np.ndarray:
    """Seeded random d x d density matrix, mixed toward the identity so the
    spectrum stays bounded away from zero."""
    if d < 1:
        raise OutOfRange(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    rho = 0.9 * rho + 0.1 * np.eye(d, dtype=np.complex128) / d
    return validate_density(rho, d)
