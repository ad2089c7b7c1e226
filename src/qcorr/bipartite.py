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
from .linalg import HERM_ATOL, PSD_CLAMP, as_matrix, dagger, kron, require_hermitian

TRACE_ATOL = 1e-10


def validate_density(rho, dim: int | None = None, name: str = "rho", stack: bool = False) -> np.ndarray:
    """Check Hermitian / PSD / unit-trace and return a read-only copy. With
    ``stack``, rho is a (k, n, n) stack checked at once; an error names the
    first member that fails a check, ``f"{name} {i}"``, and its first failed
    check, as checking the members one at a time would."""
    x = as_matrix(rho, name, stack).copy()
    s, n = (x if stack else x[None]), x.shape[-1]
    try:
        if s.shape[1] != n:
            require_hermitian(s[0], f"{name} 0" if stack else name)
        tr = np.trace(s, axis1=1, axis2=2)
        low = np.linalg.eigvalsh((s + dagger(s)) / 2.0)[:, 0]
        fails = np.array([np.abs(s - dagger(s)).max(axis=(1, 2)) > HERM_ATOL,
                          np.full(len(s), dim not in (None, n)),
                          np.abs(tr - 1.0) > TRACE_ATOL, low < -PSD_CLAMP])
        if fails.any():
            i = int(np.argmax(fails.any(axis=0)))
            who = f"{name} {i}" if stack else name
            require_hermitian(s[i], who)  # raises if Hermiticity is the check that failed
            why = (f"has dimension {n}, expected {dim}", f"trace {complex(tr[i])} != 1",
                   f"min eigenvalue {low[i]:.3e} < -{PSD_CLAMP:.1e}")
            raise InvalidDensityMatrix(f"{who} {why[fails[1:, i].argmax()]}")
    except NotHermitian as exc:
        raise InvalidDensityMatrix(str(exc)) from exc
    x.setflags(write=False)
    return x


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
    """Partial trace onto factor 0 (the first) or 1 (the second) of an
    unvalidated dim x dim matrix, or of each matrix of a (k, dim, dim) stack."""
    r4 = rho.reshape(*rho.shape[:-2], space.d1, space.d2, space.d1, space.d2)
    return np.einsum("...ikjk->...ij" if factor == 0 else "...kikj->...ij", r4)


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
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
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
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    rho = make_random_state(BipartiteSpace(d, 1), d, seed).rho
    rho = 0.9 * rho + 0.1 * np.eye(d, dtype=np.complex128) / d
    return validate_density(rho, d)
