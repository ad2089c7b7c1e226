"""Finitely supported measures on the state space with a fixed barycenter,
the marginal-product construction, and the isometry parametrization of all
decompositions of a given state.

Only finitely supported measures are represented; every decomposition is a
coarse-graining of a pure-state refinement, and every pure refinement comes
from an isometry applied to the spectral decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, BipartiteState, marginal, validate_density
from .errors import BadPartition, DimensionMismatch, RankTooSmall
from .linalg import as_matrix, kron, psd_support

WEIGHT_SUM_ATOL = 1e-10
BARYCENTER_ATOL = 1e-8
# Groups whose weight falls below this are dropped and the rest renormalized.
ZERO_WEIGHT_TOL = 1e-14

Partition = tuple[tuple[int, ...], ...]


def _validated_weights(weights) -> np.ndarray:
    """A read-only copy of 1-D, non-empty, nonnegative weights summing to 1."""
    w = np.asarray(weights, dtype=float).copy()
    if w.ndim != 1 or w.size == 0:
        raise DimensionMismatch("weights must be a non-empty 1-D sequence")
    if np.any(w < -WEIGHT_SUM_ATOL):
        raise DimensionMismatch("weights must be nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_ATOL:
        raise DimensionMismatch(f"weights sum to {w.sum()}, expected 1")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Ensemble:
    """Weights and member density matrices with a declared barycenter."""

    space: BipartiteSpace
    weights: np.ndarray
    members: tuple[np.ndarray, ...]
    barycenter: BipartiteState

    def __post_init__(self):
        w = _validated_weights(self.weights)
        if len(self.members) != w.size:
            raise DimensionMismatch("weights and members must have equal length")
        members = tuple(validate_density(m, self.space.dim, f"member {i}")
                        for i, m in enumerate(self.members))
        acc = sum(wi * mi for wi, mi in zip(w, members))
        resid = float(np.linalg.norm(acc - self.barycenter.rho))
        if resid > BARYCENTER_ATOL:
            raise DimensionMismatch(f"barycenter residual {resid:.3e} > {BARYCENTER_ATOL:.1e}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class ProductEnsemble:
    """Weights plus per-member marginal pairs (the image under the
    marginal-product construction)."""

    space: BipartiteSpace
    weights: np.ndarray
    first_marginals: tuple[np.ndarray, ...]
    second_marginals: tuple[np.ndarray, ...]

    def __post_init__(self):
        w = _validated_weights(self.weights)
        firsts = tuple(validate_density(m, self.space.d1, f"first marginal {i}")
                       for i, m in enumerate(self.first_marginals))
        seconds = tuple(validate_density(m, self.space.d2, f"second marginal {i}")
                        for i, m in enumerate(self.second_marginals))
        if len(firsts) != w.size or len(seconds) != w.size:
            raise DimensionMismatch("marginal lists must match weights length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "first_marginals", firsts)
        object.__setattr__(self, "second_marginals", seconds)


def boxtimes(e: Ensemble) -> ProductEnsemble:
    """Replace each member by the pair of its marginals, keeping weights;
    ``Ensemble`` validated the members, so their marginals are taken directly."""
    firsts = tuple(marginal(m, e.space, 0) for m in e.members)
    seconds = tuple(marginal(m, e.space, 1) for m in e.members)
    return ProductEnsemble(e.space, e.weights, firsts, seconds)


def boxtimes_barycenter(pe: ProductEnsemble) -> BipartiteState:
    """Barycenter sum_i w_i (sigma_i (x) tau_i); always separable."""
    dim = pe.space.dim
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for w, s, t in zip(pe.weights, pe.first_marginals, pe.second_marginals):
        acc += w * kron(s, t)
    return BipartiteState(pe.space, acc)


def evaluate_boxtimes(pe: ProductEnsemble, a: np.ndarray) -> complex:
    """sum_i w_i Tr[(sigma_i (x) tau_i) A] without forming the barycenter."""
    a = as_matrix(a, "A")
    d1, d2 = pe.space.d1, pe.space.d2
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(f"observable shape {a.shape} != {(d1 * d2, d1 * d2)}")
    a4 = a.reshape(d1, d2, d1, d2)
    total = 0.0 + 0.0j
    for w, s, t in zip(pe.weights, pe.first_marginals, pe.second_marginals):
        total += w * np.einsum("ab,cd,bdac->", s, t, a4)
    return complex(total)


def normalize_partition(partition, m: int) -> Partition:
    """Validate that the groups cover range(m) disjointly."""
    groups = tuple(tuple(int(j) for j in g) for g in partition)
    seen = [j for g in groups for j in g]
    if sorted(seen) != list(range(m)):
        raise BadPartition(f"groups must partition 0..{m - 1}, got {groups}")
    if any(len(g) == 0 for g in groups):
        raise BadPartition("empty group in partition")
    return groups


def singleton_partition(m: int) -> Partition:
    return tuple((j,) for j in range(m))


def hermitian_from_params(params: np.ndarray, m: int) -> np.ndarray:
    """Hermitian m x m matrix from m^2 real coordinates (diagonal first,
    then upper-triangle real and imaginary parts)."""
    params = np.asarray(params, dtype=float)
    if params.shape != (m * m,):
        raise DimensionMismatch(f"expected {m * m} parameters, got {params.shape}")
    h = np.zeros((m, m), dtype=np.complex128)
    h.flat[::m + 1] = params[:m]
    k = m * (m - 1) // 2
    if k:
        rows, cols = np.triu_indices(m, 1)
        upper = params[m:m + k] + 1j * params[m + k:]
        h[rows, cols] = upper
        h[cols, rows] = upper.conj()
    return h


def embed_partition(partition, m_from: int, m_to: int) -> Partition:
    """Extend a partition of range(m_from) with singleton groups, the
    partition of an isometry padded with m_to - m_from zero rows."""
    groups = normalize_partition(partition, m_from)
    return groups + tuple((j,) for j in range(m_from, m_to))


def expm_antihermitian(params: np.ndarray, m: int) -> np.ndarray:
    """m x m unitary exp(K) from the m^2 real coordinates of an
    anti-Hermitian K = iH."""
    h = hermitian_from_params(params, m)
    w, q = np.linalg.eigh(h)
    return (q * np.exp(1j * w)) @ q.conj().T


def state_spectral_data(rho: BipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors above the relative rank threshold,
    descending by weight."""
    w, v = psd_support(rho.rho)
    return w[::-1], v[:, ::-1]


def ensemble_from_unitary(rho: BipartiteState, u: np.ndarray, partition) -> Ensemble:
    """Ensemble of rho from an m x n matrix U, n >= r = rank rho, applied to
    its spectral decomposition and coarse-grained by the index partition.
    Only the first r columns, an isometry, are read. Stacking two
    isometries as [sqrt(t) V1 ; sqrt(1 - t) V2] gives the t : 1 - t mixture
    of their ensembles.

    Unnormalized vectors phi_j = sum_k conj(U[j, k]) sqrt(p_k) psi_k; each
    group G becomes one member with weight sum_{j in G} <phi_j|phi_j>.
    """
    u = as_matrix(u, "U")
    m = u.shape[0]
    p, psi = state_spectral_data(rho)
    r = p.size
    if m < r:
        raise RankTooSmall(f"cardinality {m} below rank {r}")
    if u.shape[1] < r:
        raise DimensionMismatch(f"U has {u.shape[1]} columns, fewer than rank {r}")
    groups = normalize_partition(partition, m)
    phi = psi @ (np.sqrt(p)[:, None] * u[:, :r].conj().T)  # (dim, m)
    weights, members = [], []
    for g in groups:
        block = phi[:, list(g)]
        lam = float(np.einsum("ij,ij->", block, block.conj()).real)
        if lam < ZERO_WEIGHT_TOL:
            continue
        x = block @ block.conj().T
        members.append((x + x.conj().T) / (2.0 * lam))
        weights.append(lam)
    if not weights:
        raise BadPartition("all groups carried zero weight")
    w = np.asarray(weights)
    w /= w.sum()
    return Ensemble(rho.space, w, tuple(members), rho)


def hjw_ensemble(rho: BipartiteState, isometry_params: np.ndarray, m: int, partition) -> Ensemble:
    """Ensemble of rho indexed by isometry parameters (anti-Hermitian
    exponential coordinates of an m x m unitary) and a coarse-graining
    partition of the m pure pieces. Raises RankTooSmall when m is below
    the rank of rho."""
    u = expm_antihermitian(np.asarray(isometry_params, dtype=float), m)
    return ensemble_from_unitary(rho, u, partition)
