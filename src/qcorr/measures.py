"""Finitely supported measures on the state space with a fixed barycenter,
the marginal-product construction, and the isometry parametrization of all
decompositions of a given state.

Only finitely supported measures are represented; every decomposition is a
coarse-graining of a pure-state refinement, and every pure refinement comes
from an isometry applied to the spectral decomposition. A partition of the m
pure pieces is m integer group labels, group k the k-th smallest distinct
label; ``normalize_partition`` validates one and relabels it to 0..k-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, BipartiteState, marginal, validate_density
from .errors import BadPartition, DimensionMismatch, OutOfRange, RankTooSmall
from .linalg import as_matrix, dagger, psd_support

WEIGHT_SUM_ATOL = 1e-10
BARYCENTER_ATOL = 1e-8
# Groups whose weight falls below this are dropped and the rest renormalized.
ZERO_WEIGHT_TOL = 1e-14


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
    """Weights and a read-only (k, D, D) stack of member density matrices;
    the barycenter, if not declared, is the members' mixture."""

    space: BipartiteSpace
    weights: np.ndarray
    members: np.ndarray
    barycenter: BipartiteState | None = None

    def __post_init__(self):
        w = _validated_weights(self.weights)
        members = validate_density(self.members, self.space.dim, "member", stack=True)
        if len(members) != w.size:
            raise DimensionMismatch("weights and members must have equal length")
        acc = np.tensordot(w, members, 1)
        bary = self.barycenter if self.barycenter is not None else BipartiteState(self.space, acc)
        resid = float(np.linalg.norm(acc - bary.rho))
        if resid > BARYCENTER_ATOL:
            raise DimensionMismatch(f"barycenter residual {resid:.3e} > {BARYCENTER_ATOL:.1e}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "barycenter", bary)

    def __len__(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True)
class ProductEnsemble:
    """Weights plus the member marginals as read-only (k, d1, d1) and
    (k, d2, d2) stacks (the image under the marginal-product construction)."""

    space: BipartiteSpace
    weights: np.ndarray
    first_marginals: np.ndarray
    second_marginals: np.ndarray

    def __post_init__(self):
        w = _validated_weights(self.weights)
        firsts = validate_density(self.first_marginals, self.space.d1, "first marginal", stack=True)
        seconds = validate_density(self.second_marginals, self.space.d2, "second marginal", stack=True)
        if len(firsts) != w.size or len(seconds) != w.size:
            raise DimensionMismatch("marginal lists must match weights length")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "first_marginals", firsts)
        object.__setattr__(self, "second_marginals", seconds)


def boxtimes(e: Ensemble) -> ProductEnsemble:
    """Replace each member by the pair of its marginals, keeping weights;
    ``Ensemble`` validated the members, so their marginals are taken directly."""
    return ProductEnsemble(e.space, e.weights, marginal(e.members, e.space, 0),
                           marginal(e.members, e.space, 1))


def boxtimes_barycenter(pe: ProductEnsemble) -> BipartiteState:
    """Barycenter sum_i w_i (sigma_i (x) tau_i); always separable."""
    acc = np.einsum("i,iab,icd->acbd", pe.weights, pe.first_marginals, pe.second_marginals)
    return BipartiteState(pe.space, acc.reshape(pe.space.dim, pe.space.dim))


def evaluate_boxtimes(pe: ProductEnsemble, a: np.ndarray) -> complex:
    """sum_i w_i Tr[(sigma_i (x) tau_i) A] without forming the barycenter."""
    a = as_matrix(a, "A")
    d1, d2 = pe.space.d1, pe.space.d2
    if a.shape != (d1 * d2, d1 * d2):
        raise DimensionMismatch(f"observable shape {a.shape} != {(d1 * d2, d1 * d2)}")
    a4 = a.reshape(d1, d2, d1, d2)
    values = np.einsum("iab,icd,bdac->i", pe.first_marginals, pe.second_marginals, a4)
    return complex(pe.weights @ values)


def normalize_partition(labels, m: int) -> np.ndarray:
    """The partition given by m integer group labels, relabelled so that
    group k is the k-th smallest distinct label; BadPartition for anything
    else, a legacy tuple of groups (2-D or ragged) included."""
    try:
        labels = np.asarray(labels)
    except ValueError as exc:
        raise BadPartition(f"partition must be {m} integer group labels: {exc}") from exc
    if labels.shape != (m,) or not np.issubdtype(labels.dtype, np.integer):
        raise BadPartition(f"partition must be {m} integer group labels, "
                           f"got shape {labels.shape} of {labels.dtype}")
    return np.unique(labels, return_inverse=True)[1].reshape(m)


def singleton_partition(m: int) -> np.ndarray:
    return np.arange(m)


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


def embed_partition(partition, m_from: int, m_to: int) -> np.ndarray:
    """Extend a partition of m_from pieces with singleton groups, the one of
    an isometry padded with m_to - m_from zero rows (OutOfRange if < 0)."""
    if m_to < m_from:
        raise OutOfRange(f"cannot embed a partition of {m_from} pieces into {m_to}")
    labels = normalize_partition(partition, m_from)
    return normalize_partition(np.concatenate([labels, np.arange(m_from, m_to)]), m_to)


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
    its spectral decomposition and coarse-grained by the partition (m group
    labels); a solve builds all its witnesses in one ``ensembles_from_isometries``
    batch. Only the first r columns, an isometry, are read. Stacking two
    isometries as [sqrt(t) V1 ; sqrt(1 - t) V2] gives the t : 1 - t mixture.

    Unnormalized vectors phi_j = sum_k conj(U[j, k]) sqrt(p_k) psi_k; each
    group G becomes one member with weight sum_{j in G} <phi_j|phi_j>.
    """
    return ensembles_from_isometries(rho, [u], [partition])[0]


def ensembles_from_isometries(rho: BipartiteState, isometries, partitions) -> list[Ensemble]:
    """``ensemble_from_unitary`` of each (isometry, partition) pair of two
    equal-length sequences, with one spectral decomposition and one grouped
    sum for all, each pair's labels offset past the previous pair's. A bad
    pair raises what it raises alone. With several, shape and partition
    errors come first, in entry order, then weight and barycenter errors,
    found once the batch is summed, in entry order."""
    p, psi = state_spectral_data(rho)
    r, phis, labels, ends = p.size, [], [], [0]  # ends[k]: the groups before entry k
    for u, partition in zip(isometries, partitions, strict=True):
        u = as_matrix(u, "U")
        if u.shape[0] < r:
            raise RankTooSmall(f"cardinality {u.shape[0]} below rank {r}")
        if u.shape[1] < r:
            raise DimensionMismatch(f"U has {u.shape[1]} columns, fewer than rank {r}")
        labels.append(normalize_partition(partition, u.shape[0]) + ends[-1])
        ends.append(int(labels[-1].max()) + 1)
        # one product per entry: BLAS may round a product of 9 rows differently
        # for other column counts, and an entry's bits must not depend on the batch
        phis.append(psi @ (np.sqrt(p)[:, None] * u[:, :r].conj().T))  # (dim, m)
    if not phis:
        return []
    # each group's sum of |phi_j><phi_j|, group by group, its pieces ascending
    labels = np.concatenate(labels)
    cols = np.concatenate(phis, axis=1)[:, np.argsort(labels, kind="stable")].T
    sizes = np.bincount(labels)
    x = np.add.reduceat(cols[:, :, None] * cols.conj()[:, None, :], np.cumsum(sizes) - sizes)
    lam = np.einsum("kaa->k", x).real
    keep = lam >= ZERO_WEIGHT_TOL
    members = (x + dagger(x)) / (2.0 * np.where(keep, lam, 1.0)[:, None, None])
    ensembles = []
    for lo, hi in zip(ends, ends[1:]):
        kept = lo + np.flatnonzero(keep[lo:hi])
        if not kept.size:
            raise BadPartition("all groups carried zero weight")
        ensembles.append(Ensemble(rho.space, lam[kept] / lam[kept].sum(), members[kept], rho))
    return ensembles


def hjw_ensemble(rho: BipartiteState, isometry_params: np.ndarray, m: int, partition) -> Ensemble:
    """Ensemble of rho indexed by isometry parameters (anti-Hermitian
    exponential coordinates of an m x m unitary) and a coarse-graining
    partition of the m pure pieces (m group labels). Raises RankTooSmall
    when m is below the rank of rho."""
    u = expm_antihermitian(np.asarray(isometry_params, dtype=float), m)
    return ensemble_from_unitary(rho, u, partition)
