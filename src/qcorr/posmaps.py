"""Positive unital maps on the first tensor factor, stored via Choi
matrices, together with the partial-transpose criterion and the
Kadison-type defect.

Choi convention: C = sum_{kl} E_kl (x) alpha(E_kl) in the matrix-unit
basis of M_d, so C reshaped to (d, d, d, d) has entries
C4[k, a, l, b] = <a| alpha(E_kl) |b>.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bipartite import BipartiteState
from .errors import DimensionMismatch, InvalidMatrix, MapNotUnital, OutOfRange
from .linalg import as_matrix, dagger, hermitian_eigendecompose, hermitian_eigenvalues, matrix_units

UNITAL_ATOL = 1e-10
POSITIVITY_ATOL = 1e-9
# Alternating eigenvector refinements per positivity probe.
REFINE_STEPS = 30
# A partial transpose whose smallest eigenvalue is at least -PPT_ATOL is PSD.
PPT_ATOL = 1e-10
# Largest operator norm of a kadison_defect element, so that a†a stays finite.
KADISON_MAX_NORM = 1e150


@dataclass(frozen=True)
class PositiveMapSpec:
    """Linear map on M_d given by its read-only Choi matrix; unitality is
    read off the Choi matrix once per map object (``unital``)."""

    d: int
    choi: np.ndarray
    name: str = ""

    def __post_init__(self):
        if self.d < 1:
            raise OutOfRange(f"map dimension must be >= 1, got {self.d}")
        choi = as_matrix(self.choi, "choi").copy()
        n = self.d * self.d
        if choi.shape != (n, n):
            raise DimensionMismatch(f"choi shape {choi.shape} != ({n}, {n})")
        choi.setflags(write=False)
        object.__setattr__(self, "choi", choi)

    @property
    def choi4(self) -> np.ndarray:
        return self.choi.reshape(self.d, self.d, self.d, self.d)

    @functools.cached_property
    def unital(self) -> bool:
        """alpha(1) = 1 to UNITAL_ATOL; cached, since the Choi matrix is read-only."""
        return bool(np.max(np.abs(apply_map(self, np.eye(self.d)) - np.eye(self.d))) <= UNITAL_ATOL)


def map_from_function(d: int, fn: Callable[[np.ndarray], np.ndarray], name: str = "") -> PositiveMapSpec:
    """Build the Choi matrix of x -> fn(x) by evaluating fn on matrix units."""
    f = as_matrix([fn(e) for e in matrix_units(d)], "fn(E_kl)", stack=True)  # f[(k, l), a, b]
    return PositiveMapSpec(d, f.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d), name)


def apply_map(alpha: PositiveMapSpec, x: np.ndarray) -> np.ndarray:
    """alpha(x), or alpha of each matrix of a (k, d, d) stack, reconstructed
    from the Choi matrix."""
    x = as_matrix(x, "x", stack=np.ndim(x) == 3)
    if x.shape[-2:] != (alpha.d, alpha.d):
        raise DimensionMismatch(f"input shape {x.shape} != (..., {alpha.d}, {alpha.d})")
    return np.einsum("...kl,kalb->...ab", x, alpha.choi4)


def apply_tensor_id(alpha: PositiveMapSpec, s: BipartiteState) -> np.ndarray:
    """(alpha (x) id)(rho) acting on the first factor of a bipartite state."""
    d1, d2 = s.space.d1, s.space.d2
    if alpha.d != d1:
        raise DimensionMismatch(f"map dimension {alpha.d} != first factor {d1}")
    r4 = s.rho.reshape(d1, d2, d1, d2)
    return np.einsum("kalb,kilj->aibj", alpha.choi4, r4).reshape(d1 * d2, d1 * d2)


def identity_map(d: int) -> PositiveMapSpec:
    return map_from_function(d, lambda x: x, "identity")


def transpose_map(d: int) -> PositiveMapSpec:
    return map_from_function(d, lambda x: x.T, "transpose")


def reduction_map(d: int) -> PositiveMapSpec:
    """x -> (Tr(x) 1 - x) / (d - 1) for d > 1 (unital form); Tr(x) 1 - x at d=2
    coincides with the unnormalized reduction map."""
    if d < 2:
        raise DimensionMismatch("reduction map needs d >= 2")
    eye = np.eye(d, dtype=np.complex128)
    return map_from_function(d, lambda x: (np.trace(x) * eye - x) / (d - 1), "reduction")


def depolarizing_map(d: int, lam: float) -> PositiveMapSpec:
    """x -> lam x + (1 - lam) Tr(x) 1/d; positive and unital for lam in [0, 1], refused outside."""
    if not (0.0 <= lam <= 1.0):
        raise OutOfRange(f"depolarizing parameter must lie in [0, 1], got {lam}")
    return map_from_function(
        d, lambda x: lam * x + (1.0 - lam) * np.trace(x) * np.eye(d, dtype=np.complex128) / d,
        f"depolarizing({lam:g})")


def convex_combination(a: PositiveMapSpec, b: PositiveMapSpec, t: float, name: str = "") -> PositiveMapSpec:
    """t a + (1 - t) b for a mixing weight t in [0, 1] (``OutOfRange`` outside it)."""
    if a.d != b.d:
        raise DimensionMismatch("convex combination needs equal dimensions")
    if not (0.0 <= t <= 1.0):
        raise OutOfRange(f"mixing weight must lie in [0, 1], got {t}")
    return PositiveMapSpec(a.d, t * a.choi + (1.0 - t) * b.choi, name or f"mix({a.name},{b.name},{t:g})")


def builtin_maps(d: int) -> list[PositiveMapSpec]:
    """Positive unital reference maps on M_d."""
    return [
        identity_map(d),
        transpose_map(d),
        reduction_map(d),
        depolarizing_map(d, 0.0),
        depolarizing_map(d, 0.5),
        convex_combination(identity_map(d), transpose_map(d), 0.5, "mix(identity,transpose)"),
    ]


def partial_transpose_matrix(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Transpose on the first factor of a raw matrix, or of each matrix of a
    (k, n, n) stack: swap the two first-factor indices of rho[(a, i), (b, j)].
    Returns a new array, also when d1 == 1 and the swap is a no-op."""
    rho = as_matrix(rho, "rho", stack=np.ndim(rho) == 3)
    n = d1 * d2
    if rho.shape[-2:] != (n, n):
        raise DimensionMismatch(f"matrix shape {rho.shape} != {rho.shape[:-2] + (n, n)}")
    return rho.reshape(-1, d1, d2, d1, d2).transpose(0, 3, 2, 1, 4).reshape(rho.shape).copy()


def partial_transpose(s: BipartiteState) -> np.ndarray:
    """Transpose on the first factor, (transpose (x) id)(rho)."""
    return partial_transpose_matrix(s.rho, s.space.d1, s.space.d2)


def is_ppt(ppt_min: float) -> bool:
    """The PPT test on the smallest partial-transpose eigenvalue: PSD to PPT_ATOL."""
    return bool(ppt_min >= -PPT_ATOL)


def ppt_min_eigenvalue(s: BipartiteState) -> float:
    return ppt_min_eig_and_vector(s)[0]


def ppt_min_eig_and_vector(s: BipartiteState) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the partial transpose and its eigenvector."""
    w, v = hermitian_eigendecompose(partial_transpose(s))
    return float(w[0]), v[:, 0]


def require_unital(alpha: PositiveMapSpec) -> None:
    """Raise ``MapNotUnital`` unless the cached ``alpha.unital`` holds."""
    if not alpha.unital:
        raise MapNotUnital(f"map {alpha.name or '<anon>'} is not unital")


def kadison_defect(alpha: PositiveMapSpec, a: np.ndarray) -> float:
    """Minimum eigenvalue of alpha(a†a + aa†) - alpha(a†)alpha(a) - alpha(a)alpha(a†).

    Nonnegative (to -1e-10) for genuinely positive unital maps. Checks the
    cached ``unital``; applies the Choi matrix to the checked ``a`` directly.
    """
    require_unital(alpha)
    a = as_matrix(a, "a")
    if a.shape != (alpha.d, alpha.d):
        raise DimensionMismatch(f"element shape {a.shape} != ({alpha.d}, {alpha.d})")
    if np.abs(a).max() * alpha.d > KADISON_MAX_NORM:  # d max|a_ij| >= ||a||
        raise InvalidMatrix(f"a has norm up to {np.abs(a).max() * alpha.d:.3e} > {KADISON_MAX_NORM:.0e}")
    ad = dagger(a)
    lhs, aa, aad = np.einsum("...kl,kalb->...ab", np.stack([ad @ a + a @ ad, a, ad]), alpha.choi4)
    defect = lhs - aad @ aa - aa @ aad
    return float(hermitian_eigenvalues((defect + dagger(defect)) / 2.0)[0])


def find_positivity_violation(alpha: PositiveMapSpec, n_samples: int = 200,
                              seed: int = 0) -> tuple[float, np.ndarray, np.ndarray] | None:
    """Search for pure vectors with <phi| alpha(|psi><psi|) |phi> < -1e-9.

    Random sampling plus alternating eigenvector refinement: for fixed psi
    the optimal phi is the minimal eigenvector of alpha(psi psi†); for fixed
    phi the value is a Hermitian quadratic form in psi, minimized by its
    minimal eigenvector. Returns (value, psi, phi) for the worst pair found,
    or None when every probe stayed above the tolerance.
    """
    d = alpha.d
    rng = np.random.default_rng(seed)
    c4 = alpha.choi4

    def min_pair(psi):
        best_val, best = np.inf, None
        for _ in range(REFINE_STEPS):
            m = np.einsum("k,l,kalb->ab", psi, psi.conj(), c4)
            w, v = np.linalg.eigh((m + dagger(m)) / 2.0)
            phi = v[:, 0]
            val = float(w[0])
            if val >= best_val - 1e-15:
                best_val, best = min(val, best_val), (psi, phi)
                break
            best_val, best = val, (psi, phi)
            # quadratic form in psi for this phi: psi† M psi with
            # M[l, k] = <phi| alpha(E_kl) |phi>
            m2 = np.einsum("kalb,a,b->lk", c4, phi.conj(), phi)
            w2, v2 = np.linalg.eigh((m2 + dagger(m2)) / 2.0)
            psi = v2[:, 0]
        return best_val, best

    worst = (np.inf, None, None)
    for _ in range(n_samples):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        val, pair = min_pair(psi)
        if val < worst[0]:
            worst = (val, pair[0], pair[1])
    return worst if worst[0] < -POSITIVITY_ATOL else None


def is_positive_map(alpha: PositiveMapSpec, n_samples: int = 200, seed: int = 0) -> bool:
    """Sampling-based positivity check; False answers carry a certified witness."""
    return find_positivity_violation(alpha, n_samples, seed) is None
