"""Correlation coefficients computed by minimizing, over finite
decompositions of a state, the gap between an observable's expectation and
its decorrelated (marginal-product) counterpart, plus an operational
separability verdict built on top of the minimizer.

The search space is the isometry parametrization of pure-state ensembles
combined with coarse-graining partitions. Every pure refinement of rho is
phi = b V^dagger with b = psi sqrt(p) and V an m x r isometry (r = rank
rho). The search coordinates are an unconstrained complex m x r matrix X
(2mr reals) and V is its polar factor X (X^dagger X)^{-1/2}, so an
evaluation needs one r x r eigendecomposition. Random starts are drawn in
the anti-Hermitian exponential coordinates theta of an m x m unitary and
mapped once to X = exp(i H(theta))[:, :r]. Warm starts enter, and the
closest evaluation leaves as ``argmin_isometry``, as m x r isometries. The
minimizer is a multi-start gradient search: L-BFGS with Armijo
backtracking on |c - S(X)|, driven by the closed-form gradient of the signed
gap c - S(X). That gradient reuses the eigendecomposition of each
evaluation, so only objective evaluations count against the budget. The
search also keeps the closest evaluation on each side of zero, from any
partition and start. S is affine in the decomposition measure and the
decompositions of a state form a convex set, so once both sides are seen
the convex mixture of the two ensembles with the right weight has zero gap,
and the search stops. The mixture is the ensemble of one 2m x r isometry
stacking the two polar factors, so every witness is one
``ensemble_from_unitary`` call on an isometry.

All randomness is derived from (seed, start_index), so results are
reproducible and do not depend on scheduling; the only state carried from
one start to the next is the closest point overall and on each side of
zero. The returned value is recomputed from the witness ensemble, so it is
always a certified upper bound on the true infimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, BipartiteState, expect
from .errors import ConfigInvalid, DimensionMismatch, QcorrError, RankTooSmall
from .linalg import as_matrix, operator_norm, require_hermitian
from .measures import (
    Ensemble,
    ZERO_WEIGHT_TOL,
    boxtimes,
    ensemble_from_unitary,
    evaluate_boxtimes,
    expm_antihermitian,
    normalize_partition,
    singleton_partition,
    state_spectral_data,
)
from .posmaps import PPT_ATOL, partial_transpose, ppt_min_eig_and_vector

# Optimization is restricted to small total dimensions.
MAX_OPT_DIM = 16
# Decision threshold separating numerical convergence from verdict logic.
DECISION_THRESHOLD = 1e-4
# Random coarse-graining partitions tried per start.
N_RANDOM_PARTITIONS = 2
# L-BFGS search: curvature pairs kept, Armijo constant, length of the first
# (steepest-descent) step, backtracking halvings per iteration, and the
# relative change of |c - S| at or below which the search has stalled.
LBFGS_MEMORY = 8
ARMIJO = 1e-4
FIRST_STEP = 0.3
MAX_BACKTRACKS = 30
STALL_REL = 1e-12
# Smallest admissible eigenvalue of X^dagger X relative to its largest. The
# polar factor's V^dagger V deviates from the identity by roughly 1e-16 times
# the condition number, so below this ratio the point is rejected (its gap is
# nan) rather than valued from a V that is not an isometry to ~1e-10.
GRAM_RCOND = 1e-6
# Largest entry of V^dagger V - 1 accepted for the first r columns of a
# start point V; the polar factors the search returns meet it by ~1e-10.
ISOMETRY_ATOL = 1e-8
# Dimensions where the partial-transpose criterion is an exact oracle. It is
# also exact with a trivial factor (d1 == 1 or d2 == 1), where every state
# is a product state.
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}

SEPARABLE = "Separable"
ENTANGLED = "Entangled"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start search configuration.

    ``m`` is the ensemble cardinality; None resolves to (d1*d2)^2. The
    search runs over m x r matrices X whose polar factor is the isometry
    (r = rank rho), so its cost grows with m r, not m^2. ``max_iters``
    counts objective evaluations per start, shared by the partition
    searches within that start. Gradients reuse the last evaluation and are
    not counted.
    """

    m: int | None = None
    starts: int = 32
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.m is not None and self.m < 1:
            raise ConfigInvalid(f"m must be >= 1, got {self.m}")
        if self.starts < 1:
            raise ConfigInvalid(f"starts must be >= 1, got {self.starts}")
        if self.max_iters < 1:
            raise ConfigInvalid(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.tol > 0.0):
            raise ConfigInvalid(f"tol must be > 0, got {self.tol}")


@dataclass(frozen=True)
class CorrelationResult:
    """Best value found (upper bound on the infimum), recomputed from its
    witness ensemble: that of the closest evaluation's m x r polar factor,
    or of the stacked 2m x r isometry of a zero-gap mixture.

    ``argmin_isometry`` (the m x r polar factor) and ``argmin_partition``
    describe the evaluated single ensemble closest to the target:
    ``ensemble_from_unitary(rho, argmin_isometry, argmin_partition)``
    rebuilds it, and the pair is a warm start for ``minimize_d0``. Zero
    rows appended to the isometry, with ``embed_partition``, carry it to a
    larger cardinality. When the witness is the zero-gap mixture of two
    ensembles, they describe the endpoint closer to zero.
    """

    value: float
    ensemble: Ensemble
    starts_used: int
    argmin_isometry: np.ndarray
    argmin_partition: tuple


@dataclass(frozen=True)
class VerdictResult:
    verdict: str
    max_d0: float
    witness: np.ndarray
    probes: tuple[tuple[str, float], ...]


def d0_objective(e: Ensemble, a: np.ndarray) -> float:
    """|expectation on the barycenter - decorrelated expectation| for one
    fixed decomposition."""
    a = require_hermitian(as_matrix(a, "A"), name="A")
    if a.shape != (e.space.dim, e.space.dim):
        raise DimensionMismatch(f"observable shape {a.shape} != {(e.space.dim, e.space.dim)}")
    lhs = expect(e.barycenter, a)
    rhs = evaluate_boxtimes(boxtimes(e), a)
    return abs(lhs - rhs)


def factored_product_value(pe, a: np.ndarray, b: np.ndarray) -> float:
    """sum_i w_i Tr(sigma_i a) Tr(tau_i b), the factored decorrelated form."""
    total = 0.0 + 0.0j
    for w, s, t in zip(pe.weights, pe.first_marginals, pe.second_marginals):
        total += w * np.trace(s @ a) * np.trace(t @ b)
    return complex(total).real


class _Engine:
    """Signed gap g(x) = c - S(x, groups) for a fixed state and observable,
    mirroring ensemble_from_unitary semantics exactly, and its gradient.

    The coordinates x are the real and imaginary parts of an unconstrained
    complex m x r matrix X (r = rank rho), 2mr reals. The isometry is its
    polar factor V = X (X^dagger X)^{-1/2}, and the pure refinement is
    phi = b V^dagger with b = psi sqrt(p), so every evaluation needs only
    an r x r eigendecomposition. One kernel serves every partition: the
    per-member marginals are summed into group marginals by a 0/1
    indicator matrix, built once per partition. ``gradient``
    differentiates the last evaluated point from the cached
    eigendecomposition and marginals, so it costs no evaluation.
    """

    def __init__(self, rho: BipartiteState, a: np.ndarray, m: int):
        self.d1, self.d2 = d1, d2 = rho.space.d1, rho.space.d2
        self.m = m
        p, psi = state_spectral_data(rho)
        self.r = p.size
        if m < self.r:
            raise RankTooSmall(f"cardinality {m} below rank {self.r}")
        self.b = psi * np.sqrt(p)  # phi = b @ conj(V).T
        self.c = float(np.trace(rho.rho @ a).real)
        # Marginals are stored flattened, sig[(a, b), k] and tau[(c, d), k];
        # Tr[(sig x tau) A] = conj(sig) . a_sig . tau as sig is Hermitian.
        a4 = a.reshape(d1, d2, d1, d2)
        self.a_sig = np.ascontiguousarray(a4.transpose(0, 2, 3, 1).reshape(d1 * d1, d2 * d2))
        self.n_params = 2 * m * self.r
        self._indicators: dict[tuple, np.ndarray] = {}
        self._last = None

    def coords(self, v) -> np.ndarray:
        """Coordinates of X = V[:, :r] for an m x n matrix V, n >= r, whose
        first r columns are orthonormal; DimensionMismatch otherwise."""
        v = np.asarray(v, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != self.m or v.shape[1] < self.r:
            raise DimensionMismatch(f"warm start of shape {v.shape} needs {self.m} rows "
                                    f"and at least {self.r} columns")
        x = v[:, :self.r]
        if not np.abs(x.conj().T @ x - np.eye(self.r)).max() <= ISOMETRY_ATOL:
            raise DimensionMismatch(f"the first {self.r} columns of a warm start must be orthonormal")
        return np.concatenate([x.real.ravel(), x.imag.ravel()])

    def _matrix(self, x: np.ndarray) -> np.ndarray:
        half = self.m * self.r
        return (x[:half] + 1j * x[half:]).reshape(self.m, self.r)

    def _polar(self, xm: np.ndarray):
        """Polar factor V = X W of X, W = G^{-1/2}, with the
        eigendecomposition G = X^dagger X = E diag(s) E^dagger, as
        (V, W, s, E); None when G is numerically singular."""
        s, e = np.linalg.eigh(xm.conj().T @ xm)
        if not s[0] > s[-1] * GRAM_RCOND:
            return None
        w = (e / np.sqrt(s)) @ e.conj().T
        return xm @ w, w, s, e

    def isometry(self, x: np.ndarray) -> np.ndarray:
        """The m x r polar factor V of X at x."""
        return self._polar(self._matrix(x))[0]

    def _indicator(self, groups) -> np.ndarray:
        ind = self._indicators.get(groups)
        if ind is None:
            ind = np.zeros((self.m, len(groups)), dtype=np.complex128)
            for k, g in enumerate(groups):
                ind[list(g), k] = 1.0
            self._indicators[groups] = ind
        return ind

    def signed_gap(self, x: np.ndarray, groups) -> float:
        """c - S at x; nan when X^dagger X is numerically singular. A nan
        never enters ``_Best`` (every comparison with it is false) and
        fails the Armijo test, so the search backtracks away from it."""
        d1, d2, m = self.d1, self.d2, self.m
        xm = self._matrix(x)
        polar = self._polar(xm)
        if polar is None:
            self._last = None
            return np.nan
        v, w, s, e = polar
        t3 = (self.b @ v.conj().T).reshape(d1, d2, m)
        ind = self._indicator(groups)
        sig = np.einsum("aej,bej->abj", t3, t3.conj()).reshape(d1 * d1, m) @ ind
        tau = np.einsum("eaj,ebj->abj", t3, t3.conj()).reshape(d2 * d2, m) @ ind
        lam = sig[::d1 + 1].real.sum(axis=0)
        kept = lam >= ZERO_WEIGHT_TOL
        inv = kept / np.maximum(lam, ZERO_WEIGHT_TOL)
        g1 = self.a_sig @ tau  # derivative of Tr[(sig x tau) A] in sig^T
        quad = np.einsum("ik,ik->k", sig.conj(), g1).real
        weight = lam @ kept
        s_val = (quad @ inv) / weight
        self._last = (xm, w, s, e, t3, ind, sig, g1, inv, quad, weight, s_val)
        return self.c - s_val

    def gradient(self) -> np.ndarray:
        """Gradient of signed_gap in x at the last evaluated point.

        The chain runs from S through the group marginals to V and then
        through V = X W, W = G^{-1/2}, G = X^dagger X. In the cached
        eigenbasis G = E diag(s) E^dagger, dW is E (F o E^dagger dG E)
        E^dagger with F the divided difference of s^{-1/2}, written as
        -1 / (sqrt(s_k s_l) (sqrt(s_k) + sqrt(s_l))) so it stays exact as
        s_k -> s_l and gives -s^{-3/2} / 2 on the diagonal.
        """
        d1, d2, m = self.d1, self.d2, self.m
        xm, w, s, e, t3, ind, sig, g1, inv, quad, weight, s_val = self._last
        # dS = sum_k Tr[x1_k dsig_k] + Tr[x2_k dtau_k] over kept groups
        x1 = g1 * (inv / weight)
        x1[::d1 + 1] -= (quad * inv * inv + s_val * (inv > 0.0)) / weight
        x2 = (self.a_sig.conj().T @ sig) * (inv / weight)
        x1 = (x1 @ ind.T).reshape(d1, d1, m)  # per member
        x2 = (x2 @ ind.T).reshape(d2, d2, m)
        # dS = 2 Re sum conj(dt3) * gt
        gt = np.einsum("abj,bej->aej", x1, t3) + np.einsum("efj,afj->aej", x2, t3)
        gam = gt.reshape(-1, m).conj().T @ self.b  # dS = 2 Re Tr[gam^dagger dV]
        # dV = dX W + X dW gives dS = 2 Re Tr[xi^dagger dX] with
        # xi = gam W + X E (F o (M + M^dagger)) E^dagger, M = E^dagger X^dagger gam E
        root = np.sqrt(s)
        f = -1.0 / (np.outer(root, root) * (root[:, None] + root[None, :]))
        mt = e.conj().T @ (xm.conj().T @ gam) @ e
        xi = gam @ w + xm @ (e @ (f * (mt + mt.conj().T)) @ e.conj().T)
        return -2.0 * np.concatenate([xi.real.ravel(), xi.imag.ravel()])


class _Best:
    """Closest evaluation to zero (value, x, groups), and the closest
    evaluation on each side of zero (pos, neg), each as (g, x, groups)."""

    __slots__ = ("value", "x", "groups", "pos", "neg")

    def __init__(self):
        self.value = np.inf
        self.x = self.groups = self.pos = self.neg = None

    def offer(self, g: float, x: np.ndarray, groups):
        if g > 0.0 and (self.pos is None or g < self.pos[0]):
            self.pos = (g, x.copy(), groups)
        elif g < 0.0 and (self.neg is None or g > self.neg[0]):
            self.neg = (g, x.copy(), groups)
        if abs(g) < self.value:
            self.value = abs(g)
            self.x = x.copy()
            self.groups = groups

    def done(self, tol: float) -> bool:
        """Within tol, or both sides of zero seen (a zero-gap mixture exists)."""
        return self.value <= tol or (self.pos is not None and self.neg is not None)


def _random_partition(rng: np.random.Generator, m: int):
    n_groups = int(rng.integers(1, m + 1))
    labels = rng.integers(0, n_groups, size=m)
    groups = tuple(tuple(int(j) for j in np.nonzero(labels == g)[0])
                   for g in range(n_groups) if np.any(labels == g))
    return normalize_partition(groups, m)


def _lbfgs_direction(grad: np.ndarray, memory) -> np.ndarray:
    """Two-loop recursion: -H grad for the L-BFGS inverse-Hessian estimate."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, _ = memory[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return -q


def _gradient_search(engine: _Engine, groups, x0: np.ndarray, budget: int, tol: float,
                     best: _Best) -> int:
    """L-BFGS with Armijo backtracking on |c - S(x)|.

    Trial points along the search direction are evaluated until the Armijo
    test accepts one; only the accepted point is differentiated. The first
    step, and any step after the memory is reset, has length FIRST_STEP
    along the steepest descent. The search ends once ``best`` is done
    (within ``tol``, or evaluations seen on both sides of zero, which
    includes any zero crossing of this search), on spending ``budget``
    evaluations, or when a trial changes the objective by at most STALL_REL
    of its value. Every test compares terms of equal degree in A, so each
    decision is invariant under A -> cA.
    """
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        g = engine.signed_gap(x, groups)
        best.offer(g, x, groups)
        return g

    x, g = x0, f(x0)
    grad, step = None, None
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    while not best.done(tol):
        new_grad = np.sign(g) * engine.gradient()
        if grad is not None:
            y = new_grad - grad
            sy = step @ y
            if sy > 0.0:
                memory.append((step, y, 1.0 / sy))
        grad = new_grad
        d = _lbfgs_direction(grad, memory) if memory else None
        if d is None or grad @ d >= 0.0:
            memory.clear()
            norm = np.linalg.norm(grad)
            if norm == 0.0:
                break
            d = grad * (-FIRST_STEP / norm)
        slope = grad @ d
        t = 1.0
        for _ in range(MAX_BACKTRACKS):
            if evals >= budget:
                return evals
            g_new = f(x + t * d)
            if best.done(tol) or abs(abs(g_new) - abs(g)) <= STALL_REL * abs(g):
                return evals
            if abs(g_new) <= abs(g) + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return evals
        step = t * d
        x, g = x + step, g_new
    return evals


def _resolve_m(cfg: OptimizerConfig, space: BipartiteSpace) -> int:
    return cfg.m if cfg.m is not None else (space.d1 * space.d2) ** 2


def minimize_d0(rho: BipartiteState, a: np.ndarray, cfg: OptimizerConfig | None = None,
                extra_starts=()) -> CorrelationResult:
    """Multi-start minimization of the decomposition gap for one observable.

    ``extra_starts`` is an optional sequence of (isometry, partition) warm
    starts, each searched first within the first start (used for
    continuation sweeps and cardinality embeddings); it does not affect
    determinism. An isometry is an m x n matrix, n >= r = rank rho, read
    like ``ensemble_from_unitary`` reads it: only its first r columns,
    which must be orthonormal. A malformed one raises DimensionMismatch.
    """
    cfg = cfg or OptimizerConfig()
    a = require_hermitian(as_matrix(a, "A"), name="A")
    dim = rho.space.dim
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"observable shape {a.shape} != {(dim, dim)}")
    if dim > MAX_OPT_DIM:
        raise ConfigInvalid(f"optimizer supports total dimension <= {MAX_OPT_DIM}, got {dim}")
    m = _resolve_m(cfg, rho.space)
    engine = _Engine(rho, a, m)
    warm = [(engine.coords(v), normalize_partition(pt, m)) for v, pt in extra_starts]
    best = _Best()
    x_id = engine.coords(np.eye(m))  # the isometry at theta = 0

    # The merge-everything partition gives the trivial decomposition {1, rho};
    # its objective does not depend on the isometry, so evaluate it once.
    trivial = (tuple(range(m)),)
    best.offer(engine.signed_gap(x_id, trivial), x_id, trivial)

    starts_used = 0
    if not best.done(cfg.tol):
        for i in range(cfg.starts):
            rng = np.random.default_rng((cfg.seed, i))
            if i == 0:
                x0 = x_id
            else:
                theta = rng.standard_normal(m * m) * (np.pi / (2.0 * np.sqrt(m)))
                x0 = engine.coords(expm_antihermitian(theta, m))
            # warm starts first so they are evaluated before the budget runs out
            work = list(warm) if i == 0 else []
            work.append((x0, singleton_partition(m)))
            work += [(x0, _random_partition(rng, m)) for _ in range(N_RANDOM_PARTITIONS)]
            spent = 0
            for x_init, groups in work:
                remaining = cfg.max_iters - spent
                if remaining <= 0:
                    break
                spent += _gradient_search(engine, groups, x_init, remaining, cfg.tol, best)
                if best.done(cfg.tol):
                    break
            starts_used = i + 1
            if best.done(cfg.tol):
                break

    if best.pos is not None and best.neg is not None:
        # g_pos > 0 > g_neg, so t g_pos + (1 - t) g_neg = 0 for t in (0, 1); the
        # t : 1 - t mixture is the ensemble of [sqrt(t) V_pos ; sqrt(1 - t) V_neg]
        (g_pos, x_pos, groups_pos), (g_neg, x_neg, groups_neg) = best.pos, best.neg
        t = g_neg / (g_neg - g_pos)
        v = np.concatenate([np.sqrt(t) * engine.isometry(x_pos),
                            np.sqrt(1.0 - t) * engine.isometry(x_neg)])
        groups = groups_pos + tuple(tuple(j + m for j in g) for g in groups_neg)
    else:
        v, groups = engine.isometry(best.x), best.groups
    ensemble = ensemble_from_unitary(rho, v, groups)
    return CorrelationResult(value=d0_objective(ensemble, a), ensemble=ensemble,
                             starts_used=starts_used, argmin_isometry=engine.isometry(best.x),
                             argmin_partition=best.groups)


def minimize_d_simple(rho: BipartiteState, a: np.ndarray, b: np.ndarray,
                      cfg: OptimizerConfig | None = None) -> CorrelationResult:
    """Simple-tensor coefficient: identical machinery with A = a (x) b.

    The factored decorrelated form sum_i w_i Tr(sigma_i a) Tr(tau_i b) of
    the witness ensemble is checked against the joint evaluation to 1e-12.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != (rho.space.d1, rho.space.d1):
        raise DimensionMismatch(f"a shape {a.shape} != first factor {rho.space.d1}")
    if b.shape != (rho.space.d2, rho.space.d2):
        raise DimensionMismatch(f"b shape {b.shape} != second factor {rho.space.d2}")
    res = minimize_d0(rho, np.kron(a, b), cfg)
    pe = boxtimes(res.ensemble)
    fact = factored_product_value(pe, a, b)
    joint = complex(evaluate_boxtimes(pe, np.kron(a, b))).real
    if abs(fact - joint) > 1e-12 * max(1.0, abs(joint)):
        raise QcorrError(f"factored form {fact} disagrees with joint evaluation {joint}")
    return res


def random_hermitian_probe(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Seeded random Hermitian observable normalized to unit operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / operator_norm(h)


def canonical_pt_witness(rho: BipartiteState) -> np.ndarray | None:
    """Partially transposed projector onto the negative-eigenvalue
    eigenvector of the partial transpose, when one exists."""
    pt_min, eta = ppt_min_eig_and_vector(rho)
    if pt_min >= -1e-12:
        return None
    proj = BipartiteState(rho.space, np.outer(eta, eta.conj()))
    return partial_transpose(proj)


def classify(value: float, ppt_min: float, dims: tuple[int, int]) -> str:
    """Verdict from the largest certified d0 over the probes and the smallest
    partial-transpose eigenvalue. Entangled needs a value above ten times
    DECISION_THRESHOLD; Separable needs every value at or below it plus exact
    partial-transpose agreement, which is only available at 2x2, 2x3 and
    with a trivial factor."""
    if value > 10.0 * DECISION_THRESHOLD:
        return ENTANGLED
    if (value <= DECISION_THRESHOLD and (1 in dims or dims in PPT_EXACT_DIMS)
            and ppt_min >= -PPT_ATOL):
        return SEPARABLE
    return INCONCLUSIVE


def separability_verdict(rho: BipartiteState, cfg: OptimizerConfig | None = None,
                         n_observables: int = 8) -> VerdictResult:
    """Aggregate the minimizer over a probe set of Hermitian observables:
    the canonical partial-transpose witness when one exists,
    ``n_observables`` (>= 0) seeded random probes, and the identity.

    The infimum is taken independently per probe; the verdict never assumes
    a decomposition shared across observables. See ``classify``.
    """
    if n_observables < 0:
        raise ConfigInvalid(f"n_observables must be >= 0, got {n_observables}")
    cfg = cfg or OptimizerConfig()
    dim = rho.space.dim
    pt_min, _ = ppt_min_eig_and_vector(rho)

    probes: list[tuple[str, np.ndarray]] = []
    witness = canonical_pt_witness(rho)
    if witness is not None:
        probes.append(("pt-witness", witness))
    rng = np.random.default_rng((cfg.seed, 10_000))
    for k in range(n_observables):
        probes.append((f"random-{k}", random_hermitian_probe(rng, dim)))
    probes.append(("identity", np.eye(dim, dtype=np.complex128)))

    results = []
    max_d0, max_probe = -1.0, probes[0][1]
    for label, probe in probes:
        res = minimize_d0(rho, probe, cfg)
        results.append((label, res.value))
        if res.value > max_d0:
            max_d0, max_probe = res.value, probe

    verdict = classify(max_d0, pt_min, (rho.space.d1, rho.space.d2))
    return VerdictResult(verdict=verdict, max_d0=float(max_d0),
                         witness=max_probe, probes=tuple(results))
