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
evaluation, so only objective evaluations count against the budget. One
driver runs every start as a lane: start 0, with any warm starts ahead of
its own searches, runs first as a lane alone, so that an instance it
resolves stops inside it; starts 1..S-1 then run in lockstep as lanes of one
call. The gap and gradient kernel takes only lane stacks: every step is one
kernel call on all live lanes, and the trivial decomposition {1, rho},
evaluated once first, is a call of one lane. Each lane keeps its own step
length, L-BFGS memory, budget and queue of searches. The search also keeps
the closest evaluation on each side of zero, from any partition and start.
S is affine in the decomposition measure and the decompositions of a state
form a convex set, so once both sides are seen the convex mixture of the
two ensembles with the right weight has zero gap, and the search stops. The
mixture is the ensemble of one 2m x r isometry stacking the two polar
factors, so every witness is one ``ensemble_from_unitary`` call on an
isometry.

All randomness is derived from (seed, start_index), so results are
reproducible and do not depend on scheduling. No lane reads another lane's
state, so a start's trajectory does not depend on the starts batched with
it; the only state the starts share is the closest point overall and on
each side of zero, with ties going to the lower start index. The returned
value is recomputed from the witness ensemble, so it is always a certified
upper bound on the true infimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteState, expect
from .errors import ConfigInvalid, DimensionMismatch, QcorrError, RankTooSmall
from .linalg import as_matrix, dagger, operator_norm, require_hermitian
from .measures import (
    Ensemble,
    ProductEnsemble,
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
    counts objective evaluations per start, shared by the searches within
    that start (for start 0, the warm starts too); start 0 runs as a lane
    alone, the others as lanes of one batch. Gradients reuse the last
    evaluation and are not counted.
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

    ``starts_used`` is 0 when the trivial decomposition {1, rho} already
    decides the value, 1 when the search ends within start 0 (with the
    warm starts), and ``cfg.starts`` once starts 1..S-1 have run as lanes,
    even if the search ended partway through them.
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


def _observable(a, dim: int) -> np.ndarray:
    """A as a Hermitian dim x dim matrix, else NotHermitian or DimensionMismatch."""
    a = require_hermitian(as_matrix(a, "A"), name="A")
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"observable shape {a.shape} != {(dim, dim)}")
    return a


def decomposition_terms(e: Ensemble, a: np.ndarray) -> tuple[complex, complex, ProductEnsemble]:
    """Both sides of the decomposition gap for one fixed decomposition: the
    expectation on the barycenter, the decorrelated (marginal-product)
    expectation, and the marginal-product ensemble the latter is evaluated
    on. A must be Hermitian and match the ensemble's dimension."""
    a = _observable(a, e.space.dim)
    pe = boxtimes(e)
    return expect(e.barycenter, a), evaluate_boxtimes(pe, a), pe


def d0_objective(e: Ensemble, a: np.ndarray) -> float:
    """|expectation on the barycenter - decorrelated expectation| for one
    fixed decomposition."""
    lhs, rhs, _ = decomposition_terms(e, a)
    return abs(lhs - rhs)


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Dot product over the last axis: one for two vectors, one per row for
    two stacks of rows."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def factored_product_value(pe, a: np.ndarray, b: np.ndarray) -> float:
    """sum_i w_i Tr(sigma_i a) Tr(tau_i b), the factored decorrelated form."""
    firsts = np.einsum("iab,ba->i", pe.first_marginals, a)
    seconds = np.einsum("iab,ba->i", pe.second_marginals, b)
    return complex(pe.weights @ (firsts * seconds)).real


class _Engine:
    """Signed gap g(x) = c - S(x, groups) for a fixed state and observable,
    mirroring ensemble_from_unitary semantics exactly, and its gradient.

    The coordinates x are the real and imaginary parts of an unconstrained
    complex m x r matrix X (r = rank rho), 2mr reals. The isometry is its
    polar factor V = X (X^dagger X)^{-1/2}, and the pure refinement is
    phi = b V^dagger with b = psi sqrt(p), so every evaluation needs only
    an r x r eigendecomposition. Every call evaluates a stack of lanes, one
    point and partition each; the per-member marginals are summed into
    group marginals by each lane's 0/1 indicator matrix. ``gradient``
    differentiates every lane of the last evaluated stack from the cached
    eigendecompositions and marginals, so it costs no evaluation.
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
        self.a_sig_h = np.ascontiguousarray(self.a_sig.conj().T)
        self.n_params = 2 * m * self.r
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
        return (x[..., :half] + 1j * x[..., half:]).reshape(*x.shape[:-1], self.m, self.r)

    @staticmethod
    def _polar(xm: np.ndarray, s: np.ndarray, e: np.ndarray):
        """Polar factor V = X W of X, or of each X in a stack, with
        W = G^{-1/2} from the eigendecomposition G = X^dagger X =
        E diag(s) E^dagger, as (V, W)."""
        w = (e / np.sqrt(s)[..., None, :]) @ dagger(e)
        return xm @ w, w

    def isometry(self, x: np.ndarray) -> np.ndarray:
        """The m x r polar factor V of X at x."""
        xm = self._matrix(x)
        return self._polar(xm, *np.linalg.eigh(dagger(xm) @ xm))[0]

    def signed_gap(self, x: np.ndarray, ind: np.ndarray) -> np.ndarray:
        """c - S at each of L lanes: x is an (L, 2mr) stack of points, ind
        an (L, m, k) stack of 0/1 indicator matrices, one partition per lane.
        A zero indicator column is a group of weight 0, dropped like any
        group below ZERO_WEIGHT_TOL. Every step below acts on each lane
        alone. A lane's gap is nan where its X^dagger X is numerically
        singular. A nan never enters ``_Best`` (every comparison with it is
        false) and fails the Armijo test, so the search backtracks from it.
        """
        d1, d2, m = self.d1, self.d2, self.m
        lanes = len(x)
        xm = self._matrix(x)
        s, e = np.linalg.eigh(dagger(xm) @ xm)
        ok = s[:, 0] > s[:, -1] * GRAM_RCOND
        s = np.where(ok[:, None], s, 1.0)
        v, w = self._polar(xm, s, e)
        t3 = (self.b @ dagger(v)).reshape(lanes, d1, d2, m)
        sig = np.einsum("...aej,...bej->...abj", t3, t3.conj()).reshape(lanes, d1 * d1, m) @ ind
        tau = np.einsum("...eaj,...ebj->...abj", t3, t3.conj()).reshape(lanes, d2 * d2, m) @ ind
        lam = sig[..., ::d1 + 1, :].real.sum(axis=-2)
        kept = lam >= ZERO_WEIGHT_TOL
        inv = kept / np.maximum(lam, ZERO_WEIGHT_TOL)
        g1 = self.a_sig @ tau  # derivative of Tr[(sig x tau) A] in sig^T
        quad = np.einsum("...ik,...ik->...k", sig.conj(), g1).real
        weight = np.maximum(_rowdot(lam, kept), ZERO_WEIGHT_TOL)  # 0 only in a singular lane
        s_val = _rowdot(quad, inv) / weight
        self._last = (xm, w, s, e, t3, ind, sig, g1, inv, quad, weight, s_val)
        gap = self.c - s_val
        gap[~ok] = np.nan
        return gap

    def gradient(self) -> np.ndarray:
        """Gradient of signed_gap in x at each lane of the last evaluated
        stack, as an (L, 2mr) stack.

        The chain runs from S through the group marginals to V and then
        through V = X W, W = G^{-1/2}, G = X^dagger X. In the cached
        eigenbasis G = E diag(s) E^dagger, dW is E (F o E^dagger dG E)
        E^dagger with F the divided difference of s^{-1/2}, written as
        -1 / (sqrt(s_k s_l) (sqrt(s_k) + sqrt(s_l))) so it stays exact as
        s_k -> s_l and gives -s^{-3/2} / 2 on the diagonal.
        """
        d1, d2, m = self.d1, self.d2, self.m
        xm, w, s, e, t3, ind, sig, g1, inv, quad, weight, s_val = self._last
        lanes = len(xm)
        # dS = sum_k Tr[x1_k dsig_k] + Tr[x2_k dtau_k] over kept groups
        weight, s_val = weight[..., None], s_val[..., None]
        scale = (inv / weight)[..., None, :]
        x1 = g1 * scale
        x1[..., ::d1 + 1, :] -= ((quad * inv * inv + s_val * (inv > 0.0)) / weight)[..., None, :]
        x2 = (self.a_sig_h @ sig) * scale
        ind_t = ind.swapaxes(-1, -2)
        x1 = (x1 @ ind_t).reshape(lanes, d1, d1, m)  # per member
        x2 = (x2 @ ind_t).reshape(lanes, d2, d2, m)
        # dS = 2 Re sum conj(dt3) * gt
        gt = (np.einsum("...abj,...bej->...aej", x1, t3)
              + np.einsum("...efj,...afj->...aej", x2, t3))
        gam = dagger(gt.reshape(lanes, d1 * d2, m)) @ self.b  # dS = 2 Re Tr[gam^dagger dV]
        # dV = dX W + X dW gives dS = 2 Re Tr[xi^dagger dX] with
        # xi = gam W + X E (F o (M + M^dagger)) E^dagger, M = E^dagger X^dagger gam E
        root = np.sqrt(s)
        f = -1.0 / ((root[..., :, None] * root[..., None, :])
                    * (root[..., :, None] + root[..., None, :]))
        e_h = dagger(e)
        mt = e_h @ (dagger(xm) @ gam) @ e
        xi = (gam @ w + xm @ (e @ (f * (mt + dagger(mt))) @ e_h)).reshape(lanes, -1)
        return -2.0 * np.concatenate([xi.real, xi.imag], axis=-1)


class _Best:
    """Closest evaluation to zero (value, x, groups), and the closest
    evaluation on each side of zero (pos, neg), each as (g, start, x,
    groups). Equal values go to the lower start index, and within a start
    to the earlier evaluation, so the choice does not depend on the order in
    which lockstep lanes offer their evaluations."""

    __slots__ = ("value", "start", "x", "groups", "pos", "neg")

    def __init__(self):
        self.value, self.start = np.inf, 0
        self.x = self.groups = self.pos = self.neg = None

    def offer(self, g: float, x: np.ndarray, groups, start: int = 0):
        if g > 0.0 and (self.pos is None or (g, start) < self.pos[:2]):
            self.pos = (g, start, x.copy(), groups)
        elif g < 0.0 and (self.neg is None or (-g, start) < (-self.neg[0], self.neg[1])):
            self.neg = (g, start, x.copy(), groups)
        if (abs(g), start) < (self.value, self.start):
            self.value, self.start = abs(g), start
            self.x = x.copy()
            self.groups = groups

    def offer_lanes(self, g: np.ndarray, x: np.ndarray, groups, starts: np.ndarray):
        """Offer one evaluation per lane, lanes in start order. Only the
        smallest g >= 0 and the largest g < 0 can change anything, and min
        and max return the first, lowest-start lane of a tie."""
        vals, lanes = g.tolist(), range(len(g))
        for k in {min(lanes, key=lambda k: vals[k] if vals[k] >= 0.0 else np.inf),
                  max(lanes, key=lambda k: vals[k] if vals[k] < 0.0 else -np.inf)}:
            self.offer(vals[k], x[k], groups[k], int(starts[k]))

    def done(self, tol: float) -> bool:
        """Within tol, or both sides of zero seen (a zero-gap mixture exists)."""
        return self.value <= tol or (self.pos is not None and self.neg is not None)


def _random_partition(rng: np.random.Generator, m: int):
    n_groups = int(rng.integers(1, m + 1))
    labels = rng.integers(0, n_groups, size=m)
    order = np.argsort(labels, kind="stable")  # each label's members ascending
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return tuple(tuple(g.tolist()) for g in np.split(order, cuts))


def _indicator(groups, m: int) -> np.ndarray:
    """The m x m 0/1 matrix summing members into groups: column k sums group
    k, and the columns past the last group are zero."""
    ind = np.zeros((m, m), dtype=np.complex128)
    for k, g in enumerate(groups):
        ind[list(g), k] = 1.0
    return ind


def _compact(arrays, rows: np.ndarray) -> list:
    """Move the given rows of each array to its front, in place, and return
    views of them."""
    for a in arrays:
        a[:rows.size] = a[rows]
    return [a[:rows.size] for a in arrays]


def _lane_search(engine: _Engine, lanes, max_iters: int, tol: float, best: _Best) -> None:
    """L-BFGS with Armijo backtracking on |c - S(x)|, for one or many starts
    at once, each a lane, stepped in lockstep.

    ``lanes`` holds (start index, searches) in start order; searches is a
    queue of (x0, partition), which the lane runs in turn, each from its own
    x0, sharing ``max_iters`` evaluations. Every step evaluates one point per
    live lane with one lane-axis kernel call and offers the evaluations to
    ``best``. Trial points along a lane's search direction are evaluated
    until the Armijo test accepts one; only the accepted point is
    differentiated. The first step of a search, and any step after its
    memory is reset, has length FIRST_STEP along the steepest descent. A
    search ends when a trial changes |c - S| by at most STALL_REL of its
    value, after MAX_BACKTRACKS rejected trials, or at a zero gradient.
    Every live lane spends one evaluation per step, from the first step on,
    so ``max_iters`` steps spend every lane's budget; every lane stops once
    ``best`` is done (within ``tol``, or evaluations seen on both sides of
    zero). Every test compares terms of equal degree in A, so each decision
    is invariant under A -> cA.

    Each lane keeps its own accepted point, step length, L-BFGS memory and
    search queue. No lane reads another lane's state, so a lane's
    trajectory does not depend on the lanes beside it; they share only
    ``best``. A lane out of searches leaves the arrays.
    """
    m, n = engine.m, engine.n_params
    size = len(lanes)
    start = np.array([i for i, _ in lanes])
    queue = [list(searches) for _, searches in lanes]
    pt, groups = np.empty((size, n)), [None] * size
    ind = np.empty((size, m, m), dtype=np.complex128)
    # f = |g| at the accepted point x; f = inf with d = 0 marks the first point
    # of a search, which the Armijo test accepts and no stall test ends
    f, x, d, grad = np.empty(size), np.empty((size, n)), np.empty((size, n)), np.zeros((size, n))
    t, slope, gamma, count = np.ones(size), np.zeros(size), np.zeros(size), np.zeros(size, dtype=int)
    # L-BFGS memory: slot j of a lane holds (s, y, rho), newest pair in slot
    # 0; rho = 0 marks an empty slot, on which the two-loop recursion changes
    # nothing, and count bounds the filled slots.
    mem = np.zeros((size, LBFGS_MEMORY, 2 * n + 1))

    def begin(k):  # lane k's next search, from its own x0 with an empty memory
        pt[k], groups[k] = queue[k].pop(0)
        ind[k] = _indicator(groups[k], m)
        f[k], x[k], d[k], gamma[k], count[k], mem[k, :, -1] = np.inf, pt[k], 0.0, 0.0, 0, 0.0

    for k in range(size):
        begin(k)
    for _ in range(max_iters):
        gap = engine.signed_gap(pt, ind)
        best.offer_lanes(gap, pt, groups, start)
        if best.done(tol):
            return
        new = np.abs(gap)
        stall = (np.abs(new - f) <= STALL_REL * f) & np.isfinite(f)
        accept = ~stall & (new <= f + ARMIJO * t * slope)
        ended = stall.copy()
        if accept.any():
            new_grad = np.sign(gap)[:, None] * engine.gradient()
            y = new_grad - grad
            sy = t * _rowdot(d, y)
            push = accept & (sy > 0.0)  # d = 0 at a first point, so it pushes nothing
            if push.any():  # the new pair goes to slot 0, the oldest off the end
                np.copyto(mem[:, 1:], mem[:, :-1], where=push[:, None, None])
                row = push[:, None]
                np.multiply(t[:, None], d, out=mem[:, 0, :n], where=row)
                np.copyto(mem[:, 0, n:-1], y, where=row)
                np.divide(1.0, sy[:, None], out=mem[:, 0, -1:], where=row)
                np.divide(sy, _rowdot(y, y), out=gamma, where=push)
                count += push
            np.copyto(x, pt, where=accept[:, None])
            np.copyto(f, new, where=accept)
            np.copyto(grad, new_grad, where=accept[:, None])
            # two-loop recursion for -H grad; an empty memory has gamma = 0 and
            # gives 0, which the ascent test below turns into steepest descent.
            # Slots are read as rows and q as a column, so each row dot is one
            # matmul, as in _rowdot.
            q, alphas = grad.copy(), []
            s_row, y_row, rho = mem[:, :, None, :n], mem[:, :, None, n:-1], mem[:, :, None, -1:]
            q_row, q_col = q[:, None], q[:, :, None]
            for j in range(min(count.max(), LBFGS_MEMORY)):
                alphas.append(rho[:, j] * (s_row[:, j] @ q_col))
                q_row -= alphas[j] * y_row[:, j]
            q *= -gamma[:, None]
            for j in reversed(range(len(alphas))):
                q_row -= (rho[:, j] * (y_row[:, j] @ q_col) + alphas[j]) * s_row[:, j]
            steep = accept & (_rowdot(grad, q) >= 0.0)
            if steep.any():  # steepest descent of length FIRST_STEP; resets the memory
                norm = np.sqrt(_rowdot(grad[steep], grad[steep]))
                ended[steep] |= norm == 0.0  # a stationary point ends the search
                q[steep] = grad[steep] * (-FIRST_STEP / np.where(norm > 0.0, norm, 1.0))[:, None]
                gamma[steep], count[steep], mem[steep, :, -1] = 0.0, 0, 0.0
            np.copyto(d, q, where=accept[:, None])
            np.copyto(slope, _rowdot(grad, d), where=accept)
        # t halves on each rejected trial, so 2^-MAX_BACKTRACKS ends the search
        t = np.where(accept, 1.0, 0.5 * t)
        ended |= t <= 0.5 ** MAX_BACKTRACKS
        np.multiply(d, t[:, None], out=pt)
        pt += x
        if not ended.any():
            continue
        for k in np.flatnonzero(ended):
            if queue[k]:
                begin(k)
                ended[k] = False
        if ended.any():  # retire: the live lanes move to the front, in place
            live = np.flatnonzero(~ended)
            if not live.size:
                return
            start, ind, pt, x, d, grad, f, t, slope, gamma, count, mem = _compact(
                (start, ind, pt, x, d, grad, f, t, slope, gamma, count, mem), live)
            groups = [groups[k] for k in live]
            queue = [queue[k] for k in live]


def minimize_d0(rho: BipartiteState, a: np.ndarray, cfg: OptimizerConfig | None = None,
                extra_starts=()) -> CorrelationResult:
    """Multi-start minimization of the decomposition gap for one observable.
    One L-BFGS driver runs every start as a lane: start 0 as a lane alone,
    then, unless it finished the search, starts 1..S-1 as lanes of one batch.

    ``extra_starts`` is an optional sequence of (isometry, partition) warm
    starts, each searched first within start 0 and sharing its budget (used
    for continuation sweeps and cardinality embeddings); it does not affect
    determinism. An isometry is an m x n matrix, n >= r = rank rho, read
    like ``ensemble_from_unitary`` reads it: only its first r columns,
    which must be orthonormal. A malformed one raises DimensionMismatch.
    The value is ``d0_objective`` recomputed on the witness ensemble.
    """
    cfg = cfg or OptimizerConfig()
    dim = rho.space.dim
    a = _observable(a, dim)
    if dim > MAX_OPT_DIM:
        raise ConfigInvalid(f"optimizer supports total dimension <= {MAX_OPT_DIM}, got {dim}")
    m = cfg.m if cfg.m is not None else dim ** 2
    engine = _Engine(rho, a, m)
    warm = [(engine.coords(v), normalize_partition(pt, m)) for v, pt in extra_starts]
    best = _Best()
    x_id = engine.coords(np.eye(m))  # the isometry at theta = 0

    # The merge-everything partition gives the trivial decomposition {1, rho};
    # its objective does not depend on the isometry, so evaluate it once.
    trivial = (tuple(range(m)),)
    best.offer_lanes(engine.signed_gap(x_id[None], _indicator(trivial, m)[None]), x_id[None],
                     [trivial], np.zeros(1, dtype=int))

    def partitions(rng):
        return [singleton_partition(m)] + [_random_partition(rng, m)
                                           for _ in range(N_RANDOM_PARTITIONS)]

    # Start 0, from the identity isometry after the warm starts, runs as a
    # lane alone, so that an instance it resolves stops inside it; starts
    # 1..S-1 then run as lanes of one call. The searches of a start share its
    # evaluation budget.
    starts_used = 0
    if not best.done(cfg.tol):
        work = warm + [(x_id, gr) for gr in partitions(np.random.default_rng((cfg.seed, 0)))]
        _lane_search(engine, [(0, work)], cfg.max_iters, cfg.tol, best)
        starts_used = 1
    if not best.done(cfg.tol) and cfg.starts > 1:
        lanes = []
        for i in range(1, cfg.starts):
            rng = np.random.default_rng((cfg.seed, i))
            theta = rng.standard_normal(m * m) * (np.pi / (2.0 * np.sqrt(m)))
            x0 = engine.coords(expm_antihermitian(theta, m))
            lanes.append((i, [(x0, gr) for gr in partitions(rng)]))
        _lane_search(engine, lanes, cfg.max_iters, cfg.tol, best)
        starts_used = cfg.starts

    closest = engine.isometry(best.x)
    if best.pos is not None and best.neg is not None:
        # g_pos > 0 > g_neg, so t g_pos + (1 - t) g_neg = 0 for t in (0, 1); the
        # t : 1 - t mixture is the ensemble of [sqrt(t) V_pos ; sqrt(1 - t) V_neg]
        (g_pos, _, x_pos, groups_pos), (g_neg, _, x_neg, groups_neg) = best.pos, best.neg
        t = g_neg / (g_neg - g_pos)
        v = np.concatenate([np.sqrt(t) * engine.isometry(x_pos),
                            np.sqrt(1.0 - t) * engine.isometry(x_neg)])
        groups = groups_pos + tuple(tuple(j + m for j in g) for g in groups_neg)
    else:
        v, groups = closest, best.groups
    ensemble = ensemble_from_unitary(rho, v, groups)
    return CorrelationResult(value=d0_objective(ensemble, a), ensemble=ensemble,
                             starts_used=starts_used, argmin_isometry=closest,
                             argmin_partition=best.groups)


def minimize_d_simple(rho: BipartiteState, a: np.ndarray, b: np.ndarray,
                      cfg: OptimizerConfig | None = None) -> CorrelationResult:
    """Simple-tensor coefficient: the result of ``minimize_d0`` with
    A = a (x) b, once the factored decorrelated form sum_i w_i Tr(sigma_i a)
    Tr(tau_i b) of its witness ensemble matches the joint evaluation to
    1e-12 (QcorrError otherwise)."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape != (rho.space.d1, rho.space.d1):
        raise DimensionMismatch(f"a shape {a.shape} != first factor {rho.space.d1}")
    if b.shape != (rho.space.d2, rho.space.d2):
        raise DimensionMismatch(f"b shape {b.shape} != second factor {rho.space.d2}")
    ab = np.kron(a, b)
    res = minimize_d0(rho, ab, cfg)
    _, joint, pe = decomposition_terms(res.ensemble, ab)
    fact = factored_product_value(pe, a, b)
    if abs(fact - joint.real) > 1e-12 * max(1.0, abs(joint.real)):
        raise QcorrError(f"factored form {fact} disagrees with joint evaluation {joint.real}")
    return res


def random_hermitian_probe(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Seeded random Hermitian observable normalized to unit operator norm."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / operator_norm(h)


def canonical_pt_witness(rho: BipartiteState) -> np.ndarray | None:
    """Partially transposed projector onto the negative-eigenvalue
    eigenvector of the partial transpose, when one exists."""
    return _pt_witness(rho, *ppt_min_eig_and_vector(rho))


def _pt_witness(rho: BipartiteState, pt_min: float, eta: np.ndarray) -> np.ndarray | None:
    """``canonical_pt_witness`` from an already computed smallest eigenpair."""
    if pt_min >= -PPT_ATOL:
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
    the canonical partial-transpose witness when one exists, and
    ``n_observables`` (>= 0) seeded random probes.

    The infimum is taken independently per probe; the verdict never assumes
    a decomposition shared across observables. See ``classify``. The
    witness is the first probe with the largest value; with no probe (a PPT
    state, ``n_observables == 0``) it is the identity, whose d0 is 0 for
    every state, and nothing is solved.
    """
    if n_observables < 0:
        raise ConfigInvalid(f"n_observables must be >= 0, got {n_observables}")
    cfg = cfg or OptimizerConfig()
    dim = rho.space.dim
    pt_min, eta = ppt_min_eig_and_vector(rho)

    probes: list[tuple[str, np.ndarray]] = []
    witness = _pt_witness(rho, pt_min, eta)
    if witness is not None:
        probes.append(("pt-witness", witness))
    rng = np.random.default_rng((cfg.seed, 10_000))
    for k in range(n_observables):
        probes.append((f"random-{k}", random_hermitian_probe(rng, dim)))

    results = tuple((label, minimize_d0(rho, probe, cfg).value) for label, probe in probes)
    max_d0, max_probe = 0.0, np.eye(dim, dtype=np.complex128)
    if probes:
        k = max(range(len(probes)), key=lambda j: results[j][1])  # the first of the largest
        max_d0, max_probe = results[k][1], probes[k][1]

    verdict = classify(max_d0, pt_min, (rho.space.d1, rho.space.d2))
    return VerdictResult(verdict=verdict, max_d0=float(max_d0),
                         witness=max_probe, probes=results)
