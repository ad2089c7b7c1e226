"""Correlation coefficients computed by minimizing, over finite
decompositions of a state, the gap between an observable's expectation and
its decorrelated (marginal-product) counterpart, plus a separability
verdict read from certificates: the product bound, the exact bound at rank
<= 2 and the PPT test.

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
evaluation, so only objective evaluations count against the budget. A start
runs several searches, each from its own point with its own coarse-graining
partition: any warm starts (start 0 only), the singleton partition and
random partitions, each a vector of m group labels from the draw to the
witness (see ``measures.normalize_partition``). One driver runs every search
as a lane, side by side with the other searches of its start, which share
the start's budget. The gap and gradient kernel takes only lane stacks, each
lane with its probe (observable) and its labels: every step is one kernel
call on all live lanes. The probes of a solve share calls: (A) one call
evaluates the trivial decomposition {1, rho} of every probe and, at rank 2,
the two chord decompositions that attain the exact range of S (see
``_Engine._envelope``); (B) start 0 runs first, alone, in one batch across
probes, so that an instance it resolves stops inside it; (C) each probe
still open runs starts 1..S-1 in lockstep as one batch, joined by start 0
where the certified bound (``CorrelationResult.lower``) exceeds TOL, so that
no evaluation comes within TOL of zero or crosses it. Each lane keeps its
own step length and L-BFGS memory. The search also keeps the closest
evaluation on each side of zero, from any partition and start. S is affine
in the decomposition measure and the decompositions of a state form a
convex set, so once both sides are seen the convex mixture of the two
ensembles with the right weight has zero gap, and the search stops. It also
stops once its closest evaluation is within TOL of the certified bound,
which no evaluation can beat: at rank <= 2 that bound is d0 itself, less a
roundoff margin, so (A) decides and no start runs. The mixture is the
ensemble of one 2m x r isometry stacking the two polar factors, so every
witness is built from the kernel's own polar factors, all of a solve's in
one batch (``measures.ensembles_from_isometries``) and recomputed in another.

All randomness is derived from (seed, start_index), so results are
reproducible and do not depend on scheduling. No lane reads another lane's
state, and a start reads no other start's budget, so a start's trajectory
does not depend on the starts or probes batched with it; the only state the
starts of a probe share is the closest point overall and on each side of
zero, with ties going to the lower start index, then the earlier step, then
the earlier search. So a probe's result is the same alone and beside others.
The returned value is recomputed from the witness ensemble, so it is always
a certified upper bound on the true infimum.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteState, marginal, validate_density
from .errors import ConfigInvalid, DimensionMismatch, QcorrError, RankTooSmall
from .linalg import as_matrix, dagger, operator_norm, require_hermitian
from .measures import (
    Ensemble,
    ZERO_WEIGHT_TOL,
    boxtimes,
    ensembles_from_isometries,
    evaluate_boxtimes,
    expm_antihermitian,
    normalize_partition,
    singleton_partition,
    state_spectral_data,
)
from .posmaps import is_ppt, partial_transpose, partial_transpose_matrix, ppt_min_eig_and_vector

# Optimization is restricted to small total dimensions.
MAX_OPT_DIM = 16
# Random coarse-graining partitions tried per start.
N_RANDOM_PARTITIONS = 2
# Random probes of a separability verdict, by default.
N_RANDOM_PROBES = 8
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
# Allowance for the roundoff of a kernel gap against a certified bound, per
# unit of dim ||A||: ~450 eps, far above that of one kernel evaluation.
BOUND_MARGIN = 1e-13
# Dimensions where the partial-transpose criterion is an exact oracle. It is
# also exact with a trivial factor (d1 == 1 or d2 == 1), where every state
# is a product state.
PPT_EXACT_DIMS = {(2, 2), (2, 3), (3, 2)}
# The d0 stop rule: a search stops once its closest |c - S| is at or below this.
TOL = 1e-9

# The identity and the Pauli matrices x, y, z: the Bloch coordinates of a
# rank-2 support.
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=np.complex128)

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
    that start (for start 0, the warm starts too), which run side by side
    as lanes; start 0 runs alone where it can end the search, the others as
    lanes of one batch. Gradients reuse the last evaluation and are not counted.
    """

    m: int | None = None
    starts: int = 32
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name, low in (("m", 1), ("starts", 1), ("max_iters", 1), ("seed", 0)):
            if name != "m" or self.m is not None:  # m = None resolves to (d1 d2)^2 in the solve
                _check_integer(name, getattr(self, name), low)


def _check_integer(name: str, value, low: int) -> None:
    """ConfigInvalid unless value is an integer (a bool is not one) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ConfigInvalid(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class CorrelationResult:
    """Best value found (upper bound on the infimum), recomputed from its
    witness ensemble: that of the closest evaluation's m x r polar factor,
    or of the stacked 2m x r isometry of a zero-gap mixture. A solve builds
    and recomputes the witnesses of all its probes in one batch each.

    ``argmin_isometry`` (the m x r polar factor) and ``argmin_partition``
    describe the evaluated single ensemble closest to the target:
    ``ensemble_from_unitary(rho, argmin_isometry, argmin_partition)``
    rebuilds it, and the pair is a warm start for ``minimize_d0``. Zero
    rows appended to the isometry, with ``embed_partition``, carry it to a
    larger cardinality. When the witness is the zero-gap mixture of two
    ensembles, they describe the endpoint closer to zero.

    ``lower`` <= d0 is the larger of two certified bounds, each less
    (BOUND_MARGIN dim + ||rho - rho'||_1) ||A|| and never below 0. Here
    rho' is the normalized support state that every decomposition is built
    from (``measures.state_spectral_data``); validation lets rho's trace and
    eigenvalues stray from it by up to 1e-10, and Tr(rho A) moves with them:

    - the product bound dist(Tr(rho A), [P_lo, P_hi]): the decorrelated term
      mixes product values Tr[(sigma (x) tau) A], which lie in
      [max(lambda_min(A), lambda_min(A^Gamma)), min(lambda_max(A),
      lambda_max(A^Gamma))]. It is 0 for a separable rho, whatever A.
    - at rank <= 2, the exact bound dist(Tr(rho A), [S_min, S_max]) = d0,
      from the range of S over all decompositions (``_Engine._envelope``).

    So at rank <= 2 the value lies within TOL of ``lower`` wherever the
    margin does (||A|| below about 1e4 / dim).

    ``starts_used`` is 0 when the first kernel call already decides the
    value: the trivial decomposition {1, rho}, or at rank <= 2 the exact
    bound with the chord decompositions that attain it. It is 1 when the
    search ends within start 0 (with the warm starts), run first and alone,
    and ``cfg.starts`` once the other starts have run as lanes, even if the
    search ended partway through them.
    """

    value: float
    lower: float
    ensemble: Ensemble
    starts_used: int
    argmin_isometry: np.ndarray
    argmin_partition: np.ndarray


@dataclass(frozen=True)
class VerdictResult:
    """``probes`` holds (label, lower, value) per probe, its certified bound
    and its d0 upper bound. The verdict reads ``lower``, the largest bound;
    ``max_d0`` is the largest value and decides nothing. ``witness`` is the
    first probe of the largest bound above 0, else the identity."""

    verdict: str
    max_d0: float
    lower: float
    witness: np.ndarray
    probes: tuple[tuple[str, float, float], ...]


def _observable(a, dim: int) -> np.ndarray:
    """A as a Hermitian dim x dim matrix, else NotHermitian or DimensionMismatch."""
    a = require_hermitian(as_matrix(a, "A"), name="A")
    if a.shape != (dim, dim):
        raise DimensionMismatch(f"observable shape {a.shape} != {(dim, dim)}")
    return a


def decomposition_terms(e: Ensemble, a: np.ndarray) -> tuple[complex, complex]:
    """Both sides of the decomposition gap for one fixed decomposition: the
    expectation on the barycenter and the decorrelated (marginal-product)
    expectation. A must be Hermitian and match the ensemble's dimension."""
    return _decomposition_terms([e], _observable(a, e.space.dim)[None])[0]


def d0_objective(e: Ensemble, a: np.ndarray) -> float:
    """|expectation on the barycenter - decorrelated expectation| for one
    fixed decomposition."""
    lhs, rhs = decomposition_terms(e, a)
    return abs(lhs - rhs)


def _decomposition_terms(ensembles, a: np.ndarray) -> list[tuple[complex, complex]]:
    """``decomposition_terms`` of each ensemble (one space) under its own
    observable of a checked stack, each call stacked over all members: their
    marginals get the checks that ``boxtimes`` runs."""
    space, sizes = ensembles[0].space, [len(e) for e in ensembles]
    members = np.concatenate([e.members for e in ensembles])
    firsts = validate_density(marginal(members, space, 0), space.d1, "first marginal", stack=True)
    seconds = validate_density(marginal(members, space, 1), space.d2, "second marginal", stack=True)
    a4 = a.reshape(-1, space.d1, space.d2, space.d1, space.d2)[np.repeat(np.arange(len(a)), sizes)]
    values = np.split(np.einsum("iab,icd,ibdac->i", firsts, seconds, a4), np.cumsum(sizes)[:-1])
    lhs = np.trace(np.array([e.barycenter.rho for e in ensembles]) @ a, axis1=1, axis2=2)
    return [(complex(x), complex(e.weights @ v)) for e, x, v in zip(ensembles, lhs, values)]


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
    """Signed gap g(x) = c - S(x, labels) for a fixed state and one
    observable or a stack of them (the probes), mirroring
    ensemble_from_unitary semantics exactly, and its gradient.

    The coordinates x are the real and imaginary parts of an unconstrained
    complex m x r matrix X (r = rank rho), 2mr reals. The isometry is its
    polar factor V = X (X^dagger X)^{-1/2}, and the pure refinement is
    phi = b V^dagger with b = psi sqrt(p), so every evaluation needs only
    an r x r eigendecomposition. Every call evaluates a stack of lanes, one
    probe, point and partition each (see ``_LaneSet``); the per-member
    marginals are summed into group marginals by each lane's group labels.
    ``gradient`` differentiates every lane of the last evaluated stack from
    the cached eigendecompositions and marginals, so it costs no evaluation;
    ``v`` keeps that stack's polar factors, (L, m, r), until it runs.
    ``lower`` is each probe's ``CorrelationResult.lower``, net of the
    roundoff of a gap against it and of the drift from rho to rho': every
    computed gap has |g| >= lower, and where lower > 0 all gaps of the probe
    have one sign. ``chords`` holds, per probe, the coordinates of the
    decompositions that attain its exact bound (two at rank 2, none otherwise).
    """

    def __init__(self, rho: BipartiteState, a: np.ndarray, m: int):
        self.d1, self.d2 = d1, d2 = rho.space.d1, rho.space.d2
        self.m = m
        p, psi = state_spectral_data(rho)
        self.r = p.size
        if m < self.r:
            raise RankTooSmall(f"cardinality {m} below rank {self.r}")
        self.b = psi * np.sqrt(p)  # phi = b @ conj(V).T
        a = np.reshape(a, (-1, d1 * d2, d1 * d2))
        self.c = np.array([np.trace(rho.rho @ x).real for x in a])
        # Marginals are stored flattened, sig[(a, b), k] and tau[(c, d), k];
        # Tr[(sig x tau) A] = conj(sig) . a_sig . tau as sig is Hermitian.
        a5 = a.reshape(-1, d1, d2, d1, d2)
        self.a_sig = np.ascontiguousarray(a5.transpose(0, 1, 3, 4, 2).reshape(-1, d1 * d1, d2 * d2))
        self.a_sig_h = np.ascontiguousarray(dagger(self.a_sig))
        h = (a + dagger(a)) / 2.0  # the part the real kernel values read
        w = np.linalg.eigvalsh(np.concatenate([h, partial_transpose_matrix(h, d1, d2)]))
        lo, hi = np.maximum(*np.split(w[:, 0], 2)), np.minimum(*np.split(w[:, -1], 2))
        # c is read on rho, every S on the normalized support state rho' =
        # psi diag(p) psi^dagger / sum(p) that the kernel decomposes, and
        # |Tr[(rho - rho') A]| <= ||A|| ||rho - rho'||_1
        support = (psi * (p / p.sum())) @ dagger(psi)
        drift = np.abs(np.linalg.eigvalsh((rho.rho + dagger(rho.rho)) / 2.0 - support)).sum()
        margin = (BOUND_MARGIN * d1 * d2 + drift) * np.abs(w[:len(a)]).max(axis=-1)
        self.n_params = 2 * m * self.r
        self.chords = np.empty((len(a), 0, self.n_params))
        bound = np.abs(self.c - np.clip(self.c, lo, hi))
        if self.r <= 2:
            s_lo, s_hi = self._envelope(rho, p, psi)
            bound = np.maximum(bound, np.abs(self.c - np.clip(self.c, s_lo, s_hi)))
        self.lower = np.maximum(bound - margin, 0.0)
        self._last = self.v = None

    def _envelope(self, rho: BipartiteState, p: np.ndarray, psi: np.ndarray):
        """The exact range [S_min, S_max] of the decorrelated term S over the
        decompositions of a state of rank r <= 2, for each probe; at rank 2
        it also sets ``chords``, the (probes, 2, 2mr) coordinates of the two
        decompositions that attain S_min and S_max.

        The states on a 2-dimensional support form a Bloch ball, sigma(r) =
        psi (1 + r.pauli) psi^dagger / 2 with |r| <= 1, and rho is its point
        r0 = (0, 0, p1 - p2). The term of one state, f(r) = Tr[(Tr_2 sigma
        (x) Tr_1 sigma) A] = r^T H r + g.r + k, is a quadratic, and S of a
        decomposition {w_i, r_i} is sum_i w_i f(r_i), with sum_i w_i r_i =
        r0. Then S_min = f(r0) - mu (1 - |r0|^2), mu = max(0,
        -lambda_min(H)):

        - bound: h(r) = f(r) + mu (|r|^2 - 1) is convex (Hessian 2(H + mu))
          and h <= f on the ball, so S >= sum_i w_i h(r_i) >= h(r0).
        - attained: along H's lowest eigenvector e, the chord r0 + t e meets
          the sphere at t+ > 0 > t-, with t+ t- = |r0|^2 - 1 (the power of
          the point r0). Its two pure endpoints, weighted -t- : t+, have
          barycenter r0, their linear terms cancel, and S = f(r0) +
          lambda_min(H) (-t+ t-). Where lambda_min(H) >= 0, the trivial
          decomposition {1, rho} attains f(r0).

        S_max is the mirror case, with lambda_max(H) and the upper eigenvector.
        Rank 1 is the point r0 itself, a pure state with one decomposition:
        S_min = S_max = f(rho). See Osborne, Phys. Rev. A 72, 022309 (2005).
        """
        r, pn = self.r, p / p.sum()  # the kernel normalizes its decompositions
        basis = _PAULI if r == 2 else np.ones((1, 1, 1))
        sig = psi @ basis @ dagger(psi) / r  # sigma(r) = sum_mu y_mu sig_mu, y = (1, r)
        first = marginal(sig, rho.space, 0).reshape(len(sig), -1)
        second = marginal(sig, rho.space, 1).reshape(len(sig), -1)
        q = (first.conj() @ self.a_sig @ second.T).real  # f = y^T q y, as the kernel reads A
        q = (q + q.transpose(0, 2, 1)) / 2.0
        z = pn[0] - pn[-1]
        y0 = np.array([1.0, 0.0, 0.0, z])[:r * r]
        f0 = np.sum(q * np.outer(y0, y0), axis=(1, 2))  # elementwise: the same bits for any probe count
        if r == 1:
            return f0, f0
        lam, vec = np.linalg.eigh(q[:, 1:, 1:])
        room = 4.0 * pn[0] * pn[1]  # 1 - |r0|^2
        e = vec[:, :, [0, -1]].transpose(0, 2, 1)  # (probes, 2, 3): lowest, then upper
        along = z * e[..., 2]  # r0 . e
        root = np.sqrt(along * along + room)
        t = np.stack([root - along, -root - along], axis=-1)  # t+, t-
        weight = np.abs(t[..., ::-1]) / (2.0 * root[..., None])  # -t- : t+
        n = np.array([0.0, 0.0, z]) + t[..., None] * e[..., None, :]  # the endpoints on the sphere
        # the unit vector u of |u><u| = (1 + n.pauli)/2, from its column of larger norm
        nz, nxy = np.abs(n[..., 2]), n[..., 0] + 1j * n[..., 1]
        u = np.where((n[..., 2] < 0.0)[..., None], np.stack([nxy.conj(), 1.0 + nz], axis=-1),
                     np.stack([1.0 + nz, nxy], axis=-1)) / np.sqrt(2.0 * (1.0 + nz))[..., None]
        # row j of the isometry is conj(sqrt(w_j) u_j / sqrt(pn)), so that phi_j = sqrt(w_j) psi u_j
        v = np.zeros((len(q), 2, self.m, r), dtype=np.complex128)
        v[:, :, :2] = (np.sqrt(weight)[..., None] * u / np.sqrt(pn)).conj()
        v = v.reshape(len(q), 2, -1)
        self.chords = np.concatenate([v.real, v.imag], axis=-1)
        return f0 + np.minimum(lam[:, 0], 0.0) * room, f0 + np.maximum(lam[:, -1], 0.0) * room

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

    def signed_gap(self, x: np.ndarray, lanes: _LaneSet) -> np.ndarray:
        """c - S at each of L lanes: x is an (L, 2mr) stack of points, and
        ``lanes`` gives each lane its probe and partition. A group label no
        member carries is a group of weight 0, dropped like any group below
        ZERO_WEIGHT_TOL. Every step below acts on each lane alone. A lane's
        gap is nan where its X^dagger X is numerically singular. A nan never
        enters ``_Best`` (every comparison with it is false) and fails the
        Armijo test, so the search backtracks from it.
        """
        d1, d2, m, half = self.d1, self.d2, self.m, self.m * self.r
        self._last = self.v = None  # drop the last stack's cache before this one's grows
        xm = (x[:, :half] + 1j * x[:, half:]).reshape(len(x), m, self.r)
        s, e = np.linalg.eigh(dagger(xm) @ xm)  # G = X^dagger X = E diag(s) E^dagger
        ok = s[:, 0] > s[:, -1] * GRAM_RCOND
        s = np.where(ok[:, None], s, 1.0)
        w = (e / np.sqrt(s)[..., None, :]) @ dagger(e)  # W = G^{-1/2}
        self.v = v = xm @ w
        t3 = (self.b @ dagger(v)).reshape(len(x), d1, d2, m)
        sig = _group_sums(np.einsum("...aej,...bej->...abj", t3, t3.conj()), lanes.sig)
        tau = _group_sums(np.einsum("...eaj,...ebj->...abj", t3, t3.conj()), lanes.tau)
        lam = sig[..., ::d1 + 1, :].real.sum(axis=-2)
        kept = lam >= ZERO_WEIGHT_TOL
        inv = kept / np.maximum(lam, ZERO_WEIGHT_TOL)
        g1 = lanes.a_sig @ tau  # derivative of Tr[(sig x tau) A] in sig^T
        quad = np.einsum("...ik,...ik->...k", sig.conj(), g1).real
        weight = np.maximum(_rowdot(lam, kept), ZERO_WEIGHT_TOL)  # 0 only in a singular lane
        s_val = _rowdot(quad, inv) / weight
        self._last = (xm, w, s, e, t3, lanes, sig, g1, inv, quad, weight, s_val)
        gap = lanes.c - s_val
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
        self.v = None  # offered by now: freed before the temporaries below peak
        xm, w, s, e, t3, lanes, sig, g1, inv, quad, weight, s_val = self._last
        n_lanes = len(xm)
        # dS = sum_k Tr[x1_k dsig_k] + Tr[x2_k dtau_k] over kept groups
        weight, s_val = weight[..., None], s_val[..., None]
        scale = (inv / weight)[..., None, :]
        x1 = g1 * scale
        x1[..., ::d1 + 1, :] -= ((quad * inv * inv + s_val * (inv > 0.0)) / weight)[..., None, :]
        x2 = (lanes.a_sig_h @ sig) * scale
        # each member reads its group's column
        x1 = np.take(x1.view(np.float64), lanes.sig).view(np.complex128).reshape(n_lanes, d1, d1, m)
        x2 = np.take(x2.view(np.float64), lanes.tau).view(np.complex128).reshape(n_lanes, d2, d2, m)
        # dS = 2 Re sum conj(dt3) * gt
        gt = (np.einsum("...abj,...bej->...aej", x1, t3)
              + np.einsum("...efj,...afj->...aej", x2, t3))
        gam = dagger(gt.reshape(n_lanes, d1 * d2, m)) @ self.b  # dS = 2 Re Tr[gam^dagger dV]
        # dV = dX W + X dW gives dS = 2 Re Tr[xi^dagger dX] with
        # xi = gam W + X E (F o (M + M^dagger)) E^dagger, M = E^dagger X^dagger gam E
        root = np.sqrt(s)
        f = -1.0 / ((root[..., :, None] * root[..., None, :])
                    * (root[..., :, None] + root[..., None, :]))
        e_h = dagger(e)
        mt = e_h @ (dagger(xm) @ gam) @ e
        xi = (gam @ w + xm @ (e @ (f * (mt + dagger(mt))) @ e_h)).reshape(n_lanes, -1)
        return -2.0 * np.concatenate([xi.real, xi.imag], axis=-1)


class _Best:
    """Closest evaluation to zero (value, v, labels), and the closest
    evaluation on each side of zero (pos, neg), each as (g, start, v,
    labels), with v the m x r polar factor the kernel valued. Equal values
    go to the lower start index, then to the earlier step, then to the
    earlier search of the start, so the choice does not depend on which
    lanes share a lockstep call. Factors and labels are kept as copies, since
    the kernel frees its stack and the lane driver moves its rows in place.
    ``witness`` makes the choice between the closest one and a mixture."""

    __slots__ = ("lower", "value", "start", "v", "labels", "pos", "neg")

    def __init__(self, lower: float):
        self.lower = lower  # the probe's certified bound, <= every evaluation
        self.value, self.start = np.inf, 0
        self.v = self.labels = self.pos = self.neg = None

    def offer(self, g: float, v: np.ndarray, labels: np.ndarray, start: int = 0):
        if g > 0.0 and (self.pos is None or (g, start) < self.pos[:2]):
            self.pos = (g, start, v.copy(), labels.copy())
        elif g < 0.0 and (self.neg is None or (-g, start) < (-self.neg[0], self.neg[1])):
            self.neg = (g, start, v.copy(), labels.copy())
        if (abs(g), start) < (self.value, self.start):
            self.value, self.start = abs(g), start
            self.v, self.labels = v.copy(), labels.copy()

    def offer_lanes(self, g: np.ndarray, v: np.ndarray, labels: np.ndarray, starts: np.ndarray):
        """Offer one evaluation per lane, lanes in (start, search) order. Only
        the smallest g >= 0 and the largest g < 0 can change anything; argmin
        and argmax return the first lane of a tie (a nan lane is neither),
        and the two are offered in lane order."""
        pos = int(np.argmin(np.where(g >= 0.0, g, np.inf)))
        neg = int(np.argmax(np.where(g < 0.0, g, -np.inf)))
        for k in sorted({pos, neg}):
            self.offer(float(g[k]), v[k], labels[k], int(starts[k]))

    def done(self) -> bool:
        """Within TOL of the certified bound, which no evaluation can beat by
        more than TOL, or both sides of zero seen (a zero-gap mixture exists)."""
        return self.value <= self.lower + TOL or (self.pos is not None and self.neg is not None)

    def witness(self) -> tuple[np.ndarray, np.ndarray]:
        """The (isometry, labels) of the witness: the closest evaluation's, or
        once both sides of zero are seen, the zero-gap mixture of the two."""
        if self.pos is None or self.neg is None:
            return self.v, self.labels
        # g_pos > 0 > g_neg: the t : 1 - t mixture [sqrt(t) V_pos ; sqrt(1 - t) V_neg] has gap 0
        (g_pos, _, v_pos, labels_pos), (g_neg, _, v_neg, labels_neg) = self.pos, self.neg
        t = g_neg / (g_neg - g_pos)
        return (np.concatenate([np.sqrt(t) * v_pos, np.sqrt(1.0 - t) * v_neg]),
                np.concatenate([labels_pos, labels_neg + len(v_pos)]))  # the groups of V_neg after V_pos's


def _random_partition(rng: np.random.Generator, m: int) -> np.ndarray:
    """Labels drawn uniformly from a random number of groups, 1 to m."""
    n_groups = int(rng.integers(1, m + 1))
    return normalize_partition(rng.integers(0, n_groups, size=m), m)


class _LaneSet:
    """What a kernel call reads of its lanes besides their points, built once
    per lane search: each lane's c and observable (its probe's), and for sig
    and tau the flat indices of the real and imaginary parts of an (L, k, m)
    complex stack, a row of pairs per lane: pair (l, i, j) indexes row i,
    column labels[l, j] of lane l, where member j reads its group's column."""

    def __init__(self, engine: _Engine, probe: np.ndarray, labels: np.ndarray):
        self.c, self.a_sig, self.a_sig_h = engine.c[probe], engine.a_sig[probe], engine.a_sig_h[probe]
        (lanes, m), index = labels.shape, {}
        for k in {engine.d1 ** 2, engine.d2 ** 2}:
            column = np.arange(lanes * k).reshape(lanes, k, 1) * m + labels[:, None, :]
            index[k] = (2 * column[..., None] + (0, 1)).reshape(lanes, -1)
        self.sig, self.tau = index[engine.d1 ** 2], index[engine.d2 ** 2]

    def compact(self, live: np.ndarray) -> None:
        """Keep the lanes ``live`` (ascending), moved to the front in place by
        ``_compact``; a lane moved down j rows has its pairs lowered by j rows."""
        pairs = [self.sig] if self.tau is self.sig else [self.sig, self.tau]  # one array when d1 == d2
        self.c, self.a_sig, self.a_sig_h, *pairs = _compact([self.c, self.a_sig, self.a_sig_h, *pairs], live)
        for index in pairs:
            index -= (live - np.arange(live.size))[:, None] * index.shape[1]
        self.sig, self.tau = pairs[0], pairs[-1]


def _group_sums(members: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Sum the members (last axis) of each lane of an (L, ..., m) complex
    stack into groups, as an (L, k, m) stack: column c of lane l sums the
    members j with labels[l, j] == c, and a column no label names is zero.
    One weighted bincount over the real and imaginary parts, binned by the
    ``pairs`` of a ``_LaneSet``."""
    parts = np.ascontiguousarray(members).view(np.float64).ravel()
    sums = np.bincount(pairs.ravel(), parts, minlength=parts.size)
    return sums.view(np.complex128).reshape(len(members), -1, members.shape[-1])


def _compact(arrays, live: np.ndarray) -> list:
    """Move the rows ``live`` (ascending) of each C-contiguous array to its
    front, in order and in place, and return views of them. Each run of
    consecutive live rows moves as one flat copy to a lower address, which
    numpy makes without a temporary."""
    runs = np.split(live, np.flatnonzero(np.diff(live) > 1) + 1)
    for a in arrays:
        flat, width, dst = a.reshape(-1), a[0].size, 0
        for run in runs:
            if run[0] > dst:
                flat[dst * width:(dst + run.size) * width] = flat[run[0] * width:(run[-1] + 1) * width]
            dst += run.size
    return [a[:live.size] for a in arrays]


def _lane_search(engine: _Engine, lanes, max_iters: int, bests) -> None:
    """L-BFGS with Armijo backtracking on |c - S(x)|, for every search of
    one or many entries at once, each search a lane, stepped in lockstep.

    ``lanes`` holds the entries (probe, start index, searches), those of a
    probe together and in ascending start order; searches is a list of
    (x0, labels), each searched from its own x0, side by side, sharing
    the entry's ``max_iters`` evaluations: at each step, an entry with b
    evaluations left evaluates only its first b live searches and its other
    searches end. Every step evaluates one point per live lane with one
    kernel call and offers their polar factors to ``bests[probe]``. Trial
    points along a lane's search direction are evaluated until the Armijo
    test accepts one; only the accepted point is differentiated. The first
    step of a search, and any step after its memory is reset, has length
    FIRST_STEP along the steepest descent. A search ends when a trial
    changes |c - S| by at most STALL_REL of its value, after MAX_BACKTRACKS
    rejected trials, or at a zero gradient. A probe's lanes end once its
    best is done (``_Best.done``). Every test but the absolute one against
    TOL compares terms of equal degree in A, so those decisions are
    invariant under A -> cA.

    Each lane keeps its own accepted point, step length and L-BFGS memory.
    No lane reads another lane's state, nor an entry another's budget, so a
    search's trajectory does not depend on the lanes beside it; a probe's
    lanes share only its best. An ended lane leaves the arrays, compacted in
    place.
    """
    n = engine.n_params
    searches = [(k, p, i, x0, lab) for k, (p, i, work) in enumerate(lanes) for x0, lab in work]
    key, probe, start, pt, labels = map(np.array, zip(*searches))
    size = len(key)
    lane_set = _LaneSet(engine, probe, labels)
    left = np.full(len(lanes), max_iters)  # evaluations left, by (probe, start) entry
    # f = |g| at the accepted point x; f = inf with d = 0 marks the first point
    # of a search, which the Armijo test accepts and no stall test ends
    f, x, d, grad = np.full(size, np.inf), pt.copy(), np.zeros((size, n)), np.zeros((size, n))
    t, slope, gamma, count = np.ones(size), np.zeros(size), np.zeros(size), np.zeros(size, dtype=int)
    # L-BFGS memory: slot j of a lane holds (s, y, rho), newest pair in slot
    # 0; rho = 0 marks an empty slot, on which the two-loop recursion changes
    # nothing, and count bounds the filled slots. Slots are the leading axis,
    # so a shift copies whole slots and needs no temporary.
    mem = np.zeros((LBFGS_MEMORY, size, 2 * n + 1))
    ended = np.zeros(size, dtype=bool)
    for _ in range(max_iters):  # each step spends at least one of each live entry's evaluations
        # the rank of a live lane among its entry's live lanes, from 1
        live_so_far = np.cumsum(~ended)
        first = np.searchsorted(key, key)
        ended |= live_so_far - live_so_far[first] + ~ended[first] > left[key]
        if ended.any():  # retire: the live lanes move to the front, in place
            live = np.flatnonzero(~ended)
            if not live.size:
                return
            key, probe, start, labels, pt, x, d, grad, f, t, slope, gamma, count = _compact(
                (key, probe, start, labels, pt, x, d, grad, f, t, slope, gamma, count), live)
            _compact(mem, live)
            mem = mem[:, :live.size]
            lane_set.compact(live)
        gap = engine.signed_gap(pt, lane_set)
        left -= np.bincount(key, minlength=left.size)
        new = np.abs(gap)
        stall = (np.abs(new - f) <= STALL_REL * f) & np.isfinite(f)
        ended = stall.copy()
        cuts = [0, *(np.flatnonzero(np.diff(probe)) + 1), len(probe)]
        for lo, hi in zip(cuts, cuts[1:]):  # each probe's lanes, in lane order, to its best
            best = bests[probe[lo]]
            best.offer_lanes(gap[lo:hi], engine.v[lo:hi], labels[lo:hi], start[lo:hi])
            ended[lo:hi] |= best.done()
        accept = ~ended & (new <= f + ARMIJO * t * slope)
        if accept.any():
            new_grad = np.sign(gap)[:, None] * engine.gradient()
            y = new_grad - grad
            sy = t * _rowdot(d, y)
            push = accept & (sy > 0.0)  # d = 0 at a first point, so it pushes nothing
            if push.any():  # the new pair goes to slot 0, the oldest off the end
                row = push[:, None]
                for j in range(min(count.max(), LBFGS_MEMORY - 1), 0, -1):
                    np.copyto(mem[j], mem[j - 1], where=row)
                np.multiply(t[:, None], d, out=mem[0, :, :n], where=row)
                np.copyto(mem[0, :, n:-1], y, where=row)
                np.divide(1.0, sy[:, None], out=mem[0, :, -1:], where=row)
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
                alphas.append(rho[j] * (s_row[j] @ q_col))
                q_row -= alphas[j] * y_row[j]
            q *= -gamma[:, None]
            for j in reversed(range(len(alphas))):
                q_row -= (rho[j] * (y_row[j] @ q_col) + alphas[j]) * s_row[j]
            steep = accept & (_rowdot(grad, q) >= 0.0)
            if steep.any():  # steepest descent of length FIRST_STEP; resets the memory
                norm = np.sqrt(_rowdot(grad[steep], grad[steep]))
                ended[steep] |= norm == 0.0  # a stationary point ends the search
                q[steep] = grad[steep] * (-FIRST_STEP / np.where(norm > 0.0, norm, 1.0))[:, None]
                gamma[steep], count[steep], mem[:, steep, -1] = 0.0, 0, 0.0
            np.copyto(d, q, where=accept[:, None])
            np.copyto(slope, _rowdot(grad, d), where=accept)
        # t halves on each rejected trial, so 2^-MAX_BACKTRACKS ends the search
        t = np.where(accept, 1.0, 0.5 * t)
        ended |= t <= 0.5 ** MAX_BACKTRACKS
        np.multiply(d, t[:, None], out=pt)
        pt += x


def _solve(rho: BipartiteState, observables, cfg: OptimizerConfig,
           extra_starts=()) -> list[CorrelationResult]:
    """``minimize_d0`` for each observable of a stack, the probes, on one
    state, in the phases (A), (B) and (C) of the module docstring. A probe's
    searches, budgets and best are its own, so its result is the one it gets
    alone. (C) runs per probe to bound the lanes held at once."""
    dim = rho.space.dim
    a = np.array([_observable(x, dim) for x in observables])
    if dim > MAX_OPT_DIM:
        raise ConfigInvalid(f"optimizer supports total dimension <= {MAX_OPT_DIM}, got {dim}")
    m = cfg.m if cfg.m is not None else dim ** 2
    engine = _Engine(rho, a, m)
    warm = [(engine.coords(v), normalize_partition(pt, m)) for v, pt in extra_starts]
    bests = [_Best(lower) for lower in engine.lower]
    x_id = engine.coords(np.eye(m))  # the isometry at theta = 0

    # {1, rho}, the merge-everything partition (every label 0), does not
    # depend on the isometry: evaluate it once, beside the chords that attain
    # the envelope at rank 2, each with the singleton partition
    points = np.concatenate([np.broadcast_to(x_id, (len(a), 1, x_id.size)), engine.chords], axis=1)
    k = points.shape[1]
    labels = np.zeros((len(a), k, m), dtype=np.intp)
    labels[:, 1:] = singleton_partition(m)
    gap = engine.signed_gap(points.reshape(-1, x_id.size),
                            _LaneSet(engine, np.repeat(np.arange(len(a)), k), labels.reshape(-1, m)))
    for p, best in enumerate(bests):  # slices: a view left bound would keep the kernel's stack alive
        rows = slice(p * k, (p + 1) * k)
        best.offer_lanes(gap[rows], engine.v[rows], labels[p], np.zeros(k, dtype=int))

    @functools.cache
    def work(i):  # start i's searches, drawn from (seed, i) once per solve
        rng = np.random.default_rng((cfg.seed, i))
        theta = rng.standard_normal(m * m) * (np.pi / (2.0 * np.sqrt(m))) if i else None
        x0 = engine.coords(expm_antihermitian(theta, m)) if i else x_id
        parts = [singleton_partition(m)] + [_random_partition(rng, m) for _ in range(N_RANDOM_PARTITIONS)]
        return (warm if i == 0 else []) + [(x0, labels) for labels in parts]

    open_probes = [p for p, best in enumerate(bests) if not best.done()]
    alone = [p for p in open_probes if engine.lower[p] <= TOL]
    starts_used = [0] * len(a)
    if alone:
        _lane_search(engine, [(p, 0, work(0)) for p in alone], cfg.max_iters, bests)
    for p in open_probes:
        starts_used[p] = first = int(p in alone)  # 1 where start 0 ran above
        if first < cfg.starts and not bests[p].done():
            _lane_search(engine, [(p, i, work(i)) for i in range(first, cfg.starts)], cfg.max_iters, bests)
            starts_used[p] = cfg.starts

    ensembles = ensembles_from_isometries(rho, *zip(*(best.witness() for best in bests)))
    return [CorrelationResult(value=abs(lhs - rhs), lower=float(engine.lower[p]), ensemble=ensembles[p],
                              starts_used=starts_used[p], argmin_isometry=best.v, argmin_partition=best.labels)
            for p, (best, (lhs, rhs)) in enumerate(zip(bests, _decomposition_terms(ensembles, a)))]


def minimize_d0(rho: BipartiteState, a: np.ndarray, cfg: OptimizerConfig | None = None,
                extra_starts=()) -> CorrelationResult:
    """Multi-start minimization of the decomposition gap for one observable,
    the one-probe case of ``_solve``: one L-BFGS driver runs every search of
    every start as a lane, start 0 first and alone where it can end the
    search, then the other starts as lanes of one batch.

    ``extra_starts`` is an optional sequence of (isometry, partition) warm
    starts, each searched first within start 0 and sharing its budget (used
    for continuation sweeps and cardinality embeddings); it does not affect
    determinism. An isometry is an m x n matrix, n >= r = rank rho, read
    like ``ensemble_from_unitary`` reads it: only its first r columns,
    which must be orthonormal. A malformed one raises DimensionMismatch.
    The value is ``d0_objective`` recomputed on the witness ensemble.
    """
    return _solve(rho, [a], cfg or OptimizerConfig(), extra_starts)[0]


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
    pe = boxtimes(res.ensemble)
    joint, fact = evaluate_boxtimes(pe, ab), factored_product_value(pe, a, b)
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
    if is_ppt(pt_min):
        return None
    proj = BipartiteState(rho.space, np.outer(eta, eta.conj()))
    return partial_transpose(proj)


def classify(lower: float, ppt_min: float, dims: tuple[int, int]) -> str:
    """Verdict from certificates only, the largest certified bound over the
    probes and the smallest partial-transpose eigenvalue: Entangled iff
    ``lower`` > 0 (d0 >= lower, and d0 is 0 on separable states), before
    PPT_ATOL is read; else Separable iff PPT where that is exact (2x2, 2x3,
    a trivial factor); else Inconclusive. No d0 upper bound is read."""
    if lower > 0.0:
        return ENTANGLED
    if (1 in dims or dims in PPT_EXACT_DIMS) and is_ppt(ppt_min):
        return SEPARABLE
    return INCONCLUSIVE


def separability_verdict(rho: BipartiteState, cfg: OptimizerConfig | None = None,
                         n_observables: int = N_RANDOM_PROBES) -> VerdictResult:
    """Aggregate the minimizer over a probe set of Hermitian observables:
    the canonical partial-transpose witness when one exists, and
    ``n_observables`` (an integer >= 0, else ConfigInvalid) seeded random probes.

    The infimum is taken independently per probe, by one solve of all the
    probes (``_solve``) that gives each the value ``minimize_d0`` gives it
    alone; the verdict never assumes a decomposition shared across
    observables. ``classify`` reads the largest certified bound. The
    witness is the first probe with the largest bound above 0, else the
    identity, whose d0 is 0 for every state; with no probe nothing is solved.
    """
    _check_integer("n_observables", n_observables, 0)
    cfg = cfg or OptimizerConfig()
    dim = rho.space.dim
    pt_min, eta = ppt_min_eig_and_vector(rho)

    witness, rng = _pt_witness(rho, pt_min, eta), np.random.default_rng((cfg.seed, 10_000))
    probes = ([("pt-witness", witness)] if witness is not None else []) + [
        (f"random-{k}", random_hermitian_probe(rng, dim)) for k in range(n_observables)]

    solved = _solve(rho, [a for _, a in probes], cfg) if probes else []
    results = tuple((label, res.lower, res.value) for (label, _), res in zip(probes, solved))
    max_d0 = max((res.value for res in solved), default=0.0)
    # the identity, then the probes: max keeps the first of the largest bounds
    lower, max_probe = max([(0.0, np.eye(dim, dtype=np.complex128))] + [
        (res.lower, a) for (_, a), res in zip(probes, solved)], key=lambda pair: pair[0])

    verdict = classify(lower, pt_min, (rho.space.d1, rho.space.d2))
    return VerdictResult(verdict=verdict, max_d0=float(max_d0), lower=float(lower),
                         witness=max_probe, probes=results)
