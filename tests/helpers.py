"""Shared fixtures and independent oracle implementations for the tests.

The oracles here (loop-based partial trace/transpose, the anti-aligned
twirl decomposition of Werner states) deliberately avoid the library code
paths they are used to check. ``_gradient_search`` is the one-point L-BFGS
search, one start's partition search at a time, that the lane driver
``_lane_search`` must reproduce. ``point_gap`` evaluates the gap kernel at
one point as a call of one lane. ``loop_tilde_coords`` and
``loop_intertwining_residual`` are the per-element coordinates and
certified residual, built on the dense ``rep``/``tilde_rep`` matrices, that
the stacked GNS build must reproduce. ``loop_validate_density``,
``loop_ensemble_from_unitary``, ``loop_boxtimes`` and
``loop_evaluate_boxtimes`` are the one-member-at-a-time witness recompute
that the stacked ensemble code must reproduce.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from qcorr.bipartite import TRACE_ATOL, BipartiteSpace, BipartiteState
from qcorr.correlation import (ARMIJO, FIRST_STEP, LBFGS_MEMORY, MAX_BACKTRACKS, STALL_REL, _Best, _Engine,
                               _LaneSet)
from qcorr.errors import BadPartition, InvalidDensityMatrix, NotHermitian
from qcorr.gns import LocalDecomposition, _INV_SQRT2
from qcorr.linalg import PSD_CLAMP, dagger, hermitian_basis, matrix_units, psd_sqrt, require_hermitian
from qcorr.measures import ZERO_WEIGHT_TOL, Ensemble, normalize_partition, state_spectral_data
from qcorr.posmaps import PositiveMapSpec, apply_map

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def singlet_proj() -> np.ndarray:
    v = np.zeros(4, dtype=np.complex128)
    v[1], v[2] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def canonical_witness() -> np.ndarray:
    """(1/2) 1 - singlet projector; nonnegative on all product states."""
    return 0.5 * np.eye(4, dtype=np.complex128) - singlet_proj()


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2.0


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def separable_state(k: int, rng: np.random.Generator, pure: bool = False) -> BipartiteState:
    """Explicit convex combination of k product states on 2x2."""
    w = rng.dirichlet(np.ones(k))
    acc = np.zeros((4, 4), dtype=np.complex128)
    for i in range(k):
        if pure:
            acc += w[i] * np.kron(random_pure(2, rng), random_pure(2, rng))
        else:
            acc += w[i] * np.kron(random_density(2, rng), random_density(2, rng))
    return BipartiteState(BipartiteSpace(2, 2), acc)


def horodecki_ppt_state(a: float = 0.5) -> BipartiteState:
    """Horodecki's 3x3 state, PPT and entangled for 0 < a < 1 (P. Horodecki,
    Phys. Lett. A 232, 333 (1997)): a on the diagonal and between |00>,
    |11> and |22>, with the |20>, |22> block [[1 + a, b], [b, 1 + a]] / 2,
    b = sqrt(1 - a^2), all over 8a + 1."""
    rho = np.zeros((9, 9))
    rho[np.ix_([0, 4, 8], [0, 4, 8])] = a
    rho[np.diag_indices(9)] = a
    rho[6, 6] = rho[8, 8] = (1.0 + a) / 2.0
    rho[6, 8] = rho[8, 6] = np.sqrt(1.0 - a * a) / 2.0
    return BipartiteState(BipartiteSpace(3, 3), rho / (8.0 * a + 1.0))


def naive_partial_trace_second(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Loop-based partial trace over the second factor."""
    out = np.zeros((d1, d1), dtype=np.complex128)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out[i, j] += rho[i * d2 + k, j * d2 + k]
    return out


def naive_partial_trace_first(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    out = np.zeros((d2, d2), dtype=np.complex128)
    for i in range(d2):
        for j in range(d2):
            for k in range(d1):
                out[i, j] += rho[k * d2 + i, k * d2 + j]
    return out


def naive_partial_transpose_first(rho: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Loop-based transpose on the first factor."""
    out = np.zeros_like(rho)
    for i1 in range(d1):
        for i2 in range(d2):
            for j1 in range(d1):
                for j2 in range(d2):
                    out[i1 * d2 + i2, j1 * d2 + j2] = rho[j1 * d2 + i2, i1 * d2 + j2]
    return out


def su2_rotation(axis, angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * (n[0] * SX + n[1] * SY + n[2] * SZ)


def tetrahedral_unitaries() -> list[np.ndarray]:
    """The 12 rotation unitaries of the tetrahedral group (a unitary
    2-design for qubits): identity, the three pi rotations about the
    coordinate axes, and the eight +-2pi/3 rotations about the body
    diagonals."""
    us = [I2.copy()]
    for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        us.append(su2_rotation(ax, np.pi))
    for sx in (1, -1):
        for sy in (1, -1):
            for angle in (2 * np.pi / 3, -2 * np.pi / 3):
                us.append(su2_rotation((sx, sy, 1), angle))
    return us


def werner_twirl_ensemble(p: float) -> Ensemble:
    """Explicit 12-member decomposition of the Werner state with singlet
    weight p >= 1/3 into pure states whose marginal pairs are anti-aligned.

    Each member is (U x U) phi with phi = cos(t)|01> - sin(t)|10> and
    sin(2t) = (3p - 1)/2, twirled over the tetrahedral 2-design. Every
    member contributes exactly (3p-1)^2/16 to the decorrelated value of the
    canonical witness, which certifies that floor as attainable.
    """
    c = (3.0 * p - 1.0) / 2.0
    if not (0.0 <= c <= 1.0):
        raise ValueError("twirl decomposition needs p in [1/3, 1]")
    t = np.arcsin(c) / 2.0
    phi = np.zeros(4, dtype=np.complex128)
    phi[1], phi[2] = np.cos(t), -np.sin(t)
    members = []
    for u in tetrahedral_unitaries():
        vec = np.kron(u, u) @ phi
        members.append(np.outer(vec, vec.conj()))
    space = BipartiteSpace(2, 2)
    bary = BipartiteState(space, sum(members) / len(members))
    weights = np.full(len(members), 1.0 / len(members))
    return Ensemble(space, weights, tuple(members), bary)


def werner_third_product_ensemble(extra_identity_weight: float = 0.0) -> Ensemble:
    """Explicit product decomposition of the boundary Werner state: the
    equal mixture of the six anti-aligned Pauli-axis product states, plus
    an optional maximally mixed component (yielding Werner states with
    smaller singlet weight)."""
    plus = {
        "x": np.array([1, 1], dtype=np.complex128) / np.sqrt(2),
        "y": np.array([1, 1j], dtype=np.complex128) / np.sqrt(2),
        "z": np.array([1, 0], dtype=np.complex128),
    }
    minus = {
        "x": np.array([1, -1], dtype=np.complex128) / np.sqrt(2),
        "y": np.array([1, -1j], dtype=np.complex128) / np.sqrt(2),
        "z": np.array([0, 1], dtype=np.complex128),
    }
    members = []
    for axis in ("x", "y", "z"):
        for first, second in ((plus, minus), (minus, plus)):
            a, b = first[axis], second[axis]
            members.append(np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())))
    weights = [(1.0 - extra_identity_weight) / 6.0] * 6
    if extra_identity_weight > 0.0:
        members.append(np.eye(4, dtype=np.complex128) / 4.0)
        weights.append(extra_identity_weight)
    space = BipartiteSpace(2, 2)
    bary = BipartiteState(space, sum(w * m for w, m in zip(weights, members)))
    return Ensemble(space, np.asarray(weights), tuple(members), bary)


def point_gap(engine: _Engine, x: np.ndarray, labels) -> float:
    """The engine's signed gap at one point x (2mr,) with one partition of m
    group labels, as a one-lane kernel call of its first probe;
    ``engine.gradient()[0]`` is its gradient."""
    lanes = _LaneSet(engine, np.zeros(1, dtype=int), normalize_partition(labels, engine.m)[None])
    return engine.signed_gap(x[None], lanes)[0]


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


def _gradient_search(engine: _Engine, labels, x0: np.ndarray, budget: int, best: _Best) -> int:
    """L-BFGS with Armijo backtracking on |c - S(x)|.

    Trial points along the search direction are evaluated until the Armijo
    test accepts one; only the accepted point is differentiated. The first
    step, and any step after the memory is reset, has length FIRST_STEP
    along the steepest descent. The search ends once ``best`` is done
    (within TOL, or evaluations seen on both sides of zero, which includes
    any zero crossing of this search), on spending ``budget`` evaluations,
    or when a trial changes the objective by at most STALL_REL of its value.
    Every test but the absolute one against TOL compares terms of equal
    degree in A, so those decisions are invariant under A -> cA.
    """
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        g = point_gap(engine, x, labels)
        best.offer(g, engine.v[0], labels)
        return g

    x, g = x0, f(x0)
    grad, step = None, None
    memory: deque = deque(maxlen=LBFGS_MEMORY)
    while not best.done():
        new_grad = np.sign(g) * engine.gradient()[0]
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
            if best.done() or abs(abs(g_new) - abs(g)) <= STALL_REL * abs(g):
                return evals
            if abs(g_new) <= abs(g) + ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return evals
        step = t * d
        x, g = x + step, g_new
    return evals


def _realify(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def intertwiner_basis(ld: LocalDecomposition) -> np.ndarray:
    """The basis an intertwiner is certified on: matrix units for the
    doubled variant, the Hermitian basis for the single one."""
    return matrix_units(ld.left.d) if ld.right is not None else hermitian_basis(ld.left.d)


def loop_tilde_coords(ld: LocalDecomposition, a: np.ndarray) -> np.ndarray:
    """Coordinates of the class of one element a, as the dense
    representation matrix applied to the class of the unit."""
    left = ld.left.rep(a) @ ld.left.omega_vec
    if ld.right is None:
        return _realify(left)
    return np.concatenate([left * _INV_SQRT2, (ld.right.rep(a) @ ld.right.omega_vec) * _INV_SQRT2])


def loop_intertwining_residual(ld: LocalDecomposition, alpha: PositiveMapSpec,
                               rho: np.ndarray) -> float:
    """max_k ||V pi~(a_k) V† sqrt(rho) - alpha(a_k) sqrt(rho)||, one basis
    element at a time with pi~(a_k) formed by ``ld.tilde_rep``."""
    sqrt_rho = psd_sqrt(rho)
    vh_sr = dagger(ld.v) @ ld.sqrt_rho_vec
    res = 0.0
    for a in intertwiner_basis(ld):
        y = (apply_map(alpha, a) @ sqrt_rho).reshape(-1)
        y = y if ld.right is not None else _realify(y)
        lhs = ld.v @ (ld.tilde_rep(a) @ vh_sr)
        res = max(res, float(np.linalg.norm(lhs - y)))
    return res


def loop_validate_density(members, dim: int, name: str) -> None:
    """Check each member in turn (Hermitian, dimension, unit trace, PSD),
    raising InvalidDensityMatrix for the first failure as
    ``f"{name} {i} ..."``."""
    for i, rho in enumerate(members):
        who = f"{name} {i}"
        try:
            rho = require_hermitian(rho, name=who)
        except NotHermitian as exc:
            raise InvalidDensityMatrix(str(exc)) from exc
        if rho.shape[0] != dim:
            raise InvalidDensityMatrix(f"{who} has dimension {rho.shape[0]}, expected {dim}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise InvalidDensityMatrix(f"{who} trace {tr} != 1")
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2.0)
        if w[0] < -PSD_CLAMP:
            raise InvalidDensityMatrix(f"{who} min eigenvalue {w[0]:.3e} < -{PSD_CLAMP:.1e}")


def loop_ensemble_from_unitary(rho: BipartiteState, u: np.ndarray, labels):
    """Weights and members of ``ensemble_from_unitary``, one group at a time:
    the pieces of each distinct label, labels in ascending order."""
    p, psi = state_spectral_data(rho)
    r = p.size
    phi = psi @ (np.sqrt(p)[:, None] * u[:, :r].conj().T)
    labels = np.asarray(labels)
    weights, members = [], []
    for label in sorted(set(labels.tolist())):
        block = phi[:, labels == label]
        lam = float(np.einsum("ij,ij->", block, block.conj()).real)
        if lam < ZERO_WEIGHT_TOL:
            continue
        x = block @ block.conj().T
        members.append((x + x.conj().T) / (2.0 * lam))
        weights.append(lam)
    if not weights:
        raise BadPartition("all groups carried zero weight")
    w = np.asarray(weights)
    return w / w.sum(), members


def loop_boxtimes(members, d1: int, d2: int):
    """First and second marginals of each member, by the loop partial traces."""
    return ([naive_partial_trace_second(m, d1, d2) for m in members],
            [naive_partial_trace_first(m, d1, d2) for m in members])


def loop_evaluate_boxtimes(weights, firsts, seconds, a: np.ndarray) -> complex:
    """sum_i w_i Tr[(sigma_i (x) tau_i) A], one member at a time."""
    return complex(sum(w * np.trace(np.kron(s, t) @ a) for w, s, t in zip(weights, firsts, seconds)))
