"""Reference computations for the benchmark's correctness gates.

Everything here is plain numpy written against the mathematical
definitions, not against qcorr's code paths: partial traces and the partial
transpose by reshaping, the explicit tetrahedral twirl decomposition of a
Werner state, map application from the Choi matrix, and the intertwining
identities of the GNS constructions.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
I2 = np.eye(2, dtype=np.complex128)


def singlet_projector() -> np.ndarray:
    v = np.array([0, 1, -1, 0], dtype=np.complex128) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def werner_rho(p: float) -> np.ndarray:
    return p * singlet_projector() + (1.0 - p) * np.eye(4, dtype=np.complex128) / 4.0


def canonical_witness() -> np.ndarray:
    """(1/2) 1 - singlet projector: nonnegative on product states."""
    return 0.5 * np.eye(4, dtype=np.complex128) - singlet_projector()


def marginals(x: np.ndarray, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    x4 = x.reshape(d1, d2, d1, d2)
    return np.trace(x4, axis1=1, axis2=3), np.trace(x4, axis1=0, axis2=2)


def partial_transpose(x: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Transpose on the first factor."""
    return x.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)


def pt_min_eig(x: np.ndarray, d1: int, d2: int) -> float:
    return float(np.linalg.eigvalsh(partial_transpose(x, d1, d2))[0])


def decomposition_gap(rho: np.ndarray, weights, members, a: np.ndarray, d1: int, d2: int) -> float:
    """|Tr(rho A) - sum_i w_i Tr[(sigma_i (x) tau_i) A]| for one decomposition."""
    lhs = np.trace(rho @ a)
    rhs = 0.0
    for w, m in zip(weights, members):
        s, t = marginals(m, d1, d2)
        rhs += w * np.trace(np.kron(s, t) @ a)
    return float(abs(lhs - rhs))


def decomposition_residual(rho: np.ndarray, weights, members) -> float:
    """Largest violation of: weights a probability vector, members unit-trace
    PSD, weighted sum equal to rho."""
    w = np.asarray(weights, dtype=float)
    worst = max(abs(w.sum() - 1.0), max(0.0, -w.min()))
    acc = np.zeros_like(rho)
    for wi, m in zip(w, members):
        herm = np.max(np.abs(m - m.conj().T))
        eig = np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0]
        worst = max(worst, herm, abs(np.trace(m) - 1.0), max(0.0, -eig))
        acc = acc + wi * m
    return float(max(worst, np.linalg.norm(acc - rho)))


def _su2(axis, angle: float) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    return np.cos(angle / 2) * I2 - 1j * np.sin(angle / 2) * (n[0] * SX + n[1] * SY + n[2] * SZ)


def _tetrahedral_group() -> list[np.ndarray]:
    us = [I2]
    us += [_su2(ax, np.pi) for ax in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    us += [_su2((sx, sy, 1), ang) for sx in (1, -1) for sy in (1, -1)
           for ang in (2 * np.pi / 3, -2 * np.pi / 3)]
    return us


def werner_twirl_value(p: float) -> float:
    """Gap of the canonical witness on the explicit 12-member twirl
    decomposition of the Werner state (p >= 1/3): pure members
    (U (x) U)(cos t|01> - sin t|10>) with sin 2t = (3p-1)/2 over the
    tetrahedral 2-design. It is an attainable value, so any optimizer
    result far above it is a search failure."""
    t = np.arcsin((3.0 * p - 1.0) / 2.0) / 2.0
    phi = np.array([0, np.cos(t), -np.sin(t), 0], dtype=np.complex128)
    members = []
    for u in _tetrahedral_group():
        vec = np.kron(u, u) @ phi
        members.append(np.outer(vec, vec.conj()))
    weights = np.full(len(members), 1.0 / len(members))
    rho = werner_rho(p)
    if decomposition_residual(rho, weights, members) > 1e-12:
        raise AssertionError(f"twirl ensemble does not decompose the Werner state at p={p}")
    return decomposition_gap(rho, weights, members, canonical_witness(), 2, 2)


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T


def apply_choi(choi: np.ndarray, d: int, x: np.ndarray) -> np.ndarray:
    """alpha(x) from the Choi matrix sum_kl E_kl (x) alpha(E_kl)."""
    out = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            out += x[k, l] * choi[k * d:(k + 1) * d, l * d:(l + 1) * d]
    return out


def _realify_vec(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag])


def _realify_op(m: np.ndarray) -> np.ndarray:
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _hermitian_basis(d: int) -> list[np.ndarray]:
    out = []
    for k in range(d):
        e = np.zeros((d, d), dtype=np.complex128)
        e[k, k] = 1.0
        out.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            for val in (1.0, 1j):
                e = np.zeros((d, d), dtype=np.complex128)
                e[k, l], e[l, k] = val / np.sqrt(2.0), np.conj(val) / np.sqrt(2.0)
                out.append(e)
    return out


def intertwiner_certificate(v: np.ndarray, tilde_omega: np.ndarray, choi: np.ndarray,
                            rho: np.ndarray, doubled: bool) -> dict:
    """Recompute the certified quantities of an intertwiner V.

    Doubled: V pi(a) V† rho^{1/2} = alpha(a) rho^{1/2} for every matrix unit
    a, with pi(a) = (a (x) 1_r) (+) (1_r (x) a^T), and ||V|| <= sqrt(2).
    Single: the same identity in realified coordinates over a Hermitian
    basis, with pi(h) = h (x) 1_r, and ||V|| <= 1. Both: V† rho^{1/2} is
    the class of the unit.
    """
    d = rho.shape[0]
    r = v.shape[1] // (2 * d)
    sqrt_rho = psd_sqrt(rho)
    eye_r = np.eye(r, dtype=np.complex128)
    if doubled:
        sr = sqrt_rho.reshape(-1)
        vh_sr = v.conj().T @ sr
        basis = [np.eye(d * d, dtype=np.complex128)[i].reshape(d, d) for i in range(d * d)]
        residual = 0.0
        for a in basis:
            pi = np.zeros((2 * d * r, 2 * d * r), dtype=np.complex128)
            pi[:d * r, :d * r] = np.kron(a, eye_r)
            pi[d * r:, d * r:] = np.kron(eye_r, a.T)
            target = (apply_choi(choi, d, a) @ sqrt_rho).reshape(-1)
            residual = max(residual, float(np.linalg.norm(v @ (pi @ vh_sr) - target)))
        bound = float(np.sqrt(2.0))
    else:
        sr = _realify_vec(sqrt_rho.reshape(-1))
        vh_sr = v.T @ sr
        residual = 0.0
        for h in _hermitian_basis(d):
            pi = _realify_op(np.kron(h, eye_r))
            target = _realify_vec((apply_choi(choi, d, h) @ sqrt_rho).reshape(-1))
            residual = max(residual, float(np.linalg.norm(v @ (pi @ vh_sr) - target)))
        bound = 1.0
    return {
        "residual": residual,
        "v_norm": float(np.linalg.norm(v, 2)),
        "bound": bound,
        "unit_residual": float(np.linalg.norm(vh_sr - tilde_omega)),
    }
