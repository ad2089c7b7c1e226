"""Cyclic representations induced by a state on a matrix algebra, the
right-kernel anti-representation, and the intertwiner construction with
verified norm certificates.

Coordinates are Hilbert-Schmidt throughout. For a density matrix w on C^d
with spectral data (p_j, v_j), the left form <a, b> = Tr(w a†b) is realized
on matrices supported on range(w) from the right, with orthonormal basis
{|i><v_j|}; left multiplication is then exactly a (x) 1_r, which on the
coordinates Z (d x r, row-major) is a @ Z. The right form Tr(w b a†) is
realized with basis {|v_i><j|}; right multiplication is 1_r (x) a^T, which
on Z (r x d) is Z @ a. So coordinates, targets and the certified residual
are matrix products over the whole (K, d, d) basis stack, with no Kronecker
product formed. The 1/2-weighted inner product of the doubled space is
absorbed into the coordinates by scaling both summands by 1/sqrt(2), so
adjoints are plain conjugate transposes everywhere.

The single-representation intertwiner is only defined on the real span of
the self-adjoint orbit, so that variant is built in realified coordinates
(real + imaginary parts stacked) where the real-linear extension by zero
and the real adjoint are ordinary matrix operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDensityMatrix, MapNotUnital, WellDefinednessFailure
from .bipartite import validate_density
from .linalg import (
    as_matrix,
    dagger,
    hermitian_basis,
    matrix_units,
    operator_norm,
    psd_sqrt,
    psd_support,
)
from .posmaps import PositiveMapSpec, apply_map, is_unital

# Singular values below this (relative) are treated as null directions of
# the defining data.
SVD_CUTOFF_REL = 1e-10
# A null direction whose target exceeds this norm signals a non-positive map.
WELLDEF_TARGET_TOL = 1e-8
# Scale of each summand of the doubled space; multiplied in, since dividing by
# sqrt(2) rounds differently and would shift the certified residuals.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class GnsRepresentation:
    """Cyclic representation data in orthonormal coordinates.

    ``rep(a)`` gives the (anti-)representation matrix; ``omega_vec`` is the
    class of the unit.
    """

    d: int
    dim: int
    rank: int
    omega_vec: np.ndarray
    anti: bool
    carrier: np.ndarray  # S = V sqrt(p) (left) or T = sqrt(p) V† (right)

    def rep(self, a: np.ndarray) -> np.ndarray:
        a = as_matrix(a, "a")
        if a.shape != (self.d, self.d):
            raise DimensionMismatch(f"element shape {a.shape} != ({self.d}, {self.d})")
        eye = np.eye(self.rank, dtype=np.complex128)
        if self.anti:
            return np.kron(eye, a.T)
        return np.kron(a, eye)

    def act(self, a: np.ndarray, z: np.ndarray) -> np.ndarray:
        """``rep(a) @ z`` for a or each matrix of a stack: a @ Z, or Z @ a
        when anti, with Z the vector z reshaped like the carrier."""
        zm = z.reshape(self.carrier.shape)
        out = zm @ a if self.anti else a @ zm
        return out.reshape(*a.shape[:-2], -1)

    def coords(self, a: np.ndarray) -> np.ndarray:
        """Orthonormal coordinates of the class of a (of each matrix of a
        stack): a acting on the class of the unit."""
        return self.act(a, self.omega_vec)


def _gns(w: np.ndarray) -> tuple[GnsRepresentation, GnsRepresentation]:
    """Left representation and right anti-representation of a validated
    density: one carrier, conjugate-transposed for the right."""
    p, v = psd_support(w)
    s = v * np.sqrt(p)  # d x r, equals w^{1/2} restricted to its support
    d, r = s.shape
    return tuple(GnsRepresentation(d=d, dim=d * r, rank=r, omega_vec=c.reshape(-1), anti=anti,
                                   carrier=c)
                 for c, anti in ((s, False), (s.conj().T, True)))


def gns_left(d: int, omega_density) -> GnsRepresentation:
    """Representation from the left form <a, b> = Tr(w a†b).

    The Gram matrix of the form in the matrix-unit basis is 1_d (x) w^T, so
    its positive spectrum is the spectrum of w with multiplicity d; the
    quotient keeps d * rank(w) dimensions.
    """
    return _gns(validate_density(omega_density, d, "omega_density"))[0]


def gns_right(d: int, omega_density) -> GnsRepresentation:
    """Anti-representation from the right form <a, b> = Tr(w b a†);
    right multiplication reverses products."""
    return _gns(validate_density(omega_density, d, "omega_density"))[1]


@dataclass(frozen=True)
class LocalDecomposition:
    """Intertwiner data: V maps the representation space into
    Hilbert-Schmidt coordinates of alpha(M_d) rho^{1/2}, with
    V pi(a) V† rho^{1/2} = alpha(a) rho^{1/2} on the verified span and
    operator_norm(V) <= norm_bound."""

    left: GnsRepresentation
    right: GnsRepresentation | None
    tilde_omega: np.ndarray
    v: np.ndarray
    norm_bound: float
    residual_max: float
    v_norm: float
    sqrt_rho_vec: np.ndarray

    @property
    def dim_gns(self) -> int:
        return self.left.dim if self.right is None else 2 * self.left.dim

    def tilde_rep(self, a: np.ndarray) -> np.ndarray:
        """Representation matrix in the coordinates V acts on."""
        return _tilde_rep(self.left, self.right, a)


def _realify_vec(z: np.ndarray) -> np.ndarray:
    return np.concatenate([z.real, z.imag], axis=-1)


def _realify_op(m: np.ndarray) -> np.ndarray:
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _tilde_rep(left: GnsRepresentation, right: GnsRepresentation | None,
               a: np.ndarray) -> np.ndarray:
    """The realified left representation, or with ``right`` the
    block-diagonal doubled representation (left and right are equal-sized)."""
    if right is None:
        return _realify_op(left.rep(a))
    m1, m2 = left.rep(a), right.rep(a)
    return np.block([[m1, np.zeros_like(m2)], [np.zeros_like(m1), m2]])


def _tilde_coords(left: GnsRepresentation, right: GnsRepresentation | None,
                  a: np.ndarray) -> np.ndarray:
    """Coordinates of the class of a (of each matrix of a stack) in the
    space ``_tilde_rep`` acts on: the realified left coordinates, or with
    ``right`` both summands scaled by 1/sqrt(2)."""
    if right is None:
        return _realify_vec(left.coords(a))
    return np.concatenate([left.coords(a) * _INV_SQRT2, right.coords(a) * _INV_SQRT2], axis=-1)


def _act(left: GnsRepresentation, right: GnsRepresentation | None,
         a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``_tilde_rep(a) @ z`` for each matrix of a (K, d, d) stack, as
    (K, len(z)). On the left block a (x) 1_r acting on Z (d x r, row-major)
    is a @ Z; on the right block 1_r (x) a^T acting on Z (r x d) is Z @ a.
    The single variant realifies along the last axis."""
    n = left.dim
    if right is None:
        return _realify_vec(left.act(a, z[:n] + 1j * z[n:]))
    return np.concatenate([left.act(a, z[:n]), right.act(a, z[n:])], axis=-1)


def _induced_state_density(alpha: PositiveMapSpec, rho: np.ndarray) -> np.ndarray:
    """Density matrix of a -> Tr(rho alpha(a)), i.e. the adjoint map applied
    to rho. Fails when alpha is not positive enough to produce a state."""
    c4 = alpha.choi4
    x = np.einsum("ab,kbla->lk", rho, c4)
    try:
        return validate_density(x, alpha.d, "induced state")
    except InvalidDensityMatrix as exc:
        raise WellDefinednessFailure(
            f"functional Tr(rho alpha(.)) is not a state ({exc}); map is not positive") from exc


def _solve_intertwiner(x: np.ndarray, y: np.ndarray, elements: list[np.ndarray]):
    """Least-squares V with V x_k = y_k, zero on the orthocomplement.

    Null directions of the defining data must have vanishing targets;
    otherwise the map the data came from cannot be positive.
    """
    u, sing, wt = np.linalg.svd(x, full_matrices=False)
    smax = sing[0] if sing.size else 0.0
    cut = SVD_CUTOFF_REL * max(1.0, smax)
    keep = sing > cut
    for i in np.nonzero(~keep)[0]:
        w_dir = wt[i].conj()
        target = float(np.linalg.norm(y @ w_dir))
        if target > WELLDEF_TARGET_TOL:
            combo = sum(c * e for c, e in zip(w_dir, elements))
            raise WellDefinednessFailure(
                "null vector of the representation has nonvanishing image "
                f"(norm {target:.3e}); offending element:\n{np.array_str(np.asarray(combo), precision=4)}")
    v = (y @ wt[keep].conj().T) @ ((u[:, keep] / sing[keep]).conj().T)
    defining_residual = float(np.max(np.linalg.norm(v @ x - y, axis=0)))
    if defining_residual > 1e-6:
        raise WellDefinednessFailure(
            f"defining data is inconsistent (residual {defining_residual:.3e}); map is not positive")
    return v


def _build_intertwiner(alpha: PositiveMapSpec, rho, doubled: bool) -> LocalDecomposition:
    d = alpha.d
    rho = validate_density(rho, d, "rho")
    if not is_unital(alpha):
        raise MapNotUnital(f"map {alpha.name or '<anon>'} is not unital")
    left, right = _gns(_induced_state_density(alpha, rho))
    right = right if doubled else None
    sqrt_rho = psd_sqrt(rho)

    def hs_vec(m: np.ndarray) -> np.ndarray:
        # Hilbert-Schmidt coordinates of the target side, realified with the left.
        z = m.reshape(*m.shape[:-2], -1)
        return z if doubled else _realify_vec(z)

    basis = matrix_units(d) if doubled else hermitian_basis(d)
    x = _tilde_coords(left, right, basis)
    targets = hs_vec(apply_map(alpha, basis) @ sqrt_rho)
    v = _solve_intertwiner(x.T, targets.T, basis)

    # max_k ||V pi~(a_k) V† sqrt(rho) - alpha(a_k) sqrt(rho)|| over the whole basis
    sr_vec = hs_vec(sqrt_rho)
    lhs = _act(left, right, basis, dagger(v) @ sr_vec) @ v.T
    residual = float(np.max(np.linalg.norm(lhs - targets, axis=-1)))
    return LocalDecomposition(
        left=left, right=right,
        tilde_omega=_tilde_coords(left, right, np.eye(d, dtype=np.complex128)), v=v,
        norm_bound=float(np.sqrt(2.0)) if doubled else 1.0,
        residual_max=residual, v_norm=operator_norm(v), sqrt_rho_vec=sr_vec)


def build_intertwiner_single(alpha: PositiveMapSpec, rho) -> LocalDecomposition:
    """Single-representation intertwiner, defined on the real span of the
    self-adjoint orbit and extended by zero; norm bound 1.

    Built in realified coordinates because the defining relation is only
    real-linear. The intertwining identity is certified on a Hermitian
    basis.
    """
    return _build_intertwiner(alpha, rho, doubled=False)


def build_intertwiner_doubled(alpha: PositiveMapSpec, rho) -> LocalDecomposition:
    """Doubled-representation intertwiner, complex-linear on the direct sum
    of the left representation and the right anti-representation with the
    1/2-weighted inner product; norm bound sqrt(2).

    Well-definedness of V on null directions is exactly the positivity
    consequence alpha(a†a + aa†) >= alpha(a†)alpha(a) + alpha(a)alpha(a†)
    evaluated on the state, and is checked numerically; a violation raises
    instead of silently producing a bad intertwiner.
    """
    return _build_intertwiner(alpha, rho, doubled=True)


def verification_report(ld: LocalDecomposition) -> dict:
    """Flat report of the certified quantities."""
    return {
        "residual_max": float(ld.residual_max),
        "v_norm": float(ld.v_norm),
        "dim_gns": ld.dim_gns,
        "bound": float(ld.norm_bound),
    }
