import numpy as np
import pytest

from qcorr.bipartite import random_full_rank_density
from qcorr.errors import InvalidDensityMatrix, InvalidMatrix, MapNotUnital, WellDefinednessFailure
from qcorr.gns import (
    _tilde_coords,
    build_intertwiner_single,
    build_intertwiner_doubled,
    gns_left,
    gns_right,
    verification_report,
)
from qcorr.linalg import dagger, hermitian_basis, matrix_units, psd_sqrt
from qcorr.posmaps import (
    apply_map,
    builtin_maps,
    depolarizing_map,
    identity_map,
    kadison_defect,
    map_from_function,
    transpose_map,
)

from helpers import (
    intertwiner_basis,
    loop_intertwining_residual,
    loop_tilde_coords,
    random_density,
    random_hermitian,
)


def _omega_residual(ld):
    return float(np.linalg.norm(dagger(ld.v) @ ld.sqrt_rho_vec - ld.tilde_omega))


def test_gns_left_tracial_qubit():
    rep = gns_left(2, np.eye(2) / 2)
    assert rep.dim == 4
    # form is Tr(a†b)/2 on the full algebra
    for a in matrix_units(2):
        for b in matrix_units(2):
            form = np.vdot(rep.coords(a), rep.coords(b))
            assert abs(form - np.trace(a.conj().T @ b) / 2) <= 1e-12
    # class of the unit is proportional to the vectorized identity
    omega = rep.omega_vec / np.linalg.norm(rep.omega_vec)
    target = np.eye(2).reshape(-1) / np.sqrt(2)
    assert min(np.linalg.norm(omega - target), np.linalg.norm(omega + target)) <= 1e-12


def test_gns_left_rank_one_quotient():
    rep = gns_left(2, np.diag([1.0, 0.0]).astype(complex))
    assert rep.dim == 2


def test_gns_left_multiplicative():
    rep = gns_left(2, np.eye(2) / 2)
    e01, e10, e00 = (np.zeros((2, 2), dtype=complex) for _ in range(3))
    e01[0, 1] = e10[1, 0] = e00[0, 0] = 1.0
    assert np.max(np.abs(rep.rep(e01) @ rep.rep(e10) - rep.rep(e00))) <= 1e-12
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        assert np.max(np.abs(rep.rep(a @ b) - rep.rep(a) @ rep.rep(b))) <= 1e-10
        assert np.max(np.abs(rep.rep(a.conj().T) - rep.rep(a).conj().T)) <= 1e-12


def test_gns_state_reproduction_left_and_right():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        w = random_density(d, rng)
        for rep in (gns_left(d, w), gns_right(d, w)):
            for a in matrix_units(d):
                got = np.vdot(rep.omega_vec, rep.rep(a) @ rep.omega_vec)
                assert abs(got - np.trace(w @ a)) <= 1e-12


def test_gns_right_antimultiplicative():
    rng = np.random.default_rng(2)
    rep = gns_right(2, random_density(2, rng))
    for _ in range(5):
        c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
        assert np.max(np.abs(rep.rep(c @ d) - rep.rep(d) @ rep.rep(c))) <= 1e-10
        assert np.max(np.abs(rep.rep(c.conj().T) - rep.rep(c).conj().T)) <= 1e-12


def test_gns_right_nilpotent():
    rep = gns_right(2, np.eye(2) / 2)
    e01 = np.zeros((2, 2), dtype=complex)
    e01[0, 1] = 1.0
    assert np.max(np.abs(rep.rep(e01) @ rep.rep(e01))) <= 1e-14


def test_gns_rejects_invalid_density():
    with pytest.raises(InvalidDensityMatrix):
        gns_left(2, np.eye(2))
    # a stack of densities is not one density
    half = np.stack([np.eye(2) / 2] * 2)
    for build in (gns_left, gns_right):
        with pytest.raises(InvalidMatrix, match="2-D"):
            build(2, half)
    with pytest.raises(InvalidMatrix, match="2-D"):
        build_intertwiner_doubled(identity_map(2), half)


def test_single_intertwiner_identity_map_is_isometry_on_domain():
    ld = build_intertwiner_single(identity_map(2), np.eye(2) / 2)
    assert ld.residual_max <= 1e-12
    assert abs(ld.v_norm - 1.0) <= 1e-9
    sv = np.linalg.svd(ld.v, compute_uv=False)
    nonzero = sv[sv > 1e-8]
    assert np.allclose(nonzero, 1.0, atol=1e-9)


def test_single_intertwiner_transpose_example():
    ld = build_intertwiner_single(transpose_map(2), np.diag([0.75, 0.25]).astype(complex))
    assert ld.residual_max <= 1e-9
    assert ld.v_norm <= 1.0 + 1e-9


def test_single_intertwiner_depolarizing_omega_identity():
    ld = build_intertwiner_single(depolarizing_map(2, 0.0), np.eye(2) / 2)
    assert ld.v_norm <= 1.0 + 1e-9
    assert _omega_residual(ld) <= 1e-10


def test_doubled_intertwiner_identity_example():
    ld = build_intertwiner_doubled(identity_map(2), np.eye(2) / 2)
    assert ld.residual_max <= 1e-12
    assert ld.v_norm <= np.sqrt(2.0) + 1e-9


def test_doubled_intertwiner_transpose_example():
    ld = build_intertwiner_doubled(transpose_map(2), np.diag([0.75, 0.25]).astype(complex))
    assert ld.residual_max <= 1e-9
    assert ld.v_norm <= 1.41422


def test_doubled_intertwiner_mixed_map_random_state():
    mix = builtin_maps(2)[5]  # (identity + transpose)/2
    rho = random_full_rank_density(2, 77)
    ld = build_intertwiner_doubled(mix, rho)
    assert ld.residual_max <= 1e-9
    assert ld.v_norm <= np.sqrt(2.0) + 1e-9
    assert _omega_residual(ld) <= 1e-10


def test_doubled_intertwiner_intertwining_chain_explicitly():
    # independent spot check of V pi(a) V† rho^{1/2} = alpha(a) rho^{1/2}
    alpha = transpose_map(3)
    rho = random_full_rank_density(3, 5)
    ld = build_intertwiner_doubled(alpha, rho)
    sr = psd_sqrt(rho)
    for a in matrix_units(3):
        lhs = ld.v @ (ld.tilde_rep(a) @ (dagger(ld.v) @ sr.reshape(-1)))
        rhs = (apply_map(alpha, a) @ sr).reshape(-1)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_single_intertwiner_intertwining_chain_self_adjoint():
    alpha = depolarizing_map(2, 0.5)
    rho = random_full_rank_density(2, 6)
    ld = build_intertwiner_single(alpha, rho)
    sr = psd_sqrt(rho)
    for h in hermitian_basis(2):
        target = (apply_map(alpha, h) @ sr).reshape(-1)
        target_r = np.concatenate([target.real, target.imag])
        lhs = ld.v @ (ld.tilde_rep(h) @ (ld.v.T @ ld.sqrt_rho_vec))
        assert np.linalg.norm(lhs - target_r) <= 1e-9


def test_jordan_property_of_doubled_representation():
    rng = np.random.default_rng(3)
    ld = build_intertwiner_doubled(identity_map(3), random_full_rank_density(3, 8))
    for _ in range(5):
        h = random_hermitian(3, rng)
        assert np.max(np.abs(ld.tilde_rep(h @ h) - ld.tilde_rep(h) @ ld.tilde_rep(h))) <= 1e-10


def test_builtin_suite_small():
    for d in (2, 3):
        for alpha in builtin_maps(d):
            for seed in (0, 1):
                rho = random_full_rank_density(d, 50 + seed)
                ld = build_intertwiner_doubled(alpha, rho)
                assert ld.residual_max <= 1e-9, (alpha.name, d, seed)
                assert ld.v_norm <= np.sqrt(2.0) + 1e-9, (alpha.name, d, seed)
                assert _omega_residual(ld) <= 1e-10, (alpha.name, d, seed)
                ld2 = build_intertwiner_single(alpha, rho)
                assert ld2.residual_max <= 1e-9, (alpha.name, d, seed)
                assert ld2.v_norm <= 1.0 + 1e-9, (alpha.name, d, seed)
                assert _omega_residual(ld2) <= 1e-10, (alpha.name, d, seed)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_build_matches_per_element_reference(d):
    # coordinates and the certified residual over the whole basis stack
    # agree with the per-element dense-matrix reference, also when the
    # induced state omega has rank r < d (rank-1 rho)
    rng = np.random.default_rng(40 + d)
    ranks = set()
    for rho in (random_full_rank_density(d, 60 + d), random_density(d, rng, rank=1)):
        for alpha in builtin_maps(d):
            for build in (build_intertwiner_doubled, build_intertwiner_single):
                ld = build(alpha, rho)
                ranks.add(ld.left.rank)
                ref = loop_intertwining_residual(ld, alpha, rho)
                assert abs(ld.residual_max - ref) <= 1e-13, (alpha.name, build.__name__)
                basis = intertwiner_basis(ld)
                stacked = _tilde_coords(ld.left, ld.right, basis)
                looped = np.stack([loop_tilde_coords(ld, a) for a in basis])
                assert np.max(np.abs(stacked - looped)) <= 1e-15, (alpha.name, build.__name__)
    assert min(ranks) < d <= max(ranks)


def test_rank_deficient_rho_supported():
    alpha = transpose_map(2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    for build, dim_gns, bound in ((build_intertwiner_single, 2, 1.0),
                                  (build_intertwiner_doubled, 4, np.sqrt(2.0))):
        ld = build(alpha, rho)
        assert ld.residual_max <= 1e-9, build.__name__
        assert ld.v_norm <= bound + 1e-9, build.__name__
        assert ld.dim_gns == dim_gns, build.__name__


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2])
def test_low_rank_rho_certified(d, rank):
    # sqrt(rho) keeps no root of a roundoff eigenvalue outside the support,
    # so every builtin map passes its certificate on a low-rank rho
    rho = random_density(d, np.random.default_rng(70 + 10 * d + rank), rank=rank)
    for alpha in builtin_maps(d):
        for build, bound in ((build_intertwiner_single, 1.0), (build_intertwiner_doubled, np.sqrt(2.0))):
            ld = build(alpha, rho)
            assert ld.residual_max <= 1e-9, (alpha.name, build.__name__, ld.residual_max)
            assert ld.v_norm <= bound + 1e-9, (alpha.name, build.__name__)


def test_requires_unital_map():
    shrink = map_from_function(2, lambda x: x / 2, "halve")
    with pytest.raises(MapNotUnital):
        build_intertwiner_doubled(shrink, np.eye(2) / 2)


def test_nonpositive_map_detected_by_state_construction():
    sharp = map_from_function(2, lambda x: 2 * x - np.trace(x) * np.eye(2) / 2, "sharpen")
    with pytest.raises(WellDefinednessFailure):
        build_intertwiner_doubled(sharp, np.diag([0.95, 0.05]).astype(complex))
    with pytest.raises(WellDefinednessFailure):
        build_intertwiner_single(sharp, np.diag([0.95, 0.05]).astype(complex))


def test_nonpositive_map_never_silently_succeeds():
    # coherence amplifier: unital, not positive, induced state can be valid
    amp = map_from_function(2, lambda x: 2 * x - np.diag(np.diag(x)), "amplify")
    rho = np.eye(2, dtype=complex) / 2
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    for build in (build_intertwiner_single, build_intertwiner_doubled):
        caught = False
        try:
            ld = build(amp, rho)
            caught = ld.v_norm > ld.norm_bound + 1e-9
        except WellDefinednessFailure:
            caught = True
        caught = caught or kadison_defect(amp, e01) < -1e-10
        assert caught, build.__name__


def test_verification_report_shape():
    for build, dim_gns, bound in ((build_intertwiner_single, 4, 1.0),
                                  (build_intertwiner_doubled, 8, np.sqrt(2.0))):
        rep = verification_report(build(identity_map(2), np.eye(2) / 2))
        assert set(rep) == {"residual_max", "v_norm", "dim_gns", "bound"}
        assert rep["dim_gns"] == dim_gns, build.__name__
        assert abs(rep["bound"] - bound) <= 1e-12, build.__name__
