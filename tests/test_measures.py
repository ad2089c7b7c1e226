import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.bipartite import BipartiteSpace, BipartiteState, make_bell, make_random_state
from qcorr.correlation import _Engine, _random_partition
from qcorr.errors import BadPartition, DimensionMismatch, RankTooSmall
from qcorr.linalg import matrix_units
from qcorr.measures import (
    Ensemble,
    ProductEnsemble,
    boxtimes,
    boxtimes_barycenter,
    embed_partition,
    ensemble_from_unitary,
    evaluate_boxtimes,
    expm_antihermitian,
    hjw_ensemble,
    singleton_partition,
)
from qcorr.posmaps import ppt_min_eigenvalue

from helpers import SZ, point_gap, random_density, random_hermitian, singlet_proj


def _ensemble(space, weights, members):
    bary = BipartiteState(space, sum(w * m for w, m in zip(weights, members)))
    return Ensemble(space, np.asarray(weights, dtype=float), tuple(members), bary)


def test_boxtimes_product_singleton():
    rng = np.random.default_rng(0)
    sigma, tau = random_density(2, rng), random_density(2, rng)
    e = _ensemble(BipartiteSpace(2, 2), [1.0], [np.kron(sigma, tau)])
    pe = boxtimes(e)
    assert np.allclose(pe.weights, [1.0])
    assert np.allclose(pe.first_marginals[0], sigma, atol=1e-12)
    assert np.allclose(pe.second_marginals[0], tau, atol=1e-12)
    assert np.allclose(boxtimes_barycenter(pe).rho, np.kron(sigma, tau), atol=1e-12)


def test_boxtimes_bell_singleton():
    e = _ensemble(BipartiteSpace(2, 2), [1.0], [singlet_proj()])
    pe = boxtimes(e)
    assert np.allclose(pe.first_marginals[0], np.eye(2) / 2, atol=1e-12)
    assert np.allclose(pe.second_marginals[0], np.eye(2) / 2, atol=1e-12)
    assert np.allclose(boxtimes_barycenter(pe).rho, np.eye(4) / 4, atol=1e-12)
    assert abs(evaluate_boxtimes(pe, singlet_proj()) - 0.25) <= 1e-12


def test_boxtimes_classically_correlated():
    p00 = np.zeros((4, 4), dtype=complex)
    p00[0, 0] = 1.0
    p11 = np.zeros((4, 4), dtype=complex)
    p11[3, 3] = 1.0
    e = _ensemble(BipartiteSpace(2, 2), [0.5, 0.5], [p00, p11])
    pe = boxtimes(e)
    assert np.allclose(pe.first_marginals[0], np.diag([1.0, 0.0]), atol=1e-14)
    assert np.allclose(pe.second_marginals[1], np.diag([0.0, 1.0]), atol=1e-14)
    # classically correlated states are fixed points
    assert np.allclose(boxtimes_barycenter(pe).rho, e.barycenter.rho, atol=1e-12)
    assert abs(evaluate_boxtimes(pe, np.kron(SZ, SZ)) - 1.0) <= 1e-12


def test_evaluate_boxtimes_normalization_and_dimension():
    e = _ensemble(BipartiteSpace(2, 2), [1.0], [singlet_proj()])
    pe = boxtimes(e)
    assert abs(evaluate_boxtimes(pe, np.eye(4)) - 1.0) <= 1e-12
    with pytest.raises(DimensionMismatch):
        evaluate_boxtimes(pe, np.eye(3))


def test_product_members_are_fixed_points():
    rng = np.random.default_rng(3)
    members = [np.kron(random_density(2, rng), random_density(2, rng)) for _ in range(3)]
    e = _ensemble(BipartiteSpace(2, 2), [0.5, 0.3, 0.2], members)
    pe = boxtimes(e)
    for a in matrix_units(4):
        h = (a + a.conj().T) / 2
        lhs = np.trace(e.barycenter.rho @ h)
        rhs = evaluate_boxtimes(pe, h)
        assert abs(lhs - rhs) <= 1e-12


def test_hjw_pure_state_trivial():
    bell = make_bell()
    e = hjw_ensemble(bell, np.zeros(1), 1, ((0,),))
    assert len(e) == 1
    assert np.allclose(e.members[0], bell.rho, atol=1e-12)
    rng = np.random.default_rng(5)
    e2 = hjw_ensemble(bell, rng.standard_normal(9), 3, ((0,), (1,), (2,)))
    for m in e2.members:
        assert np.allclose(m, bell.rho, atol=1e-10)


def test_hjw_identity_returns_spectral_decomposition():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=11)
    e = hjw_ensemble(s, np.zeros(16), 4, singleton_partition(4))
    w, v = np.linalg.eigh(s.rho)
    w, v = w[::-1], v[:, ::-1]
    assert np.allclose(np.sort(e.weights), np.sort(w), atol=1e-10)
    for k in range(4):
        proj = np.outer(v[:, k], v[:, k].conj())
        assert min(np.linalg.norm(m - proj) for m in e.members) <= 1e-8


def test_hjw_hadamard_on_maximally_mixed_qubit():
    # treat a bare qubit as a 2x1 bipartite system
    s = BipartiteState(BipartiteSpace(2, 1), np.eye(2) / 2)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    e = ensemble_from_unitary(s, h, ((0,), (1,)))
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    assert np.allclose(e.weights, [0.5, 0.5], atol=1e-12)
    got = {0: e.members[0], 1: e.members[1]}
    projs = [np.outer(plus, plus.conj()), np.outer(minus, minus.conj())]
    for proj in projs:
        assert min(np.linalg.norm(m - proj) for m in got.values()) <= 1e-12


def test_hjw_barycenter_invariant_random_sweep():
    rng = np.random.default_rng(13)
    for seed in range(6):
        s = make_random_state(BipartiteSpace(2, 2), rank=int(rng.integers(1, 5)), seed=seed)
        r = np.linalg.matrix_rank(s.rho, tol=1e-10)
        for m in (r, r + 1, 2 * r):
            theta = rng.standard_normal(m * m)
            labels = rng.integers(0, max(1, m // 2) + 1, size=m)
            groups = tuple(tuple(int(i) for i in np.nonzero(labels == g)[0])
                           for g in set(labels.tolist()))
            e = hjw_ensemble(s, theta, m, groups)
            acc = sum(w * mm for w, mm in zip(e.weights, e.members))
            assert np.linalg.norm(acc - s.rho) <= 1e-8


def test_hjw_merge_all_groups_gives_trivial():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=17)
    e = hjw_ensemble(s, np.random.default_rng(1).standard_normal(16), 4, (tuple(range(4)),))
    assert len(e) == 1
    assert abs(e.weights[0] - 1.0) <= 1e-12
    assert np.allclose(e.members[0], s.rho, atol=1e-10)


def test_hjw_errors():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=19)
    with pytest.raises(RankTooSmall):
        hjw_ensemble(s, np.zeros(4), 2, ((0,), (1,)))
    with pytest.raises(BadPartition):
        hjw_ensemble(s, np.zeros(16), 4, ((0, 1), (1, 2, 3)))
    with pytest.raises(BadPartition):
        hjw_ensemble(s, np.zeros(16), 4, ((0, 1),))


def test_ensemble_from_unitary_reads_first_r_columns():
    rng = np.random.default_rng(31)
    s = make_random_state(BipartiteSpace(2, 2), 2, seed=37)
    u1, u2 = (expm_antihermitian(rng.standard_normal(16), 4) for _ in range(2))
    g1, g2 = ((0, 1), (2,), (3,)), ((0,), (1, 2, 3))
    # fewer than r = 2 columns, or fewer than r rows, cannot carry an isometry
    with pytest.raises(DimensionMismatch, match="columns"):
        ensemble_from_unitary(s, u1[:, :1], g1)
    with pytest.raises(RankTooSmall):
        ensemble_from_unitary(s, u1[:1, :2], ((0,),))
    # the m x r isometry gives the ensemble of its completion
    e1, e2 = ensemble_from_unitary(s, u1, g1), ensemble_from_unitary(s, u2, g2)
    e_iso = ensemble_from_unitary(s, u1[:, :2], g1)
    assert np.abs(e_iso.weights - e1.weights).max() <= 1e-12
    assert max(np.abs(a - b).max() for a, b in zip(e_iso.members, e1.members)) <= 1e-12
    # the stacked isometry [sqrt(t) V1 ; sqrt(1 - t) V2] gives the t : 1 - t mixture
    t = 0.3
    stacked = np.concatenate([np.sqrt(t) * u1[:, :2], np.sqrt(1.0 - t) * u2[:, :2]])
    mix = ensemble_from_unitary(s, stacked, g1 + tuple(tuple(j + 4 for j in g) for g in g2))
    weights = np.concatenate([t * e1.weights, (1.0 - t) * e2.weights])
    assert np.abs(mix.weights - weights).max() <= 1e-12
    members = e1.members + e2.members
    assert max(np.abs(a - b).max() for a, b in zip(mix.members, members)) <= 1e-12


def test_boxtimes_barycenter_always_ppt():
    rng = np.random.default_rng(23)
    for seed in range(5):
        s = make_random_state(BipartiteSpace(2, 2), 4, seed=100 + seed)
        e = hjw_ensemble(s, rng.standard_normal(16), 4, singleton_partition(4))
        sep = boxtimes_barycenter(boxtimes(e))
        assert ppt_min_eigenvalue(sep) >= -1e-10


def test_ensemble_validation():
    space = BipartiteSpace(2, 2)
    rho = np.eye(4, dtype=complex) / 4
    state = BipartiteState(space, rho)
    with pytest.raises(DimensionMismatch):
        Ensemble(space, np.array([0.7, 0.7]), (rho, rho), state)
    other = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(DimensionMismatch):
        Ensemble(space, np.array([1.0]), (other,), state)  # barycenter mismatch


@pytest.mark.parametrize("weights", [[1.5, -0.5], [[0.5], [0.5]]], ids=["negative", "2-D"])
def test_product_ensemble_rejects_malformed_weights(weights):
    # Ensemble and ProductEnsemble accept the same weights: 1-D, non-empty,
    # nonnegative, summing to 1
    half = np.eye(2, dtype=complex) / 2
    with pytest.raises(DimensionMismatch):
        ProductEnsemble(BipartiteSpace(2, 2), weights, (half, half), (half, half))


def test_embedding_preserves_ensemble():
    # k zero rows appended to an isometry, with the partition extended by
    # singletons, add only zero-weight pieces: X^dagger X, the ensemble and
    # the engine's gap are unchanged
    assert embed_partition(((0, 1), (2,)), 3, 5) == ((0, 1), (2,), (3,), (4,))
    rng = np.random.default_rng(2)
    for dims, rank, m, k in [((2, 2), 4, 4, 2), ((2, 2), 2, 5, 11), ((2, 3), 3, 6, 30)]:
        s = make_random_state(BipartiteSpace(*dims), rank, seed=31)
        a = random_hermitian(s.space.dim, rng)
        v = expm_antihermitian(rng.standard_normal(m * m), m)[:, :rank]
        groups = _random_partition(rng, m)
        padded, big = np.pad(v, ((0, k), (0, 0))), embed_partition(groups, m, m + k)
        e, e_pad = ensemble_from_unitary(s, v, groups), ensemble_from_unitary(s, padded, big)
        assert len(e_pad) == len(e)
        assert np.abs(e_pad.weights - e.weights).max() <= 1e-15
        assert max(np.abs(x - y).max() for x, y in zip(e_pad.members, e.members)) <= 1e-15
        gaps = [point_gap(engine, engine.coords(w), g)
                for engine, w, g in [(_Engine(s, a, m), v, groups), (_Engine(s, a, m + k), padded, big)]]
        assert abs(gaps[0] - gaps[1]) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       t=st.floats(0.0, 1.0))
def test_decorrelated_term_affine_under_mixing(seed, dims, t):
    # S(mu) = sum_i w_i Tr[(sigma_i x tau_i) A] is affine in the measure, so
    # the mixture of two ensembles of one state has S = t S1 + (1 - t) S2
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    s = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    a = random_hermitian(space.dim, rng)
    ens = []
    for _ in range(2):
        m = int(rng.integers(space.dim, 2 * space.dim + 1))
        ens.append(hjw_ensemble(s, rng.standard_normal(m * m), m, _random_partition(rng, m)))
    e1, e2 = ens
    mix = Ensemble(space, np.concatenate([t * e1.weights, (1.0 - t) * e2.weights]),
                   e1.members + e2.members, s)
    s1, s2, s_mix = (evaluate_boxtimes(boxtimes(e), a).real for e in (e1, e2, mix))
    assert abs(s_mix - (t * s1 + (1.0 - t) * s2)) <= 1e-12
