import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.bipartite import BipartiteSpace, BipartiteState, make_bell, make_random_state, validate_density
from qcorr.correlation import _Engine, _LaneSet, _random_partition, factored_product_value
from qcorr.errors import BadPartition, DimensionMismatch, InvalidDensityMatrix, InvalidMatrix, OutOfRange, RankTooSmall
from qcorr.linalg import matrix_units
from qcorr.measures import (
    Ensemble,
    ProductEnsemble,
    boxtimes,
    boxtimes_barycenter,
    embed_partition,
    ensemble_from_unitary,
    ensembles_from_isometries,
    evaluate_boxtimes,
    expm_antihermitian,
    hjw_ensemble,
    normalize_partition,
    singleton_partition,
    state_spectral_data,
)
from qcorr.posmaps import ppt_min_eigenvalue

from helpers import (
    SZ,
    loop_boxtimes,
    loop_ensemble_from_unitary,
    loop_evaluate_boxtimes,
    loop_validate_density,
    point_gap,
    random_density,
    random_hermitian,
    random_unitary,
    singlet_proj,
)


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
    e = hjw_ensemble(bell, np.zeros(1), 1, [0])
    assert len(e) == 1
    assert np.allclose(e.members[0], bell.rho, atol=1e-12)
    rng = np.random.default_rng(5)
    e2 = hjw_ensemble(bell, rng.standard_normal(9), 3, [0, 1, 2])
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
    e = ensemble_from_unitary(s, h, [0, 1])
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
            e = hjw_ensemble(s, theta, m, labels)
            acc = sum(w * mm for w, mm in zip(e.weights, e.members))
            assert np.linalg.norm(acc - s.rho) <= 1e-8


def test_hjw_merge_all_groups_gives_trivial():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=17)
    e = hjw_ensemble(s, np.random.default_rng(1).standard_normal(16), 4, [0, 0, 0, 0])
    assert len(e) == 1
    assert abs(e.weights[0] - 1.0) <= 1e-12
    assert np.allclose(e.members[0], s.rho, atol=1e-10)


def test_hjw_errors():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=19)
    with pytest.raises(RankTooSmall):
        hjw_ensemble(s, np.zeros(4), 2, [0, 1])
    # a legacy tuple of groups, here overlapping, and labels for too few pieces
    with pytest.raises(BadPartition):
        hjw_ensemble(s, np.zeros(16), 4, ((0, 1), (1, 2, 3)))
    with pytest.raises(BadPartition):
        hjw_ensemble(s, np.zeros(16), 4, [0, 0])


def test_ensemble_from_unitary_reads_first_r_columns():
    rng = np.random.default_rng(31)
    s = make_random_state(BipartiteSpace(2, 2), 2, seed=37)
    u1, u2 = (expm_antihermitian(rng.standard_normal(16), 4) for _ in range(2))
    g1, g2 = np.array([0, 0, 1, 2]), np.array([0, 1, 1, 1])
    # fewer than r = 2 columns, or fewer than r rows, cannot carry an isometry
    with pytest.raises(DimensionMismatch, match="columns"):
        ensemble_from_unitary(s, u1[:, :1], g1)
    with pytest.raises(RankTooSmall):
        ensemble_from_unitary(s, u1[:1, :2], [0])
    # the m x r isometry gives the ensemble of its completion
    e1, e2 = ensemble_from_unitary(s, u1, g1), ensemble_from_unitary(s, u2, g2)
    e_iso = ensemble_from_unitary(s, u1[:, :2], g1)
    assert np.abs(e_iso.weights - e1.weights).max() <= 1e-12
    assert max(np.abs(a - b).max() for a, b in zip(e_iso.members, e1.members)) <= 1e-12
    # the stacked isometry [sqrt(t) V1 ; sqrt(1 - t) V2] gives the t : 1 - t mixture
    t = 0.3
    stacked = np.concatenate([np.sqrt(t) * u1[:, :2], np.sqrt(1.0 - t) * u2[:, :2]])
    mix = ensemble_from_unitary(s, stacked, np.concatenate([g1, g2 + 4]))
    weights = np.concatenate([t * e1.weights, (1.0 - t) * e2.weights])
    assert np.abs(mix.weights - weights).max() <= 1e-12
    members = np.concatenate([e1.members, e2.members])
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
    assert embed_partition([0, 0, 1], 3, 5).tolist() == [0, 0, 1, 2, 3]
    rng = np.random.default_rng(2)
    for dims, rank, m, k in [((2, 2), 4, 4, 2), ((2, 2), 2, 5, 11), ((2, 3), 3, 6, 30)]:
        s = make_random_state(BipartiteSpace(*dims), rank, seed=31)
        a = random_hermitian(s.space.dim, rng)
        v = expm_antihermitian(rng.standard_normal(m * m), m)[:, :rank]
        labels = _random_partition(rng, m)
        padded, big = np.pad(v, ((0, k), (0, 0))), embed_partition(labels, m, m + k)
        e, e_pad = ensemble_from_unitary(s, v, labels), ensemble_from_unitary(s, padded, big)
        assert len(e_pad) == len(e)
        assert np.abs(e_pad.weights - e.weights).max() <= 1e-15
        assert max(np.abs(x - y).max() for x, y in zip(e_pad.members, e.members)) <= 1e-15
        gaps = [point_gap(engine, engine.coords(w), g)
                for engine, w, g in [(_Engine(s, a, m), v, labels), (_Engine(s, a, m + k), padded, big)]]
        assert abs(gaps[0] - gaps[1]) <= 1e-14


def test_embed_partition_rejects_fewer_pieces():
    # embedding into fewer pieces than the partition has is not an embedding
    with pytest.raises(OutOfRange):
        embed_partition([0, 0, 1], 3, 2)
    assert embed_partition([4, -2], 2, 2).tolist() == [1, 0]


@pytest.mark.parametrize("labels", [
    ((0, 1.5, 2),), [0.0, 1.0, 1.0], ["a", "b", "a"], [0, "b", 1], ((0, 1), (2,)), [[0], [1], [2]],
    [[0, 1, 2]], [0, 1, 2, 3], [0, 1], None,
], ids=["float-group", "float", "string", "mixed", "ragged", "2-D-column", "2-D-row", "too-long", "too-short",
        "none"])
def test_normalize_partition_rejects_non_labels(labels):
    # anything but three integer labels fails as BadPartition, a legacy tuple
    # of groups (2-D or ragged) included, never silently or as a bare error
    with pytest.raises(BadPartition):
        normalize_partition(labels, 3)


def test_normalize_partition_relabels_by_ascending_label():
    # group k is the k-th smallest distinct label, whatever the label values
    assert normalize_partition([7, -3, 7, 40, -3], 5).tolist() == [1, 0, 1, 2, 0]
    assert normalize_partition(np.array([2, 2], dtype=np.uint8), 2).tolist() == [0, 0]
    assert normalize_partition(range(3), 3).tolist() == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]), data=st.data())
def test_ensemble_from_unitary_on_any_labels_matches_reference(seed, dims, data):
    # arbitrary integer labels, with unused and non-contiguous values, give
    # the groups of the distinct labels in ascending order, as the
    # one-group-at-a-time reference builds them
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    s = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    r = len(state_spectral_data(s)[0])
    m = data.draw(st.integers(r, 2 * space.dim), label="m")
    labels = data.draw(st.lists(st.integers(-5, 3 * m), min_size=m, max_size=m), label="labels")
    u = _isometry(rng, m, r, 0)
    e = ensemble_from_unitary(s, u, labels)
    weights, members = loop_ensemble_from_unitary(s, u, labels)
    assert len(e) == len(weights)
    assert np.abs(e.weights - weights).max() <= 1e-14
    assert np.abs(e.members - np.stack(members)).max() <= 1e-14
    relabelled = ensemble_from_unitary(s, u, normalize_partition(labels, m))
    assert np.array_equal(e.weights, relabelled.weights) and np.array_equal(e.members, relabelled.members)


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
                   np.concatenate([e1.members, e2.members]), s)
    s1, s2, s_mix = (evaluate_boxtimes(boxtimes(e), a).real for e in (e1, e2, mix))
    assert abs(s_mix - (t * s1 + (1.0 - t) * s2)) <= 1e-12


def _isometry(rng, m: int, r: int, zero_rows: int) -> np.ndarray:
    """An m x r isometry with zero_rows zero rows appended."""
    return np.pad(expm_antihermitian(rng.standard_normal(m * m), m)[:, :r], ((0, zero_rows), (0, 0)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       t=st.sampled_from([None, 0.0, 0.35, 1.0]), zero_rows=st.integers(0, 3))
def test_stacked_recompute_matches_per_member_reference(seed, dims, t, zero_rows):
    # the witness recompute on member stacks (groups, marginals, the
    # decorrelated term) equals the one-member-at-a-time reference, for m x r
    # and stacked 2m x r isometries, with zero-weight groups from zero rows or
    # from a stacking weight t of 0 or 1
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    s = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    r = len(state_spectral_data(s)[0])
    m = int(rng.integers(r, 2 * space.dim + 1))
    u = _isometry(rng, m, r, zero_rows)
    if t is not None:
        u = np.concatenate([np.sqrt(t) * u, np.sqrt(1.0 - t) * _isometry(rng, m, r, zero_rows)])
    labels = _random_partition(rng, len(u))
    a, b1, b2 = (random_hermitian(d, rng) for d in (space.dim, *dims))
    e = ensemble_from_unitary(s, u, labels)
    weights, members = loop_ensemble_from_unitary(s, u, labels)
    assert len(e) == len(weights)
    assert np.abs(e.weights - weights).max() <= 1e-14
    assert np.abs(e.members - np.stack(members)).max() <= 1e-14
    pe = boxtimes(e)
    firsts, seconds = loop_boxtimes(members, *dims)
    assert np.abs(pe.first_marginals - np.stack(firsts)).max() <= 1e-14
    assert np.abs(pe.second_marginals - np.stack(seconds)).max() <= 1e-14
    assert abs(evaluate_boxtimes(pe, a) - loop_evaluate_boxtimes(weights, firsts, seconds, a)) <= 1e-14
    factored = loop_evaluate_boxtimes(weights, firsts, seconds, np.kron(b1, b2)).real
    assert abs(factored_product_value(pe, b1, b2) - factored) <= 1e-14


def _witnesses(state: BipartiteState, rng, n: int) -> list:
    """n (isometry, labels) witnesses of the kinds a solve builds, in turn:
    the m x r polar factor of a closest point, the stacked 2m x r isometry
    of a straddle mixture, and at rank 2 the polar factor of a chord."""
    dim, m = state.space.dim, state.space.dim ** 2
    engine = _Engine(state, np.array([random_hermitian(dim, rng) for _ in range(n)]), m)
    # the kernel's polar factors of 2n random points, then of the chords
    x = np.concatenate([rng.standard_normal((2 * n, engine.n_params)), engine.chords.reshape(-1, engine.n_params)])
    engine.signed_gap(x, _LaneSet(engine, np.zeros(len(x), dtype=int), np.zeros((len(x), m), dtype=int)))
    polar, chords = engine.v[:2 * n], engine.v[2 * n:]
    entries = []
    for k in range(n):
        labels = _random_partition(rng, m)
        if k % 3 == 1:
            t = rng.uniform()
            entries.append((np.concatenate([np.sqrt(t) * polar[k], np.sqrt(1.0 - t) * polar[n + k]]),
                            np.concatenate([labels, _random_partition(rng, m) + m])))
        elif k % 3 == 2 and len(chords):
            entries.append((chords[k % len(chords)], singleton_partition(m)))
        else:
            entries.append((polar[k], labels))
    return entries


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
       rank=st.sampled_from([1, 2, "full"]), n=st.sampled_from([1, 8]))
def test_batched_witnesses_are_those_of_one_entry_calls(seed, dims, rank, n):
    # every ensemble of a batch is, to the bit, the one its entry gives alone,
    # whatever the entries beside it (so a probe's witness does not depend on
    # the probes solved with it), and agrees with the one-group-at-a-time
    # reference to the tolerance of its other summation order
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = BipartiteState(space, random_density(space.dim, rng, rank=space.dim if rank == "full" else rank))
    entries = _witnesses(state, rng, n)
    batch = ensembles_from_isometries(state, *zip(*entries))
    assert len(batch) == n
    for e, (u, labels) in zip(batch, entries):
        alone = ensemble_from_unitary(state, u, labels)
        assert np.array_equal(e.weights, alone.weights) and np.array_equal(e.members, alone.members)
        weights, members = loop_ensemble_from_unitary(state, u, labels)
        assert len(e) == len(weights)
        assert np.abs(e.weights - weights).max() <= 1e-14
        assert np.abs(e.members - np.stack(members)).max() <= 1e-14


def test_batched_witness_errors_are_those_of_one_entry_calls():
    # a bad entry raises the error, type and message, that it raises alone;
    # with several, shape and partition errors go first, then the weight and
    # barycenter errors found once the batch is summed, each kind in entry order
    s = make_random_state(BipartiteSpace(2, 2), 2, seed=37)
    u = expm_antihermitian(np.random.default_rng(31).standard_normal(16), 4)[:, :2]
    good = (u, np.array([0, 0, 1, 2]))
    bad = {"rank": (u[:1], [0]), "columns": (u[:, :1], good[1]), "labels": (u, [0, 1]),
           "zero-weight": (np.zeros((4, 2)), good[1]), "not-an-isometry": (u[:, [0, 0]], good[1])}
    alone = {}
    for kind, (v, labels) in bad.items():
        with pytest.raises((BadPartition, DimensionMismatch, RankTooSmall)) as info:
            ensemble_from_unitary(s, v, labels)
        alone[kind] = info.value
    assert type(alone["zero-weight"]) is BadPartition and "zero weight" in str(alone["zero-weight"])
    summed = {"zero-weight", "not-an-isometry"}
    for first, second in [(a, b) for a in bad for b in bad if a != b]:
        reported = second if first in summed and second not in summed else first
        with pytest.raises(type(alone[reported])) as info:
            ensembles_from_isometries(s, *zip(good, bad[first], good, bad[second]))
        assert type(info.value) is type(alone[reported]) and str(info.value) == str(alone[reported])
    with pytest.raises(ValueError):
        ensembles_from_isometries(s, [u, u], [good[1]])
    assert ensembles_from_isometries(s, [], []) == []


def _message(fn) -> str:
    with pytest.raises(InvalidDensityMatrix) as info:
        fn()
    return str(info.value)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), k=st.integers(1, 6),
       defects=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(["hermitian", "trace", "negative"])),
                        min_size=1, max_size=3))
def test_stack_validation_names_member_like_reference(seed, d, k, defects):
    # a stack with defects planted in some members fails with the message the
    # one-member-at-a-time check gives: the same first bad index and check
    rng = np.random.default_rng(seed)
    stack = np.stack([random_density(d, rng) for _ in range(k)])
    for i, kind in defects:
        i %= k
        if kind == "trace":
            stack[i] *= 1.01
        else:
            u = random_unitary(d, rng)
            bad = np.diag([1.05, -0.05] + [0.0] * (d - 2)) if kind == "negative" else stack[i]
            stack[i] = u @ bad @ u.conj().T + (1e-3 * np.eye(d, k=1) if kind == "hermitian" else 0.0)
    ref = _message(lambda: loop_validate_density(stack, d, "member"))
    assert _message(lambda: validate_density(stack, d, "member", stack=True)) == ref
    # the same stack as the first or second marginals of a product ensemble
    ok = np.stack([random_density(d, rng) for _ in range(k)])
    space, w = BipartiteSpace(d, d), np.full(k, 1.0 / k)
    assert _message(lambda: ProductEnsemble(space, w, stack, ok)) == ref.replace("member", "first marginal")
    assert _message(lambda: ProductEnsemble(space, w, ok, stack)) == ref.replace("member", "second marginal")


def test_single_matrix_entry_points_reject_stacks():
    # a (k, D, D) stack is not a state, and the ensemble constructors take
    # any sequence of equal-shape matrices, rejecting ragged ones
    space = BipartiteSpace(2, 2)
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(InvalidMatrix, match="2-D"):
        BipartiteState(space, np.stack([rho, rho]))
    with pytest.raises(InvalidMatrix, match="2-D"):
        validate_density(np.stack([rho, rho]), 4)
    e = Ensemble(space, [0.5, 0.5], [rho, rho])
    assert e.members.shape == (2, 4, 4) and not e.members.flags.writeable
    assert np.array_equal(e.barycenter.rho, rho)
    with pytest.raises(InvalidMatrix):
        Ensemble(space, [0.5, 0.5], [rho, rho[:2, :2]])
    with pytest.raises(InvalidMatrix, match="3-D"):
        Ensemble(space, [1.0], rho)
