import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qcorr.bipartite import (
    BipartiteSpace,
    BipartiteState,
    expect,
    make_bell,
    make_product,
    make_random_state,
    make_werner,
)
from qcorr.correlation import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE,
    TOL,
    CorrelationResult,
    OptimizerConfig,
    N_RANDOM_PARTITIONS,
    _Best,
    _Engine,
    _LaneSet,
    _lane_search,
    _random_partition,
    _solve,
    canonical_pt_witness,
    d0_objective,
    factored_product_value,
    minimize_d0,
    minimize_d_simple,
    random_hermitian_probe,
    separability_verdict,
)
from qcorr.errors import ConfigInvalid, DimensionMismatch, NotHermitian, RankTooSmall
from qcorr.measures import (
    Ensemble,
    boxtimes,
    ensemble_from_unitary,
    evaluate_boxtimes,
    expm_antihermitian,
    hjw_ensemble,
    normalize_partition,
    singleton_partition,
    state_spectral_data,
)
from qcorr.posmaps import PPT_ATOL, ppt_min_eig_and_vector, ppt_min_eigenvalue

from helpers import (
    SZ,
    _gradient_search,
    canonical_witness,
    horodecki_ppt_state,
    point_gap,
    random_density,
    random_hermitian,
    random_pure,
    separable_state,
    singlet_proj,
    werner_third_product_ensemble,
)

FAST = OptimizerConfig(starts=4, max_iters=400)


def _singleton_ensemble(state):
    return Ensemble(state.space, np.array([1.0]), (state.rho,), state)


def test_objective_identity_observable_vanishes():
    e = _singleton_ensemble(make_bell())
    assert d0_objective(e, np.eye(4)) <= 1e-14


def test_objective_bell_singlet_projector():
    e = _singleton_ensemble(make_bell())
    assert abs(d0_objective(e, singlet_proj()) - 0.75) <= 1e-12


def test_objective_product_state_vanishes():
    rng = np.random.default_rng(0)
    e = _singleton_ensemble(make_product(random_density(2, rng), random_density(2, rng)))
    for _ in range(5):
        assert d0_objective(e, random_hermitian(4, rng)) <= 1e-12


def test_objective_errors():
    e = _singleton_ensemble(make_bell())
    with pytest.raises(NotHermitian):
        d0_objective(e, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatch):
        d0_objective(e, np.eye(3))


def test_bell_coefficient_constant_over_random_ensembles():
    # brute-force oracle: every decomposition of a pure state is trivial,
    # so the objective is constant at |1 - 1/4|
    bell = make_bell()
    rng = np.random.default_rng(1)
    proj = singlet_proj()
    for _ in range(100):
        m = int(rng.integers(1, 6))
        theta = rng.standard_normal(m * m)
        e = hjw_ensemble(bell, theta, m, singleton_partition(m))
        assert abs(d0_objective(e, proj) - 0.75) <= 1e-12


def test_minimize_bell_value():
    res = minimize_d0(make_bell(), singlet_proj(), FAST)
    assert abs(res.value - 0.75) <= 1e-6


def test_minimize_product_state_hits_zero():
    rng = np.random.default_rng(2)
    s = make_product(random_density(2, rng), random_density(2, rng))
    res = minimize_d0(s, random_hermitian(4, rng), FAST)
    assert res.value <= 1e-9
    assert res.starts_used <= 1


def test_minimize_separable_werner():
    res = minimize_d0(make_werner(0.25), singlet_proj(), OptimizerConfig())
    assert res.value <= 1e-4


def test_werner_boundary_product_decomposition_oracle():
    # explicit six-product-state decomposition of the boundary Werner state
    e = werner_third_product_ensemble()
    assert np.linalg.norm(e.barycenter.rho - make_werner(1.0 / 3.0).rho) <= 1e-12
    assert d0_objective(e, singlet_proj()) <= 1e-12
    # mixing toward the identity reproduces more deeply separable states
    e25 = werner_third_product_ensemble(extra_identity_weight=0.25)
    assert np.linalg.norm(e25.barycenter.rho - make_werner(0.25).rho) <= 1e-12
    assert d0_objective(e25, singlet_proj()) <= 1e-12


def test_upper_bound_soundness():
    res = minimize_d0(make_werner(0.6), canonical_witness(), FAST)
    assert abs(d0_objective(res.ensemble, canonical_witness()) - res.value) <= 1e-12


def test_witness_lower_bound():
    w = canonical_witness()
    for p in (0.5, 0.8):
        state = make_werner(p)
        assert expect(state, w).real < 0
        res = minimize_d0(state, w, FAST)
        assert res.value >= abs(expect(state, w).real) - 1e-9


def test_homogeneity_in_observable():
    a = random_hermitian(4, np.random.default_rng(3))
    state = make_werner(0.7)
    base = minimize_d0(state, a, FAST).value
    for c in (2.5, 0.3, -1.25):
        scaled = minimize_d0(state, c * a, FAST).value
        assert abs(scaled - abs(c) * base) <= 1e-8 * max(1.0, abs(c) * base)


def test_monotone_in_starts():
    a = random_hermitian(4, np.random.default_rng(4))
    state = make_werner(0.8)
    v_few = minimize_d0(state, a, OptimizerConfig(starts=2, max_iters=300)).value
    v_more = minimize_d0(state, a, OptimizerConfig(starts=4, max_iters=300)).value
    assert v_more <= v_few + 1e-12


def test_determinism_same_seed():
    a = random_hermitian(4, np.random.default_rng(5))
    state = make_werner(0.55)
    r1 = minimize_d0(state, a, FAST)
    r2 = minimize_d0(state, a, FAST)
    assert r1.value == r2.value
    assert r1.starts_used == r2.starts_used


def test_minimize_errors():
    bell = make_bell()
    with pytest.raises(NotHermitian):
        minimize_d0(bell, np.array([[0, 1], [0, 0]], dtype=complex).repeat(2, 0).repeat(2, 1))
    with pytest.raises(DimensionMismatch):
        minimize_d0(bell, np.eye(3))
    with pytest.raises(RankTooSmall):
        minimize_d0(make_werner(0.5), singlet_proj(), OptimizerConfig(m=2, starts=1, max_iters=10))
    big = make_random_state(BipartiteSpace(3, 6), 2, seed=0)
    with pytest.raises(ConfigInvalid):
        minimize_d0(big, np.eye(18), FAST)
    with pytest.raises(ConfigInvalid):
        OptimizerConfig(starts=0)
    with pytest.raises(ConfigInvalid):
        OptimizerConfig(seed=-1)


@pytest.mark.parametrize("field,value", [("m", 16.0), ("starts", 2.5), ("max_iters", 10.5), ("seed", "1"),
                                         ("max_iters", True), ("seed", None)])
def test_optimizer_config_rejects_non_integers(field, value):
    # a non-integer count or seed fails at construction, not as a TypeError
    # deep in the solve
    with pytest.raises(ConfigInvalid, match=f"{field} must be an integer"):
        OptimizerConfig(**{field: value})
    assert OptimizerConfig(**{field: np.int64(16)}).__getattribute__(field) == 16


@pytest.mark.parametrize("value", [2.5, "3", None, True, -1])
def test_verdict_rejects_a_probe_count_that_is_not_a_count(value):
    # n_observables is checked like an OptimizerConfig field: a bool or a
    # non-integer is a ConfigInvalid (exit 3), not a TypeError or one probe
    match = "n_observables must be >= 0" if value == -1 else "n_observables must be an integer"
    with pytest.raises(ConfigInvalid, match=match):
        separability_verdict(make_werner(0.2), FAST, n_observables=value)
    assert len(separability_verdict(make_werner(0.2), FAST, n_observables=np.int64(2)).probes) == 2


def test_d_simple_bell_sigma_z():
    res = minimize_d_simple(make_bell(), SZ, SZ, FAST)
    assert abs(res.value - 1.0) <= 1e-6


def test_d_simple_product_state():
    rng = np.random.default_rng(6)
    s = make_product(random_density(2, rng), random_density(2, rng))
    res = minimize_d_simple(s, random_hermitian(2, rng), random_hermitian(2, rng), FAST)
    assert res.value <= 1e-9


def test_d_simple_identity_factor_vanishes():
    state = make_werner(0.9)
    res = minimize_d_simple(state, np.eye(2), SZ, FAST)
    assert res.value <= 1e-9
    res = minimize_d_simple(state, SZ, np.eye(2), FAST)
    assert res.value <= 1e-9


def test_d_simple_factored_form_identity():
    state = make_werner(0.6)
    res = minimize_d_simple(state, SZ, SZ, FAST)
    pe = boxtimes(res.ensemble)
    fact = factored_product_value(pe, SZ, SZ)
    joint = complex(evaluate_boxtimes(pe, np.kron(SZ, SZ))).real
    assert abs(fact - joint) <= 1e-12


def test_d_simple_dimension_errors():
    with pytest.raises(DimensionMismatch, match="first factor"):
        minimize_d_simple(make_bell(), np.eye(3), SZ, FAST)
    with pytest.raises(DimensionMismatch, match="second factor"):
        minimize_d_simple(make_bell(), SZ, np.eye(3), FAST)


@pytest.mark.parametrize("case", ["bell", "werner-0.6", "random-2x3"])
def test_d_simple_is_minimize_d0_of_the_product(case):
    # d(rho; a, b) is d0(rho; a (x) b): the same search, witness and value
    rng = np.random.default_rng(3)
    state, a, b = {
        "bell": lambda: (make_bell(), SZ, SZ),
        "werner-0.6": lambda: (make_werner(0.6), SZ, SZ),
        "random-2x3": lambda: (make_random_state(BipartiteSpace(2, 3), 3, 5),
                               random_hermitian(2, rng), random_hermitian(3, rng)),
    }[case]()
    simple = minimize_d_simple(state, a, b, FAST)
    joint = minimize_d0(state, np.kron(a, b), FAST)
    assert simple.value == joint.value
    assert simple.starts_used == joint.starts_used
    assert np.array_equal(simple.argmin_partition, joint.argmin_partition)
    assert np.array_equal(simple.ensemble.weights, joint.ensemble.weights)


def test_canonical_witness_construction():
    w = canonical_pt_witness(make_werner(0.8))
    assert w is not None
    assert np.max(np.abs(w - w.conj().T)) <= 1e-12
    # expectation equals the negative eigenvalue of the partial transpose
    assert abs(expect(make_werner(0.8), w).real - (1 - 3 * 0.8) / 4) <= 1e-10
    assert canonical_pt_witness(make_werner(0.2)) is None


def test_pt_witness_needs_a_partial_transpose_below_ppt_atol():
    # smallest partial-transpose eigenvalue -5e-11: PPT to PPT_ATOL, as for
    # classify and `qcorr ppt`, so the verdict runs no pt-witness probe
    state = make_werner(1 / 3 + 2e-10 / 3)
    assert -PPT_ATOL < ppt_min_eigenvalue(state) < -1e-11
    assert canonical_pt_witness(state) is None
    res = separability_verdict(state, FAST, n_observables=0)
    assert res.probes == ()
    assert res.verdict == SEPARABLE


def test_verdict_decomposes_the_partial_transpose_once(monkeypatch):
    import qcorr.correlation as correlation
    calls = []

    def counted(rho):
        calls.append(rho)
        return ppt_min_eig_and_vector(rho)

    monkeypatch.setattr(correlation, "ppt_min_eig_and_vector", counted)
    res = separability_verdict(make_werner(0.8), FAST, n_observables=0)
    assert len(calls) == 1
    assert [label for label, *_ in res.probes] == ["pt-witness"]
    assert res.verdict == ENTANGLED


def test_verdict_bell_entangled():
    res = separability_verdict(make_bell(), FAST, n_observables=2)
    assert res.verdict == ENTANGLED
    assert res.max_d0 >= 0.75 - 1e-6
    labels = [lbl for lbl, *_ in res.probes]
    assert "pt-witness" in labels and "identity" not in labels


def test_verdict_without_probes_solves_nothing(monkeypatch):
    # a PPT state with no random probe runs no solve: d0 of the identity is 0
    # for every state, so it is the reported witness
    def no_solve(*args, **kwargs):
        raise AssertionError("solve called")

    monkeypatch.setattr("qcorr.correlation._solve", no_solve)
    monkeypatch.setattr("qcorr.correlation._Engine", no_solve)
    res = separability_verdict(make_werner(0.2), FAST, n_observables=0)
    assert res.verdict == SEPARABLE
    assert res.max_d0 == 0.0 and res.probes == ()
    assert np.array_equal(res.witness, np.eye(4))


@pytest.mark.parametrize("case", ["product-random", "identity-observable"])
def test_trivial_decomposition_decides_without_a_start(monkeypatch, case):
    # {1, rho} has zero gap for a product state and any A, and for any state
    # with A = 1: one one-lane kernel call, and no start runs
    rng = np.random.default_rng(4)
    if case == "product-random":
        state, a = make_product(random_density(2, rng), random_density(3, rng)), random_hermitian(6, rng)
    else:
        state = BipartiteState(BipartiteSpace(2, 3), random_density(6, rng))
        a = np.eye(6, dtype=complex)
    kernel_ndim = []
    signed_gap = _Engine.signed_gap

    def recorded(self, x, lanes):
        kernel_ndim.append(x.ndim)
        return signed_gap(self, x, lanes)

    monkeypatch.setattr(_Engine, "signed_gap", recorded)
    cfg = OptimizerConfig()
    res = minimize_d0(state, a, cfg)
    assert res.starts_used == 0 and res.value <= TOL
    assert kernel_ndim == [2]


def test_verdict_maximally_mixed_separable():
    res = separability_verdict(
        BipartiteState(BipartiteSpace(2, 2), np.eye(4) / 4), FAST, n_observables=2)
    assert res.verdict == SEPARABLE
    assert res.max_d0 <= 1e-9
    # no bound above 0, so the witness is the identity
    assert res.lower == 0.0 and all(lower == 0.0 for _, lower, _ in res.probes)
    assert np.array_equal(res.witness, np.eye(4))


def test_verdict_werner_entangled_with_lower_bound():
    state = make_werner(0.6)
    res = separability_verdict(state, FAST, n_observables=1)
    assert res.verdict == ENTANGLED
    assert res.max_d0 >= (3 * 0.6 - 1) / 4 - 1e-9
    # the pt-witness probe certifies it: its bound |lambda_min(rho^Gamma)| is the largest
    assert abs(res.lower - (3 * 0.6 - 1) / 4) <= 1e-12
    assert res.lower == max(lower for _, lower, _ in res.probes) == res.probes[0][1]
    assert np.array_equal(res.witness, canonical_pt_witness(state))


def test_verdict_horodecki_ppt_entangled_is_inconclusive():
    # a PPT entangled state at 3x3: every product bound is 0 and the PPT test
    # is not exact there, so no certificate decides, whatever the values
    state = horodecki_ppt_state(0.5)
    assert ppt_min_eigenvalue(state) >= -PPT_ATOL
    res = separability_verdict(state, OptimizerConfig(starts=1, max_iters=5), n_observables=3)
    assert res.verdict == INCONCLUSIVE
    assert len(res.probes) == 3 and all(lower == 0.0 for _, lower, _ in res.probes)
    assert res.lower == 0.0
    assert np.array_equal(res.witness, np.eye(9))


def test_verdict_separable_fixtures():
    rng = np.random.default_rng(7)
    for k in (2, 4):
        res = separability_verdict(separable_state(k, rng), OptimizerConfig(), n_observables=4)
        assert res.verdict != ENTANGLED
        assert res.max_d0 <= 1e-4


def test_verdict_nonneg_values():
    res = separability_verdict(make_werner(0.5), FAST, n_observables=2)
    assert all(0.0 <= lower <= v for _, lower, v in res.probes)


def test_result_fields():
    # a pure state has one decomposition, so the exact bound closes the
    # bracket before any start runs
    res = minimize_d0(make_bell(), singlet_proj(), FAST)
    assert isinstance(res, CorrelationResult)
    assert res.value >= 0.0
    assert res.starts_used == 0
    assert res.ensemble.barycenter.space.dim == 4


def _check_engine_gradient(engine, x, labels, rng):
    """engine.gradient() against central differences of signed_gap at x."""
    m, r, n = engine.m, engine.r, engine.n_params
    point_gap(engine, x, labels)
    grad = engine.gradient()[0]
    h = 1e-6

    def central(direction):
        return (point_gap(engine, x + h * direction, labels)
                - point_gap(engine, x - h * direction, labels)) / (2.0 * h)

    # every real and imaginary coordinate of the top r x r block of X, then a
    # sample of the other rows, then random directions through all coordinates
    top = np.concatenate([np.arange(r * r), m * r + np.arange(r * r)])
    rest = np.setdiff1d(np.arange(n), top)
    coords = np.concatenate([top, rng.choice(rest, min(60, rest.size), replace=False)])
    for i in coords:
        e_i = np.zeros(n)
        e_i[i] = 1.0
        assert abs(central(e_i) - grad[i]) <= 1e-7 * max(1.0, np.abs(grad).max())
    for _ in range(3):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        assert abs(central(u) - grad @ u) <= 1e-7 * max(1.0, np.linalg.norm(grad))


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3)])
@pytest.mark.parametrize("partition", ["singleton", "random"])
@pytest.mark.parametrize("at_zero", [True, False])
def test_engine_gradient_matches_finite_differences(d1, d2, partition, at_zero):
    # coordinates are the 2mr reals of X; at_zero is the isometry X = I[:, :r]
    rng = np.random.default_rng(100 * d2 + 10 * at_zero + (partition == "random"))
    space = BipartiteSpace(d1, d2)
    state = BipartiteState(space, random_density(space.dim, rng))
    m = space.dim ** 2
    engine = _Engine(state, random_hermitian(space.dim, rng), m)
    labels = singleton_partition(m) if partition == "singleton" else _random_partition(rng, m)
    x = engine.coords(np.eye(m))
    if not at_zero:
        x = x + 0.4 * rng.standard_normal(engine.n_params)
    _check_engine_gradient(engine, x, labels, rng)


@pytest.mark.parametrize("case", ["rank2-2x3", "square-2x2"])
def test_engine_gradient_rank_deficient_and_square(case):
    # r < dim (a rank-2 2x3 state, m = 36), and m = r (square X)
    rng = np.random.default_rng(11 if case == "square-2x2" else 12)
    if case == "rank2-2x3":
        state, m = make_random_state(BipartiteSpace(2, 3), 2, seed=12), 36
    else:
        state, m = BipartiteState(BipartiteSpace(2, 2), random_density(4, rng)), 4
    engine = _Engine(state, random_hermitian(state.space.dim, rng), m)
    assert engine.r == (2 if case == "rank2-2x3" else m)
    for labels in (singleton_partition(m), _random_partition(rng, m)):
        _check_engine_gradient(engine, engine.coords(np.eye(m)), labels, rng)
        _check_engine_gradient(
            engine, engine.coords(np.eye(m)) + 0.4 * rng.standard_normal(engine.n_params),
            labels, rng)


def test_engine_rejects_singular_gram():
    # a zero column makes X^dagger X singular: the gap is nan, which _Best
    # never stores
    state = make_werner(0.7)
    engine = _Engine(state, canonical_witness(), 16)
    x = engine.coords(np.eye(16))
    x[::engine.r] = 0.0  # real parts of column 0
    assert np.isnan(point_gap(engine, x, singleton_partition(16)))
    assert np.isnan(point_gap(engine, np.zeros(engine.n_params), singleton_partition(16)))
    best = _Best(engine.lower[0])
    best.offer(point_gap(engine, x, singleton_partition(16)), engine.v[0], singleton_partition(16))
    assert best.value == np.inf and best.v is None and best.pos is None and best.neg is None


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3)])
def test_lane_kernel_matches_point_kernel(d1, d2):
    # a stack of lanes, each with its own partition as member group labels,
    # gives each lane the gap and gradient of its one-lane call; a lane with
    # a singular X^dagger X is nan and leaves the others alone
    rng = np.random.default_rng(31 + d2)
    space = BipartiteSpace(d1, d2)
    state = BipartiteState(space, random_density(space.dim, rng))
    m = space.dim ** 2
    engine = _Engine(state, random_hermitian(space.dim, rng), m)
    parts = [singleton_partition(m), np.zeros(m, dtype=int)] + [_random_partition(rng, m) for _ in range(3)]
    x = engine.coords(np.eye(m)) + 0.4 * rng.standard_normal((len(parts), engine.n_params))
    x[1, ::engine.r] = 0.0  # real parts of column 0 of lane 1's X
    x[1, m * engine.r::engine.r] = 0.0  # and its imaginary parts
    gaps = engine.signed_gap(x, _LaneSet(engine, np.zeros(len(parts), dtype=int), np.array(parts)))
    grads = engine.gradient()
    assert gaps.shape == (len(parts),) and grads.shape == x.shape
    assert np.isnan(gaps[1]) and np.isnan(point_gap(engine, x[1], parts[1]))
    for k in (0, 2, 3, 4):
        assert abs(gaps[k] - point_gap(engine, x[k], parts[k])) <= 1e-12
        assert np.abs(grads[k] - engine.gradient()[0]).max() <= 1e-12 * max(1.0, np.abs(grads[k]).max())


@pytest.mark.parametrize("d1,d2", [(2, 2), (2, 3)])
def test_lane_set_compacts_in_place_to_its_rebuild(d1, d2):
    # retiring lanes moves the survivors' rows down in place, and their pairs
    # with them: the arrays equal those a lane set built from the survivors
    # alone holds, after one retirement and after another; at d1 == d2 sig and
    # tau stay one array
    rng = np.random.default_rng(7)
    space = BipartiteSpace(d1, d2)
    state = BipartiteState(space, random_density(space.dim, rng))
    m = space.dim ** 2
    engine = _Engine(state, np.array([random_hermitian(space.dim, rng) for _ in range(3)]), m)
    probe = rng.integers(0, 3, size=9)
    labels = np.array([_random_partition(rng, m) for _ in probe])
    lanes = _LaneSet(engine, probe, labels)
    for live in (np.array([0, 2, 3, 4, 7, 8]), np.array([1, 2, 5])):
        lanes.compact(live)
        probe, labels = probe[live], labels[live]
        rebuilt = _LaneSet(engine, probe, labels)
        for name in ("c", "a_sig", "a_sig_h", "sig", "tau"):
            assert np.array_equal(getattr(lanes, name), getattr(rebuilt, name)), name
        assert (lanes.tau is lanes.sig) == (d1 == d2)


class _Recorder(_Best):
    """Records each start's evaluations as raw bytes."""

    def __init__(self, lower):
        super().__init__(lower)
        self.seen = {}

    def offer_lanes(self, g, x, labels, starts):
        for k, start in enumerate(starts):
            self.seen.setdefault(int(start), []).append((g[k].tobytes(), x[k].tobytes()))
        super().offer_lanes(g, x, labels, starts)


class _Trajectories(_Recorder):
    """Never done, so every lane runs until its own budget or searches end."""

    def __init__(self):
        super().__init__(0.0)  # never read: done() ignores the bound

    def done(self):
        return False


def _budget_row(p, observable, max_iters, starts=1, warm=0):
    tags = ([f"{starts}-starts"] if starts > 1 else []) + ([f"{warm}-warm"] if warm else [])
    return pytest.param(p, observable, max_iters, starts, warm,
                        id="-".join([str(p), observable, str(max_iters)] + tags))


@pytest.mark.parametrize("p,observable,max_iters,starts,warm", [
    _budget_row(0.25, "random", 40), _budget_row(0.25, "random", 150), _budget_row(0.8, "random", 25),
    _budget_row(0.8, "random", 90), _budget_row(0.8, "witness", 5), _budget_row(0.8, "witness", 60),
    _budget_row(0.25, "random", 40, 4), _budget_row(0.8, "random", 25, 4), _budget_row(0.8, "random", 90, 4),
    _budget_row(0.8, "witness", 5, 4), _budget_row(0.8, "witness", 60, 4),
    _budget_row(0.8, "witness", 60, 4, 2)])
def test_one_start_never_exceeds_max_iters(monkeypatch, p, observable, max_iters, starts, warm):
    # every evaluation is a lane evaluation, the one of the isometry-independent
    # trivial partition included, and no one start, start 0 with its warm
    # starts included, spends more than max_iters
    a = random_hermitian(4, np.random.default_rng(8)) if observable == "random" else canonical_witness()
    state, extra = make_werner(p), ()
    if warm:  # warm starts from an earlier solve, searched first within start 0
        prev = minimize_d0(state, a, OptimizerConfig(starts=1, max_iters=20))
        extra = ((prev.argmin_isometry, prev.argmin_partition),) * warm
    records, kernel_ndim = [], []
    signed_gap = _Engine.signed_gap

    def recorded(self, x, lanes):
        kernel_ndim.append(x.ndim)
        return signed_gap(self, x, lanes)

    def recorder(lower):
        records.append(_Recorder(lower))
        return records[-1]

    monkeypatch.setattr(_Engine, "signed_gap", recorded)
    monkeypatch.setattr("qcorr.correlation._Best", recorder)
    res = minimize_d0(state, a, OptimizerConfig(starts=starts, max_iters=max_iters), extra_starts=extra)
    (best,) = records
    assert set(kernel_ndim) == {2}
    best.seen[0].pop(0)  # the trivial evaluation, before start 0 and outside its budget
    assert sorted(best.seen) == list(range(res.starts_used))
    assert res.starts_used in (1, starts)
    assert all(0 < len(evals) <= max_iters for evals in best.seen.values())


def _sequential_starts(state, a, cfg, extra_starts=()):
    """The scalar per-start loop the lane driver replaces: each start in turn,
    start 0 with the warm starts first, its searches sharing max_iters
    evaluations."""
    m = state.space.dim ** 2
    engine = _Engine(state, a, m)
    best = _Best(engine.lower[0])
    x_id = engine.coords(np.eye(m))
    trivial = np.zeros(m, dtype=int)
    best.offer(point_gap(engine, x_id, trivial), x_id, trivial)
    for i in range(cfg.starts):
        rng = np.random.default_rng((cfg.seed, i))
        x0 = x_id
        if i > 0:
            theta = rng.standard_normal(m * m) * (np.pi / (2.0 * np.sqrt(m)))
            x0 = engine.coords(expm_antihermitian(theta, m))
        work = [(x0, singleton_partition(m))] + [(x0, _random_partition(rng, m))
                                                 for _ in range(N_RANDOM_PARTITIONS)]
        if i == 0:
            work = [(engine.coords(v), labels) for v, labels in extra_starts] + work
        spent = 0
        for x_init, labels in work:
            if spent >= cfg.max_iters:
                break
            spent += _gradient_search(engine, labels, x_init, cfg.max_iters - spent, best)
    return best


def _npt_2x3_state(rank=3):
    # rank 3 by default: at rank <= 2 the exact envelope decides the value
    # before any lane runs, so the driver tests need a state above it
    rng = np.random.default_rng(21)
    while True:
        state = BipartiteState(BipartiteSpace(2, 3), random_density(6, rng, rank=rank))
        witness = canonical_pt_witness(state)
        if witness is not None:
            return state, witness


@pytest.mark.parametrize("case", ["werner-witness", "npt-2x3", "werner-witness-warm", "npt-2x3-warm"])
def test_lockstep_matches_sequential_starts(case):
    # on entangled instances no search stops early and no start's budget
    # binds, so the lane driver's result, starts 0..S-1 as lanes of one
    # batch, is the scalar per-start loop's; a warm start from an earlier
    # solve runs first in start 0
    state, a = (make_werner(0.7), canonical_witness()) if case.startswith("werner") else _npt_2x3_state()
    extra = ()
    if case.endswith("-warm"):
        prev = minimize_d0(state, a, OptimizerConfig(starts=2, max_iters=40, seed=11))
        extra = ((prev.argmin_isometry, prev.argmin_partition),)
    cfg = OptimizerConfig(starts=5, max_iters=150, seed=3)
    ref = _sequential_starts(state, a, cfg, extra)
    assert not ref.done()
    res = minimize_d0(state, a, cfg, extra_starts=extra)
    assert abs(res.value - ref.value) <= 1e-12
    assert res.starts_used == cfg.starts


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       n_lanes=st.integers(2, 5), max_iters=st.integers(3, 80))
@example(seed=6, dims=(2, 2), n_lanes=4, max_iters=60)  # lanes spend 53, 34, 16 and 52
@example(seed=6, dims=(2, 3), n_lanes=4, max_iters=60)  # 31, 60, 28 and 29
@example(seed=6, dims=(3, 2), n_lanes=4, max_iters=60)  # 38, 60, 48 and 51
def test_lane_trajectory_independent_of_batch(seed, dims, n_lanes, max_iters):
    # a lane evaluates the same points, with the same gaps to the bit, alone
    # and beside other random lanes, some of which run out of searches and
    # leave the batch early; each search of a lane starts from its own x0
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    r = np.linalg.matrix_rank(state.rho)
    m = int(rng.integers(r, space.dim ** 2 + 1))
    engine = _Engine(state, random_hermitian(space.dim, rng), m)
    lanes = [(0, i, [(engine.coords(expm_antihermitian(rng.standard_normal(m * m), m)), _random_partition(rng, m))
                     for _ in range(int(rng.integers(1, 4)))])
             for i in range(1, n_lanes + 1)]
    batch = _Trajectories()
    _lane_search(engine, lanes, max_iters, [batch])
    for lane in lanes:
        alone = _Trajectories()
        _lane_search(engine, [lane], max_iters, [alone])
        assert 0 < len(alone.seen[lane[1]]) <= max_iters
        assert alone.seen[lane[1]] == batch.seen[lane[1]]


class _Steps(_Trajectories):
    """Records every step's evaluations as (start, g bytes, x bytes), in lane
    order."""

    def __init__(self):
        super().__init__()
        self.steps = []

    def offer_lanes(self, g, x, labels, starts):
        self.steps.append([(int(s), g[k].tobytes(), x[k].tobytes()) for k, s in enumerate(starts)])
        super().offer_lanes(g, x, labels, starts)

    def of_start(self, start):
        """The start's evaluations, one list per step it evaluated in."""
        per_step = [[ev[1:] for ev in step if ev[0] == start] for step in self.steps]
        return [evals for evals in per_step if evals]


def _alone(engine, start, search, max_iters):
    """A search's evaluations as the only search of a one-search start."""
    rec = _Steps()
    _lane_search(engine, [(0, start, [search])], max_iters, [rec])
    return [evals for (evals,) in rec.of_start(start)]


def _shared_budget(trajectories, max_iters):
    """The evaluations of one start's searches, one list per step, by the
    budget rule: at each step a start with b evaluations left evaluates only
    its first b live searches, in order, and its other searches end."""
    steps, left, live = [], max_iters, list(range(len(trajectories)))
    for k in itertools.count():
        live = [s for s in live if k < len(trajectories[s])][:left]
        if not live:
            return steps
        steps.append([trajectories[s][k] for s in live])
        left -= len(live)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("max_iters", [3, 5, 8, 12])
@pytest.mark.parametrize("case", ["werner-2x2", "npt-2x3", "separable-2x2-random"])
def test_binding_budget_evaluates_first_live_searches(monkeypatch, case, max_iters, warm):
    # every lane call of a solve, rerun never done: at each step a start with
    # b evaluations left evaluates only its first b live searches, each on
    # its own trajectory, and never spends more than max_iters. The product
    # bound of the two entangled cases exceeds TOL, so start 0 cannot end the
    # search and runs beside starts 1..S-1; on the separable state it is 0,
    # and start 0 runs first, alone
    if case == "separable-2x2-random":
        rng = np.random.default_rng(35)  # neither start 0 nor its warm start resolves it
        state, a = make_werner(rng.uniform(0.0, 1.0 / 3.0)), random_hermitian(4, rng)
    else:
        state, a = (make_werner(0.8), canonical_witness()) if case == "werner-2x2" else _npt_2x3_state()
    extra = ()
    if warm:
        prev = minimize_d0(state, a, OptimizerConfig(starts=1, max_iters=20))
        extra = ((prev.argmin_isometry, prev.argmin_partition),)
    calls = []
    lane_search = _lane_search

    def spy(engine, lanes, budget, bests):
        calls.append((engine, lanes, budget))
        return lane_search(engine, lanes, budget, bests)

    monkeypatch.setattr("qcorr.correlation._lane_search", spy)
    minimize_d0(state, a, OptimizerConfig(starts=3, max_iters=max_iters), extra_starts=extra)
    schedule = [[0], [1, 2]] if case.startswith("separable") else [[0, 1, 2]]
    assert [[i for _, i, _ in lanes] for _, lanes, _ in calls] == schedule
    assert len(calls[0][1][0][2]) == N_RANDOM_PARTITIONS + 1 + len(extra)
    for engine, lanes, budget in calls:
        batch = _Steps()
        lane_search(engine, lanes, budget, [batch])
        for _, start, searches in lanes:
            alone = [_alone(engine, start, search, budget) for search in searches]
            assert sum(map(len, alone)) > budget  # the budget binds
            expected = _shared_budget(alone, budget)
            assert batch.of_start(start) == expected
            assert sum(map(len, expected)) <= budget


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       n_starts=st.integers(1, 4))
def test_search_trajectory_same_alone_and_in_full_batch(seed, dims, n_starts):
    # with a budget that never binds (the largest total a start spends), each
    # search evaluates the same points, with the same gaps to the bit, as the
    # only search of a one-search start and at the same steps in the full
    # batch, beside its start's other searches and the other starts
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    r = np.linalg.matrix_rank(state.rho)
    m = int(rng.integers(r, space.dim ** 2 + 1))
    engine = _Engine(state, random_hermitian(space.dim, rng), m)
    lanes = []
    for i in range(n_starts):
        x0 = engine.coords(expm_antihermitian(rng.standard_normal(m * m), m))
        parts = [singleton_partition(m)] + [_random_partition(rng, m) for _ in range(int(rng.integers(0, 3)))]
        lanes.append((0, i, [(x0, labels) for labels in parts]))
    alone = {i: [_alone(engine, i, search, 2000) for search in searches] for _, i, searches in lanes}
    assume(all(len(t) < 2000 for ts in alone.values() for t in ts))  # each search ends by itself
    budget = max(sum(map(len, ts)) for ts in alone.values())
    batch = _Steps()
    _lane_search(engine, lanes, budget, [batch])
    for i, ts in alone.items():
        steps = batch.of_start(i)
        assert steps == [[t[k] for t in ts if k < len(t)] for k in range(max(map(len, ts)))]
        assert steps == _shared_budget(ts, budget)


def test_lane_memory_ceiling_4x4():
    # a 4x4 rank-3 solve runs 93 lanes at m = 256 (at rank <= 2 the exact
    # envelope decides before any lane runs); their state grows through no
    # temporary copy and partitions are labels, so the traced peak stays at
    # or below 80 MB (78.8 MB measured; an (L, m, m) stack of float
    # indicators would add 93 x 256^2 doubles, about 49 MB)
    rng = np.random.default_rng(3)
    while True:
        state = BipartiteState(BipartiteSpace(4, 4), random_density(16, rng, rank=3))
        witness = canonical_pt_witness(state)
        if witness is not None:
            break
    tracemalloc.start()
    try:
        minimize_d0(state, witness, OptimizerConfig(starts=32, max_iters=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6


def test_verdict_memory_ceiling_4x4():
    # a 4x4 rank-3 verdict solves 9 probes; starts 1..S-1 run one probe at a
    # time, so its lanes, 93 at most, stay within the one-probe ceiling of
    # test_lane_memory_ceiling_4x4 (batched across probes they would hold
    # 9 x 93 lanes, nine times the L-BFGS memory of one probe)
    rng = np.random.default_rng(3)
    while True:
        state = BipartiteState(BipartiteSpace(4, 4), random_density(16, rng, rank=3))
        if canonical_pt_witness(state) is not None:
            break
    tracemalloc.start()
    try:
        res = separability_verdict(state, OptimizerConfig(starts=32, max_iters=3), n_observables=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.probes) == 9
    assert peak <= 80e6


def _random_partition_by_label_scan(rng, m):
    """A label-by-label construction of _random_partition: the k-th drawn
    label that some piece carries, in ascending order, becomes group k."""
    n_groups = int(rng.integers(1, m + 1))
    drawn = rng.integers(0, n_groups, size=m)
    labels = np.full(m, -1)
    for k, g in enumerate(g for g in range(n_groups) if np.any(drawn == g)):
        labels[drawn == g] = k
    return labels


@pytest.mark.parametrize("m", [1, 2, 4, 16, 36, 256])
def test_random_partition_matches_label_scan(m):
    # the same two draws give the same groups, in the same order, as labels
    # 0..k-1 of an integer dtype, and leave the generator in the same state
    for seed in range(300):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels = _random_partition(rng, m)
        assert labels.dtype.kind == "i"
        assert np.array_equal(labels, _random_partition_by_label_scan(ref_rng, m))
        assert np.array_equal(labels, normalize_partition(labels, m))
        assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)


def test_best_ties_go_to_lower_start():
    # equal |g| from a later step keeps the lower start index, and the two
    # candidates of a lockstep step are offered in lane order; labels (here
    # one per evaluation, its start) and polar factors are kept as copies,
    # since the lane driver moves its rows in place
    x = np.zeros(2)
    best = _Best(0.0)
    best.offer(0.5, x + 3, np.array([3]), 3)
    best.offer(-0.5, x + 1, np.array([1]), 1)
    best.offer(0.5, x + 2, np.array([2]), 2)
    assert (best.value, best.start, best.labels.tolist()) == (0.5, 1, [1])
    assert best.pos[:2] == (0.5, 2) and best.neg[:2] == (-0.5, 1)
    lanes = _Best(0.0)
    lanes.offer_lanes(np.array([0.25, -0.25, 0.25, -0.5]), np.arange(8.0).reshape(4, 2),
                      np.array([[4], [5], [6], [7]]), np.array([4, 5, 6, 7]))
    rows, points = np.array([[2], [3]]), np.zeros((2, 2))
    lanes.offer_lanes(np.array([-0.25, 0.25]), points, rows, np.array([2, 3]))
    rows[:], points[:] = -1, 1.0
    assert (lanes.value, lanes.start, lanes.labels.tolist()) == (0.25, 2, [2])
    assert lanes.pos[1] == 3 and lanes.neg[1] == 2
    assert lanes.pos[3].tolist() == [3] and lanes.neg[3].tolist() == [2]
    assert np.array_equal(lanes.v, np.zeros(2))


def test_best_witness_is_closest_or_zero_gap_mixture():
    # one side of zero seen: the closest evaluation's factor and labels; both
    # sides: the stacked mixture whose gap t g_pos + (1 - t) g_neg is 0, with
    # V_neg's groups after V_pos's
    v_pos, v_neg = np.eye(3, 2), np.eye(3, 2)[::-1]
    best = _Best(0.0)
    best.offer(0.5, v_pos, np.array([0, 0, 1]))
    v, labels = best.witness()
    assert v is best.v and labels is best.labels and np.array_equal(v, v_pos)
    best.offer(-0.25, v_neg, np.array([0, 1, 1]))
    v, labels = best.witness()
    t = 1.0 / 3.0  # t 0.5 - (1 - t) 0.25 = 0
    assert np.allclose(v, np.concatenate([np.sqrt(t) * v_pos, np.sqrt(1.0 - t) * v_neg]), atol=1e-15)
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-15)
    assert labels.tolist() == [0, 0, 1, 3, 4, 4]


@pytest.mark.parametrize("d1,d2", [(1, 3), (3, 1)])
def test_verdict_trivial_factor_separable(d1, d2):
    state = make_random_state(BipartiteSpace(d1, d2), 3, seed=9)
    res = separability_verdict(state, FAST, n_observables=3)
    assert res.verdict == SEPARABLE
    assert res.max_d0 <= 1e-9


def _straddle_case(d1=2, d2=3, seed=0):
    # a separable state, observable and default cardinality whose search sees
    # the signed gap on both sides of zero
    rng = np.random.default_rng(seed)
    acc = sum(w * np.kron(random_density(d1, rng), random_density(d2, rng))
              for w in rng.dirichlet(np.ones(3)))
    dim = d1 * d2
    return BipartiteState(BipartiteSpace(d1, d2), acc), random_hermitian(dim, rng), dim ** 2


def test_sign_straddle_closed_by_exact_mixture():
    _check_straddle_closed(2, 3, 0)


@pytest.mark.parametrize("d1,d2,seed", [(2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1)])
def test_sign_straddle_closed_by_exact_mixture_cases(d1, d2, seed):
    _check_straddle_closed(d1, d2, seed)


def _check_straddle_closed(d1, d2, seed):
    # the witness is the zero-gap mixture of the two ensembles, built from
    # the stacked isometry
    state, a, _ = _straddle_case(d1, d2, seed)
    res = minimize_d0(state, a, FAST)
    single = ensemble_from_unitary(state, res.argmin_isometry, res.argmin_partition)
    assert len(res.ensemble) > len(single)
    assert res.value <= 1e-14
    assert res.value == d0_objective(res.ensemble, a)
    # the closer endpoint is still an ensemble of rho and warm-starts a rerun
    bary = sum(w * x for w, x in zip(single.weights, single.members))
    assert np.linalg.norm(bary - state.rho) <= 1e-8
    warm = minimize_d0(state, a, FAST, extra_starts=((res.argmin_isometry, res.argmin_partition),))
    assert warm.value <= 1e-14


@pytest.mark.parametrize("case", ["werner-witness", "straddle-2x3"])
def test_argmin_params_rebuild_closest_ensemble(monkeypatch, case):
    # argmin_isometry is the search's own m x r polar factor of the closest
    # evaluated single ensemble
    if case == "werner-witness":
        state, a, m = make_werner(0.7), canonical_witness(), 16
    else:
        state, a, m = _straddle_case()
    closest = [np.inf]
    signed_gap = _Engine.signed_gap

    def recorded(self, x, lanes):
        g = signed_gap(self, x, lanes)
        closest[0] = min(closest[0], np.min(np.abs(g)))
        return g

    monkeypatch.setattr(_Engine, "signed_gap", recorded)
    res = minimize_d0(state, a, FAST)
    assert res.argmin_isometry.shape == (m, np.linalg.matrix_rank(state.rho))
    single = ensemble_from_unitary(state, res.argmin_isometry, res.argmin_partition)
    assert abs(d0_objective(single, a) - closest[0]) <= 1e-10
    warm = minimize_d0(state, a, FAST, extra_starts=((res.argmin_isometry, res.argmin_partition),))
    assert warm.value <= res.value + 1e-12


_MALFORMED = [("rows", "rows"), ("columns", "columns"), ("rank-deficient", "orthonormal"),
              ("scaled", "orthonormal"), ("not-finite", "orthonormal")]


@pytest.mark.parametrize("state_case,case,match", [
    pytest.param(state_case, case, match, id=prefix + case)
    for state_case, prefix in (("werner", ""), ("npt-2x3-rank-2", "rank-2-"))
    for case, match in _MALFORMED])
def test_extra_starts_reject_malformed_isometry(state_case, case, match):
    # A warm start is read like ensemble_from_unitary reads it: m rows, at
    # least r columns, of which only the first r are read and must be
    # orthonormal. Werner p = 0.7 has r = 4 at m = 16 and the search runs; at
    # rank 2 (m = 36) the bracket closes before any warm start is searched,
    # and a malformed one is still an error
    if state_case == "werner":
        state, a = make_werner(0.7), canonical_witness()
    else:
        state, a = _npt_2x3_state(rank=2)
    m, r = state.space.dim ** 2, np.linalg.matrix_rank(state.rho)
    v = np.linalg.qr(np.random.default_rng(5).standard_normal((m, r)))[0]
    labels = singleton_partition(m)
    wide = np.concatenate([v, np.ones((m, 1))], axis=1)  # the last column is not read
    res = minimize_d0(state, a, FAST, extra_starts=((wide, labels),))
    assert res.argmin_isometry.shape == (m, r)
    assert (res.starts_used == 0) == (r <= 2)
    bad = {"rows": v[:m - 1], "columns": v[:, :r - 1], "rank-deficient": v[:, [0, *range(r - 1)]],
           "scaled": (1.0 + 1e-6) * v, "not-finite": np.where(np.eye(m, r) > 0, np.nan, v)}[case]
    with pytest.raises(DimensionMismatch, match=match):
        minimize_d0(state, a, FAST, extra_starts=((bad, labels),))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       log_cond=st.floats(0.0, 2.5), scale=st.floats(1e-3, 1e3))
def test_engine_gap_is_gap_of_completed_isometry(seed, dims, log_cond, scale):
    # for any full-rank X, including nearly rank-deficient ones (condition
    # number up to 10^2.5), the engine's gap is c - S of the ensemble built
    # from its polar factor completed to a unitary (by QR here, as the
    # reference), an ensemble of rho
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = make_random_state(space, int(rng.integers(1, space.dim + 1)), seed=seed)
    a = random_hermitian(space.dim, rng)
    r = np.linalg.matrix_rank(state.rho)
    m = int(rng.integers(r, space.dim ** 2 + 1))
    engine = _Engine(state, a, m)
    assert engine.r == r
    left = np.linalg.qr(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))[0]
    right = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
    xm = scale * (left * np.geomspace(1.0, 10.0 ** -log_cond, r)) @ right
    x = np.concatenate([xm.real.ravel(), xm.imag.ravel()])
    labels = _random_partition(rng, m)
    g = point_gap(engine, x, labels)
    v = engine.v[0]  # the kernel's own polar factor, valued at x
    assert v.shape == (m, r)
    u = np.concatenate([v, np.linalg.qr(v, mode="complete")[0][:, r:]], axis=1)
    assert np.abs(u.conj().T @ u - np.eye(m)).max() <= 1e-10
    e = ensemble_from_unitary(state, u, labels)
    # the m x r isometry alone builds the same ensemble
    e_iso = ensemble_from_unitary(state, v, labels)
    assert len(e_iso) == len(e)
    assert np.abs(e_iso.weights - e.weights).max() <= 1e-12
    assert max(np.abs(iso - full).max() for iso, full in zip(e_iso.members, e.members)) <= 1e-12
    c = expect(state, a).real
    assert abs(g - (c - evaluate_boxtimes(boxtimes(e), a).real)) <= 1e-12
    bary = sum(w * mem for w, mem in zip(e.weights, e.members))
    assert np.linalg.norm(bary - state.rho) <= 1e-10


def _separable(space, rng):
    """A random mixture of 1 to 4 product states."""
    d1, d2 = space.d1, space.d2
    acc = sum(w * np.kron(random_density(d1, rng), random_density(d2, rng))
              for w in rng.dirichlet(np.ones(int(rng.integers(1, 5)))))
    return BipartiteState(space, acc)


def _verdict_probes(state, cfg, n_observables):
    """The observables ``separability_verdict`` probes, in its order."""
    witness = canonical_pt_witness(state)
    rng = np.random.default_rng((cfg.seed, 10_000))
    return ([witness] if witness is not None else []) + [
        random_hermitian_probe(rng, state.space.dim) for _ in range(n_observables)]


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       separable=st.booleans(), n_observables=st.integers(0, 4))
def test_verdict_probe_values_are_those_of_lone_solves(seed, dims, separable, n_observables):
    # the probes of a verdict share kernel calls, never a search or a budget:
    # each bound and value is, to the bit, that of minimize_d0 on the probe alone
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = _separable(space, rng) if separable else BipartiteState(space, random_density(space.dim, rng, rank=2))
    cfg = OptimizerConfig(starts=3, max_iters=40, seed=seed % 1000)
    res = separability_verdict(state, cfg, n_observables=n_observables)
    probes = _verdict_probes(state, cfg, n_observables)
    assert len(res.probes) == len(probes)
    alone = [minimize_d0(state, a, cfg) for a in probes]
    assert [(lower, value) for _, lower, value in res.probes] == [(r.lower, r.value) for r in alone]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       kind=st.sampled_from(["random", "separable", "npt"]), starts=st.integers(1, 2),
       max_iters=st.integers(1, 5), n_observables=st.integers(0, 3))
def test_verdict_at_exact_dims_is_the_ppt_test_for_any_budget(seed, dims, kind, starts, max_iters,
                                                              n_observables):
    # the verdict reads certificates only, so a search cut short changes
    # nothing: Entangled iff the partial transpose has an eigenvalue below
    # -PPT_ATOL, and Separable otherwise
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    if kind == "separable":
        state = _separable(space, rng)
    elif kind == "random":
        state = BipartiteState(space, random_density(space.dim, rng, rank=int(rng.integers(1, space.dim + 1))))
    else:
        state = BipartiteState(space, random_pure(space.dim, rng))
        assume(ppt_min_eigenvalue(state) < -PPT_ATOL)
    cfg = OptimizerConfig(starts=starts, max_iters=max_iters, seed=seed % 1000)
    res = separability_verdict(state, cfg, n_observables=n_observables)
    npt = ppt_min_eigenvalue(state) < -PPT_ATOL
    assert res.verdict == (ENTANGLED if npt else SEPARABLE)
    assert (res.lower > 0.0) == npt
    if not npt:
        assert np.array_equal(res.witness, np.eye(space.dim))


def test_verdict_trivial_decompositions_share_one_kernel_call(monkeypatch):
    # a separable verdict with 8 probes evaluates {1, rho} of every probe in
    # its first kernel call, one lane each, and never again
    state = separable_state(3, np.random.default_rng(12))
    calls, records = [], []
    signed_gap = _Engine.signed_gap

    def recorded(self, x, lanes):
        g = signed_gap(self, x, lanes)
        calls.append((x.copy(), g.copy(), self.v.copy()))
        return g

    class Partitions(_Recorder):
        def __init__(self, lower):
            super().__init__(lower)
            self.offered = []
            records.append(self)

        def offer_lanes(self, g, x, labels, starts):
            self.offered.extend(labels.tolist())
            super().offer_lanes(g, x, labels, starts)

    monkeypatch.setattr(_Engine, "signed_gap", recorded)
    monkeypatch.setattr("qcorr.correlation._Best", Partitions)
    res = separability_verdict(state, OptimizerConfig(), n_observables=8)
    assert len(res.probes) == 8 and len(records) == 8
    x, g, v = calls[0]
    x_id = _Engine(state, np.eye(4), 16).coords(np.eye(16))
    assert len(x) == 8 and all(np.array_equal(row, x_id) for row in x)
    # what is offered is the kernel's polar factor of x_id, the isometry I[:, :r]
    assert np.abs(v - np.eye(16, v.shape[-1])).max() <= 1e-15
    trivial = [0] * 16
    for p, best in enumerate(records):
        assert best.offered[0] == trivial and best.offered.count(trivial) == 1
        assert best.seen[0][0] == (g[p].tobytes(), v[p].tobytes())


@pytest.mark.parametrize("case", ["werner-witness", "npt-2x3", "npt-2x3-perturbed"])
def test_start_zero_joins_the_batch_when_the_bound_exceeds_tol(monkeypatch, case):
    # where the product bound proves that no evaluation comes within TOL of
    # zero or crosses it, start 0 cannot end the search: one lane batch runs
    # starts 0..S-1
    if case == "werner-witness":
        state, a = make_werner(0.7), canonical_witness()
    else:
        state, a = _npt_2x3_state()
        if case == "npt-2x3-perturbed":  # not a partially transposed projector
            a = a + 0.02 * random_hermitian(6, np.random.default_rng(0))
    cfg = OptimizerConfig(starts=5, max_iters=60)
    calls = []
    lane_search = _lane_search

    def spy(engine, lanes, budget, bests):
        calls.append([(p, i) for p, i, _ in lanes])
        return lane_search(engine, lanes, budget, bests)

    monkeypatch.setattr("qcorr.correlation._lane_search", spy)
    res = minimize_d0(state, a, cfg)
    assert res.lower > TOL
    assert calls == [[(0, i) for i in range(cfg.starts)]]
    assert res.starts_used == cfg.starts


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]),
       kind=st.sampled_from(["random", "separable", "npt-witness"]))
def test_product_bound_below_value(seed, dims, kind):
    # L <= d0 <= value: lower never exceeds the certified value, and it is 0
    # on a separable state, whatever the observable
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = _separable(space, rng) if kind == "separable" else BipartiteState(
        space, random_density(space.dim, rng, rank=int(rng.integers(1, space.dim + 1))))
    a = canonical_pt_witness(state) if kind == "npt-witness" else None
    a = random_hermitian(space.dim, rng) if a is None else a
    res = minimize_d0(state, a, OptimizerConfig(starts=2, max_iters=60))
    assert 0.0 <= res.lower <= res.value
    if kind == "separable":
        assert res.lower == 0.0


@pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.34, 0.5, 0.75, 1.0])
def test_product_bound_of_werner_witness(p):
    # dist(c, [P_lo, P_hi]) for the canonical witness is (3p - 1)/4 above the
    # separable boundary p = 1/3 and 0 below it; it equals |lambda_min(rho^Gamma)|.
    # At p = 1 the state is pure (rank 1), and the exact bound d0 = 3/4 is
    # the larger one
    state = make_werner(p)
    res = minimize_d0(state, canonical_witness(), OptimizerConfig(starts=1, max_iters=1))
    if p == 1.0:
        assert abs(res.lower - 0.75) <= 1e-12 and res.value - res.lower <= TOL
        return
    assert abs(res.lower - max(0.0, (3.0 * p - 1.0) / 4.0)) <= 1e-12
    assert abs(res.lower - max(0.0, -ppt_min_eigenvalue(state))) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2)]))
def test_kernel_gaps_respect_product_bound(seed, dims):
    # at random points and partitions, in one kernel call over a stack of
    # probes, every gap has |g| >= lower (net of the roundoff margin), and
    # where lower > 0 the gaps of a probe all have one sign
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    state = BipartiteState(space, random_density(space.dim, rng, rank=int(rng.integers(1, space.dim + 1))))
    probes = [random_hermitian(space.dim, rng) * rng.uniform(0.1, 10.0) for _ in range(3)]
    witness = canonical_pt_witness(state)
    probes += [] if witness is None else [witness, -witness]
    r = np.linalg.matrix_rank(state.rho)
    m = int(rng.integers(r, space.dim ** 2 + 1))
    engine = _Engine(state, np.array(probes), m)
    lanes = 40
    probe = np.repeat(np.arange(len(probes)), lanes)
    x = np.array([engine.coords(expm_antihermitian(rng.standard_normal(m * m), m)) for _ in probe])
    labels = np.array([_random_partition(rng, m) for _ in probe])
    g = engine.signed_gap(x, _LaneSet(engine, probe, labels)).reshape(len(probes), lanes)
    assert np.all(np.abs(g) >= engine.lower[:, None])
    for k in np.flatnonzero(engine.lower > 0.0):
        assert np.all(g[k] > 0.0) or np.all(g[k] < 0.0)
    # a probe's gaps are those of a one-probe engine
    single = _Engine(state, probes[-1], m)
    assert single.lower[0] == engine.lower[-1]
    assert np.array_equal(single.signed_gap(x[-lanes:], _LaneSet(single, np.zeros(lanes, dtype=int), labels[-lanes:])),
                          g[-1])


def _rank_le_2_case(seed, dims, rank, kind):
    """A state of rank 1 or 2 and a unit-norm probe: a random one, the
    canonical PT witness (None on a PPT state), or a random one on a mixture
    of ``rank`` pure product states, whose range of S holds c ("straddle")."""
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    if kind == "straddle":
        state = BipartiteState(space, sum(w * np.kron(random_pure(dims[0], rng), random_pure(dims[1], rng))
                                          for w in rng.dirichlet(np.ones(rank))))
    else:
        state = BipartiteState(space, random_density(space.dim, rng, rank=rank))
    a = canonical_pt_witness(state) if kind == "pt-witness" else random_hermitian_probe(rng, space.dim)
    return state, a, rng


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]),
       rank=st.integers(1, 2), kind=st.sampled_from(["random", "pt-witness", "straddle"]))
def test_envelope_certificate_at_rank_at_most_2(seed, dims, rank, kind):
    # at rank <= 2 the exact range [S_min, S_max] of the decorrelated term is a
    # certificate. Sound: a search that never stops evaluates no |g| below
    # lower. Tight: the trivial decomposition and the two chords alone come
    # within TOL of it, and no start runs. Where c lies in the range, the
    # witness is a zero-gap mixture. A failure here is a solver defect: the
    # tolerances are not to be loosened
    state, a, rng = _rank_le_2_case(seed, dims, rank, kind)
    assume(a is not None)
    assert np.linalg.matrix_rank(state.rho) == rank
    res = minimize_d0(state, a)
    assert 0.0 <= res.lower <= res.value
    assert res.value - res.lower <= TOL and res.starts_used == 0
    if kind == "straddle":
        assert res.value <= TOL
    m = state.space.dim ** 2
    engine = _Engine(state, a, m)
    assert engine.lower[0] == res.lower
    lanes = []
    for i in range(3):
        x0 = engine.coords(expm_antihermitian(rng.standard_normal(m * m) * (np.pi / (2.0 * np.sqrt(m))), m))
        lanes.append((0, i, [(x0, singleton_partition(m)), (x0, _random_partition(rng, m))]))
    never = _Trajectories()
    _lane_search(engine, lanes, 100, [never])
    assert never.value >= engine.lower[0]


def test_rank_2_verdict_is_one_kernel_call(monkeypatch):
    # a rank-2 NPT state at 2x3 with the default 8 random probes: the exact
    # envelope closes every probe's bracket in the first kernel call, the
    # trivial decomposition and two chords per probe, and no lane search runs
    state, _ = _npt_2x3_state(rank=2)
    calls = []
    signed_gap = _Engine.signed_gap

    def recorded(self, x, lanes):
        calls.append(len(x))
        return signed_gap(self, x, lanes)

    def no_search(*args):
        raise AssertionError("lane search called")

    monkeypatch.setattr(_Engine, "signed_gap", recorded)
    monkeypatch.setattr("qcorr.correlation._lane_search", no_search)
    res = separability_verdict(state)
    assert calls == [9 * 3]
    assert res.verdict == ENTANGLED and len(res.probes) == 9
    assert all(0.0 <= value - lower <= TOL for _, lower, value in res.probes)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
       rank=st.sampled_from([1, 2, "full"]), n=st.sampled_from([1, 8]), separable=st.booleans())
def test_values_are_recomputed_from_the_witnesses(seed, dims, rank, n, separable):
    # a solve builds and values every probe's witness in one batch, yet each
    # value is, to the bit, d0_objective of the returned ensemble, for closest
    # points, chords at rank 2, and straddle mixtures (c inside the range of
    # S on a separable state); the verdict reports those values, and
    # minimize_d0 gives each probe the same result alone
    rng = np.random.default_rng(seed)
    space = BipartiteSpace(*dims)
    r = space.dim if rank == "full" else rank
    if separable:
        rho = sum(w * np.kron(random_density(dims[0], rng, rank=1), random_density(dims[1], rng, rank=1))
                  for w in rng.dirichlet(np.ones(r)))
    else:
        rho = random_density(space.dim, rng, rank=r)
    state = BipartiteState(space, rho)
    cfg = OptimizerConfig(starts=2, max_iters=30, seed=seed % 1000)
    probes = _verdict_probes(state, cfg, n)
    results = _solve(state, probes, cfg)
    for res, a in zip(results, probes):
        assert res.value == d0_objective(res.ensemble, a)
    verdict = separability_verdict(state, cfg, n_observables=n)
    assert [value for _, _, value in verdict.probes] == [res.value for res in results]
    alone = minimize_d0(state, probes[-1], cfg)
    assert alone.value == results[-1].value == d0_objective(alone.ensemble, probes[-1])
    assert np.array_equal(alone.ensemble.members, results[-1].ensemble.members)


@pytest.mark.parametrize("n_probes", [1, 8])
def test_solve_decomposes_the_state_twice_whatever_the_probe_count(monkeypatch, n_probes):
    # once for the engine and once for the batched witness recompute, not
    # once more per probe; the searches run and straddle zero
    calls = []
    spectral = state_spectral_data

    def counted(rho):
        calls.append(rho)
        return spectral(rho)

    monkeypatch.setattr("qcorr.correlation.state_spectral_data", counted)
    monkeypatch.setattr("qcorr.measures.state_spectral_data", counted)
    state, a, _ = _straddle_case()
    rng = np.random.default_rng(3)
    probes = [a] + [random_hermitian_probe(rng, state.space.dim) for _ in range(n_probes - 1)]
    results = _solve(state, probes, FAST)
    assert len(results) == n_probes and results[0].value <= 1e-14
    assert len(calls) <= 2


@pytest.mark.parametrize("case", ["trace-above-1", "negative-eigenvalue"])
def test_bounds_allow_for_a_state_off_unit_trace(case):
    # validation accepts a trace or an eigenvalue off by up to 1e-10. c is read
    # on rho, every S on its normalized support, so the certified bounds allow
    # for the drift between the two: a product pure state scaled by 1 + 5e-11,
    # or with a -5e-11 eigenvalue beside it, is not certified entangled, by
    # the exact bound of a random probe or by the product bound of a probe
    # whose largest eigenvalue is the state's expectation
    p00, p11 = np.diag([1.0, 0.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0])
    rho = (1.0 + 5e-11) * p00 - (5e-11 * p11 if case == "negative-eigenvalue" else 0.0)
    state = BipartiteState(BipartiteSpace(2, 2), rho)
    res = separability_verdict(state)
    assert res.verdict == SEPARABLE and res.lower == 0.0
    assert minimize_d0(state, p00, FAST).lower == 0.0


def _eighs_after_last_kernel_call(monkeypatch, solve) -> tuple[int, int]:
    """Run ``solve`` and count its kernel calls and the ``np.linalg.eigh``
    calls that follow the last of them."""
    events = []
    eigh, signed_gap = np.linalg.eigh, _Engine.signed_gap

    def counted_eigh(*args, **kwargs):
        events.append("eigh")
        return eigh(*args, **kwargs)

    def counted_gap(self, x, lanes):
        g = signed_gap(self, x, lanes)
        events.append("gap")
        return g

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(_Engine, "signed_gap", counted_gap)
    solve()
    last = len(events) - events[::-1].index("gap")
    return events.count("gap"), events[last:].count("eigh")


@pytest.mark.parametrize("case", ["werner-1-probe", "separable-8-probes", "straddle", "rank-2-verdict"])
def test_witnesses_take_the_kernels_polar_factors(monkeypatch, case):
    # the witnesses are built from the polar factors the kernel computed:
    # after a solve's last kernel call, the one eigh left is the spectral
    # decomposition of rho that the batched recompute reads
    if case == "werner-1-probe":
        solve = lambda: minimize_d0(make_werner(0.6), canonical_witness(), FAST)
    elif case == "separable-8-probes":
        state = separable_state(3, np.random.default_rng(12))
        solve = lambda: separability_verdict(state, FAST, n_observables=8)
    elif case == "straddle":
        state, a, _ = _straddle_case()
        solve = lambda: minimize_d0(state, a, FAST)
    else:
        state = _npt_2x3_state(rank=2)[0]
        solve = lambda: separability_verdict(state, FAST)
    kernel_calls, eighs = _eighs_after_last_kernel_call(monkeypatch, solve)
    assert kernel_calls >= 1 and eighs == 1
