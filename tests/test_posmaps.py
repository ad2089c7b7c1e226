import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr.bipartite import BipartiteSpace, BipartiteState, make_bell, make_random_state, make_werner
from qcorr.errors import DimensionMismatch, InvalidMatrix, MapNotUnital, OutOfRange
from qcorr.linalg import dagger, hermitian_eigendecompose
from qcorr.posmaps import (
    KADISON_MAX_NORM,
    apply_map,
    apply_tensor_id,
    builtin_maps,
    convex_combination,
    depolarizing_map,
    find_positivity_violation,
    identity_map,
    is_positive_map,
    is_ppt,
    kadison_defect,
    map_from_function,
    partial_transpose,
    partial_transpose_matrix,
    ppt_min_eig_and_vector,
    ppt_min_eigenvalue,
    reduction_map,
    transpose_map,
)

from helpers import (
    SY,
    naive_partial_transpose_first,
    random_density,
    separable_state,
)


def test_apply_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(apply_map(identity_map(3), x), x, atol=1e-14)


def test_apply_transpose_on_sigma_y():
    assert np.allclose(apply_map(transpose_map(2), SY), -SY, atol=1e-14)


def test_apply_reduction_on_projector():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(apply_map(reduction_map(2), p0), np.diag([0.0, 1.0]), atol=1e-14)


def test_apply_map_matches_direct_function():
    rng = np.random.default_rng(1)
    fns = {
        "transpose": lambda x: x.T,
        "reduction3": lambda x: (np.trace(x) * np.eye(3) - x) / 2,
        "depol": lambda x: 0.3 * x + 0.7 * np.trace(x) * np.eye(3) / 3,
    }
    for name, fn in fns.items():
        spec = map_from_function(3, fn, name)
        for _ in range(5):
            x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.max(np.abs(apply_map(spec, x) - fn(x))) <= 1e-12


def test_apply_map_linearity_and_adjoint():
    rng = np.random.default_rng(2)
    alpha = reduction_map(3)
    x, y = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    assert np.allclose(apply_map(alpha, x + 2j * y),
                       apply_map(alpha, x) + 2j * apply_map(alpha, y), atol=1e-12)
    assert np.max(np.abs(apply_map(alpha, x.conj().T) - apply_map(alpha, x).conj().T)) <= 1e-12


def test_choi_roundtrip():
    for alpha in builtin_maps(3):
        rebuilt = np.zeros_like(alpha.choi)
        for k in range(3):
            for l in range(3):
                e = np.zeros((3, 3), dtype=complex)
                e[k, l] = 1.0
                rebuilt[k * 3:(k + 1) * 3, l * 3:(l + 1) * 3] = apply_map(alpha, e)
        assert np.max(np.abs(rebuilt - alpha.choi)) <= 1e-12


def test_unital_flags():
    for alpha in builtin_maps(2) + builtin_maps(3):
        assert alpha.unital


def test_apply_tensor_id_identity():
    s = make_random_state(BipartiteSpace(2, 3), 6, seed=5)
    assert np.allclose(apply_tensor_id(identity_map(2), s), s.rho, atol=1e-13)


def test_apply_tensor_id_werner_law():
    for p in np.linspace(0.0, 1.0, 11):
        pt = apply_tensor_id(transpose_map(2), make_werner(float(p)))
        w = np.linalg.eigvalsh(pt)
        assert abs(w[0] - (1.0 - 3.0 * p) / 4.0) <= 1e-10


def test_apply_tensor_id_reduction_on_bell():
    bell = make_bell()
    out = apply_tensor_id(reduction_map(2), bell)
    expected = np.kron(np.eye(2), np.eye(2) / 2) - bell.rho
    assert np.allclose(out, expected, atol=1e-12)
    assert abs(np.linalg.eigvalsh(out)[0] - (-0.5)) <= 1e-12


def test_apply_tensor_id_trace_preservation():
    s = make_random_state(BipartiteSpace(2, 2), 4, seed=6)
    for alpha in (identity_map(2), transpose_map(2)):
        assert abs(np.trace(apply_tensor_id(alpha, s)) - 1.0) <= 1e-12


def test_partial_transpose_matches_naive():
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        s = make_random_state(BipartiteSpace(d1, d2), d1 * d2, seed=d1 * 10 + d2)
        assert np.allclose(partial_transpose(s),
                           naive_partial_transpose_first(s.rho, d1, d2), atol=1e-13)


def test_partial_transpose_of_a_stack_is_that_of_each_matrix():
    rng = np.random.default_rng(9)
    for d1, d2 in ((1, 3), (2, 2), (2, 3), (3, 2)):
        stack = np.array([random_density(d1 * d2, rng) for _ in range(3)])
        pt = partial_transpose_matrix(stack, d1, d2)
        assert pt.shape == stack.shape and not np.shares_memory(pt, stack)
        for x, y in zip(stack, pt):
            assert np.array_equal(y, partial_transpose_matrix(x, d1, d2))
            assert np.array_equal(y, naive_partial_transpose_first(x, d1, d2))
    with pytest.raises(DimensionMismatch):
        partial_transpose_matrix(np.zeros((2, 4, 4)), 2, 3)


def test_partial_transpose_involution():
    s = make_random_state(BipartiteSpace(2, 3), 6, seed=7)
    pt = partial_transpose(s)
    ptpt = partial_transpose_matrix(pt, 2, 3)
    assert np.max(np.abs(ptpt - s.rho)) <= 1e-14


def test_partial_transpose_product_state_spectrum():
    rng = np.random.default_rng(8)
    sigma, tau = random_density(2, rng), random_density(2, rng)
    s = BipartiteState(BipartiteSpace(2, 2), np.kron(sigma, tau))
    pt = partial_transpose(s)
    assert np.allclose(np.linalg.eigvalsh(pt), np.linalg.eigvalsh(s.rho), atol=1e-12)
    assert ppt_min_eigenvalue(s) >= -1e-12


def test_ppt_werner_examples():
    assert abs(ppt_min_eigenvalue(make_werner(1.0)) - (-0.5)) <= 1e-12
    assert abs(ppt_min_eigenvalue(make_werner(1.0 / 3.0))) <= 1e-12
    val, vec = ppt_min_eig_and_vector(make_werner(1.0))
    assert abs(val + 0.5) <= 1e-12
    pt = partial_transpose(make_werner(1.0))
    assert np.linalg.norm(pt @ vec - val * vec) <= 1e-10
    assert is_ppt(ppt_min_eigenvalue(make_werner(1.0 / 3.0))) is True
    assert is_ppt(val) is False


def test_separable_states_are_ppt():
    rng = np.random.default_rng(9)
    for k in (1, 2, 3, 4):
        s = separable_state(k, rng)
        assert ppt_min_eigenvalue(s) >= -1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_apply_map_on_a_stack_is_per_matrix(d):
    # a (k, d, d) stack is mapped matrix by matrix, bit for bit, and the
    # trailing shape is checked as for one matrix
    rng = np.random.default_rng(20 + d)
    xs = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    for alpha in builtin_maps(d):
        assert np.array_equal(apply_map(alpha, xs), np.stack([apply_map(alpha, x) for x in xs]))
    with pytest.raises(DimensionMismatch):
        apply_map(identity_map(d), xs[:, :, :-1])


def test_kadison_identity_equality_case():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert abs(kadison_defect(identity_map(2), a)) <= 1e-14


def test_kadison_transpose():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert abs(kadison_defect(transpose_map(2), a)) <= 1e-12


def test_kadison_depolarizing_example():
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    # alpha(x) = Tr(x) 1/2 maps a'a + aa' = 1 to 1 and kills traceless a
    defect = kadison_defect(depolarizing_map(2, 0.0), e01)
    assert abs(defect - 1.0) <= 1e-12


def test_kadison_nonnegative_for_builtins():
    rng = np.random.default_rng(12)
    for d in (2, 3):
        for alpha in builtin_maps(d):
            for _ in range(50):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                assert kadison_defect(alpha, a) >= -1e-10


def test_kadison_requires_unital_flag():
    bad = map_from_function(2, lambda x: x - np.trace(x) * np.eye(2) / 4, "shrink")
    with pytest.raises(MapNotUnital):
        kadison_defect(bad, np.eye(2, dtype=complex))
    with pytest.raises(DimensionMismatch):
        kadison_defect(identity_map(2), np.eye(3, dtype=complex))


def test_kadison_reads_unitality_from_choi():
    # a map built without any flag is unital by its Choi matrix alone
    transpose = map_from_function(2, lambda x: x.T)
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert kadison_defect(transpose, a) >= -1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([2, 3, 4]), k=st.integers(0, 5),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_kadison_defect_is_the_eigendecomposition_minimum(seed, d, k, scale):
    # the eigenvalue-only defect equals the smallest eigenvalue of the same
    # symmetrized defect, formed through apply_map and fully eigendecomposed
    alpha = builtin_maps(d)[k]
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ad = dagger(a)
    defect = apply_map(alpha, ad @ a + a @ ad) - apply_map(alpha, ad) @ apply_map(alpha, a) \
        - apply_map(alpha, a) @ apply_map(alpha, ad)
    w, _ = hermitian_eigendecompose((defect + dagger(defect)) / 2.0)
    assert abs(kadison_defect(alpha, a) - w[0]) <= 1e-12 * max(1.0, scale * scale)


@pytest.mark.parametrize("a", [np.full((2, 2), np.nan), np.full((2, 2), 1e200)], ids=["nan", "overflow"])
def test_kadison_rejects_non_finite_or_overflowing_elements(a):
    # a^dagger a would overflow for the second element: it is rejected before
    # it is formed, with no numpy warning, and the error names a
    with pytest.raises(InvalidMatrix, match="^a "):
        kadison_defect(identity_map(2), a)


@pytest.mark.parametrize("d", [2, 4])
def test_kadison_norm_cap_sits_between_finite_and_overflowing(d):
    # an element at the largest admitted norm gives a finite defect for every
    # builtin map; one just past it is refused
    at_cap = np.full((d, d), KADISON_MAX_NORM / d)
    for alpha in builtin_maps(d):
        assert np.isfinite(kadison_defect(alpha, at_cap))
        with pytest.raises(InvalidMatrix, match="a has norm"):
            kadison_defect(alpha, at_cap * 1.01)


@pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
def test_map_constructors_refuse_weights_outside_the_unit_interval(bad):
    with pytest.raises(OutOfRange, match="depolarizing parameter"):
        depolarizing_map(2, bad)
    with pytest.raises(OutOfRange, match="mixing weight"):
        convex_combination(identity_map(2), transpose_map(2), bad)


def test_depolarizing_formula_past_one_is_unital_but_not_positive():
    # why depolarizing_map refuses lam = 1.5
    over = map_from_function(2, lambda x: 1.5 * x - 0.5 * np.trace(x) * np.eye(2) / 2)
    assert over.unital and not is_positive_map(over, n_samples=20, seed=0)


def test_is_positive_map_examples():
    assert is_positive_map(transpose_map(2), n_samples=40, seed=0)
    sz = np.diag([1.0, -1.0]).astype(complex)
    conj = map_from_function(2, lambda x: sz @ x @ sz, "sz-conjugation")
    assert is_positive_map(conj, n_samples=40, seed=0)
    bad = map_from_function(2, lambda x: x - np.trace(x) * np.eye(2) / 4, "shrink")
    assert not is_positive_map(bad, n_samples=40, seed=0)


def test_positivity_violation_witness_is_certified():
    bad = map_from_function(2, lambda x: x - np.trace(x) * np.eye(2) / 4, "shrink")
    val, psi, phi = find_positivity_violation(bad, n_samples=40, seed=0)
    assert val < -1e-9
    direct = np.vdot(phi, apply_map(bad, np.outer(psi, psi.conj())) @ phi).real
    assert abs(direct - val) <= 1e-10


def test_builtin_maps_positive_by_sampling():
    for d in (2, 3):
        for alpha in builtin_maps(d):
            assert is_positive_map(alpha, n_samples=25, seed=1), alpha.name
