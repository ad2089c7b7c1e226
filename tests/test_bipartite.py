import numpy as np
import pytest

from qcorr.bipartite import (
    BipartiteSpace,
    BipartiteState,
    expect,
    make_bell,
    make_product,
    make_random_state,
    make_werner,
    random_full_rank_density,
    restrict_first,
    restrict_second,
    validate_density,
)
from qcorr.errors import DimensionMismatch, InvalidDensityMatrix, NotHermitian, OutOfRange
from qcorr.linalg import matrix_units

from helpers import (
    SZ,
    naive_partial_trace_first,
    naive_partial_trace_second,
    random_density,
    singlet_proj,
)


def test_product_state_marginals():
    rng = np.random.default_rng(0)
    sigma, tau = random_density(2, rng), random_density(3, rng)
    s = make_product(sigma, tau)
    assert np.allclose(restrict_first(s), sigma, atol=1e-12)
    assert np.allclose(restrict_second(s), tau, atol=1e-12)


def test_bell_marginals_maximally_mixed():
    bell = make_bell()
    assert np.allclose(restrict_first(bell), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(restrict_second(bell), np.eye(2) / 2, atol=1e-12)


def test_restrict_matches_naive_partial_trace():
    rng = np.random.default_rng(1)
    for d1, d2 in ((2, 2), (2, 3), (3, 2)):
        s = make_random_state(BipartiteSpace(d1, d2), d1 * d2, seed=int(rng.integers(1 << 30)))
        assert np.allclose(restrict_first(s), naive_partial_trace_second(s.rho, d1, d2), atol=1e-12)
        assert np.allclose(restrict_second(s), naive_partial_trace_first(s.rho, d1, d2), atol=1e-12)


def test_restrict_defining_identity():
    # Tr(restrict_first(s) a) = expect(s, a (x) 1) over a basis of matrix units
    s = make_random_state(BipartiteSpace(2, 3), 6, seed=3)
    r1, r2 = restrict_first(s), restrict_second(s)
    for a in matrix_units(2):
        lhs = np.trace(r1 @ a)
        rhs = expect(s, np.kron(a, np.eye(3)))
        assert abs(lhs - rhs) <= 1e-12
    for b in matrix_units(3):
        lhs = np.trace(r2 @ b)
        rhs = expect(s, np.kron(np.eye(2), b))
        assert abs(lhs - rhs) <= 1e-12


def test_restrict_linearity_and_validity():
    s1 = make_random_state(BipartiteSpace(2, 2), 4, seed=4)
    s2 = make_random_state(BipartiteSpace(2, 2), 4, seed=5)
    mix = BipartiteState(s1.space, 0.5 * s1.rho + 0.5 * s2.rho)
    assert np.allclose(restrict_first(mix),
                       0.5 * restrict_first(s1) + 0.5 * restrict_first(s2), atol=1e-12)
    for marg, dim in ((restrict_first(mix), 2), (restrict_second(mix), 2)):
        w = np.linalg.eigvalsh(marg)
        assert w[0] >= -1e-10
        assert abs(np.trace(marg) - 1.0) <= 1e-10


def test_restrict_second_maximally_mixed():
    s = BipartiteState(BipartiteSpace(2, 3), np.eye(6) / 6)
    assert np.allclose(restrict_second(s), np.eye(3) / 3, atol=1e-14)


def test_expect_examples():
    bell = make_bell()
    assert abs(expect(bell, np.eye(4)) - 1.0) <= 1e-12
    assert abs(expect(bell, np.kron(SZ, SZ)) - (-1.0)) <= 1e-12
    mixed = BipartiteState(BipartiteSpace(2, 2), np.eye(4) / 4)
    assert abs(expect(mixed, np.kron(SZ, SZ))) <= 1e-12


def test_expect_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        expect(make_bell(), np.eye(3))


def test_werner_family():
    assert np.allclose(make_werner(0.0).rho, np.eye(4) / 4, atol=1e-14)
    assert np.allclose(make_werner(1.0).rho, singlet_proj(), atol=1e-14)
    w = np.linalg.eigvalsh(make_werner(0.5).rho)
    assert np.allclose(np.sort(w), [0.125, 0.125, 0.125, 0.625], atol=1e-12)
    with pytest.raises(OutOfRange):
        make_werner(1.2)


def test_make_product_rejects_invalid_factor():
    with pytest.raises(InvalidDensityMatrix):
        make_product(np.eye(2), np.eye(2))  # trace 2


def test_random_state_contract():
    s1 = make_random_state(BipartiteSpace(2, 2), 4, seed=7)
    s2 = make_random_state(BipartiteSpace(2, 2), 4, seed=7)
    assert np.array_equal(s1.rho, s2.rho)
    w = np.linalg.eigvalsh(s1.rho)
    assert w[0] >= -1e-10 and abs(w.sum() - 1.0) <= 1e-10
    low = make_random_state(BipartiteSpace(2, 2), 2, seed=8)
    assert np.linalg.matrix_rank(low.rho, tol=1e-10) == 2
    with pytest.raises(OutOfRange):
        make_random_state(BipartiteSpace(2, 2), 5, seed=1)
    with pytest.raises(OutOfRange):
        make_random_state(BipartiteSpace(2, 2), 4, seed=-1)


def test_state_validation():
    space = BipartiteSpace(2, 2)
    with pytest.raises(InvalidDensityMatrix):
        BipartiteState(space, np.eye(4))  # trace 4
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.5
    with pytest.raises(InvalidDensityMatrix):
        BipartiteState(space, bad)  # not Hermitian
    neg = np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex)
    with pytest.raises(InvalidDensityMatrix):
        BipartiteState(space, neg)


def test_random_full_rank_density():
    rho = random_full_rank_density(3, 9)
    w = np.linalg.eigvalsh(rho)
    assert w[0] > 0.01
    assert abs(np.trace(rho).real - 1.0) <= 1e-10
    with pytest.raises(OutOfRange):
        random_full_rank_density(3, -1)
    with pytest.raises(OutOfRange, match="dimension"):
        random_full_rank_density(0, 1)


@pytest.mark.parametrize("d,seed", [(2, 1), (3, 7), (4, 0), (16, 5)])
def test_random_full_rank_density_matches_its_gaussian_draw(d, seed):
    # the draw of make_random_state at full rank on C^d, mixed toward the
    # identity, bit for bit as the draw written out
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    expected = 0.9 * rho + 0.1 * np.eye(d, dtype=np.complex128) / d
    assert np.array_equal(random_full_rank_density(d, seed), expected)


def test_validate_density_hermiticity_errors_are_density_errors():
    # the Hermiticity check is linalg.require_hermitian's, re-raised as
    # InvalidDensityMatrix so callers (and CLI exit codes) see one error type
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.5
    for rho in (bad, np.ones((2, 3)) / 2):
        with pytest.raises(InvalidDensityMatrix) as info:
            validate_density(rho)
        assert not isinstance(info.value, NotHermitian)
        assert isinstance(info.value.__cause__, NotHermitian)
