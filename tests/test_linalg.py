import numpy as np
import pytest

from qcorr.errors import ConvergenceFailure, InvalidMatrix, NotHermitian, NotPSD
from qcorr.linalg import (
    hermitian_eigendecompose,
    hermitian_eigenvalues,
    kron,
    matrix_units,
    hermitian_basis,
    operator_norm,
    psd_sqrt,
)
from qcorr.bipartite import make_werner

from helpers import SX, SZ, random_hermitian, random_unitary


def test_eigendecompose_identity():
    w, v = hermitian_eigendecompose(np.eye(2))
    assert np.allclose(w, [1.0, 1.0])
    assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-12)


def test_eigendecompose_diagonal():
    w, _ = hermitian_eigendecompose(np.diag([0.25, 0.75]))
    assert np.allclose(w, [0.25, 0.75], atol=1e-14)


def test_eigendecompose_pauli_x():
    w, v = hermitian_eigendecompose(SX)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-14)
    minus = np.array([1, -1]) / np.sqrt(2)
    plus = np.array([1, 1]) / np.sqrt(2)
    assert abs(abs(np.vdot(v[:, 0], minus)) - 1) < 1e-12
    assert abs(abs(np.vdot(v[:, 1], plus)) - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_eigendecompose_reconstruction(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        m = random_hermitian(d, rng)
        w, v = hermitian_eigendecompose(m)
        rec = (v * w) @ v.conj().T
        assert np.linalg.norm(rec - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
        assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-10
        assert np.all(np.diff(w) >= -1e-14)


def test_eigendecompose_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)


def test_psd_sqrt_reconstructs_werner():
    rho = make_werner(0.5).rho
    r = psd_sqrt(rho)
    assert np.linalg.norm(r @ r - rho) <= 1e-10


def test_psd_sqrt_random_psd():
    rng = np.random.default_rng(11)
    for d in (2, 4, 6):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        r = psd_sqrt(m)
        assert np.linalg.norm(r @ r - m) <= 1e-9 * max(1.0, np.linalg.norm(m))
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12


def test_psd_sqrt_clamps_tiny_negative():
    m = np.diag([1.0, -0.5e-10])
    r = psd_sqrt(m)
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-5)


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]))


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))
    assert np.allclose(kron(SZ, SZ), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_scalar_factor():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(kron(a, np.array([[2.5]])), 2.5 * a)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_bilinearity():
    rng = np.random.default_rng(6)
    a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
    assert np.allclose(kron(a + 2 * b, c), kron(a, c) + 2 * kron(b, c), atol=1e-12)


def test_operator_norm_examples():
    assert abs(operator_norm(np.eye(3)) - 1.0) < 1e-12
    assert abs(operator_norm(np.diag([3.0, -4.0])) - 4.0) < 1e-12
    col = np.array([[1.0], [1.0]])
    assert abs(operator_norm(col) - np.sqrt(2.0)) < 1e-12


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(8)
    for _ in range(5):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, w = random_unitary(3, rng), random_unitary(3, rng)
        assert abs(operator_norm(u @ m @ w) - operator_norm(m)) <= 1e-9


@pytest.mark.parametrize("shape", [(5, 7), (7, 5), (16, 32)])
def test_operator_norm_is_accurate_at_any_scale(shape):
    # the norm is read off m itself, so no Gram-matrix roundoff of order
    # ||m||^2 can fail a Hermiticity check or shift the result
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for c in np.logspace(-6, 6, 13):
        exact = c * np.linalg.norm(m, 2)
        assert abs(operator_norm(c * m) - exact) <= 1e-12 * exact, c


@pytest.mark.parametrize("m", [[[np.nan, 0.0]], [[np.inf]], [[10 ** 400]], np.full((2, 2), 1e308)],
                         ids=["nan", "inf", "int-overflow", "norm-overflow"])
def test_operator_norm_rejects_non_finite_or_overflowing_input(m):
    with pytest.raises(InvalidMatrix):
        operator_norm(m)


def test_hermitian_eigenvalues_are_those_of_the_decomposition():
    rng = np.random.default_rng(11)
    for d in (1, 2, 5, 16):
        h = random_hermitian(d, rng)
        w, _ = hermitian_eigendecompose(h)
        assert np.abs(hermitian_eigenvalues(h) - w).max() <= 1e-12
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("solver,call", [
    ("eigh", hermitian_eigendecompose), ("eigvalsh", hermitian_eigenvalues), ("svd", operator_norm)])
def test_lapack_failure_is_a_convergence_failure(monkeypatch, solver, call):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        call(np.eye(2, dtype=complex))


def test_bases():
    units = matrix_units(3)
    assert len(units) == 9
    assert np.allclose(units[1], np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    herm = hermitian_basis(3)
    assert len(herm) == 9
    gram = np.array([[np.trace(h1.conj().T @ h2).real for h2 in herm] for h1 in herm])
    assert np.allclose(gram, np.eye(9), atol=1e-12)
