import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retroops import (
    EigSystem,
    NoConvergence,
    NotHermitian,
    as_matrix,
    hermitian_eig,
    hs_inner,
    is_psd,
    loewner_leq,
    normalized_trace,
    op_norm,
    trace,
)
import retroops as r
from retroops.errors import DimensionMismatch, InvariantViolation

from helpers import rand_hermitian, rand_matrix, rand_psd, rng


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1, 2, 3])


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_eig_2x2_closed_form():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3.
    eig = hermitian_eig([[2, 1], [1, 2]])
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
    assert np.allclose(eig.reconstruct(), [[2, 1], [1, 2]], atol=1e-12)


def test_eig_complex_2x2_closed_form():
    # [[0, -i], [i, 0]] (Pauli Y) has eigenvalues -1 and 1.
    m = np.array([[0, -1j], [1j, 0]])
    eig = hermitian_eig(m)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(eig.reconstruct(), m, atol=1e-12)


def test_eig_diagonal_passthrough():
    eig = hermitian_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
def test_eig_random_hermitian(n):
    gen = rng(100 + n)
    for _ in range(25):
        m = rand_hermitian(gen, n)
        eig = hermitian_eig(m)
        # eigenvalues ascending
        assert np.all(np.diff(eig.eigenvalues) >= -1e-13)
        # columns unitary
        v = eig.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
        # reconstruction
        assert np.abs(eig.reconstruct() - m).max() < 1e-11 * max(1.0, np.abs(m).max())
        # spectrum matches the independent oracle
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig([[0, 1], [0, 0]])


def test_eig_no_convergence_with_zero_budget():
    m = rand_hermitian(rng(7), 4)
    with pytest.raises(NoConvergence):
        hermitian_eig(m, max_sweeps=0)


def test_eig_one_by_one():
    eig = hermitian_eig([[5.0]])
    assert eig.eigenvalues[0] == 5.0


def test_is_psd():
    gen = rng(11)
    for n in (2, 3, 5):
        assert is_psd(rand_psd(gen, n))
        m = rand_hermitian(gen, n)
        m = m - (np.linalg.eigvalsh(m)[0] - 1.0) * np.eye(n)  # shift min eig to +1
        assert is_psd(m)
        assert not is_psd(m - 2.0 * np.eye(n) * np.linalg.eigvalsh(m)[-1])


def test_is_psd_tolerance_edge():
    # A tiny negative eigenvalue within tolerance still counts as psd.
    assert is_psd(np.diag([1.0, -1e-12]))
    assert not is_psd(np.diag([1.0, -1e-3]))


def test_loewner_basics():
    eye = np.eye(3)
    assert loewner_leq(0.5 * eye, eye)
    assert not loewner_leq(eye, 0.5 * eye)
    assert loewner_leq(eye, eye)


def test_loewner_transitive_at_triple_tolerance():
    gen = rng(23)
    for _ in range(20):
        a = rand_psd(gen, 3)
        b = a + rand_psd(gen, 3)
        c = b + rand_psd(gen, 3)
        assert loewner_leq(a, b) and loewner_leq(b, c)
        assert loewner_leq(a, c, 3e-9)


def test_loewner_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        loewner_leq([[0, 1], [0, 0]], np.eye(2))


def test_trace_cyclic():
    gen = rng(31)
    a = rand_matrix(gen, 4)
    b = rand_matrix(gen, 4)
    assert abs(trace(a @ b) - trace(b @ a)) < 1e-12 * abs(trace(a @ b))


def test_normalized_trace_identity():
    assert normalized_trace(np.eye(7)) == 1.0


def test_hs_inner_conjugate_symmetry():
    gen = rng(37)
    a = rand_matrix(gen, 3)
    b = rand_matrix(gen, 3)
    assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) < 1e-12


def test_op_norm_known_values():
    assert abs(op_norm(np.eye(4)) - 1.0) < 1e-12
    assert abs(op_norm(np.diag([3.0, -5.0])) - 5.0) < 1e-12
    # Nilpotent [[0, 2], [0, 0]] has operator norm 2.
    assert abs(op_norm([[0, 2], [0, 0]]) - 2.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5))
def test_eig_reconstruction_property(seed, n):
    m = rand_hermitian(rng(seed), n)
    eig = hermitian_eig(m)
    scale = max(1.0, float(np.abs(m).max()))
    assert np.abs(eig.reconstruct() - m).max() < 1e-11 * scale


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_op_norm_submultiplicative(seed):
    gen = rng(seed)
    a = rand_matrix(gen, 3)
    b = rand_matrix(gen, 3)
    assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9


def test_eigsystem_is_frozen():
    eig = hermitian_eig(np.eye(2))
    assert isinstance(eig, EigSystem)
    with pytest.raises(AttributeError):
        eig.eigenvalues = None


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_one_hermitian_verdict_at_the_bound(tol, factor):
    # |m - m*|_F = factor * tol and |m|_F < 1, so every check's bound is tol
    # (a density matrix's Hermiticity is the tol / 10 tier, so it gets 10 * tol).
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = factor * tol / np.sqrt(2)
    checks = (
        lambda: hermitian_eig(m, tol),
        lambda: loewner_leq(m, np.eye(4), tol),
        lambda: r.Effect(m, tol),
        lambda: r.DensityMatrix(m, 10 * tol),
    )
    verdicts = []
    for check in checks:
        try:
            check()
            verdicts.append(True)
        except (NotHermitian, InvariantViolation):
            verdicts.append(False)
    verdicts.append(r.classify(r.reshuffle(r.Superoperator(2, m)), tol).cp)
    assert verdicts == [factor < 1] * 5
