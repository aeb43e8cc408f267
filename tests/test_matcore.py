import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retroops import (
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
from retroops import cli
from retroops.errors import DimensionMismatch, InvariantViolation

from helpers import EigSystem, NoConvergence, jacobi_eig, oracle_eigvalsh, rand_hermitian, rand_matrix, rand_psd, rng


def test_as_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        as_matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1, 2, 3])


@pytest.mark.parametrize("entry", [
    r.DensityMatrix,
    r.Effect,
    is_psd,
    lambda m: loewner_leq(m, m),
    op_norm,
    normalized_trace,
    lambda m: hs_inner(m, m),
    r.projecting,
    r.unitary,
    trace,
    hermitian_eig,
], ids=["DensityMatrix", "Effect", "is_psd", "loewner_leq", "op_norm", "normalized_trace", "hs_inner",
        "projecting", "unitary", "trace", "hermitian_eig"])
def test_a_zero_size_matrix_is_a_dimension_mismatch(entry):
    # as_matrix is the one shape test, so no entry ends in an IndexError,
    # a ZeroDivisionError or numpy's zero-size reduction ValueError.
    with pytest.raises(DimensionMismatch, match=r"expected a square matrix of side >= 1, got shape \(0, 0\)"):
        entry(np.zeros((0, 0)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_eig_2x2_closed_form():
    # [[2, 1], [1, 2]] has eigenvalues 1 and 3.
    assert np.allclose(hermitian_eig([[2, 1], [1, 2]]), [1.0, 3.0], atol=1e-12)
    eig = jacobi_eig([[2, 1], [1, 2]])
    assert np.allclose(eig.eigenvalues, [1.0, 3.0], atol=1e-12)
    assert np.allclose(eig.reconstruct(), [[2, 1], [1, 2]], atol=1e-12)


def test_eig_complex_2x2_closed_form():
    # [[0, -i], [i, 0]] (Pauli Y) has eigenvalues -1 and 1.
    m = np.array([[0, -1j], [1j, 0]])
    assert np.allclose(hermitian_eig(m), [-1.0, 1.0], atol=1e-12)
    eig = jacobi_eig(m)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert np.allclose(eig.reconstruct(), m, atol=1e-12)


def test_eig_diagonal_passthrough():
    m = np.diag([3.0, -1.0, 2.0])
    assert np.array_equal(hermitian_eig(m), [-1.0, 2.0, 3.0])
    eig = jacobi_eig(m)
    assert np.allclose(eig.eigenvalues, [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 16, 25, 36, 49, 64])
def test_eig_random_hermitian(n):
    # n = 2..8, and n = d^2 for d = 2..8 (the Choi and storage matrices).
    gen = rng(100 + n)
    for _ in range(25 if n <= 9 else 2):
        m = rand_hermitian(gen, n)
        eig = jacobi_eig(m)
        # the oracle's columns are unitary and reconstruct m
        v = eig.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(n)).max() < 1e-12
        assert np.abs(eig.reconstruct() - m).max() < 1e-11 * max(1.0, np.abs(m).max())
        # the package's spectrum is ascending and matches the oracle
        got = hermitian_eig(m)
        assert np.all(np.diff(got) >= 0)
        assert np.allclose(got, eig.eigenvalues, atol=1e-10)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        hermitian_eig([[0, 1], [0, 0]])
    # The error carries the numbers of the test it failed.
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    with pytest.raises(NotHermitian) as info:
        hermitian_eig(m, 1e-6)
    e = info.value
    assert e.defect == pytest.approx(np.linalg.norm(m - m.T), rel=1e-15)
    assert (e.scale, e.tol) == (2.0, 1e-6)
    assert e.defect > e.tol * e.scale
    assert str(e) == "matrix deviates from Hermitian by 2.828e+00 (scale 2.000e+00)"


def test_invariant_violations_carry_their_numbers_through_pickle():
    # Each of _as_probability's three raises records the deviation it
    # measured and the tol it exceeded; pickle rebuilds the error from its
    # message and restores both.  An error raised without them holds None.
    from retroops.matcore import _as_probability

    errors = []
    for value, residual in (
        (complex(float("inf"), 0.0), float("inf")),
        (complex(0.5, -1e-3), 1e-3),
        (complex(1.5), 0.5),
        (complex(-0.25), 0.25),
    ):
        with pytest.raises(InvariantViolation) as info:
            _as_probability(value, 1e-9)
        assert (info.value.residual, info.value.tol) == (residual, 1e-9)
        errors.append(info.value)
    with pytest.raises(InvariantViolation) as info:
        _as_probability(complex(float("nan"), 0.0), 1e-6)
    assert np.isnan(info.value.residual) and info.value.tol == 1e-6
    errors.append(InvariantViolation("effect must satisfy 0 <= E <= I"))
    assert (errors[-1].residual, errors[-1].tol) == (None, None)
    for e in errors:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is InvariantViolation
        assert str(back) == str(e)
        assert (back.residual, back.tol) == (e.residual, e.tol)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: r.p_prior(r.from_tensor(1j * np.eye(4)), check=False), "event weight has imaginary part 2.000e+00"),
        (lambda: cli._check_residuals({"x": 1e-3, "y": 0.0}, 1e-9),
         "identity residual 1.000e-03 exceeds tolerance 1.000e-09"),
        (lambda: r.DensityMatrix([[0.5, 1e-3], [0.0, 0.5]]), "density matrix is not Hermitian within 1e-10"),
        (lambda: r.DensityMatrix(np.diag([1.5, -0.5])), "density matrix is not positive semidefinite within 1e-09"),
        (lambda: r.DensityMatrix(np.diag([0.6, 0.6])), "density matrix trace 1.2+0j is not 1 within 1e-10"),
        (lambda: r.Effect(np.diag([-0.5, 0.5])), "effect must satisfy 0 <= E <= I"),
        (lambda: r.Effect(np.diag([1.5, 0.5])), "effect must satisfy 0 <= E <= I"),
        (lambda: r.expect(r.DensityMatrix(np.eye(2) / 2), [[0.0, 1.0], [0.0, 0.0]]),
         "observable deviates from Hermitian by 1.414e+00 (scale 1.000e+00)"),
    ],
    ids=["event-weight", "cli-residuals", "state-hermitian", "state-psd", "state-trace", "effect-low", "effect-high",
         "expect-observable"],
)
def test_each_check_outside_matcore_carries_its_numbers(call, message):
    # The residual is the quantity the failed comparison read and tol the
    # bound it exceeded; the message is unchanged, and pickle keeps both.
    with pytest.raises(InvariantViolation) as info:
        call()
    e = info.value
    assert str(e) == message
    assert e.residual > e.tol > 0
    back = pickle.loads(pickle.dumps(e))
    assert (str(back), back.residual, back.tol) == (message, e.residual, e.tol)


def test_eig_no_convergence_with_zero_budget():
    m = rand_hermitian(rng(7), 4)
    with pytest.raises(NoConvergence):
        jacobi_eig(m, max_sweeps=0)


def test_eig_one_by_one():
    assert hermitian_eig([[5.0]]).tolist() == [5.0]
    assert jacobi_eig([[5.0]]).eigenvalues[0] == 5.0


def test_is_psd():
    gen = rng(11)
    for n in (2, 3, 5):
        assert is_psd(rand_psd(gen, n))
        m = rand_hermitian(gen, n)
        m = m - (oracle_eigvalsh(m)[0] - 1.0) * np.eye(n)  # shift min eig to +1
        assert is_psd(m)
        assert not is_psd(m - 2.0 * np.eye(n) * oracle_eigvalsh(m)[-1])


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
    eig = jacobi_eig(m)
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
    eig = jacobi_eig(np.eye(2))
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
