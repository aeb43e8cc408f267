import math
from dataclasses import astuple
from functools import reduce

import numpy as np
import pytest

import retroops as r
from retroops.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotCP,
    NotProjector,
    NotUnitary,
    ValidationError,
)

from helpers import (
    HADAMARD,
    PXP,
    PZM,
    PZP,
    oracle_eigvalsh,
    rand_cp,
    rand_hermitian,
    rand_matrix,
    rand_noncp,
    rand_operation,
    rand_projector,
    rand_resolution,
    rand_superop,
    rand_unitary,
    rng,
)


def test_indexing_convention_matrix_units():
    # The entry t[g, d, row, col] is the (g, d) component of the image of
    # the matrix unit E_{row,col}.
    gen = rng(1)
    a = rand_superop(gen, 3)
    t = a.tensor
    for row in range(3):
        for col in range(3):
            e = np.zeros((3, 3))
            e[row, col] = 1.0
            assert np.allclose(r.apply(a, e), t[:, :, row, col])


def test_apply_matches_kraus_action():
    gen = rng(2)
    ms = [rand_matrix(gen, 2) for _ in range(3)]
    a = r.from_kraus(ms)
    x = rand_matrix(gen, 2)
    direct = sum(m @ x @ m.conj().T for m in ms)
    assert np.abs(r.apply(a, x) - direct).max() < 1e-12 * np.abs(direct).max()


def test_compose_order():
    gen = rng(3)
    a, b = rand_superop(gen, 2), rand_superop(gen, 2)
    x = rand_matrix(gen, 2)
    assert np.allclose(r.apply(r.compose(a, b), x), r.apply(a, r.apply(b, x)))


def test_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        r.compose(r.unit(2), r.unit(3))
    with pytest.raises(DimensionMismatch):
        r.apply(r.unit(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        r.from_tensor(np.eye(5))
    for bad in (1.0, np.ones(4), np.ones((4, 4, 1))):
        with pytest.raises(DimensionMismatch):
            r.from_tensor(bad)
    # A dimension is an integer, not a bool (bool is an int in Python).
    for bad in (True, False, 0):
        with pytest.raises(DimensionMismatch):
            r.unit(bad)
    for build in (r.unit, r.zero):
        with pytest.raises(DimensionMismatch):
            build(2.0)
    with pytest.raises(DimensionMismatch):
        r.Superoperator(2.0, np.eye(4))
    assert r.Superoperator(np.int64(2), np.eye(4)).dim == 2
    # Kraus matrices of two shapes are checked on the stack, before np.stack.
    with pytest.raises(DimensionMismatch, match="share one square shape"):
        r.from_kraus([np.eye(2), np.eye(3)])


def test_overflowed_entries_are_validation_errors():
    # ValidationError is also a ValueError, so either except clause catches it.
    for bad in (np.full((4, 4), np.inf), np.full((4, 4), np.nan * 1j)):
        with pytest.raises(ValidationError, match="matrix entries must be finite"):
            r.Superoperator(2, bad)
        with pytest.raises(ValidationError, match="matrix entries must be finite"):
            r.from_kraus([np.eye(2), bad[:2, :2]])
    with pytest.raises(ValidationError):
        r.scale(r.unit(2), -1.0)


def test_values_holding_arrays_compare_by_identity():
    # Equality is identity for values that hold arrays, so == never raises
    # and the values can be kept in sets and dict keys.
    a = r.unit(2)
    values = [
        a,
        r.extract_kraus(a),
        r.DensityMatrix(np.eye(2) / 2),
        r.Effect(np.eye(2) / 2),
        r.make_instrument({"a": a}, name="I"),
    ]
    for v in values:
        assert v == v
        assert len({v, v}) == 1
    assert r.unit(2) != r.unit(2)
    assert r.DensityMatrix(np.eye(2) / 2) != r.DensityMatrix(np.eye(2) / 2)
    assert r.make_instrument({"a": r.unit(2)}, name="I") != r.make_instrument({"a": r.unit(2)}, name="I")
    assert r.make_instrument({"a": a}, name="I") != r.make_instrument({"a": a}, name="I")
    assert len(set(values)) == len(values)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_rearrangements_equal_their_checked_construction(n):
    # adjoint, reshuffle and conjugate_map skip the entry check; their
    # matrices equal the checked map built from the same rearrangement,
    # read-only and C-contiguous, and only adjoint inherits memo entries:
    # the CP verdict and the classification.
    a = rand_superop(rng(320 + n), n)
    r.classify(a)
    t = a.tensor
    for f, m in (
        (r.adjoint, a.mat.conj().T),
        (r.reshuffle, t.transpose(0, 2, 1, 3).reshape(n * n, n * n)),
        (r.conjugate_map, t.transpose(1, 0, 3, 2).conj().reshape(n * n, n * n)),
    ):
        got = f(a)
        assert got.dim == n
        assert np.array_equal(got.mat, r.Superoperator(n, m).mat)
        assert got.mat.flags.c_contiguous and not got.mat.flags.writeable
        assert [check for check, _ in got._memo] == (["cp", "classify"] if f is r.adjoint else [])


def test_superoperator_immutable():
    a = r.unit(2)
    with pytest.raises(ValueError):
        a.mat[0, 0] = 5.0


def test_conjugate_map_action():
    # conjugate_map(a) applied to A is the conjugate transpose of a applied
    # to the conjugate transpose of A.
    gen = rng(4)
    for n in (2, 3):
        a = rand_superop(gen, n)
        x = rand_matrix(gen, n)
        lhs = r.apply(r.conjugate_map(a), x)
        rhs = r.apply(a, x.conj().T).conj().T
        assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(rhs).max())


def test_adjoint_defining_relation():
    # tr[a(A)* B] = tr[A* adjoint(a)(B)].
    gen = rng(5)
    for n in (2, 3):
        a = rand_superop(gen, n)
        x, y = rand_matrix(gen, n), rand_matrix(gen, n)
        lhs = np.trace(r.apply(a, x).conj().T @ y)
        rhs = np.trace(x.conj().T @ r.apply(r.adjoint(a), y))
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_involution_laws(n):
    gen = rng(10 + n)
    for _ in range(30):
        a = rand_superop(gen, n)
        b = rand_superop(gen, n)
        scale = max(1.0, np.abs(a.mat).max(), np.abs(b.mat).max())
        tol = 1e-10 * scale * scale

        def close(x, y):
            return np.abs(x.mat - y.mat).max() < tol

        assert close(r.conjugate_map(r.conjugate_map(a)), a)
        assert close(r.adjoint(r.adjoint(a)), a)
        assert close(r.reshuffle(r.reshuffle(a)), a)
        assert close(r.reshuffle(r.conjugate_map(a)), r.adjoint(r.reshuffle(a)))
        assert close(r.conjugate_map(r.reshuffle(a)), r.reshuffle(r.adjoint(a)))
        assert close(r.conjugate_map(r.adjoint(a)), r.adjoint(r.conjugate_map(a)))
        ab = r.compose(a, b)
        assert close(r.adjoint(ab), r.compose(r.adjoint(b), r.adjoint(a)))
        assert close(r.conjugate_map(ab), r.compose(r.conjugate_map(a), r.conjugate_map(b)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_laws(n):
    gen = rng(20 + n)
    eye = np.eye(n)
    for _ in range(30):
        a = rand_superop(gen, n)
        b = rand_superop(gen, n)
        scale = max(1.0, np.abs(a.mat).max() * np.abs(b.mat).max()) * n * n
        tol = 1e-10 * scale
        assert abs(r.hs_trace(r.compose(a, b)) - r.hs_trace(r.compose(b, a))) < tol
        assert abs(r.event_weight(r.reshuffle(a)) - r.hs_trace(a)) < tol
        assert abs(r.hs_trace(r.reshuffle(a)) - r.event_weight(a)) < tol
        assert abs(r.event_weight(a) - np.trace(r.apply(a, eye))) < tol
        pair = np.trace(r.apply(r.adjoint(a), eye).conj().T @ r.apply(b, eye))
        assert abs(r.event_weight(r.compose(a, b)) - pair) < tol


def test_positivity_quadratic_form_oracle():
    # is_positive(a) must agree with min over random A of tr[A* a(A)] >= 0
    # and with the Jacobi spectral oracle on the storage matrix.
    gen = rng(33)
    for n in (2, 3):
        for make, expected in ((rand_cp, None), (rand_noncp, None)):
            for _ in range(20):
                a = make(gen, n)
                herm = np.abs(a.mat - a.mat.conj().T).max() < 1e-10
                sym = (a.mat + a.mat.conj().T) / 2.0
                vals = oracle_eigvalsh(sym) if herm else None
                oracle = herm and vals[0] >= -1e-9 * max(1.0, abs(vals[-1]))
                got = r.is_positive(a)
                assert got == oracle
                if got:
                    # spot check the quadratic form
                    for _ in range(5):
                        x = rand_matrix(gen, n)
                        q = np.trace(x.conj().T @ r.apply(a, x)).real
                        assert q >= -1e-8 * max(1.0, np.abs(x).max() ** 2 * np.abs(a.mat).max())


def test_cp_oracle_agreement():
    # is_cp must agree with the Jacobi spectral oracle on the Choi matrix,
    # with zero disagreements over CP and certified non-CP samples.
    gen = rng(34)
    for n in (2, 3):
        for _ in range(25):
            a = rand_cp(gen, n)
            assert r.is_cp(a)
            choi = r.reshuffle(a).mat
            assert oracle_eigvalsh(choi)[0] > -1e-9
        for _ in range(25):
            a = rand_noncp(gen, n)
            assert not r.is_cp(a)


_GRAM_TOLS = (1e-6, 1e-9, 1e-12, 0.0, -1e-9)


def _verdicts(a, tol):
    """``is_cp`` then ``classify`` of ``a`` at ``tol``, as plain tuples."""
    return r.is_cp(a, tol), astuple(r.classify(a, tol))


@pytest.mark.parametrize("d", [*range(2, 9), 12, 16])
def test_a_certified_cp_verdict_equals_the_choi_spectrums(d):
    # A Kraus-built map certifies CP from its Gram bound when the bound is at
    # most tol / 2; a from_tensor copy of the same matrix always eigensolves.
    # Both must give the same is_cp verdict and classify record, at ranks 1,
    # 2, d and d^2, Kraus scales 1e-8...1e4 and tolerances on both sides of 0.
    gen = rng(60 + d)
    certified = cases = 0
    for k in sorted({1, 2, d, d * d}):
        for s in (1e-8, 1e-5, 1e-2, 1.0, 1e2, 1e4):
            ks = s * (gen.standard_normal((k, d, d)) + 1j * gen.standard_normal((k, d, d)))
            a = r.from_kraus(list(ks))
            copy = r.from_tensor(a.mat)
            for tol in _GRAM_TOLS:
                cases += 1
                certified += tol > 0 and a._memo["gram", None] <= tol / 2
                assert _verdicts(a, tol) == _verdicts(copy, tol), (k, s, tol)
    assert 0 < certified < cases


@pytest.mark.parametrize("d", range(2, 9))
def test_a_gram_bound_does_not_certify_a_choi_spectrum_below_its_tol(d):
    # Rank-deficient Kraus families (k < d^2, tr C <= 1) whose computed Choi
    # spectrum dips below 0 by rounding alone.  At tol = 0.9 |lmin| / max(1,
    # lmax) the spectral verdict is False, so the Gram bound must stay above
    # tol / 2 and hand the verdict to the spectrum.  The closest family sits
    # 139-fold under the bound (d = 3, k = 1), so a bound loosened that much
    # certifies it and fails here.
    gen = rng(80 + d)
    below = 0
    for k in sorted({1, 2, d, d * d - 1}):
        for _ in range(12):
            ks = gen.standard_normal((k, d, d)) + 1j * gen.standard_normal((k, d, d))
            ks *= np.sqrt(gen.random()) / np.linalg.norm(ks)
            a = r.from_kraus(list(ks))
            copy = r.from_tensor(a.mat)
            spectrum = r.hermitian_eig(r.reshuffle(copy).mat)
            if spectrum[0] >= 0:
                continue
            below += 1
            tol = 0.9 * -spectrum[0] / max(1.0, spectrum[-1])
            assert r.is_cp(copy, tol) is False
            assert r.is_cp(a, tol) is False, (k, a._memo["gram", None], tol)
    assert below > 0


def test_a_gram_bound_past_the_float_range_falls_back():
    # Kraus entries near 1e150 give a finite Choi matrix whose Gram bound is
    # far over any tol, or (at 1e153, d = 4, k = 16) infinite; the verdict then
    # comes from the spectrum, as for a from_tensor copy, and nothing raises.
    gen = rng(70)
    for d, k, c, finite in ((2, 1, 1e150, True), (3, 2, 1e150, True), (4, 16, 1e153, False)):
        a = r.from_kraus(list(c * np.exp(2j * np.pi * gen.random((k, d, d)))))
        assert math.isfinite(a._memo["gram", None]) is finite
        copy = r.from_tensor(a.mat)
        for tol in _GRAM_TOLS:
            assert _verdicts(a, tol) == _verdicts(copy, tol)


def test_classify_fields_are_python_bools():
    # The CLI writes classify records with json.dumps, which rejects numpy.bool_.
    gen = rng(71)
    a = rand_operation(gen, 3)
    kraus = r.from_kraus(r.extract_kraus(a).ops)
    for m in (a, kraus, r.adjoint(kraus), r.from_kraus([1e100 * np.eye(2)]), rand_noncp(gen, 2)):
        for tol in _GRAM_TOLS:
            assert type(r.is_cp(m, tol)) is bool
            assert all(type(flag) is bool for flag in astuple(r.classify(m, tol)))


def test_cp_implies_psd_images():
    # A CP map sends positive matrices to positive matrices.
    gen = rng(35)
    for _ in range(20):
        a = rand_cp(gen, 3)
        p = rand_projector(gen, 3)
        img = r.apply(a, p)
        assert oracle_eigvalsh(img)[0] > -1e-9 * max(
            1.0, np.abs(img).max()
        )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kraus_round_trip(n):
    gen = rng(40 + n)
    for _ in range(20):
        a = rand_cp(gen, n)
        ks = r.extract_kraus(a)
        rebuilt = r.from_kraus(ks.ops, dim=n)
        assert np.abs(rebuilt.mat - a.mat).max() < 1e-9 * max(1.0, np.abs(a.mat).max())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12, 16])
def test_kraus_factor_round_trip_and_count(d):
    # Kraus rank 1, d and d^2: the factor rebuilds the map within 1e-12, and
    # has one matrix per oracle Choi eigenvalue above tol.  The Jacobi oracle
    # is too slow at n = d^2 = 144 and 256, where numpy's eigvalsh counts.
    gen = rng(50 + d)
    eigvalsh = oracle_eigvalsh if d <= 8 else np.linalg.eigvalsh
    for rank in (1, d, d * d):
        a = r.from_kraus([rand_matrix(gen, d) for _ in range(rank)])
        ks = r.extract_kraus(a)
        rebuilt = r.from_kraus(ks.ops, dim=d)
        assert np.abs(rebuilt.mat - a.mat).max() < 1e-12 * max(1.0, np.abs(a.mat).max())
        choi_eigs = eigvalsh(r.reshuffle(a).mat)
        assert len(ks) == int((choi_eigs > r.DEFAULT_TOL).sum()) == rank


def _matrix_unit(d, row, col):
    e = np.zeros((d, d))
    e[row, col] = 1.0
    return e


def test_kraus_factor_pivots_on_the_largest_remaining_weight():
    # A diagonal Choi matrix with distinct weights: each pivot is a matrix
    # unit, and the matrices come in decreasing-weight order.
    d = 3
    weights = rng(57).permutation(np.arange(1, d * d + 1)) / (d * d)
    units = [(i // d, i % d) for i in range(d * d)]
    a = r.from_kraus([np.sqrt(w) * _matrix_unit(d, *rc) for w, rc in zip(weights, units)])
    ks = r.extract_kraus(a)
    order = np.argsort(-weights)
    assert len(ks) == d * d
    for m, i in zip(ks.ops, order):
        assert np.allclose(m, np.sqrt(weights[i]) * _matrix_unit(d, *units[i]), rtol=0, atol=1e-15)


def test_kraus_factor_stops_at_tol():
    # A pivot of 2 tol is kept, and one of 0.5 tol ends the factor.
    tol = r.DEFAULT_TOL
    units = [(0, 0), (1, 0), (0, 1)]
    for weights, count in (([1.0, 2 * tol, 0.5 * tol], 2), ([1.0, 0.5 * tol], 1), ([2 * tol], 1)):
        a = r.from_kraus([np.sqrt(w) * _matrix_unit(2, *rc) for w, rc in zip(weights, units)])
        assert len(r.extract_kraus(a, tol)) == count


def test_kraus_factor_is_read_only_and_holds_only_its_rows():
    # Every matrix is read-only; a factor of k < n matrices holds k n entries,
    # not the n x n working buffer.
    gen = rng(58)
    d = 4
    for rank in (1, d, d * d):
        ks = r.extract_kraus(r.from_kraus([rand_matrix(gen, d) for _ in range(rank)]))
        assert len(ks) == rank
        for m in ks.ops:
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0, 0] = 0.0
            assert m.base is ks.ops[0].base and m.base.size == rank * d * d


def test_kraus_of_projector():
    ks = r.extract_kraus(r.projecting(PZP))
    rebuilt = r.from_kraus(ks.ops, dim=2)
    assert np.abs(rebuilt.mat - r.projecting(PZP).mat).max() < 1e-12
    assert len(ks) == 1


def test_extract_kraus_rejects_noncp():
    with pytest.raises(NotCP):
        r.extract_kraus(rand_noncp(rng(44), 2))


def test_adjoint_kraus_identity():
    # adjoint(from_kraus(S)) == from_kraus([m.conj().T for m in S]) exactly.
    gen = rng(45)
    for n in (2, 3):
        ms = [rand_matrix(gen, n) for _ in range(3)]
        lhs = r.adjoint(r.from_kraus(ms))
        rhs = r.from_kraus([m.conj().T for m in ms])
        assert np.abs(lhs.mat - rhs.mat).max() < 1e-12 * max(1.0, np.abs(lhs.mat).max())


def test_event_weight_monotone_under_composition():
    # For operations a, b: 0 <= weight(ab) <= weight(b) and weight(ba) <= weight(b).
    gen = rng(46)
    for _ in range(20):
        a = rand_operation(gen, 3)
        b = rand_operation(gen, 3)
        wb = r.event_weight(b).real
        assert r.event_weight(a).real >= -1e-9
        assert r.event_weight(r.compose(a, b)).real <= wb + 1e-9
        assert r.event_weight(r.compose(b, a)).real <= wb + 1e-9


def test_classify_builtins():
    u = r.classify(r.unit(2))
    assert u.trivial and u.operation and u.cp
    z = r.classify(r.zero(2))
    assert z.operation and not z.trivial
    p = r.classify(r.projecting(PZP))
    assert p.operation and p.cp and not p.trivial
    h = r.classify(r.unitary(HADAMARD))
    assert h.trivial
    assert u.positive


def test_classify_amplitude_damping():
    damp = r.from_kraus(
        [
            np.array([[1, 0], [0, np.sqrt(0.7)]]),
            np.array([[0, np.sqrt(0.3)], [0, 0]]),
        ]
    )
    cls = r.classify(damp)
    assert cls.cp and cls.sub_tracial
    assert not cls.sub_unital  # damping maps I to I + 0.3 (|0><0| - |1><1|) > I on |0>
    assert not cls.operation


def test_classify_noncp():
    cls = r.classify(rand_noncp(rng(47), 2))
    assert not cls.cp and not cls.operation and not cls.trivial


def test_classify_scaled_operation_stays_operation():
    gen = rng(48)
    a = rand_operation(gen, 2)
    assert r.classify(a).operation
    assert r.classify(r.scale(a, 0.5)).operation
    # Blowing an operation up by a large factor breaks the Loewner bounds.
    big = r.scale(a, 1e6)
    assert not r.classify(big).operation


def test_operation_closure_under_composition():
    gen = rng(49)
    for _ in range(10):
        a = rand_operation(gen, 2)
        b = rand_operation(gen, 2)
        assert r.classify(r.compose(a, b)).operation


def test_closure_under_involutions():
    gen = rng(50)
    for _ in range(10):
        a = rand_operation(gen, 3)
        assert r.classify(r.adjoint(a)).operation
        assert r.classify(r.conjugate_map(a)).operation


def test_kraus_sums_agree_with_classify_away_from_the_bound():
    # classify decides the operation predicate by the Loewner route alone.
    # The Kraus-sum route, sum M_k* M_k <= I and sum M_k M_k* <= I, is the
    # same predicate rounded differently, so where both images of the
    # identity have their top eigenvalue at least 5 % from 1 it agrees.
    gen = rng(54)
    kinds = set()
    for d in range(2, 9):
        eye = np.eye(d)
        for k in (1, d, d * d):
            for _ in range(2):
                a = rand_cp(gen, d, k)
                tops = [np.linalg.eigvalsh(r.apply(m, eye))[-1] for m in (r.adjoint(a), a)]
                for c in (0.9 / max(tops), 1.1 / min(tops), 1.0 / np.sqrt(tops[0] * tops[1])):
                    if min(abs(c * t - 1.0) for t in tops) < 0.05:
                        continue
                    b = r.scale(a, float(c))
                    cls = r.classify(b)
                    ops = r.extract_kraus(b).ops
                    kraus = (
                        r.is_psd(eye - sum(m.conj().T @ m for m in ops)),
                        r.is_psd(eye - sum(m @ m.conj().T for m in ops)),
                    )
                    assert kraus == (cls.sub_tracial, cls.sub_unital)
                    kinds.add(kraus)
    assert {(True, True), (False, False)} <= kinds


def test_maps_at_the_loewner_bound_classify_without_raising():
    # Mixed-unitary channels scaled by 1 + tol * f, f within 1e-2 of 1, sit
    # on the bound, where a second verdict rounded differently could fall
    # on the other side; the record is the Loewner verdict and nothing raises.
    gen, tol = rng(55), r.DEFAULT_TOL
    for d in range(2, 7):
        eye = np.eye(d)
        for _ in range(30):
            channel = reduce(r.add, rand_resolution(gen, d, 3))
            for f in np.linspace(0.99, 1.01, 5):
                a = r.scale(channel, 1.0 + tol * f)
                sub_tracial, sub_unital = (r.is_psd(eye - r.apply(m, eye), tol) for m in (r.adjoint(a), a))
                cls = r.classify(a, tol)
                assert cls.cp
                assert (cls.sub_tracial, cls.sub_unital) == (sub_tracial, sub_unital)
                assert cls.operation == (sub_tracial and sub_unital)


def test_projecting_rejects_non_projector():
    with pytest.raises(NotProjector):
        r.projecting(np.array([[0.5, 0], [0, 0.5]]))
    with pytest.raises(NotProjector):
        r.projecting(np.array([[0, 1], [0, 0]]))


def test_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        r.unitary(np.array([[1, 0], [0, 2]]))


def test_unitary_inverse_composes_to_unit():
    gen = rng(51)
    u = rand_unitary(gen, 3)
    both = r.compose(r.unitary(u), r.unitary_inv(u))
    assert np.abs(both.mat - r.unit(3).mat).max() < 1e-12


def test_scale_rejects_negative():
    with pytest.raises(ValueError):
        r.scale(r.unit(2), -1.0)


def test_luders_z_sum_is_dephasing_not_unit():
    total = r.add(r.projecting(PZP), r.projecting(PZM))
    assert r.classify(total).trivial
    x = np.array([[1, 1], [1, 1]], dtype=complex)
    assert np.allclose(r.apply(total, x), np.eye(2))  # off-diagonals die


def test_choi_of_kraus_map_is_vec_outer_products():
    gen = rng(52)
    ms = [rand_matrix(gen, 2) for _ in range(2)]
    a = r.from_kraus(ms)
    choi = r.reshuffle(a).mat
    direct = sum(np.outer(m.ravel(), m.ravel().conj()) for m in ms)
    assert np.abs(choi - direct).max() < 1e-12 * max(1.0, np.abs(direct).max())


def test_hermitian_preserving_iff_conjugate_map_fixed():
    # Maps fixed by conjugate_map send Hermitian matrices to Hermitian ones.
    gen = rng(53)
    a = rand_cp(gen, 2)
    assert np.abs(r.conjugate_map(a).mat - a.mat).max() < 1e-12
    h = rand_hermitian(gen, 2)
    img = r.apply(a, h)
    assert np.abs(img - img.conj().T).max() < 1e-12
