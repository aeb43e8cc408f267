import numpy as np
import pytest

import retroops as r
from retroops.errors import (
    InvariantViolation,
    NotOperation,
    NotResolution,
    ValidationError,
    ZeroCondition,
)

from helpers import (
    PXP,
    PZM,
    PZP,
    luders_resolution,
    qubit_ops,
    rand_operation,
    rand_projector,
    rand_resolution,
    rand_unitary,
    rng,
)


def test_qubit_hand_values():
    ops = qubit_ops()
    assert abs(r.p_pred(ops["px+"], ops["pz+"]) - 0.5) < 1e-12
    assert abs(r.p_retro(ops["px+"], ops["pz+"]) - 0.5) < 1e-12
    assert abs(r.p_prior(ops["pz+"]) - 0.5) < 1e-12
    assert abs(r.p_pred(ops["pz+"], ops["pz+"]) - 1.0) < 1e-12
    assert abs(r.p_pred(ops["pz-"], ops["pz+"]) - 0.0) < 1e-12


def test_probability_range():
    gen = rng(60)
    for n in (2, 3, 4):
        for _ in range(40):
            a = rand_operation(gen, n)
            b = rand_operation(gen, n)
            if r.event_weight(b).real <= 1e-9:
                continue
            for v in (r.p_pred(a, b), r.p_retro(a, b), r.p_prior(a)):
                assert 0.0 <= v <= 1.0


def test_rejects_non_operation():
    bad = r.scale(r.unit(2), 3.0)
    with pytest.raises(NotOperation):
        r.p_pred(bad, r.unit(2))
    with pytest.raises(NotOperation):
        r.p_prior(bad)
    with pytest.raises(NotOperation):
        r.time_reverse(bad)


def test_zero_condition():
    with pytest.raises(ZeroCondition):
        r.p_pred(r.unit(2), r.zero(2))
    with pytest.raises(ZeroCondition):
        r.p_retro(r.unit(2), r.zero(2))


def test_chain_rule_pred():
    # p_pred(ab|c) = p_pred(b|c) * p_pred(a|bc) when the weights allow.
    gen = rng(61)
    done = 0
    while done < 25:
        a = rand_operation(gen, 3)
        b = rand_operation(gen, 3)
        c = rand_operation(gen, 3)
        bc = r.compose(b, c)
        if r.event_weight(c).real <= 1e-6 or r.event_weight(bc).real <= 1e-6:
            continue
        lhs = r.p_pred(r.compose(a, b), c, check=False)
        rhs = r.p_pred(b, c, check=False) * r.p_pred(a, bc, check=False)
        assert abs(lhs - rhs) < 1e-9
        done += 1


def test_chain_rule_retro():
    # p_retro(ab|c) = p_retro(a|c) * p_retro(b|ca), mirrored guards.
    gen = rng(62)
    done = 0
    while done < 25:
        a = rand_operation(gen, 3)
        b = rand_operation(gen, 3)
        c = rand_operation(gen, 3)
        ca = r.compose(c, a)
        if r.event_weight(c).real <= 1e-6 or r.event_weight(ca).real <= 1e-6:
            continue
        lhs = r.p_retro(r.compose(a, b), c, check=False)
        rhs = r.p_retro(a, c, check=False) * r.p_retro(b, ca, check=False)
        assert abs(lhs - rhs) < 1e-9
        done += 1


def test_additivity():
    gen = rng(63)
    for _ in range(25):
        a = r.scale(rand_operation(gen, 3), 0.5)
        b = r.scale(rand_operation(gen, 3), 0.5)
        c = rand_operation(gen, 3)
        if r.event_weight(c).real <= 1e-6:
            continue
        s = r.add(a, b)
        assert abs(r.p_pred(s, c, check=False) - r.p_pred(a, c, check=False) - r.p_pred(b, c, check=False)) < 1e-10
        assert abs(r.p_retro(s, c, check=False) - r.p_retro(a, c, check=False) - r.p_retro(b, c, check=False)) < 1e-10
        assert abs(r.p_prior(s, check=False) - r.p_prior(a, check=False) - r.p_prior(b, check=False)) < 1e-10


def test_zero_and_unit_conditionals():
    gen = rng(64)
    for _ in range(10):
        a = rand_operation(gen, 2)
        if r.event_weight(a).real <= 1e-6:
            continue
        assert r.p_pred(r.zero(2), a, check=False) == 0.0
        assert r.p_retro(r.zero(2), a, check=False) == 0.0
        assert abs(r.p_pred(r.unit(2), a, check=False) - 1.0) < 1e-12
        assert abs(r.p_retro(r.unit(2), a, check=False) - 1.0) < 1e-12


def test_unitary_condition_gives_prior():
    # Conditioning on a unitary operation reveals nothing.
    gen = rng(65)
    for _ in range(10):
        a = rand_operation(gen, 3)
        u = r.unitary(rand_unitary(gen, 3))
        assert abs(r.p_retro(a, u, check=False) - r.p_prior(a, check=False)) < 1e-10
        assert abs(r.p_pred(a, u, check=False) - r.p_prior(a, check=False)) < 1e-10


def test_unitary_invariance():
    # Conjugating both arguments by the same unitary changes nothing.
    gen = rng(66)
    for _ in range(25):
        a = rand_operation(gen, 3)
        b = rand_operation(gen, 3)
        if r.event_weight(b).real <= 1e-6:
            continue
        u = r.unitary(rand_unitary(gen, 3))
        uinv = r.adjoint(u)
        conj_a = r.compose(r.compose(u, a), uinv)
        conj_b = r.compose(r.compose(u, b), uinv)
        assert abs(r.p_pred(conj_a, conj_b, check=False) - r.p_pred(a, b, check=False)) < 1e-10
        assert abs(r.p_retro(conj_a, conj_b, check=False) - r.p_retro(a, b, check=False)) < 1e-10
        assert abs(r.p_prior(conj_a, check=False) - r.p_prior(a, check=False)) < 1e-10
        # Conjugating only one argument by a unitary in the condition slot:
        # p_pred(u a u^-1 | u b) = p_pred(a | b u) and friends follow from
        # the cyclic trace; spot-check one form.
        assert (
            abs(
                r.p_pred(conj_a, r.compose(u, b), check=False)
                - r.p_pred(a, r.compose(b, uinv), check=False)
            )
            < 1e-10
        )


def test_bayes_qubit_fixture():
    ops = qubit_ops()
    res = [ops["pz+"], ops["pz-"]]
    # Retrodict Z=+ from a later X=+ outcome.
    assert abs(r.bayes_retrodict(res, ops["px+"], 0) - 0.5) < 1e-12
    assert abs(r.bayes_predict(res, ops["px+"], 0) - 0.5) < 1e-12
    # Conditioning on Z=+ itself is conclusive.
    assert abs(r.bayes_retrodict(res, ops["pz+"], 0) - 1.0) < 1e-12
    assert abs(r.bayes_retrodict(res, ops["pz+"], 1) - 0.0) < 1e-12


def test_bayes_matches_direct_on_unitary_channel_resolutions():
    gen = rng(67)
    for n in (2, 3):
        for _ in range(20):
            k = int(gen.integers(2, 9))
            res = rand_resolution(gen, n, k)
            b = rand_operation(gen, n)
            if r.p_prior(b, check=False) <= 1e-6:
                continue
            j = int(gen.integers(0, k))
            assert abs(r.bayes_retrodict(res, b, j) - r.p_retro(res[j], b, check=False)) < 1e-9
            assert abs(r.bayes_predict(res, b, j) - r.p_pred(res[j], b, check=False)) < 1e-9


def test_bayes_matches_direct_on_luders_resolutions():
    gen = rng(68)
    for n in (2, 3, 4):
        for _ in range(15):
            res = luders_resolution(gen, n)
            b = rand_operation(gen, n)
            if r.p_prior(b, check=False) <= 1e-6:
                continue
            j = int(gen.integers(0, n))
            assert abs(r.bayes_retrodict(res, b, j) - r.p_retro(res[j], b, check=False)) < 1e-9
            assert abs(r.bayes_predict(res, b, j) - r.p_pred(res[j], b, check=False)) < 1e-9


def test_bayes_convex_weights_of_unit():
    # Resolutions whose sum is literally the identity map.
    gen = rng(69)
    w = gen.dirichlet(np.ones(4))
    res = [r.scale(r.unit(3), wk) for wk in w]
    b = rand_operation(gen, 3)
    for j in range(4):
        assert abs(r.bayes_retrodict(res, b, j) - w[j]) < 1e-10
        assert abs(r.bayes_predict(res, b, j) - w[j]) < 1e-10


def test_bayes_rejects_bad_resolution():
    ops = qubit_ops()
    with pytest.raises(NotResolution):
        r.bayes_retrodict([], ops["pz+"], 0)
    with pytest.raises(NotResolution):
        # pz+ alone does not sum to a trivial map.
        r.bayes_retrodict([ops["pz+"]], ops["px+"], 0)
    with pytest.raises(NotOperation):
        r.bayes_retrodict([r.scale(r.unit(2), 3.0)], ops["px+"], 0)


def test_bayes_index_must_name_a_member():
    # -1 would answer for the last member and True for member 1.
    ops = qubit_ops()
    res = [ops["pz+"], ops["pz-"]]
    for formula in (r.bayes_retrodict, r.bayes_predict):
        for j in (-1, True, 2, 1.0):
            with pytest.raises(ValidationError, match=rf"^index {j} out of range for a 2-member resolution$"):
                formula(res, ops["px+"], j)
        assert formula(res, ops["px+"], np.int64(1)) == formula(res, ops["px+"], 1)


def test_bayes_accepts_zero_weight_member():
    # An instrument may have a zero component; as a resolution member it
    # contributes the term 0 to the Bayes sum, and its own posterior is 0.
    inst = r.make_instrument({"a": r.unit(2), "b": r.zero(2)})
    res = [inst.op("a"), inst.op("b")]
    gen = rng(71)
    for cond in (r.projecting(PXP), rand_operation(gen, 2)):
        assert abs(r.bayes_retrodict(res, cond, 0) - r.p_retro(r.unit(2), cond)) < 1e-12
        assert abs(r.bayes_predict(res, cond, 0) - r.p_pred(r.unit(2), cond)) < 1e-12
        assert r.bayes_retrodict(res, cond, 1) == 0.0
        assert r.bayes_predict(res, cond, 1) == 0.0


def test_bayes_rejects_zero_condition():
    ops = qubit_ops()
    res = [ops["pz+"], ops["pz-"]]
    with pytest.raises(ZeroCondition):
        r.bayes_retrodict(res, r.zero(2), 0)


def test_time_reverse_involution_identities():
    gen = rng(70)
    for _ in range(25):
        a = rand_operation(gen, 3)
        b = rand_operation(gen, 3)
        if r.event_weight(b).real <= 1e-6 or r.event_weight(r.adjoint(b)).real <= 1e-6:
            continue
        ra, rb = r.time_reverse(a), r.time_reverse(b)
        assert abs(r.p_pred(a, b, check=False) - r.p_retro(ra, rb, check=False)) < 1e-10
        assert abs(r.p_retro(a, b, check=False) - r.p_pred(ra, rb, check=False)) < 1e-10
        assert abs(r.p_prior(a, check=False) - r.p_prior(ra, check=False)) < 1e-10


def test_time_reverse_of_unitary_is_inverse():
    gen = rng(71)
    u = rand_unitary(gen, 3)
    assert np.abs(r.time_reverse(r.unitary(u)).mat - r.unitary_inv(u).mat).max() < 1e-12


def test_time_reverse_fixes_projectors():
    p = r.projecting(PZP)
    assert np.abs(r.time_reverse(p).mat - p.mat).max() < 1e-12


def test_projective_sequence_reversal():
    # For self-adjoint operations, reversing both composed sequences swaps
    # predictive and retrodictive probabilities.
    gen = rng(72)
    for n in (2, 3):
        for _ in range(15):
            m_len = int(gen.integers(1, 7))
            n_len = int(gen.integers(1, 7))
            a_seq = [r.projecting(rand_projector(gen, n)) for _ in range(m_len)]
            b_seq = [r.projecting(rand_projector(gen, n)) for _ in range(n_len)]

            def chain(seq):
                out = seq[0]
                for s in seq[1:]:
                    out = r.compose(out, s)
                return out

            a = chain(a_seq)
            b = chain(b_seq)
            a_rev = chain(a_seq[::-1])
            b_rev = chain(b_seq[::-1])
            assert abs(r.p_prior(a, check=False) - r.p_prior(a_rev, check=False)) < 1e-9
            if r.event_weight(b).real <= 1e-6 or r.event_weight(b_rev).real <= 1e-6:
                continue
            assert (
                abs(r.p_pred(a, b, check=False) - r.p_retro(a_rev, b_rev, check=False))
                < 1e-9
            )


def test_probability_validation_guards():
    from retroops.bayes import _as_probability

    assert _as_probability(complex(1.0 + 1e-12), 1e-9) == 1.0
    assert _as_probability(complex(-1e-12), 1e-9) == 0.0
    with pytest.raises(InvariantViolation):
        _as_probability(complex(1.5), 1e-9)
    with pytest.raises(InvariantViolation):
        _as_probability(complex(0.5, 1e-3), 1e-9)
    # NaN compares false with every bound, so it used to clamp to 0 or pass.
    for value in (complex(float("nan"), 0.0), complex(0.5, float("nan")), complex(float("inf"), 0.0)):
        with pytest.raises(InvariantViolation, match="not finite"):
            _as_probability(value, 1e-9)


def test_overflowed_joint_is_a_typed_error():
    # Only maps passed with check=False can overflow the joint weight; the
    # quotient is rejected as a non-finite probability, never clamped.
    big = r.Superoperator(2, 1e200 * np.eye(4))
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = m[0, 3] = 1e200
    m[3, 0] = -1e200  # +inf and -inf meet in the joint: a NaN weight
    with np.errstate(over="ignore", invalid="ignore"):
        for a in (big, r.Superoperator(2, m)):
            for formula in (r.p_pred, r.p_retro):
                with pytest.raises(InvariantViolation, match="not finite"):
                    formula(a, big, check=False)


@pytest.mark.parametrize("d", range(2, 9))
def test_every_entry_point_refuses_a_condition_by_one_rule(d):
    # A condition vanishes when its probability from the maximally mixed
    # prior, event_weight(b) / d, is <= tol.  b = c P0 has event weight c, so
    # c = 2 tol d passes every entry point and c = tol d / 2 (at d = 4 the
    # 2e-9 of the ROADMAP's repro) is refused by each of them.  estimate
    # reads the exact probability of its condition, which here is c / d too;
    # above the threshold it gets past that check and then, at 2e-9 per
    # trial, finds no sampled hit.
    tol = r.DEFAULT_TOL
    p0 = np.diag(np.eye(d)[0])
    res = [r.projecting(np.diag(row)) for row in np.eye(d)]
    for c, vanishes in ((2 * tol * d, False), (tol * d / 2, True)):
        b = r.scale(r.projecting(p0), c)
        inst = r.make_instrument({"b": b, "rest": r.from_kraus([np.sqrt(1 - c) * p0, np.eye(d) - p0])})
        calls = [
            lambda: r.p_pred(res[0], b),
            lambda: r.p_retro(res[0], b),
            lambda: r.bayes_retrodict(res, b, 0),
            lambda: r.bayes_predict(res, b, 0),
            lambda: r.state_prior(b),
            lambda: r.state_posterior(b),
        ]
        for call in calls:
            if vanishes:
                with pytest.raises(ZeroCondition):
                    call()
            else:
                call()
        with pytest.raises(ZeroCondition if vanishes else r.NoConditionHits):
            r.estimate([inst, inst], condition=(0, "b"), target=(1, "b"), trials=100, seed=1)
