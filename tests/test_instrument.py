import pickle
from itertools import combinations

import numpy as np
import pytest

import retroops as r
from retroops.superop import SUM_TOL
from retroops.errors import (
    DimensionMismatch,
    NotOperation,
    NotResolution,
    NotTrivialSum,
    ValidationError,
    ZeroCondition,
)

from helpers import (
    PXP,
    PZM,
    PZP,
    luders_resolution,
    rand_operation,
    rand_resolution,
    rand_unitary,
    rng,
    x_instrument,
    z_instrument,
)


def test_make_instrument_validates():
    z = z_instrument()
    assert z.outcomes == ("+", "-")
    assert z.dim == 2
    with pytest.raises(ValidationError):
        z.op("?")


def test_make_instrument_rejects_non_operation():
    with pytest.raises(NotOperation):
        r.make_instrument({"a": r.scale(r.unit(2), 2.0)})


def test_make_instrument_rejects_nontrivial_sum():
    with pytest.raises(NotTrivialSum):
        r.make_instrument({"a": r.projecting(PZP)})
    with pytest.raises(NotTrivialSum):
        r.make_instrument({"a": r.projecting(PZP), "b": r.projecting(PXP)})


def test_nontrivial_sum_message_names_each_image():
    # Full decay: {|0><0|, |0><1|} sums to a trace-preserving map that is not
    # unital, sum(I) = 2|0><0|.  The message reports each image's own
    # deviation, and time reversal swaps them.
    decay = [r.from_kraus([np.array(k, dtype=complex)]) for k in ([[1, 0], [0, 0]], [[0, 1], [0, 0]])]
    devs = r"\|sum\(I\) - I\| = {}, \|adjoint\(sum\)\(I\) - I\| = {}$"
    with pytest.raises(NotTrivialSum, match=devs.format(r"1\.000e\+00", r"0\.000e\+00")):
        r.make_instrument({"0": decay[0], "1": decay[1]})
    with pytest.raises(NotResolution, match=devs.format(r"0\.000e\+00", r"1\.000e\+00")):
        r.bayes_retrodict([r.adjoint(a) for a in decay], r.unit(2), 0)


def test_trivial_sum_errors_carry_their_numbers_through_pickle():
    # Each error carries the two deviations and the bound 10 * tol as
    # fields; pickle rebuilds it from its message and restores them.
    decay = [r.from_kraus([np.array(k, dtype=complex)]) for k in ([[1, 0], [0, 0]], [[0, 1], [0, 0]])]
    errors = []
    for kind, fail in (
        (NotTrivialSum, lambda: r.make_instrument({"0": decay[0], "1": decay[1]})),
        (NotResolution, lambda: r.bayes_retrodict([r.adjoint(a) for a in decay], r.unit(2), 0, tol=1e-7)),
    ):
        with pytest.raises(kind) as info:
            fail()
        errors.append(info.value)
    assert [(e.dev_out, e.dev_in, e.bound) for e in errors] == [(1.0, 0.0, SUM_TOL), (0.0, 1.0, 10 * 1e-7)]
    errors.append(NotResolution("resolution must be nonempty"))
    for e in errors:
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is type(e)
        assert str(back) == str(e)
        assert (back.dev_in, back.dev_out, back.bound) == (e.dev_in, e.dev_out, e.bound)
    assert (errors[-1].dev_in, errors[-1].dev_out, errors[-1].bound) == (None, None, None)


def test_make_instrument_rejects_empty_and_mixed_dims():
    with pytest.raises(ValidationError):
        r.make_instrument({})
    with pytest.raises(DimensionMismatch):
        r.make_instrument({"a": r.unit(2), "b": r.unit(3)})


def test_random_luders_instruments_validate():
    gen = rng(80)
    for n in (2, 3, 4):
        res = luders_resolution(gen, n)
        inst = r.make_instrument({str(k): op for k, op in enumerate(res)})
        assert len(inst.outcomes) == n


def test_unconditional_measure():
    z = z_instrument()
    assert abs(r.p_inst(z, ["+"]) - 0.5) < 1e-12
    assert abs(r.p_inst(z, ["-"]) - 0.5) < 1e-12
    assert abs(r.p_inst(z, z.outcomes) - 1.0) < 1e-12
    assert r.p_inst(z, []) == 0.0


def test_finite_additivity():
    gen = rng(81)
    for n in (2, 3, 4):
        res = luders_resolution(gen, n)
        inst = r.make_instrument({str(k): op for k, op in enumerate(res)})
        a = rand_operation(gen, n)
        if r.event_weight(a).real <= 1e-6:
            continue
        labels = list(inst.outcomes)
        total_pred = sum(r.p_inst_pred(inst, [x], a) for x in labels)
        total_retro = sum(r.p_inst_retro(inst, [x], a) for x in labels)
        assert abs(r.p_inst_pred(inst, labels, a) - total_pred) < 1e-12
        assert abs(r.p_inst_retro(inst, labels, a) - total_retro) < 1e-12
        assert abs(total_pred - 1.0) < 1e-12
        assert abs(total_retro - 1.0) < 1e-12
        # disjoint union of two sub-events
        half = labels[: n // 2 or 1]
        rest = labels[len(half):]
        assert (
            abs(
                r.p_inst_pred(inst, half + rest, a)
                - r.p_inst_pred(inst, half, a)
                - r.p_inst_pred(inst, rest, a)
            )
            < 1e-12
        )


def test_event_label_validation():
    z = z_instrument()
    with pytest.raises(ValidationError):
        r.p_inst(z, ["+", "?"])


def test_product_instrument_qubit_values():
    z, x = z_instrument(), x_instrument()
    zx = r.product(z, x)
    assert set(zx.outcomes) == {"+,+", "+,-", "-,+", "-,-"}
    for label in zx.outcomes:
        assert abs(r.p_inst(zx, [label]) - 0.25) < 1e-12


def test_product_marginals():
    z, x = z_instrument(), x_instrument()
    zx = r.product(z, x)  # x acts first
    # Marginal over the first (later) slot recovers the x statistics.
    for y in x.outcomes:
        event = [f"{a},{y}" for a in z.outcomes]
        assert abs(r.p_inst(zx, event) - r.p_inst(x, [y])) < 1e-12
    # Marginal over the second slot recovers the z statistics.
    for a in z.outcomes:
        event = [f"{a},{y}" for y in x.outcomes]
        assert abs(r.p_inst(zx, event) - r.p_inst(z, [a])) < 1e-12


def test_product_requires_matching_dims():
    with pytest.raises(DimensionMismatch):
        r.product(z_instrument(), r.make_instrument({"a": r.unit(3)}))


def test_product_rejects_two_outcome_pairs_with_one_label():
    # ("a,b", "c") and ("a", "b,c") both give "a,b,c"; a mapping would keep
    # one, and the lost component would be blamed on the sum.
    a = r.make_instrument({"a,b": r.projecting(PZP), "a": r.projecting(PZM)}, name="A")
    b = r.make_instrument({"c": r.projecting(PZP), "b,c": r.projecting(PZM)}, name="B")
    message = "instrument 'A*B': outcome pairs ('a,b', 'c') and ('a', 'b,c') share the label 'a,b,c'"
    with pytest.raises(ValidationError) as e:
        r.product(a, b)
    assert str(e.value) == message


def test_conditional_probabilities_qubit():
    z, x = z_instrument(), x_instrument()
    # Repeating a projective measurement is deterministic.
    assert abs(r.p_cond_pred(z, z, ["+"], ["+"]) - 1.0) < 1e-12
    assert abs(r.p_cond_pred(z, z, ["-"], ["+"]) - 0.0) < 1e-12
    # Incompatible bases are maximally uncertain in both directions.
    assert abs(r.p_cond_pred(x, z, ["+"], ["+"]) - 0.5) < 1e-12
    assert abs(r.p_cond_retro(z, x, ["+"], ["+"]) - 0.5) < 1e-12


def test_conditional_zero_condition():
    z = z_instrument()
    with pytest.raises(ZeroCondition):
        r.p_cond_pred(z, z, ["+"], [])


def test_conditional_normalizes():
    gen = rng(82)
    for n in (2, 3):
        i = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        j = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        for b in j.outcomes:
            total = sum(r.p_cond_pred(i, j, [a], [b]) for a in i.outcomes)
            assert abs(total - 1.0) < 1e-10
            total = sum(r.p_cond_retro(i, j, [a], [b]) for a in i.outcomes)
            assert abs(total - 1.0) < 1e-10


def _nonempty_events(inst):
    labels = inst.outcomes
    return [list(c) for k in range(1, len(labels) + 1) for c in combinations(labels, k)]


def test_conditional_matches_product_joint():
    z, x = z_instrument(), x_instrument()
    zx = r.product(z, x)
    joint = r.p_inst(zx, ["+,+"])
    assert abs(r.p_cond_pred(z, x, ["+"], ["+"]) - joint / r.p_inst(x, ["+"])) < 1e-12
    # Random Lüders instruments and multi-label events: the conditionals of
    # summed events agree with the joint measure of the product instrument
    # (j first for the predictive form, i first for the retrodictive one).
    gen = rng(84)
    for n in (2, 3):
        i = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        j = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        ij, ji = r.product(i, j), r.product(j, i)
        for a_event in _nonempty_events(i):
            for b_event in _nonempty_events(j):
                pb = r.p_inst(j, b_event)
                pred = r.p_inst(ij, [f"{x},{y}" for x in a_event for y in b_event]) / pb
                retro = r.p_inst(ji, [f"{y},{x}" for x in a_event for y in b_event]) / pb
                assert abs(r.p_cond_pred(i, j, a_event, b_event) - pred) < 1e-10
                assert abs(r.p_cond_retro(i, j, a_event, b_event) - retro) < 1e-10


def test_time_reversed_instrument():
    # Reversing every component of a projective instrument yields an
    # instrument, and conditional probabilities swap direction.
    gen = rng(83)
    for n in (2, 3):
        i = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        j = r.make_instrument({str(k): op for k, op in enumerate(luders_resolution(gen, n))})
        ri = r.make_instrument({k: r.time_reverse(i.op(k)) for k in i.outcomes})
        rj = r.make_instrument({k: r.time_reverse(j.op(k)) for k in j.outcomes})
        for a in i.outcomes:
            for b in j.outcomes:
                assert (
                    abs(
                        r.p_cond_pred(i, j, [a], [b])
                        - r.p_cond_retro(ri, rj, [a], [b])
                    )
                    < 1e-9
                )


def test_summed_over_all_outcomes_is_trivial():
    z = z_instrument()
    assert r.classify(r.summed(z, z.outcomes)).trivial


def test_an_event_does_not_depend_on_the_order_of_its_labels():
    # An event is a set: its components are added in the instrument's outcome
    # order, so a permuted event is the same map and gives the same bits.
    gen = rng(57)
    forward, backward = ["0", "1", "2"], ["2", "1", "0"]
    for _ in range(40):
        inst = r.make_instrument({str(k): op for k, op in enumerate(rand_resolution(gen, 3, 4))})
        a = r.scale(r.unitary(rand_unitary(gen, 3)), float(gen.uniform(0.3, 1.0)))
        assert r.summed(inst, backward) is r.summed(inst, forward)
        assert r.p_inst_pred(inst, backward, a) == r.p_inst_pred(inst, forward, a)
        assert r.p_inst_retro(inst, ("1", "0", "2"), a) == r.p_inst_retro(inst, forward, a)


def _off_normalised_z(eps):
    return {"+": r.scale(r.projecting(PZP), 1.0 - eps), "-": r.projecting(PZM)}


def test_instrument_sum_tolerance():
    # A pair off normalisation by less than SUM_TOL is an instrument; one off
    # by more is not.
    r.make_instrument(_off_normalised_z(1e-9))
    with pytest.raises(NotTrivialSum):
        r.make_instrument(_off_normalised_z(1e-7))


def test_instrument_components_are_a_bayes_resolution():
    # Components whose sum is off by -5e-9 pass make_instrument, so the Bayes
    # formulas accept them as a resolution too.
    inst = r.make_instrument(_off_normalised_z(5e-9))
    res = [inst.op(x) for x in inst.outcomes]
    b = r.projecting(PXP)
    for k in range(len(res)):
        assert abs(r.bayes_retrodict(res, b, k) - r.p_retro(res[k], b)) <= 2 * SUM_TOL
        assert abs(r.bayes_predict(res, b, k) - r.p_pred(res[k], b)) <= 2 * SUM_TOL


def test_a_string_event_is_not_a_collection_of_its_characters():
    z = z_instrument()
    for call in (
        lambda: r.p_inst(z, "+-"),
        lambda: r.summed(z, "+"),
        lambda: r.p_cond_pred(z, z, ["+"], "+"),
        lambda: r.state_of_instrument(z, "+-"),
    ):
        with pytest.raises(ValidationError, match="event must be a collection of outcome labels"):
            call()
    assert r.p_inst(z, ["+", "-"]) == 1.0


#: Entry points that take one outcome label of the qubit Z instrument.
_LABEL_CALLS = {
    "op": lambda z, label: z.op(label),
    "estimate-condition": lambda z, label: r.estimate([z], (0, label), (0, "+"), trials=10),
    "estimate-target": lambda z, label: r.estimate([z], (0, "+"), (0, label), trials=10),
    "exact_sequence_probability": lambda z, label: r.exact_sequence_probability([z], {0: label}),
}

#: Entry points that take an event, a collection of outcome labels.
_EVENT_CALLS = {
    "summed": lambda z, event: r.summed(z, event),
    "p_inst": lambda z, event: r.p_inst(z, event),
    "p_inst_pred": lambda z, event: r.p_inst_pred(z, event, z.op("+")),
    "p_inst_retro": lambda z, event: r.p_inst_retro(z, event, z.op("+")),
    "p_cond_pred-first": lambda z, event: r.p_cond_pred(z, z, event, ["+"]),
    "p_cond_pred-second": lambda z, event: r.p_cond_pred(z, z, ["+"], event),
    "p_cond_retro-first": lambda z, event: r.p_cond_retro(z, z, event, ["+"]),
    "p_cond_retro-second": lambda z, event: r.p_cond_retro(z, z, ["+"], event),
    "state_of_instrument": lambda z, event: r.state_of_instrument(z, event),
}

#: Kind of bad input -> (as a label, its message, as an event, its message);
#: a label cannot repeat, so that kind has no label form.
_BAD_INPUTS = {
    "unknown": ("0", "instrument 'Z' has no outcome '0'", ["+", "0"], "instrument 'Z' has no outcome '0'"),
    "unhashable": (["+"], r"instrument 'Z' has no outcome '\['\+'\]'",
                   [["+"]], r"instrument 'Z' has no outcome '\['\+'\]'"),
    "non-iterable": (5, "instrument 'Z' has no outcome '5'", 5, "event must be a collection of outcome labels, got 5"),
    "repeated": (None, None, ["-", "+", "-"], r"instrument 'Z': event repeats outcome '-'"),
}

_LABEL_CASES = [
    (entry, kind)
    for entry in list(_LABEL_CALLS) + list(_EVENT_CALLS)
    for kind in _BAD_INPUTS
    if entry in _EVENT_CALLS or _BAD_INPUTS[kind][0] is not None
]


@pytest.mark.parametrize("entry,kind", _LABEL_CASES, ids=[f"{e}-{k}" for e, k in _LABEL_CASES])
def test_outcome_labels_are_checked_by_instrument_op(entry, kind):
    # Every label reaches the instrument through Instrument.op, so a missing,
    # unhashable or non-iterable input is a ValidationError, never a bare
    # TypeError from a lookup or an iteration; an event is a set, so a
    # repeated label is one too, not counted twice.
    label, label_message, event, event_message = _BAD_INPUTS[kind]
    if entry in _LABEL_CALLS:
        call, bad, message = _LABEL_CALLS[entry], label, label_message
    else:
        call, bad, message = _EVENT_CALLS[entry], event, event_message
    with pytest.raises(ValidationError, match=message):
        call(z_instrument(), bad)
