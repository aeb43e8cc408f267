"""The package's public names, and the typed errors for inputs of the wrong container or value type."""

import types

import numpy as np
import pytest

import retroops as r
from retroops import bayes, cli, superop
from retroops.errors import ValidationError

from helpers import PZM, PZP, z_instrument

#: Every public name of the package root, imported by ``retroops/__init__.py``.
PUBLIC_NAMES = {
    "DEFAULT_TOL", "DensityMatrix", "DimensionMismatch", "Effect", "FreqReport", "Instrument",
    "InvariantViolation", "KrausSet", "NoConditionHits", "NotCP", "NotHermitian", "NotOperation",
    "NotProjector", "NotResolution", "NotTrivialSum", "NotUnitary", "OperationClass", "ParseError",
    "RetroOpsError", "Superoperator", "Trajectory", "ValidationError", "ZeroCondition",
    "ZeroProbabilityBranch", "add", "adjoint", "apply", "as_matrix", "bayes_predict", "bayes_retrodict",
    "classify", "compose", "conjugate_map", "effects_of", "estimate", "event_weight",
    "exact_sequence_probability", "expect", "extract_kraus", "from_kraus", "from_tensor", "hermitian_eig",
    "hs_inner", "hs_trace", "is_cp", "is_positive", "is_psd", "loewner_leq", "make_instrument",
    "normalized_trace", "op_norm", "p_cond_pred", "p_cond_retro", "p_inst", "p_inst_pred", "p_inst_retro",
    "p_pred", "p_prior", "p_retro", "product", "projecting", "reshuffle", "sample_sequence", "scale",
    "state_of_instrument", "state_posterior", "state_prior", "summed", "time_reverse", "trace", "unit",
    "unitary", "unitary_inv", "zero",
}


def test_the_root_exports_exactly_the_public_names():
    exported = {
        name for name, value in vars(r).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == 74
    assert exported == PUBLIC_NAMES
    # The limits and tolerance tiers are read from the modules that define them.
    assert superop.SUM_TOL == 10 * r.DEFAULT_TOL
    assert bayes.MAX_RESOLUTION_SIZE == 10_000
    assert isinstance(cli.MAX_SCENARIO_DIM, int)
    assert not any(hasattr(m, "__all__") for m in vars(r).values() if isinstance(m, types.ModuleType))


#: Public calls given a container of the wrong type -> the message they raise.
_WRONG_CONTAINERS = {
    "from_kraus-int": (lambda z: r.from_kraus(5), "Kraus matrices must be an iterable of matrices, got int"),
    "exact_sequence_probability-outcomes-int": (
        lambda z: r.exact_sequence_probability([z], 5), "outcomes_at must map step indices to outcome labels, got int"
    ),
    "exact_sequence_probability-bare-instrument": (
        lambda z: r.exact_sequence_probability(z, {0: "+"}), "instrument steps must be a sequence of instruments"
    ),
    "sample_sequence-bare-instrument": (
        lambda z: r.sample_sequence(z), "instrument steps must be a sequence of instruments"
    ),
    "estimate-bare-instrument": (
        lambda z: r.estimate(z, (0, "+"), (0, "+"), 10), "instrument steps must be a sequence of instruments"
    ),
    "estimate-operation-steps": (
        lambda z: r.estimate([z.op("+")], (0, "+"), (0, "+"), 10), "instrument steps must be a sequence of instruments"
    ),
    "make_instrument-list": (
        lambda z: r.make_instrument([r.projecting(PZP), r.projecting(PZM)]),
        "outcomes must be a nonempty mapping of labels to operations",
    ),
    "make_instrument-int": (
        lambda z: r.make_instrument(5), "outcomes must be a nonempty mapping of labels to operations"
    ),
    "bayes_retrodict-int": (
        lambda z: r.bayes_retrodict(5, z.op("+"), 0), "resolution must be a collection of operations, got int"
    ),
    "bayes_predict-int": (
        lambda z: r.bayes_predict(5, z.op("+"), 0), "resolution must be a collection of operations, got int"
    ),
}


@pytest.mark.parametrize("call", list(_WRONG_CONTAINERS))
def test_a_container_of_the_wrong_type_is_a_validation_error(call):
    # Each input is checked where it enters, so a wrong container is a
    # ValidationError, never a bare TypeError or AttributeError.
    run, message = _WRONG_CONTAINERS[call]
    with pytest.raises(ValidationError, match=message):
        run(z_instrument())


def test_the_right_containers_still_work():
    z = z_instrument()
    assert r.exact_sequence_probability((z, z), {1: "+"}) == 0.5
    assert r.bayes_retrodict({"+": z.op("+"), "-": z.op("-")}.values(), z.op("+"), 0) == 1.0
    assert r.from_kraus(iter([PZP, PZM])).dim == 2


#: Public calls given a value of the wrong kind where a map, an instrument, a
#: state, a numeric matrix entry or a scale factor is expected -> the message
#: they raise.
_WRONG_VALUES = {
    **{
        f"{name}-not-a-map": (run, "Superoperator")
        for name, run in {
            "classify": lambda z: r.classify(5),
            "event_weight": lambda z: r.event_weight(5),
            "extract_kraus": lambda z: r.extract_kraus(5),
            "p_pred": lambda z: r.p_pred(5, r.unit(2)),
            "p_inst_pred": lambda z: r.p_inst_pred(z, ["+"], 5),
            "time_reverse": lambda z: r.time_reverse(5),
            "state_prior": lambda z: r.state_prior(5),
            "effects_of": lambda z: r.effects_of(5),
            "bayes_retrodict": lambda z: r.bayes_retrodict([5], r.unit(2), 0),
            "make_instrument": lambda z: r.make_instrument({"a": 5}),
            "compose": lambda z: r.compose(r.unit(2), 5),
            "add": lambda z: r.add(z.op("+"), 5),
            "adjoint": lambda z: r.adjoint(5),
            "conjugate_map": lambda z: r.conjugate_map(5),
            "reshuffle": lambda z: r.reshuffle(5),
            "hs_trace": lambda z: r.hs_trace(5),
            "is_positive": lambda z: r.is_positive(5),
            "apply": lambda z: r.apply(5, np.eye(2)),
            "scale": lambda z: r.scale(5, 1.0),
        }.items()
    },
    "expect-not-a-state": (lambda z: r.expect(5, np.eye(2)), "expected DensityMatrix, got int"),
    **{
        f"{name}-not-an-instrument": (run, "expected Instrument, got int")
        for name, run in {
            "summed": lambda z: r.summed(5, ["+"]),
            "p_inst": lambda z: r.p_inst(5, ["+"]),
            "p_cond_pred": lambda z: r.p_cond_pred(z, 5, ["+"], ["+"]),
            "state_of_instrument": lambda z: r.state_of_instrument(5, ["+"]),
        }.items()
    },
    **{
        f"{name}-entries": (run, "matrix entries must be numbers in a rectangular array")
        for name, run in {
            "as_matrix-string": lambda z: r.as_matrix([["a"]]),
            "as_matrix-ragged": lambda z: r.as_matrix([[1, 2], [3]]),
            "as_matrix-object": lambda z: r.as_matrix([[object()]]),
            "as_matrix-huge-int": lambda z: r.as_matrix([[10**400]]),
            "from_kraus": lambda z: r.from_kraus([[["a"]]]),
            "from_tensor": lambda z: r.from_tensor([["a"]]),
            "DensityMatrix": lambda z: r.DensityMatrix([["a"]]),
            "Effect": lambda z: r.Effect([["a"]]),
            "loewner_leq": lambda z: r.loewner_leq([["a"]], [[1]]),
            "DensityMatrix-numeric-string": lambda z: r.DensityMatrix([["0.5", 0], [0, "0.5"]]),
            "as_matrix-bytes": lambda z: r.as_matrix([[b"1"]]),
            "from_kraus-numeric-string": lambda z: r.from_kraus([[["1"]]]),
        }.items()
    },
    **{
        f"scale-{name}": ((lambda c: lambda z: r.scale(z.op("+"), c))(c), "scale factor must be a finite real number >= 0")
        for name, c in {
            "string": "x", "none": None, "complex": 1j, "nan": float("nan"), "inf": float("inf"),
            "negative": -1.0, "huge-int": 10**400,
        }.items()
    },
}


@pytest.mark.parametrize("call", list(_WRONG_VALUES))
def test_a_value_of_the_wrong_kind_is_a_validation_error(call):
    # A non-map where a map enters (or a non-instrument, or a non-state), a
    # non-numeric, string or ragged matrix entry and a scale factor that is
    # not a finite real >= 0 are each a ValidationError, never a bare
    # AttributeError, TypeError, ValueError or RuntimeWarning.
    run, message = _WRONG_VALUES[call]
    with pytest.raises(ValidationError, match=message):
        run(z_instrument())


def test_a_finite_real_scale_factor_still_works():
    pz = z_instrument().op("+")
    for c, want in ((0, 0.0), (np.float64(0.5), 0.5), (2, 2.0), (np.int64(3), 3.0)):
        assert r.scale(pz, c).mat[0, 0] == want
