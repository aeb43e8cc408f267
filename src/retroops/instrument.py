"""Finite-outcome instruments and their probability measures.

An instrument assigns one operation to each outcome label; the summed
operation must be trivial (unital and trace preserving), so the outcome
probabilities from any nonzero condition form an exact, finitely additive
probability measure on subsets of the outcome set.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType

from .errors import NotTrivialSum, ValidationError
from .matcore import DEFAULT_TOL
from .superop import (
    Superoperator, _common_dim, _require_kind, _require_operation, _require_trivial_sum, add, compose, zero
)
from . import bayes


@dataclass(frozen=True, eq=False)
class Instrument:
    """Ordered outcome labels with one operation per label, validated at build time."""

    name: str
    dim: int
    outcomes: tuple
    ops: MappingProxyType = field(repr=False)
    #: Summed operation per event, keyed by the frozenset of its labels; see :func:`summed`.
    _summed: dict = field(default_factory=dict, init=False, repr=False)
    #: The components side by side for the sampler, built on first use; see :func:`retroops.sim._stack`.
    _stack: object = field(default=None, init=False, repr=False)

    def op(self, label: str) -> Superoperator:
        """The component at ``label``; the one outcome-label check of the
        package, so a missing or unhashable label is a :class:`ValidationError`."""
        try:
            return self.ops[label]
        except (KeyError, TypeError):
            raise ValidationError(f"instrument '{self.name}' has no outcome '{label}'") from None


def make_instrument(ops, name: str = "", tol: float = DEFAULT_TOL) -> Instrument:
    """Validate and build an instrument from a label-to-operation mapping.

    An instrument is a labelled resolution: every component must be an
    operation and the components must sum to a trivial map within
    ``10 * tol``, by the same check the Bayes formulas apply to a
    resolution; otherwise :class:`NotOperation` or :class:`NotTrivialSum` is
    raised.
    """
    if not (isinstance(ops, Mapping) and ops):
        raise ValidationError(f"instrument '{name}': outcomes must be a nonempty mapping of labels to operations")
    labels = tuple(ops)
    dim = _common_dim(ops.values(), f"instrument '{name}': components")
    for label in labels:
        _require_operation(ops[label], tol, f"instrument '{name}': component '{label}'")
    _require_trivial_sum(ops.values(), tol, NotTrivialSum, f"instrument '{name}': component sum is not trivial")
    return Instrument(name, dim, labels, MappingProxyType(dict(ops)))


def product(i: Instrument, j: Instrument, tol: float = DEFAULT_TOL) -> Instrument:
    """Joint instrument on the Cartesian outcome set.

    The component at ``"x,y"`` is ``compose(i.op(x), j.op(y))`` -- ``j`` acts
    first, ``i`` second -- and the result revalidates as an instrument.  Two
    outcome pairs that give one label (``("a,b", "c")`` and ``("a", "b,c")``)
    are a :class:`ValidationError`: a mapping would keep one of them.
    """
    _common_dim((i, j), "instruments", Instrument)
    name = f"{i.name}*{j.name}" if i.name or j.name else ""
    pairs = {}
    for x in i.outcomes:
        for y in j.outcomes:
            first = pairs.setdefault(f"{x},{y}", (x, y))
            if first != (x, y):
                raise ValidationError(
                    f"instrument '{name}': outcome pairs {first} and {(x, y)} share the label '{x},{y}'"
                )
    return make_instrument({label: compose(i.op(x), j.op(y)) for label, (x, y) in pairs.items()}, name=name, tol=tol)


def _event_labels(i: Instrument, event) -> tuple:
    """The labels of ``event``, a collection of distinct outcome labels of
    the instrument ``i``, each checked by :meth:`Instrument.op`.  A value
    that is not an :class:`Instrument`, a bare string, a non-iterable or a
    repeated label is a :class:`ValidationError`; a string is not a
    collection of its characters, and an event is a set of outcomes, so a
    label counts once."""
    _require_kind(i, Instrument)
    if isinstance(event, str):
        raise ValidationError(f"event must be a collection of outcome labels, got the string {event!r}")
    try:
        labels = tuple(event)
    except TypeError:
        raise ValidationError(f"event must be a collection of outcome labels, got {event!r}") from None
    for label in labels:
        i.op(label)
    if len(set(labels)) < len(labels):
        repeated = next(x for x in labels if labels.count(x) > 1)
        raise ValidationError(f"instrument '{i.name}': event repeats outcome '{repeated}'")
    return labels


def summed(i: Instrument, event) -> Superoperator:
    """Sum of the components over an outcome subset (zero map for the empty set).

    An event is a set: the components are added in the instrument's outcome
    order, whatever the order of ``event``, and one map is built per
    (instrument, set of labels) and returned again for the same event in any
    order, so its classification memo carries over between queries.
    """
    labels = frozenset(_event_labels(i, event))
    if labels not in i._summed:
        i._summed[labels] = reduce(add, (i.ops[x] for x in i.outcomes if x in labels)) if labels else zero(i.dim)
    return i._summed[labels]


def p_inst_pred(i: Instrument, event, a: Superoperator, tol: float = DEFAULT_TOL) -> float:
    """Predictive probability that the outcome lands in ``event``, given ``a`` just fired."""
    return bayes.p_pred(summed(i, event), a, tol)


def p_inst_retro(i: Instrument, event, a: Superoperator, tol: float = DEFAULT_TOL) -> float:
    """Retrodictive probability that the outcome lands in ``event``, given ``a`` fires next."""
    return bayes.p_retro(summed(i, event), a, tol)


def p_inst(i: Instrument, event, tol: float = DEFAULT_TOL) -> float:
    """Unconditional probability of ``event`` from the maximally mixed prior."""
    return bayes.p_prior(summed(i, event), tol)


def p_cond_pred(i: Instrument, j: Instrument, a_event, b_event, tol: float = DEFAULT_TOL) -> float:
    """Probability that ``i`` lands in ``a_event`` after ``j`` landed in ``b_event``.

    The joint probability of ``a_event x b_event`` under the product
    instrument (``j`` first) over the probability of ``b_event`` under ``j``;
    since ``compose`` is bilinear, this is ``p_pred`` of the summed events.
    """
    return bayes.p_pred(summed(i, a_event), summed(j, b_event), tol)


def p_cond_retro(i: Instrument, j: Instrument, a_event, b_event, tol: float = DEFAULT_TOL) -> float:
    """Probability that ``i`` landed in ``a_event`` before ``j`` lands in ``b_event``.

    The mirrored form (product with ``i`` first): ``p_retro`` of the summed events.
    """
    return bayes.p_retro(summed(i, a_event), summed(j, b_event), tol)
