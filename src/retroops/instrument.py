"""Finite-outcome instruments and their probability measures.

An instrument assigns one operation to each outcome label; the summed
operation must be trivial (unital and trace preserving), so the outcome
probabilities from any nonzero condition form an exact, finitely additive
probability measure on subsets of the outcome set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from types import MappingProxyType

from .bayes import SUM_TOL, _require_trivial_sum
from .errors import DimensionMismatch, NotOperation, NotTrivialSum, ValidationError
from .matcore import DEFAULT_TOL
from .superop import Superoperator, add, classify, compose, zero
from . import bayes

__all__ = [
    "Instrument",
    "SUM_TOL",
    "make_instrument",
    "product",
    "summed",
    "p_inst_pred",
    "p_inst_retro",
    "p_inst",
    "p_cond_pred",
    "p_cond_retro",
]


@dataclass(frozen=True)
class Instrument:
    """Ordered outcome labels with one operation per label, validated at build time."""

    name: str
    dim: int
    outcomes: tuple
    ops: MappingProxyType = field(repr=False)
    #: Summed operation per event label tuple; see :func:`summed`.
    _summed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def op(self, label: str) -> Superoperator:
        try:
            return self.ops[label]
        except KeyError:
            raise ValidationError(f"instrument '{self.name}' has no outcome '{label}'") from None


def make_instrument(ops, name: str = "", tol: float = DEFAULT_TOL) -> Instrument:
    """Validate and build an instrument from a label-to-operation mapping.

    An instrument is a labelled resolution: every component must be an
    operation and the components must sum to a trivial map within
    ``10 * tol``, by the same check the Bayes formulas apply to a
    resolution; otherwise :class:`NotOperation` or :class:`NotTrivialSum` is
    raised.
    """
    if not ops:
        raise ValidationError(f"instrument '{name}': outcome map must be nonempty")
    labels = tuple(ops)
    dims = {a.dim for a in ops.values()}
    if len(dims) != 1:
        raise DimensionMismatch(f"instrument '{name}': components have mixed dims {sorted(dims)}")
    dim = dims.pop()
    for label in labels:
        if not classify(ops[label], tol).operation:
            raise NotOperation(f"instrument '{name}': component '{label}' is not an operation")
    _require_trivial_sum(ops.values(), tol, NotTrivialSum, f"instrument '{name}': component sum is not trivial")
    return Instrument(name, dim, labels, MappingProxyType(dict(ops)))


def product(i: Instrument, j: Instrument, tol: float = DEFAULT_TOL) -> Instrument:
    """Joint instrument on the Cartesian outcome set.

    The component at ``"x,y"`` is ``compose(i.op(x), j.op(y))`` -- ``j`` acts
    first, ``i`` second -- and the result revalidates as an instrument.
    """
    if i.dim != j.dim:
        raise DimensionMismatch(f"instrument dims differ: {i.dim} vs {j.dim}")
    ops = {
        f"{x},{y}": compose(i.op(x), j.op(y))
        for x in i.outcomes
        for y in j.outcomes
    }
    name = f"{i.name}*{j.name}" if i.name or j.name else ""
    return make_instrument(ops, name=name, tol=tol)


def _event_labels(i: Instrument, event) -> tuple:
    labels = tuple(event)
    unknown = [x for x in labels if x not in i.ops]
    if unknown:
        raise ValidationError(f"instrument '{i.name}' has no outcomes {unknown}")
    return labels


def summed(i: Instrument, event) -> Superoperator:
    """Sum of the components over an outcome subset (zero map for the empty set).

    One map is built per (instrument, label tuple) and returned again for a
    repeated event, so its classification memo carries over between queries.
    """
    labels = _event_labels(i, event)
    if labels not in i._summed:
        i._summed[labels] = reduce(add, (i.op(x) for x in labels)) if labels else zero(i.dim)
    return i._summed[labels]


def p_inst_pred(i: Instrument, event, a: Superoperator, tol: float = DEFAULT_TOL) -> float:
    """Predictive probability that the outcome lands in ``event``, given ``a`` just fired."""
    return bayes.p_pred(summed(i, event), a, tol, check=True)


def p_inst_retro(i: Instrument, event, a: Superoperator, tol: float = DEFAULT_TOL) -> float:
    """Retrodictive probability that the outcome lands in ``event``, given ``a`` fires next."""
    return bayes.p_retro(summed(i, event), a, tol, check=True)


def p_inst(i: Instrument, event, tol: float = DEFAULT_TOL) -> float:
    """Unconditional probability of ``event`` from the maximally mixed prior."""
    return bayes.p_prior(summed(i, event), tol, check=True)


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
