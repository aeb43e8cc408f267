"""Predictive and retrodictive probability functionals over operations.

For operations ``a`` and ``b`` with ``event_weight(b) > 0``:

* predictive   ``p_pred(a, b)  = event_weight(a . b) / event_weight(b)`` --
  the probability that ``a`` answers "yes" immediately after ``b`` did;
* retrodictive ``p_retro(a, b) = event_weight(b . a) / event_weight(b)`` --
  the probability that ``a`` answered "yes" immediately before ``b`` did;
* unconditional ``p_prior(a) = event_weight(a) / dim``.

The two conditional functionals convert into one another through a Bayes
formula over any resolution (a finite family of operations with trivial sum)
and through the time-reversal ``adjoint``:  ``p_pred(a, b) =
p_retro(adjoint(a), adjoint(b))`` and symmetrically.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import InvariantViolation, NotOperation, NotResolution, ZeroCondition
from .matcore import DEFAULT_TOL
from .superop import Superoperator, add, adjoint, apply, classify, compose, event_weight

__all__ = [
    "p_pred",
    "p_retro",
    "p_prior",
    "bayes_retrodict",
    "bayes_predict",
    "time_reverse",
    "MAX_RESOLUTION_SIZE",
]

#: Bayes formulas are only valid for finite resolutions; reject absurd sizes.
MAX_RESOLUTION_SIZE = 10_000

#: The trivial-sum bound ``10 * tol`` of a resolution at the default tolerance.
SUM_TOL = 10 * DEFAULT_TOL


def _as_probability(value: complex, tol: float) -> float:
    """Validate and clamp a computed probability.

    Values within ``tol`` of 0 or 1 clamp to the boundary; values farther
    outside ``[0, 1]``, or with an imaginary part above ``tol``, raise
    :class:`InvariantViolation` to surface bugs instead of hiding them.
    """
    if abs(value.imag) > tol:
        raise InvariantViolation(f"probability has imaginary part {value.imag:.3e}")
    v = value.real
    if v < -tol or v > 1.0 + tol:
        raise InvariantViolation(f"probability {v!r} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, v))


def _require_operation(a: Superoperator, tol: float, what: str) -> None:
    if not classify(a, tol).operation:
        raise NotOperation(f"{what} is not an operation (CP, sub-unital, sub-tracial)")


def _weight(a: Superoperator, tol: float) -> float:
    w = event_weight(a)
    if abs(w.imag) > tol:
        raise InvariantViolation(f"event weight has imaginary part {w.imag:.3e}")
    return w.real


def p_pred(a: Superoperator, b: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Predictive conditional probability of ``a`` given that ``b`` just fired."""
    if check:
        _require_operation(a, tol, "first argument")
        _require_operation(b, tol, "second argument")
    wb = _weight(b, tol)
    if wb <= tol:
        raise ZeroCondition("conditioning operation has zero event weight")
    return _as_probability(event_weight(compose(a, b)) / wb, tol)


def p_retro(a: Superoperator, b: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Retrodictive conditional probability of ``a`` given that ``b`` fires next."""
    if check:
        _require_operation(a, tol, "first argument")
        _require_operation(b, tol, "second argument")
    wb = _weight(b, tol)
    if wb <= tol:
        raise ZeroCondition("conditioning operation has zero event weight")
    return _as_probability(event_weight(compose(b, a)) / wb, tol)


def p_prior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Unconditional probability of ``a`` from the maximally mixed prior."""
    if check:
        _require_operation(a, tol, "argument")
    return _as_probability(_weight(a, tol) / a.dim, tol)


def _require_trivial_sum(ops, tol: float, error, what: str) -> None:
    """Raise ``error`` unless ``|sum(I) - I|`` and ``|adjoint(sum)(I) - I|``
    are within ``10 * tol`` entrywise, the tier for sums over members.

    The one trivial-sum check, shared by Bayes resolutions and instruments.
    """
    total = reduce(add, ops)
    eye = np.eye(total.dim)
    dev_out = float(np.abs(apply(total, eye) - eye).max())
    dev_in = float(np.abs(apply(adjoint(total), eye) - eye).max())
    if max(dev_out, dev_in) > 10 * tol:
        raise error(f"{what}; |sum(I) - I| = {dev_out:.3e}, |adjoint(sum)(I) - I| = {dev_in:.3e}")


def _check_resolution(a_list, tol: float) -> None:
    if not a_list:
        raise NotResolution("resolution must be nonempty")
    if len(a_list) > MAX_RESOLUTION_SIZE:
        raise NotResolution(f"resolution size {len(a_list)} exceeds {MAX_RESOLUTION_SIZE}")
    for k, a in enumerate(a_list):
        _require_operation(a, tol, f"resolution member {k}")
    _require_trivial_sum(a_list, tol, NotResolution, "members must sum to a trivial operation")


def _bayes(cond, a_list, b: Superoperator, j: int, tol: float) -> float:
    """``cond(b, a_j) p_prior(a_j) / sum_k cond(b, a_k) p_prior(a_k)`` over a resolution.

    A member of zero event weight has ``p_prior`` 0, so its term is 0.
    """
    _check_resolution(a_list, tol)
    _require_operation(b, tol, "condition")
    if p_prior(b, tol, check=False) <= tol:
        raise ZeroCondition("condition has zero unconditional probability")
    terms = [
        cond(b, a, tol, check=False) * p_prior(a, tol, check=False) if _weight(a, tol) > tol else 0.0
        for a in a_list
    ]
    total = sum(terms)
    if total <= tol:
        raise ZeroCondition("normalisation of the Bayes formula vanished")
    return _as_probability(complex(terms[j] / total), tol)


def bayes_retrodict(a_list, b: Superoperator, j: int, tol: float = DEFAULT_TOL) -> float:
    """Retrodictive probability of ``a_list[j]`` given ``b``, via the Bayes formula.

    ``p_retro(a_j, b) = p_pred(b, a_j) p_prior(a_j) / sum_k p_pred(b, a_k) p_prior(a_k)``
    for any finite resolution ``a_list`` (operations with trivial sum) and
    any operation ``b`` with ``p_prior(b) > 0``.
    """
    return _bayes(p_pred, a_list, b, j, tol)


def bayes_predict(a_list, b: Superoperator, j: int, tol: float = DEFAULT_TOL) -> float:
    """Predictive probability of ``a_list[j]`` given ``b``, via the mirrored Bayes formula.

    ``p_pred(a_j, b) = p_retro(b, a_j) p_prior(a_j) / sum_k p_retro(b, a_k) p_prior(a_k)``.
    """
    return _bayes(p_retro, a_list, b, j, tol)


def time_reverse(a: Superoperator, tol: float = DEFAULT_TOL) -> Superoperator:
    """Time reversal of an operation: its adjoint, again an operation."""
    _require_operation(a, tol, "argument")
    return adjoint(a)
