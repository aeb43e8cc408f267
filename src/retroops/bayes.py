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

from collections.abc import Collection

from .errors import InvariantViolation, NotResolution, ValidationError, ZeroCondition
from .matcore import DEFAULT_TOL, _as_probability, _is_int
from .superop import Superoperator, _composed_weight, _require_operation, _require_trivial_sum, adjoint, event_weight


#: Bayes formulas are only valid for finite resolutions; reject absurd sizes.
#: At this size, ``bayes_retrodict`` over members ``scale(unit(d), w_k)``
#: (Dirichlet weights) takes 0.9-1.5 s on the first call, which classifies
#: every member and sums the family, and 26-54 ms on a repeat, with a max RSS
#: of 51 MB at ``d = 2``; at ``d = 4``, 1.1-1.3 s, 26-29 ms and 88 MB (3 runs
#: each in a fresh process, one BLAS thread, numpy 2.4.6, 2 shared CPUs).
MAX_RESOLUTION_SIZE = 10_000


def _weight(a: Superoperator, tol: float) -> float:
    w = event_weight(a)
    if abs(w.imag) > tol:
        raise InvariantViolation(f"event weight has imaginary part {w.imag:.3e}", residual=abs(w.imag), tol=tol)
    return w.real


def _conditional(a: Superoperator, b: Superoperator, joint: tuple, tol: float, check: bool) -> float:
    """``event_weight(compose(*joint)) / event_weight(b)`` for operations
    ``a`` and ``b``, clamped to ``[0, 1]``; ``joint`` is the caller's
    composition order.  The joint weight is read from the raw product of
    the two checked maps and kept per ordered pair, up to a cap per map, and
    :func:`_as_probability` rejects a non-finite quotient, which only maps
    passed with ``check=False`` can overflow to."""
    if check:
        _require_operation(a, tol, "first argument")
        _require_operation(b, tol, "second argument")
    wb = _weight(b, tol)
    if wb / b.dim <= tol:
        raise ZeroCondition("conditioning operation has zero event weight", residual=wb / b.dim, tol=tol)
    return _as_probability(_composed_weight(*joint) / wb, tol)


def p_pred(a: Superoperator, b: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Predictive conditional probability of ``a`` given that ``b`` just fired."""
    return _conditional(a, b, (a, b), tol, check)


def p_retro(a: Superoperator, b: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Retrodictive conditional probability of ``a`` given that ``b`` fires next."""
    return _conditional(a, b, (b, a), tol, check)


def p_prior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> float:
    """Unconditional probability of ``a`` from the maximally mixed prior."""
    if check:
        _require_operation(a, tol, "argument")
    return _as_probability(_weight(a, tol) / a.dim, tol)


def _check_resolution(a_list, tol: float) -> None:
    if not isinstance(a_list, Collection):
        raise ValidationError(f"resolution must be a collection of operations, got {type(a_list).__name__}")
    if not a_list:
        raise NotResolution("resolution must be nonempty")
    if len(a_list) > MAX_RESOLUTION_SIZE:
        raise NotResolution(f"resolution size {len(a_list)} exceeds {MAX_RESOLUTION_SIZE}")
    for k, a in enumerate(a_list):
        _require_operation(a, tol, f"resolution member {k}")
    _require_trivial_sum(a_list, tol, NotResolution, "members must sum to a trivial operation")


def _bayes(joint, a_list, b: Superoperator, j: int, tol: float) -> float:
    """``cond(b, a_j) p_prior(a_j) / sum_k cond(b, a_k) p_prior(a_k)`` over a resolution,
    with ``cond(b, a) = event_weight(compose(*joint(b, a))) / event_weight(a)``.

    The members and ``b`` are checked once, up front, so each term is
    computed as :func:`p_pred` (or :func:`p_retro`) and :func:`p_prior`
    compute it, reading each member's event weight and each joint once, so
    the posteriors of all ``K`` members cost ``K`` joints.  A member of zero
    event weight has ``p_prior`` 0, so its term is 0.  An index ``j``
    outside ``range(len(a_list))`` is a :class:`ValidationError`.
    """
    _check_resolution(a_list, tol)
    if not (_is_int(j) and 0 <= j < len(a_list)):
        raise ValidationError(f"index {j} out of range for a {len(a_list)}-member resolution")
    _require_operation(b, tol, "condition")
    if _weight(b, tol) / b.dim <= tol:
        raise ZeroCondition("condition has zero unconditional probability", residual=_weight(b, tol) / b.dim, tol=tol)
    weights = [_weight(a, tol) for a in a_list]
    terms = [
        _as_probability(_composed_weight(*joint(b, a)) / w, tol) * _as_probability(w / a.dim, tol) if w > tol else 0.0
        for a, w in zip(a_list, weights)
    ]
    total = sum(terms)
    if total <= tol:
        raise ZeroCondition("normalisation of the Bayes formula vanished", residual=total, tol=tol)
    return _as_probability(complex(terms[j] / total), tol)


def bayes_retrodict(a_list, b: Superoperator, j: int, tol: float = DEFAULT_TOL) -> float:
    """Retrodictive probability of ``a_list[j]`` given ``b``, via the Bayes formula.

    ``p_retro(a_j, b) = p_pred(b, a_j) p_prior(a_j) / sum_k p_pred(b, a_k) p_prior(a_k)``
    for any finite resolution ``a_list`` (operations with trivial sum) and
    any operation ``b`` with ``p_prior(b) > 0``.
    """
    return _bayes(lambda b, a: (b, a), a_list, b, j, tol)


def bayes_predict(a_list, b: Superoperator, j: int, tol: float = DEFAULT_TOL) -> float:
    """Predictive probability of ``a_list[j]`` given ``b``, via the mirrored Bayes formula.

    ``p_pred(a_j, b) = p_retro(b, a_j) p_prior(a_j) / sum_k p_retro(b, a_k) p_prior(a_k)``.
    """
    return _bayes(lambda b, a: (a, b), a_list, b, j, tol)


def time_reverse(a: Superoperator, tol: float = DEFAULT_TOL) -> Superoperator:
    """Time reversal of an operation: its :func:`adjoint`, again an operation,
    which carries ``a``'s classification at ``tol`` with no eigensolve."""
    _require_operation(a, tol, "argument")
    return adjoint(a)
