"""Inferred input/output states of operations, and their effect operators.

Given an operation ``a`` with nonzero event weight, the state inferred for
its *input* from the fact that it fired is

    state_prior(a)     = adjoint(a)(I) / tr[adjoint(a)(I)]

and the state inferred for its *output* is

    state_posterior(a) = a(I) / tr[a(I)].

Both are density matrices.  The pair of effect operators of ``a``,

    effects_of(a) = (adjoint(a)(I), a(I)) = (sum M_k* M_k, sum M_k M_k*),

bridges the states back to the conditional probability functionals:

    p_pred(a, b)  = tr[state_posterior(b) @ effects_of(a)[0]]
    p_retro(a, b) = tr[state_prior(b)     @ effects_of(a)[1]]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, ValidationError, ZeroCondition
from .matcore import DEFAULT_TOL, as_matrix, is_psd, loewner_leq
from .superop import Superoperator, adjoint, apply
from .bayes import _require_operation
from . import instrument as _instr

__all__ = [
    "DensityMatrix",
    "Effect",
    "state_prior",
    "state_posterior",
    "state_of_instrument",
    "effects_of",
    "expect",
]

_HERM_TOL = 1e-10
_PSD_TOL = 1e-9
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace matrix; validated at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if np.abs(m - m.conj().T).max() > _HERM_TOL:
            raise InvariantViolation("density matrix is not Hermitian within 1e-10")
        if not is_psd(m, _PSD_TOL):
            raise InvariantViolation("density matrix is not positive semidefinite within 1e-9")
        if abs(np.trace(m) - 1.0) > _TRACE_TOL:
            raise InvariantViolation(f"density matrix trace {np.trace(m):.12g} is not 1 within 1e-10")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Effect:
    """A Hermitian matrix between 0 and the identity in the Loewner order."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if not is_psd(m, _PSD_TOL) or not loewner_leq(m, np.eye(m.shape[0]), _PSD_TOL):
            raise InvariantViolation("effect must satisfy 0 <= E <= I")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _normalized_image(m: np.ndarray, tol: float) -> DensityMatrix:
    m = _hermitize(m)
    w = float(np.trace(m).real)
    if w <= tol:
        raise ZeroCondition("operation has zero event weight; no state is inferable")
    return DensityMatrix(m / w)


def state_prior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> DensityMatrix:
    """Density matrix inferred for the input of operation ``a`` given that it fired."""
    if check:
        _require_operation(a, tol, "argument")
    return state_posterior(adjoint(a), tol, check=False)


def state_posterior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> DensityMatrix:
    """Density matrix inferred for the output of operation ``a`` given that it fired."""
    if check:
        _require_operation(a, tol, "argument")
    return _normalized_image(apply(a, np.eye(a.dim)), tol)


def state_of_instrument(inst, event, direction: str = "prior", tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State inferred from an instrument's outcome landing in ``event``.

    Equals the prior/posterior state of the summed operation over the event.
    """
    if direction not in ("prior", "posterior"):
        raise ValidationError(f"direction must be 'prior' or 'posterior', got {direction!r}")
    total = _instr.summed(inst, event)
    fn = state_prior if direction == "prior" else state_posterior
    return fn(total, tol, check=False)


def effects_of(a: Superoperator, tol: float = DEFAULT_TOL) -> tuple:
    """The effect pair ``(sum M_k* M_k, sum M_k M_k*)`` of an operation."""
    _require_operation(a, tol, "argument")
    m_in = _hermitize(apply(adjoint(a), np.eye(a.dim)))
    m_out = _hermitize(apply(a, np.eye(a.dim)))
    return Effect(m_in), Effect(m_out)


def expect(rho: DensityMatrix, obs, tol: float = DEFAULT_TOL) -> float:
    """Expectation ``tr(rho @ obs)`` of a Hermitian observable in a state."""
    obs = as_matrix(obs)
    val = complex(np.trace(rho.matrix @ obs))
    if abs(val.imag) > tol * max(1.0, abs(val.real)):
        raise InvariantViolation(f"expectation has imaginary part {val.imag:.3e}")
    return val.real
