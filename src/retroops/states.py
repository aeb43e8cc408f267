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

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvariantViolation, NotHermitian, ValidationError, ZeroCondition
from .matcore import DEFAULT_TOL, _eig_psd, _require_hermitian, _same_dim, as_matrix, hermitian_eig, is_psd
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


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace matrix; validated at construction, storing the Hermitian part."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        try:
            m = _require_hermitian(as_matrix(self.matrix), tol / 10, "density matrix")
        except NotHermitian:
            raise InvariantViolation(f"density matrix is not Hermitian within {tol / 10:g}") from None
        if not is_psd(m, tol):
            raise InvariantViolation(f"density matrix is not positive semidefinite within {tol:g}")
        if abs(np.trace(m) - 1.0) > tol / 10:
            raise InvariantViolation(f"density matrix trace {np.trace(m):.12g} is not 1 within {tol / 10:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Effect:
    """A Hermitian matrix between 0 and the identity in the Loewner order, tested on one spectrum."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        m = _require_hermitian(as_matrix(self.matrix), tol, "effect")
        spectrum = hermitian_eig(m, tol).eigenvalues
        if not (_eig_psd(spectrum, tol) and _eig_psd(1.0 - spectrum[::-1], tol)):
            raise InvariantViolation("effect must satisfy 0 <= E <= I")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _normalized_image(m: np.ndarray, tol: float) -> DensityMatrix:
    m = _require_hermitian(m, tol, "operation image")
    w = float(np.trace(m).real)
    if w <= tol:
        raise ZeroCondition("operation has zero event weight; no state is inferable")
    return DensityMatrix(m / w, tol)


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
    return Effect(apply(adjoint(a), np.eye(a.dim)), tol), Effect(apply(a, np.eye(a.dim)), tol)


def expect(rho: DensityMatrix, obs, tol: float = DEFAULT_TOL) -> float:
    """Expectation ``tr(rho @ obs)`` of a Hermitian observable in a state."""
    obs = as_matrix(obs)
    _same_dim(rho.matrix, obs)
    val = complex(np.trace(rho.matrix @ obs))
    if abs(val.imag) > tol * max(1.0, abs(val.real)):
        raise InvariantViolation(f"expectation has imaginary part {val.imag:.3e}")
    return val.real
