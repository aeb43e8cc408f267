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

An inferred state reads its identity image from the map's matrix, as
``apply(adjoint(a), I)`` or ``apply(a, I)`` computes it, and builds no
adjoint map.  The image is checked Hermitian at ``tol``; the
:class:`DensityMatrix` built from it checks Hermiticity a second time, at
``tol / 10``, inside its one :func:`hermitian_eig` call, whose spectrum is
also its positivity test.  A map never changes, so that one eigensolve
runs once per (map, direction, tol): the validated, read-only
:class:`DensityMatrix` is kept on the map and returned again.  A state of
an instrument's event is kept on the summed map of the event.  The
effect pair of :func:`effects_of`, two :class:`Effect` values with one
eigensolve each, is kept the same way, per (map, tol).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvariantViolation, NotHermitian, ValidationError, ZeroCondition
from .matcore import (
    DEFAULT_TOL, _complex_array, _psd_defect, _require_hermitian, _require_within, _same_dim, as_matrix, hermitian_eig
)
from .superop import Superoperator, _effect_pair, _memoised, _require_kind, _require_operation
from . import instrument as _instr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive unit-trace matrix; validated at construction, storing the
    Hermitian part and, read-only, the ascending ``spectrum`` its positivity
    test computed.  The one :func:`hermitian_eig` call is also the shape,
    finiteness and Hermitian check, at ``tol / 10``."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, tol):
        m = _complex_array(self.matrix)
        try:
            spectrum = hermitian_eig(m, tol / 10)
        except NotHermitian as e:
            raise InvariantViolation(
                f"density matrix is not Hermitian within {tol / 10:g}", residual=e.defect, tol=e.tol * e.scale
            ) from None
        m = (m + m.conj().T) / 2.0
        _require_within(*_psd_defect(spectrum, tol), "density matrix is not positive semidefinite within {:g}", tol)
        tr = m.trace()
        _require_within(abs(tr - 1.0), tol / 10, "density matrix trace {:.12g} is not 1 within {:g}", tr, tol / 10)
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Effect:
    """A Hermitian matrix between 0 and the identity in the Loewner order,
    stored as its Hermitian part.  Both bounds are tested on one spectrum,
    whose :func:`hermitian_eig` call is also the shape, finiteness and
    Hermitian check, at ``tol``."""

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol):
        m = _complex_array(self.matrix)
        spectrum = hermitian_eig(m, tol)
        for bounded in (spectrum, 1.0 - spectrum[::-1]):
            _require_within(*_psd_defect(bounded, tol), "effect must satisfy 0 <= E <= I")
        m = (m + m.conj().T) / 2.0
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _inferred_state(a: Superoperator, direction: int, tol: float) -> DensityMatrix:
    """The state ``img / tr img`` for the identity's image ``img`` under the
    operation ``a``, its input (``direction`` 0) or its output (1); computed
    once per (map, direction, tol) and kept on the map.  A failing image
    is not kept, so it raises on every call."""

    def infer(a: Superoperator, tol: float) -> DensityMatrix:
        m = _require_hermitian(_effect_pair(a.dim, a.mat)[direction], tol, "operation image")
        w = float(m.trace().real)
        if w / a.dim <= tol:
            raise ZeroCondition("operation has zero event weight; no state is inferable")
        return DensityMatrix(m / w, tol)

    return _memoised(a, ("state", direction), tol, infer)


def state_prior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> DensityMatrix:
    """Density matrix inferred for the input of operation ``a`` given that it fired."""
    if check:
        _require_operation(a, tol, "argument")
    return _inferred_state(a, 0, tol)


def state_posterior(a: Superoperator, tol: float = DEFAULT_TOL, check: bool = True) -> DensityMatrix:
    """Density matrix inferred for the output of operation ``a`` given that it fired."""
    if check:
        _require_operation(a, tol, "argument")
    return _inferred_state(a, 1, tol)


def state_of_instrument(inst, event, direction: str = "prior", tol: float = DEFAULT_TOL) -> DensityMatrix:
    """State inferred from an instrument's outcome landing in ``event``.

    Equals the prior/posterior state of the summed operation over the event,
    which is an operation because the instrument was validated; the state
    is kept on that map, which :func:`~retroops.instrument.summed` keeps
    per event.
    """
    if direction not in ("prior", "posterior"):
        raise ValidationError(f"direction must be 'prior' or 'posterior', got {direction!r}")
    return _inferred_state(_instr.summed(inst, event), direction == "posterior", tol)


def effects_of(a: Superoperator, tol: float = DEFAULT_TOL) -> tuple:
    """The effect pair ``(sum M_k* M_k, sum M_k M_k*)`` of an operation;
    computed once per (map, tol) and kept on the map, like the inferred
    states.  A failing pair is not kept, so it raises on every call."""
    _require_operation(a, tol, "argument")
    return _memoised(a, "effects", tol, lambda a, tol: tuple(Effect(m, tol) for m in _effect_pair(a.dim, a.mat)))


def expect(rho: DensityMatrix, obs, tol: float = DEFAULT_TOL) -> float:
    """Expectation ``tr(rho @ obs)`` of an observable in a state.

    The observable must be Hermitian within ``tol`` (else
    :class:`InvariantViolation`); its Hermitian part is used, so the value is real.
    """
    obs = as_matrix(obs)
    _same_dim(_require_kind(rho, DensityMatrix).matrix, obs)
    try:
        obs = _require_hermitian(obs, tol, "observable")
    except NotHermitian as e:
        raise InvariantViolation(str(e), residual=e.defect, tol=e.tol * e.scale) from None
    return float(np.trace(rho.matrix @ obs).real)
