"""Dense complex matrix algebra: Hermitian spectra and Loewner-order predicates.

Matrices are square ``complex128`` numpy arrays.  Every spectral verdict in
the package (positivity tests, the Loewner order, complete positivity,
operator norms) reads eigenvalues only, from :func:`hermitian_eig`.

Values are treated as immutable after construction and may be shared freely
across concurrent tasks.

Tolerance policy: every bound derives from the caller's ``tol``.  Values the
package normalised itself (a state's trace and Hermiticity, the sampler's
branch sums) are checked within ``tol / 10``; spectra, Loewner tests,
probabilities and identity residuals within ``tol``; sums over resolution
members, which accumulate error, within ``10 * tol``.  The sampler's 1e-15
floor for a selected branch is a rounding floor, not a tolerance.  A
condition vanishes when its probability is ``<= tol``: for a map ``b``
that is ``event_weight(b) / dim``, its probability from the maximally
mixed prior, which conditional probabilities, Bayes formulas and inferred
states all read; ``estimate`` reads the exact probability of its
conditioning outcome from its prior.  Hermiticity has one test,
:func:`_require_hermitian`, with one raise; its caller names the error,
:class:`NotHermitian` unless it passes another.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotHermitian, ValidationError

#: Default ``tol`` (see the tolerance policy above); spectral tests anchor it
#: at ``max(1, magnitude of the largest eigenvalue)`` of the quantity under test.
DEFAULT_TOL = 1e-9


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a square complex matrix of side >= 1; the one
    shape test, so a 0x0 matrix is a :class:`DimensionMismatch`, and the one
    finiteness test, so a non-finite or overflowed entry is a
    :class:`ValidationError`."""
    m = _complex_array(entries)
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix of side >= 1, got shape {m.shape}")
    return _require_finite(m)


def _complex_array(entries) -> np.ndarray:
    """``entries`` as a complex array: the one coercion of caller input, so a
    non-numeric, ragged or too large entry is a :class:`ValidationError`.
    Strings and bytes are not numbers, even where numpy would parse them."""
    try:
        m = np.asarray(entries)
        if m.dtype.kind in "US":
            raise TypeError
        return np.asarray(m, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("matrix entries must be numbers in a rectangular array") from None


def _require_finite(m: np.ndarray) -> np.ndarray:
    """``m``, or :class:`ValidationError` if an entry is not finite."""
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def _is_int(value) -> bool:
    """An integer of any width, not a bool: the one rule for dims, counts, seeds and indices."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def _require_hermitian(m: np.ndarray, tol: float, what: str = "matrix", error=NotHermitian) -> np.ndarray:
    """The Hermitian part ``(m + m*) / 2`` of ``m``, or ``error`` unless
    ``|m - m*|_F <= tol * max(1, |m|_F)``.  The one Hermitian test of the
    package, with one raise: the caller names the error (:class:`NotHermitian`
    by default), and its message starts with ``what``.  The Frobenius norm
    is unitarily invariant, so the verdict does not depend on the basis.
    Both norms come from one conjugate transpose, each as
    ``sqrt(vdot(x, x))``; the error carries ``|m - m*|_F`` and
    ``tol * max(1, |m|_F)``."""
    h = m.conj().T
    skew = m - h
    defect = math.sqrt(np.vdot(skew, skew).real)
    scale = max(1.0, math.sqrt(np.vdot(m, m).real))
    _require_within(defect, tol * scale, "{} deviates from Hermitian by {:.3e} (scale {:.3e})", what, defect, scale,
                    error=error)
    return (m + h) / 2.0


def hermitian_eig(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, from LAPACK ``eigvalsh``.

    The one spectral routine of the package.  Raises :class:`NotHermitian`
    if ``m`` is not Hermitian within ``tol``; its Hermitian part is diagonalised.
    """
    return np.linalg.eigvalsh(_require_hermitian(as_matrix(m), tol))


def _psd_defect(eigenvalues: np.ndarray, tol: float) -> tuple:
    """``(-min eigenvalue, tol * max(1, |max eigenvalue|))`` of an already
    computed ascending spectrum: the test of :func:`is_psd` passes iff the
    first is at most the second."""
    return float(-eigenvalues[0]), float(tol * max(1.0, abs(eigenvalues[-1])))


def _require_within(residual: float, bound: float, message: str, *args, error=InvariantViolation) -> None:
    """``error`` with ``message.format(*args)``, carrying ``residual`` and
    ``bound`` as its ``residual`` and ``tol``, unless ``residual <= bound``;
    the message is formatted only to raise.  The raise of every bound check
    that does not run per query."""
    if not residual <= bound:
        raise error(message.format(*args), residual=residual, tol=bound)


def _as_probability(value: complex, tol: float) -> float:
    """Validate and clamp a computed probability.

    Values within ``tol`` of 0 or 1 clamp to the boundary; values farther
    outside ``[0, 1]``, with an imaginary part above ``tol``, or with a
    non-finite part raise :class:`InvariantViolation` to surface bugs
    instead of hiding them.  Its ``residual`` is the modulus of a
    non-finite value, the size of the imaginary part or the real part's
    distance from ``[0, 1]``, and its ``tol`` is ``tol``.
    """
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise InvariantViolation(f"probability {value!r} is not finite", residual=abs(value), tol=tol)
    if abs(value.imag) > tol:
        raise InvariantViolation(f"probability has imaginary part {value.imag:.3e}", residual=abs(value.imag), tol=tol)
    v = value.real
    if v < -tol or v > 1.0 + tol:
        raise InvariantViolation(
            f"probability {v!r} outside [0, 1] beyond tolerance", residual=max(-v, v - 1.0), tol=tol
        )
    return min(1.0, max(0.0, v))


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``m`` is positive semidefinite at ``tol``.

    The test is ``min eigenvalue >= -tol * max(1, |max eigenvalue|)``.
    """
    residual, bound = _psd_defect(hermitian_eig(m, tol), tol)
    return residual <= bound


def loewner_leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order test: true iff ``b - a`` is positive semidefinite."""
    a = as_matrix(a)
    b = as_matrix(b)
    _same_dim(a, b)
    return is_psd(_require_hermitian(b, tol, "right operand") - _require_hermitian(a, tol, "left operand"), tol)


def trace(m) -> complex:
    return complex(np.trace(as_matrix(m)))


def normalized_trace(m) -> complex:
    """Trace divided by the dimension, so the identity maps to 1."""
    m = as_matrix(m)
    return complex(np.trace(m)) / m.shape[0]


def hs_inner(a, b) -> complex:
    """Normalised Hilbert-Schmidt inner product ``tr(a* b) / dim``."""
    a = as_matrix(a)
    b = as_matrix(b)
    _same_dim(a, b)
    return normalized_trace(a.conj().T @ b)


def op_norm(m) -> float:
    """Operator norm: the largest singular value of ``m``."""
    m = as_matrix(m)
    gram = m.conj().T @ m
    return float(np.sqrt(max(0.0, hermitian_eig(gram)[-1])))
