"""Dense complex matrix algebra: Hermitian eigensolver and Loewner-order predicates.

Matrices are square ``complex128`` numpy arrays.  The eigensolver is a cyclic
Jacobi iteration specialised to Hermitian input; everything else in the
package (positivity tests, Kraus extraction, operator norms) is built on it.

Values are treated as immutable after construction and may be shared freely
across concurrent tasks.

Tolerance policy: every bound derives from the caller's ``tol``.  Values the
package normalised itself (a state's trace and Hermiticity, the sampler's
branch sums) are checked within ``tol / 10``; spectra, Loewner tests,
probabilities and identity residuals within ``tol``; sums over resolution
members, which accumulate error, within ``10 * tol``.  The sampler's 1e-15
floor for a selected branch is a rounding floor, not a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

#: Default ``tol`` (see the tolerance policy above); spectral tests anchor it
#: at ``max(1, magnitude of the largest eigenvalue)`` of the quantity under test.
DEFAULT_TOL = 1e-9

#: Off-diagonal Frobenius mass (relative to the input scale) at which the
#: Jacobi sweep is considered converged.
JACOBI_CONVERGENCE = 1e-14

#: Maximum number of cyclic Jacobi sweeps before giving up.
JACOBI_MAX_SWEEPS = 100


def as_matrix(entries) -> np.ndarray:
    """Coerce ``entries`` to a square complex matrix with finite entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def _require_hermitian(m: np.ndarray, tol: float, what: str = "matrix") -> np.ndarray:
    """The Hermitian part ``(m + m*) / 2`` of ``m``, or :class:`NotHermitian`
    unless ``|m - m*|_F <= tol * max(1, |m|_F)``.  The Frobenius norm is
    unitarily invariant, so the verdict does not depend on the basis."""
    defect = float(np.linalg.norm(m - m.conj().T))
    scale = max(1.0, float(np.linalg.norm(m)))
    if defect > tol * scale:
        raise NotHermitian(f"{what} deviates from Hermitian by {defect:.3e} (scale {scale:.3e})")
    return (m + m.conj().T) / 2.0


@dataclass(frozen=True)
class EigSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column ``k`` of ``eigenvectors``
    is the eigenvector paired with ``eigenvalues[k]``, and the column matrix
    is unitary.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(m, tol: float = DEFAULT_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigSystem:
    """Diagonalise a Hermitian matrix by cyclic Jacobi rotations.

    Each rotation is a complex Givens rotation absorbing the phase of the
    targeted off-diagonal entry; a sweep visits every upper-triangle pair
    once.  Raises :class:`NotHermitian` if the input is not Hermitian within
    ``tol`` and :class:`NoConvergence` if the off-diagonal mass fails to fall
    below ``JACOBI_CONVERGENCE * scale`` within ``max_sweeps`` sweeps.
    """
    a = _require_hermitian(as_matrix(m), tol)
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return EigSystem(np.array([a[0, 0].real]), v)

    target = JACOBI_CONVERGENCE * max(1.0, float(np.linalg.norm(a)))
    skip = target / (2.0 * n)
    converged = False
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off < target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                phase = apq / mag
                theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = -np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Unitary J differs from identity only in rows/columns p, q:
                #   J[p,p] = c, J[p,q] = -s, J[q,p] = conj(phase) s, J[q,q] = conj(phase) c
                jp = np.conj(phase) * s
                jq = np.conj(phase) * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + jp * col_q
                a[:, q] = -s * col_p + jq * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + np.conj(jp) * row_q
                a[q, :] = -s * row_p + np.conj(jq) * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p + jp * col_q
                v[:, q] = -s * col_p + jq * col_q
    else:
        converged = np.linalg.norm(a - np.diag(np.diag(a))) < target
    if not converged:
        raise NoConvergence(f"Jacobi sweep budget of {max_sweeps} exhausted")

    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    return EigSystem(eigenvalues[order], v[:, order])


def _eig_psd(eigenvalues: np.ndarray, tol: float) -> bool:
    """The test of :func:`is_psd` on an already computed ascending spectrum."""
    return bool(eigenvalues[0] >= -tol * max(1.0, abs(eigenvalues[-1])))


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``m`` is positive semidefinite at ``tol``.

    The test is ``min eigenvalue >= -tol * max(1, |max eigenvalue|)``.
    """
    return _eig_psd(hermitian_eig(m, tol=tol).eigenvalues, tol)


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
    eig = hermitian_eig(gram)
    return float(np.sqrt(max(0.0, eig.eigenvalues[-1])))
