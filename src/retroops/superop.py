"""Superoperator algebra on a fixed finite dimension.

A linear map ``a`` on the algebra of ``d x d`` complex matrices is stored as
the rank-4 tensor ``a[out_row, out_col, in_row, in_col]`` flattened to a
``d^2 x d^2`` matrix with row index ``(out_row, out_col)`` and column index
``(in_row, in_col)``, both in row-major pair order, so that

    apply(a, A)[g, d] = sum_{r, c} a[(g, d), (r, c)] * A[r, c].

Three involutions act on this representation:

* ``conjugate_map``:  a -> [a(A*)]*,  entrywise ``conj`` with both index
  pairs swapped internally;
* ``adjoint``:  the adjoint for the trace inner product ``tr(A* B)``, which
  in this storage convention is exactly the conjugate transpose of the
  ``d^2 x d^2`` matrix;
* ``reshuffle``:  the exchange of the map's matrix with its Choi matrix, so
  ``reshuffle(a)`` positive semidefinite is equivalent to ``a`` completely
  positive.

An *operation* is a completely positive map ``a`` with ``a(I) <= I`` and
``adjoint(a)(I) <= I`` in the Loewner order.  An operation is *trivial* when
it is invisible to all composition statistics; this is equivalent to
``a(I) = I`` and ``adjoint(a)(I) = I`` (unital and trace preserving), because
``event_weight(compose(a, b)) = tr[adjoint(a)(I)* b(I)]`` equals
``event_weight(b)`` for every operation ``b`` iff ``adjoint(a)(I) = I``, and
symmetrically for the reversed composition.

All values are immutable after construction; every function is pure.
Because a map never changes, :func:`classify` and the Choi spectrum it
shares with :func:`extract_kraus` are computed once per (map, tolerance) and
kept on the map.  Two threads racing on a first call may both compute the
value; they store equal results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NotCP,
    NotHermitian,
    NotProjector,
    NotUnitary,
)
from .matcore import DEFAULT_TOL, _eig_psd, _require_hermitian, as_matrix, hermitian_eig, is_psd

__all__ = [
    "Superoperator",
    "KrausSet",
    "OperationClass",
    "from_tensor",
    "from_kraus",
    "apply",
    "compose",
    "conjugate_map",
    "adjoint",
    "reshuffle",
    "hs_trace",
    "event_weight",
    "is_positive",
    "is_cp",
    "extract_kraus",
    "classify",
    "unit",
    "zero",
    "projecting",
    "unitary",
    "unitary_inv",
    "add",
    "scale",
]


@dataclass(frozen=True)
class Superoperator:
    """A linear map on ``dim x dim`` matrices, stored as a ``dim^2 x dim^2`` matrix."""

    dim: int
    mat: np.ndarray
    #: Results of checks on this map, keyed by ``(check, tol)``; see :func:`_memoised`.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dim
        if d < 1:
            raise DimensionMismatch(f"dimension must be positive, got {d}")
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (d * d, d * d):
            raise DimensionMismatch(f"expected a {d * d}x{d * d} matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("superoperator entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def tensor(self) -> np.ndarray:
        """Rank-4 view ``t[out_row, out_col, in_row, in_col]``."""
        d = self.dim
        return self.mat.reshape(d, d, d, d)


@dataclass(frozen=True)
class KrausSet:
    """A finite family of ``dim x dim`` matrices acting as ``A -> sum_k M_k A M_k*``."""

    dim: int
    ops: tuple

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class OperationClass:
    """Classification record for a superoperator.

    ``operation`` is always ``cp and sub_unital and sub_tracial``, and
    ``trivial`` implies ``operation``.
    """

    positive: bool
    cp: bool
    sub_unital: bool
    sub_tracial: bool
    operation: bool
    trivial: bool


def from_tensor(mat, dim: int | None = None) -> Superoperator:
    """Build a superoperator from its ``dim^2 x dim^2`` matrix."""
    m = np.asarray(mat, dtype=complex)
    if dim is None:
        d = int(round(np.sqrt(m.shape[0]))) if m.ndim == 2 else 0
        if d * d != m.shape[0]:
            raise DimensionMismatch(f"matrix side {m.shape} is not a perfect square")
        dim = d
    return Superoperator(dim, m)


def from_kraus(ops, dim: int | None = None) -> Superoperator:
    """Build ``A -> sum_k M_k A M_k*`` from a list of Kraus matrices."""
    mats = [as_matrix(m) for m in ops]
    if not mats:
        if dim is None:
            raise DimensionMismatch("empty Kraus list needs an explicit dimension")
        return zero(dim)
    d = mats[0].shape[0]
    if dim is not None and dim != d:
        raise DimensionMismatch(f"Kraus matrices are {d}x{d}, expected dim {dim}")
    stack = np.stack(mats)
    if stack.shape[1:] != (d, d):
        raise DimensionMismatch("Kraus matrices must share one square shape")
    t = np.einsum("kgr,kdc->gdrc", stack, stack.conj())
    return Superoperator(d, t.reshape(d * d, d * d))


def _check_dims(a: Superoperator, b: Superoperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"superoperator dims differ: {a.dim} vs {b.dim}")


def apply(a: Superoperator, m) -> np.ndarray:
    """Apply the map to a matrix."""
    m = as_matrix(m)
    if m.shape[0] != a.dim:
        raise DimensionMismatch(f"matrix is {m.shape[0]}x{m.shape[0]}, map expects {a.dim}")
    return (a.mat @ m.ravel()).reshape(a.dim, a.dim)


def compose(a: Superoperator, b: Superoperator) -> Superoperator:
    """The map ``A -> a(b(A))``, i.e. ``b`` acts first."""
    _check_dims(a, b)
    return Superoperator(a.dim, a.mat @ b.mat)


def conjugate_map(a: Superoperator) -> Superoperator:
    """The map ``A -> [a(A*)]*`` with ``*`` the conjugate transpose.

    Maps with a Kraus form are exactly its fixed points.
    """
    t = a.tensor.transpose(1, 0, 3, 2).conj()
    return Superoperator(a.dim, t.reshape(a.mat.shape))


def adjoint(a: Superoperator) -> Superoperator:
    """Adjoint for the trace inner product; the conjugate transpose in storage."""
    return Superoperator(a.dim, a.mat.conj().T)


def reshuffle(a: Superoperator) -> Superoperator:
    """Exchange the map's matrix with its Choi matrix (self-inverse)."""
    t = a.tensor.transpose(0, 2, 1, 3)
    return Superoperator(a.dim, t.reshape(a.mat.shape))


def hs_trace(a: Superoperator) -> complex:
    """Trace of the map as an operator on Hilbert-Schmidt space."""
    return complex(np.trace(a.mat))


def event_weight(a: Superoperator) -> complex:
    """``tr a(I)``: the unnormalised "yes"-weight of the map."""
    return complex(np.einsum("bbaa->", a.tensor))


def is_positive(a: Superoperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff the storage matrix is Hermitian positive semidefinite at ``tol``.

    Equivalent to ``tr[A* a(A)] >= 0`` for every matrix ``A``, since
    ``adjoint`` is the adjoint for the trace inner product.  A non-Hermitian
    storage matrix yields ``False`` rather than an error.
    """
    return _psd(a.mat, tol)


def _psd(m: np.ndarray, tol: float) -> bool:
    """:func:`is_psd`, reading a non-Hermitian matrix as ``False``."""
    try:
        return is_psd(m, tol)
    except NotHermitian:
        return False


def is_cp(a: Superoperator, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity, tested as positivity of the reshuffled map."""
    return is_positive(reshuffle(a), tol)


def _memoised(a: Superoperator, check: str, tol: float, compute):
    """``compute(a, tol)``, evaluated once per (map, check, tol) and kept on ``a``."""
    key = (check, tol)
    if key not in a._memo:
        a._memo[key] = compute(a, tol)
    return a._memo[key]


def _choi_eig(a: Superoperator, tol: float):
    """Spectral decomposition of the (hermitized) Choi matrix, or ``None``
    if the Choi matrix is not Hermitian within ``tol``.  Memoised and
    read-only, so :func:`classify` and :func:`extract_kraus` share it."""
    return _memoised(a, "choi_eig", tol, _compute_choi_eig)


def _compute_choi_eig(a: Superoperator, tol: float):
    try:
        eig = hermitian_eig(reshuffle(a).mat, tol=tol)
    except NotHermitian:
        return None
    eig.eigenvalues.setflags(write=False)
    eig.eigenvectors.setflags(write=False)
    return eig


def _kraus_from_eig(eig, dim: int, tol: float) -> KrausSet:
    ops = []
    for lam, vec in zip(eig.eigenvalues, eig.eigenvectors.T):
        if lam > tol:
            ops.append(np.sqrt(lam) * vec.reshape(dim, dim))
    return KrausSet(dim, tuple(ops))


def extract_kraus(a: Superoperator, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus matrices of a completely positive map.

    Eigenvectors of the Choi matrix with eigenvalue above ``tol`` are scaled
    by the square root of the eigenvalue and reshaped row-major.  The family
    is unique only up to unitary mixing, so callers should compare maps by
    round trip through :func:`from_kraus`, never operator by operator.
    """
    eig = _choi_eig(a, tol)
    if eig is None or not _eig_psd(eig.eigenvalues, tol):
        raise NotCP("Kraus extraction requires a completely positive map")
    return _kraus_from_eig(eig, a.dim, tol)


def classify(a: Superoperator, tol: float = DEFAULT_TOL) -> OperationClass:
    """Classify a superoperator: positivity, complete positivity, operation, triviality.

    The operation predicate is evaluated directly (Choi positivity plus the
    two Loewner checks) and, for completely positive maps, cross-checked
    against the Kraus-sum route ``sum M_k* M_k <= I`` and
    ``sum M_k M_k* <= I``; disagreement raises :class:`InvariantViolation`.
    The record is computed once per (map, tol) and then returned from the
    map's memo.
    """
    return _memoised(a, "classify", tol, _classify)


def _classify(a: Superoperator, tol: float) -> OperationClass:
    eye = np.eye(a.dim)
    positive = is_positive(a, tol)
    choi_eig = _choi_eig(a, tol)
    cp = choi_eig is not None and _eig_psd(choi_eig.eigenvalues, tol)
    out_img = apply(a, eye)
    in_img = apply(adjoint(a), eye)
    sub_unital = _psd(eye - out_img, tol)
    sub_tracial = _psd(eye - in_img, tol)
    operation = cp and sub_unital and sub_tracial
    if cp:
        ks = _kraus_from_eig(choi_eig, a.dim, tol)
        s_in = sum((m.conj().T @ m for m in ks.ops), np.zeros_like(eye, dtype=complex))
        s_out = sum((m @ m.conj().T for m in ks.ops), np.zeros_like(eye, dtype=complex))
        via_kraus = _psd(eye - s_out, tol) and _psd(eye - s_in, tol)
        if via_kraus != (sub_unital and sub_tracial):
            raise InvariantViolation(
                "operation predicate disagrees between the Loewner route and the Kraus-sum route"
            )
    trivial = (
        operation
        and float(np.abs(out_img - eye).max()) <= tol
        and float(np.abs(in_img - eye).max()) <= tol
    )
    return OperationClass(positive, cp, sub_unital, sub_tracial, operation, trivial)


def unit(dim: int) -> Superoperator:
    """The identity map ``A -> A``."""
    return Superoperator(dim, np.eye(dim * dim, dtype=complex))


def zero(dim: int) -> Superoperator:
    """The zero map ``A -> 0``."""
    return Superoperator(dim, np.zeros((dim * dim, dim * dim), dtype=complex))


def projecting(p, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> P A P`` for a projector ``P``."""
    p = as_matrix(p)
    try:
        _require_hermitian(p, tol, "projector")
    except NotHermitian as e:
        raise NotProjector(f"input must satisfy P = P*: {e}") from None
    if np.abs(p @ p - p).max() > tol:
        raise NotProjector("input must satisfy P = P^2 within tolerance")
    return from_kraus([p])


def unitary(u, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> U A U*`` for a unitary ``U``."""
    u = as_matrix(u)
    if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() > tol:
        raise NotUnitary("input must satisfy U*U = I within tolerance")
    return from_kraus([u])


def unitary_inv(u, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> U* A U``, the inverse of :func:`unitary` and its adjoint."""
    return adjoint(unitary(u, tol))


def add(a: Superoperator, b: Superoperator) -> Superoperator:
    _check_dims(a, b)
    return Superoperator(a.dim, a.mat + b.mat)


def scale(a: Superoperator, c: float) -> Superoperator:
    """Scale by a nonnegative real factor.

    Factors in ``[0, 1]`` keep operations inside the operation class; larger
    factors can leave it.
    """
    if c < 0:
        raise ValueError("scale factor must be nonnegative")
    return Superoperator(a.dim, c * a.mat)
