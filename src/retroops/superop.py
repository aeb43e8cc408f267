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

Both predicates read one pair ``(adjoint(a)(I), a(I))``, read-only: each
image has one Loewner bound ``img <= I`` and one deviation ``|img - I|``
(its largest entry, formed on the diagonal of a copy).  The same deviation
rule reads the pair of a resolution's raw sum in the trivial-sum check.

Every value is checked once, where it enters.  The constructors that take
numbers from a caller check them: ``Superoperator`` (and through it
``from_tensor``, ``compose``, ``add`` and ``scale``) and ``from_kraus``
require finite entries of the right shape.  A value that is not a
:class:`Superoperator` where a map enters is rejected as a
:class:`ValidationError` by one type check, ``_require_kind``, which the
memo every map query reads also runs, or by the dimension check every
combination makes.  The three involutions build their result
without a second check, because each one only moves, conjugates or
transposes the entries of a checked matrix, exactly: the result is finite
and of the same shape.  For the same reason the
trivial-sum check reads the identity's images from the raw sum of the
members' matrices, and the Bayes joints in :mod:`retroops.bayes` read an
event weight from the raw product of two checked maps.

All values are immutable after construction; every function is pure.
Because a map never changes, :func:`classify` and the CP verdict it
shares with :func:`is_cp` and :func:`extract_kraus` are computed once per
(map, tolerance) and kept on the map, and so is the Kraus factor once
:func:`extract_kraus` asks for it; :func:`classify` builds none.
:func:`event_weight` takes no tolerance and is kept once per map; the
states inferred from the identity's two images (:mod:`retroops.states`)
are kept per (map, direction, tolerance).  The joint weight
``event_weight(compose(a, b))`` that every conditional probability and
Bayes term reads is kept on ``a`` in one weak-keyed dictionary from the
partner ``b`` to the weight, for at most ``_MAX_JOINTS`` (64) live
partners, so an entry goes when ``b`` dies and a map's joints take bounded
memory however many maps it meets; a further partner's joint is computed
again on every call.  (Threads racing past the cap may each add one entry
more.)  The trivial-sum check keeps
the deviation pair of one family on its first member, next to weak
references to the other members, so a map holds at most one family.
No kept value keeps another map alive or reaches its own map, so no
reference cycle forms.  A map built by :func:`from_kraus` also keeps one
float, its Gram bound: how far any computed eigenvalue of its stored Choi
matrix can lie below 0, so :func:`is_cp` can certify it without an
eigensolve.  :func:`adjoint` inherits the classification, the CP verdict
and the Gram bound, never a joint.  Two threads racing on a first call may
both compute the value; they store equal results.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field, replace
from functools import reduce
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    NotCP,
    NotHermitian,
    NotOperation,
    NotProjector,
    NotUnitary,
    ValidationError,
)
from .matcore import (
    DEFAULT_TOL, _complex_array, _is_int, _require_finite, _require_hermitian, _require_within, as_matrix, is_psd
)


#: The trivial-sum bound ``10 * tol`` of a resolution at the default tolerance.
SUM_TOL = 10 * DEFAULT_TOL


@dataclass(frozen=True, eq=False)
class Superoperator:
    """A linear map on ``dim x dim`` matrices, stored as a ``dim^2 x dim^2`` matrix."""

    dim: int
    mat: np.ndarray
    #: Results of checks on this map, keyed by ``(check, tol)``; see :func:`_memoised`.
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        d = _require_dim(self.dim)
        m = as_matrix(self.mat)
        if m.shape != (d * d, d * d):
            raise DimensionMismatch(f"expected a {d * d}x{d * d} matrix, got shape {m.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def tensor(self) -> np.ndarray:
        """Rank-4 view ``t[out_row, out_col, in_row, in_col]``."""
        d = self.dim
        return self.mat.reshape(d, d, d, d)


def _rearranged(dim: int, m: np.ndarray) -> Superoperator:
    """A map whose matrix ``m`` is an exact rearrangement (entries moved,
    conjugated or transposed) of a checked map's matrix, built without a
    second check.  ``m`` must be C-contiguous and fresh or a view of
    read-only storage; it is made read-only, and the map starts with an
    empty memo."""
    a = object.__new__(Superoperator)
    m.setflags(write=False)
    object.__setattr__(a, "dim", dim)
    object.__setattr__(a, "mat", m)
    object.__setattr__(a, "_memo", {})
    return a


def _require_dim(d) -> int:
    """``d``, or :class:`DimensionMismatch` unless it is an integer ``>= 1``."""
    if not (_is_int(d) and d >= 1):
        raise DimensionMismatch(f"dimension must be a positive integer, got {d!r}")
    return d


@dataclass(frozen=True, eq=False)
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


def from_tensor(mat) -> Superoperator:
    """Build a superoperator from its ``dim^2 x dim^2`` matrix; ``dim`` is
    read from the side."""
    m = _complex_array(mat)
    d = int(round(np.sqrt(m.shape[0]))) if m.ndim == 2 else 0
    if m.ndim != 2 or d * d != m.shape[0]:
        raise DimensionMismatch(f"matrix shape {m.shape} is not square with a perfect-square side")
    return Superoperator(d, m)


def from_kraus(ops, dim: int | None = None) -> Superoperator:
    """Build ``A -> sum_k M_k A M_k*`` from a list of Kraus matrices.

    The Choi matrix is the Gram product ``C = V^T conj(V)`` of the ``k x n``
    matrix ``V`` whose rows are the ``vec(M_k)``, ``n = d^2``, so it is
    positive semidefinite up to rounding.  The map keeps its Gram bound
    ``8 (k + n) eps |V|_F^2``, with ``eps`` the machine epsilon and
    ``|V|_F^2 = tr C``: how far rounding can push a computed eigenvalue of
    ``C`` below 0 (see :func:`is_cp`).
    """
    try:
        items = iter(ops)
    except TypeError:
        raise ValidationError(f"Kraus matrices must be an iterable of matrices, got {type(ops).__name__}") from None
    mats = [_complex_array(m) for m in items]
    if not mats:
        if dim is None:
            raise DimensionMismatch("empty Kraus list needs an explicit dimension")
        return zero(dim)
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise DimensionMismatch(f"Kraus matrices must share one square shape, got {sorted(shapes)}")
    stack = np.stack(mats)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected square Kraus matrices, got shape {stack.shape[1:]}")
    _require_finite(stack)
    d = stack.shape[1]
    if dim is not None and dim != d:
        raise DimensionMismatch(f"Kraus matrices are {d}x{d}, expected dim {dim}")
    # The Choi matrix sum_k vec(M_k) vec(M_k)* is one product; its axes
    # (out_row, in_row, out_col, in_col) are reordered into storage.
    v = stack.reshape(len(mats), d * d)
    choi = v.T @ v.conj()
    a = Superoperator(d, choi.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))
    a._memo["gram", None] = 8 * (len(mats) + d * d) * sys.float_info.epsilon * float(np.vdot(v, v).real)
    return a


def _common_dim(values, what: str, kind: type = Superoperator) -> int:
    """The one ``dim`` of a nonempty family of ``kind`` values (maps, or
    instruments); :class:`ValidationError` for a value of another type and
    :class:`DimensionMismatch` naming ``what`` and the dims found."""
    for v in values:
        if not isinstance(v, kind):
            raise ValidationError(f"{what} must be {kind.__name__} values, got {type(v).__name__}")
    dims = {v.dim for v in values}
    if len(dims) != 1:
        raise DimensionMismatch(f"{what} have mixed dims {sorted(dims)}")
    return dims.pop()


def apply(a: Superoperator, m) -> np.ndarray:
    """Apply the map to a matrix."""
    _require_kind(a)
    m = as_matrix(m)
    if m.shape[0] != a.dim:
        raise DimensionMismatch(f"matrix is {m.shape[0]}x{m.shape[0]}, map expects {a.dim}")
    return (a.mat @ m.ravel()).reshape(a.dim, a.dim)


def compose(a: Superoperator, b: Superoperator) -> Superoperator:
    """The map ``A -> a(b(A))``, i.e. ``b`` acts first."""
    return Superoperator(_common_dim((a, b), "superoperators"), a.mat @ b.mat)


def conjugate_map(a: Superoperator) -> Superoperator:
    """The map ``A -> [a(A*)]*`` with ``*`` the conjugate transpose.

    Maps with a Kraus form are exactly its fixed points.
    """
    t = np.conjugate(_require_kind(a).tensor.transpose(1, 0, 3, 2), order="C")
    return _rearranged(a.dim, t.reshape(a.mat.shape))


def adjoint(a: Superoperator) -> Superoperator:
    """Adjoint for the trace inner product; the conjugate transpose in storage.

    This is the paper's time reversal.  Each :func:`classify` record kept on
    ``a`` is copied with ``sub_unital`` and ``sub_tracial`` swapped, and each
    CP verdict and the Gram bound as they are, so the adjoint is classified,
    and its Kraus factor built, with no eigensolve and no second verdict.
    That is sound: its storage matrix has ``a``'s Hermitian part, its Choi
    matrix is ``a``'s conjugated and index-permuted (same spectrum, same
    rounding), and its images of the identity, like the two sums of its
    Kraus family ``{M_k*}``, are ``a``'s swapped.
    """
    _require_kind(a)
    rev = _rearranged(a.dim, np.conjugate(a.mat.T, order="C"))
    for (check, tol), kept in list(a._memo.items()):
        if check == "classify":
            rev._memo[check, tol] = replace(kept, sub_unital=kept.sub_tracial, sub_tracial=kept.sub_unital)
        elif check in ("cp", "gram"):
            rev._memo[check, tol] = kept
    return rev


def reshuffle(a: Superoperator) -> Superoperator:
    """Exchange the map's matrix with its Choi matrix (self-inverse)."""
    t = _require_kind(a).tensor.transpose(0, 2, 1, 3)
    return _rearranged(a.dim, t.reshape(a.mat.shape))


def hs_trace(a: Superoperator) -> complex:
    """Trace of the map as an operator on Hilbert-Schmidt space."""
    return complex(np.trace(_require_kind(a).mat))


def event_weight(a: Superoperator) -> complex:
    """``tr a(I)``: the unnormalised "yes"-weight of the map, computed once per map."""
    return _memoised(a, "event_weight", None, _event_weight)


def _event_weight(a: Superoperator, _tol) -> complex:
    return complex(np.einsum("bbaa->", a.tensor))


#: Live partners whose joint weight one map keeps; a further partner's joint
#: is computed on every call and not kept.
_MAX_JOINTS = 64


def _composed_weight(a: Superoperator, b: Superoperator) -> complex:
    """``event_weight(compose(a, b))``, kept on ``a`` in one
    :class:`weakref.WeakKeyDictionary` from partner ``b`` to the weight, so
    an entry goes when ``b`` dies, for at most :data:`_MAX_JOINTS` live
    partners.  A miss runs :func:`_joint_weight` first, so a non-map
    argument raises on every call and leaves no entry."""
    joints = a._memo.get(("joints", None)) if isinstance(a, Superoperator) else None
    weight = joints.get(b) if joints is not None and isinstance(b, Superoperator) else None
    if weight is None:
        weight = _joint_weight(a, b)
        joints = _memoised(a, "joints", None, lambda a, _tol: weakref.WeakKeyDictionary())
        if len(joints) < _MAX_JOINTS:
            joints[b] = weight
    return weight


def _joint_weight(a: Superoperator, b: Superoperator) -> complex:
    """The same einsum as :func:`event_weight` on the raw product, to the bit,
    since a product of checked maps needs no second check."""
    d = _common_dim((a, b), "superoperators")
    return complex(np.einsum("bbaa->", (a.mat @ b.mat).reshape(d, d, d, d)))


def is_positive(a: Superoperator, tol: float = DEFAULT_TOL) -> bool:
    """True iff the storage matrix is Hermitian positive semidefinite at ``tol``.

    Equivalent to ``tr[A* a(A)] >= 0`` for every matrix ``A``, since
    ``adjoint`` is the adjoint for the trace inner product.  A non-Hermitian
    storage matrix yields ``False`` rather than an error.
    """
    return _psd(_require_kind(a).mat, tol)


def _psd(m: np.ndarray, tol: float) -> bool:
    """:func:`is_psd`, reading a non-Hermitian matrix as ``False``."""
    try:
        return is_psd(m, tol)
    except NotHermitian:
        return False


def is_cp(a: Superoperator, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity: the Choi matrix (the reshuffled map) is Hermitian
    positive semidefinite at ``tol``.  The verdict is memoised per (map,
    tol), so :func:`classify` and :func:`extract_kraus` share it.

    A map from :func:`from_kraus` (or its adjoint) with ``tol > 0`` and a Gram
    bound of at most ``tol / 2`` is CP with no eigensolve, the verdict the
    spectrum gives.  Its Choi matrix ``C = V^T conj(V)`` is exactly PSD; each
    computed entry is off by at most ``sqrt(2) gamma_{k+2} (|V|^T |V|)_ij``
    (complex inner products; Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sections 3.1 and 3.6), and the Frobenius norm of
    ``|V|^T |V|`` is at most ``|V|_F^2``.  Forming the Hermitian part adds at
    most ``eps/2 |V|_F^2``, and ``eigvalsh`` returns the exact spectrum of a
    matrix within ``p(n) eps |C|_2 <= p(n) eps |V|_F^2``, ``p(n)`` of order
    ``n`` (LAPACK Users' Guide, error bounds for the symmetric
    eigenproblem).  So by Weyl's inequality no computed eigenvalue lies below
    ``-(0.71 (k + 2) + 0.5 + p(n)) eps |V|_F^2``, within the Gram bound for
    ``p(n) <= 7 n``.  The skew part is within ``tol`` of the Hermiticity
    check's scale as well.  Any other map, ``tol <= 0`` or a bound above
    ``tol / 2`` (or not finite) reads the spectrum."""
    return _memoised(a, "cp", tol, _cp)


def _cp(a: Superoperator, tol: float) -> bool:
    """The CP verdict: ``True`` with no eigensolve when ``a`` keeps a Gram
    bound (from :func:`from_kraus`) of at most ``tol / 2`` for a ``tol > 0``,
    else the Choi matrix's spectrum at ``tol``."""
    bound = a._memo.get(("gram", None))
    if bound is not None and tol > 0 and bound <= tol / 2:
        return True
    return _psd(reshuffle(a).mat, tol)


def _require_kind(value, kind: type = Superoperator):
    """``value``, or :class:`ValidationError` unless it is a ``kind``: the one
    type check where a map, an instrument or a state enters a call."""
    if not isinstance(value, kind):
        raise ValidationError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _memoised(a: Superoperator, check: str, tol: float, compute):
    """``compute(a, tol)``, evaluated once per (map, check, tol) and kept on
    ``a``; every memoised query starts with :func:`_require_kind`."""
    _require_kind(a)
    key = (check, tol)
    if key not in a._memo:
        a._memo[key] = compute(a, tol)
    return a._memo[key]


def _kraus_factor(a: Superoperator, tol: float) -> KrausSet:
    """Kraus matrices of a CP map from a left-looking pivoted Cholesky factor
    ``C = L L*`` of its ``n x n`` Choi matrix ``C = sum_k vec(M_k) vec(M_k)*``
    (Harbrecht, Peters and Schneider, Appl. Numer. Math. 62, 2012).  Only the
    remaining diagonal is kept up to date.  Step ``k`` pivots on the first
    largest remaining diagonal entry ``p``, stops once that entry is
    ``<= tol``, and otherwise forms factor column ``k`` from column ``p`` of
    ``C`` less one product with the ``k`` columns already found: O(n k) work,
    no ``n x n`` update.  The columns are kept as rows, one Kraus matrix each,
    in pivot order and read-only.  :func:`extract_kraus` has passed
    :func:`is_cp` on the same Choi matrix at ``tol``, so the factor reads its
    Hermitian part without a second check."""
    c = reshuffle(a).mat
    # Row p of the conjugated Hermitian part is column p of the Hermitian part,
    # to the bit, and a row is contiguous.
    c = (c.conj() + c.T) / 2.0
    n = c.shape[0]
    diag = c.diagonal().real.copy()
    rows = np.empty_like(c)
    k = 0
    while k < n and diag[p := diag.argmax()] > tol:
        row = rows[k]
        np.subtract(c[p], rows[:k, p].conj() @ rows[:k], out=row)
        row /= math.sqrt(diag[p])
        diag -= (row * row.conj()).real
        k += 1
    rows = rows[:k].copy() if k < n else rows
    rows.setflags(write=False)
    return KrausSet(a.dim, tuple(row.reshape(a.dim, a.dim) for row in rows))


def extract_kraus(a: Superoperator, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus matrices of a completely positive map.

    Columns of a left-looking pivoted Cholesky factor of the Choi matrix,
    reshaped row-major; one matrix per pivot above ``tol``, in pivot order
    (largest remaining diagonal entry first).  A step costs O(n k) for the
    ``k`` matrices already found, with no ``n x n`` update, and no
    eigensolve runs after :func:`is_cp`.  The family is unique only up to
    unitary mixing, so callers should compare maps by round trip through
    :func:`from_kraus`, never operator by operator.  Memoised per (map, tol)
    and read-only; a factor of ``k < n`` matrices holds ``k n`` entries.
    """
    if not is_cp(a, tol):
        raise NotCP("Kraus extraction requires a completely positive map")
    return _memoised(a, "kraus", tol, _kraus_factor)


def classify(a: Superoperator, tol: float = DEFAULT_TOL) -> OperationClass:
    """Classify a superoperator: positivity, complete positivity, operation, triviality.

    The operation predicate is decided once, by the Loewner route: Choi
    positivity plus ``adjoint(a)(I) <= I`` and ``a(I) <= I``, which for Kraus
    matrices ``M_k`` are ``sum M_k* M_k <= I`` and ``sum M_k M_k* <= I``.  No
    Kraus factor is built.  The record is computed once per (map, tol) and
    then returned from the map's memo.
    """
    return _memoised(a, "classify", tol, _classify)


def _effect_pair(dim: int, m: np.ndarray) -> tuple:
    """``(adjoint(a)(I), a(I))`` of the map ``a`` with storage matrix ``m``,
    which are ``(sum M_k* M_k, sum M_k M_k*)`` for Kraus matrices ``M_k``;
    computed as ``apply(adjoint(a), I)`` and ``apply(a, I)`` compute them,
    and read-only."""
    eye = np.eye(dim, dtype=complex).ravel()
    pair = (np.conjugate(m.T, order="C") @ eye).reshape(dim, dim), (m @ eye).reshape(dim, dim)
    for img in pair:
        img.setflags(write=False)
    return pair


def _deviation(img: np.ndarray) -> float:
    """``|img - I|``, the largest entry: the one deviation rule for an image
    of the identity.  ``img - I`` is formed on the diagonal of a copy, with
    no identity matrix."""
    dev = img.copy()
    dev.flat[:: len(dev) + 1] -= 1.0
    return float(np.abs(dev).max())


def _classify(a: Superoperator, tol: float) -> OperationClass:
    eye = np.eye(a.dim)
    positive, cp = is_positive(a, tol), is_cp(a, tol)
    pair = _effect_pair(a.dim, a.mat)
    sub_tracial, sub_unital = bounds = [_psd(eye - img, tol) for img in pair]
    operation = cp and all(bounds)
    trivial = operation and all(_deviation(img) <= tol for img in pair)
    return OperationClass(positive, cp, sub_unital, sub_tracial, operation, trivial)


def _require_operation(a: Superoperator, tol: float, what: str) -> None:
    if not classify(a, tol).operation:
        raise NotOperation(f"{what} is not an operation (CP, sub-unital, sub-tracial)")


def _require_trivial_sum(ops, tol: float, error, what: str) -> None:
    """Raise ``error`` unless ``|sum(I) - I|`` and ``|adjoint(sum)(I) - I|``
    are within ``10 * tol`` entrywise, the tier for sums over members.

    The one trivial-sum check, shared by Bayes resolutions and instruments.
    The members are checked maps of one dim, so their matrices are summed
    raw, in :func:`add`'s order, and each image's deviation is read by the
    rule :func:`classify` applies to a map's own images.  The deviation
    pair takes no tolerance, so it is kept in one slot on the first member,
    next to weak references to the other members: a later call over the
    same members in the same order reads it, and only the comparison with
    ``10 * tol`` runs again, inline, since a Bayes formula runs it per call.
    The error carries the larger deviation and ``10 * tol``; its message
    gives both deviations.
    """
    ops = tuple(ops)
    d = _common_dim(ops, "superoperators")
    rest = ops[1:]
    kept = ops[0]._memo.get(("family", None))
    if kept and tuple(ref() for ref in kept[0]) == rest:
        dev_in, dev_out = kept[1]
    else:
        dev_in, dev_out = map(_deviation, _effect_pair(d, reduce(np.add, (a.mat for a in ops))))
        ops[0]._memo["family", None] = tuple(map(weakref.ref, rest)), (dev_in, dev_out)
    if max(dev_out, dev_in) > 10 * tol:
        raise error(f"{what}; |sum(I) - I| = {dev_out:.3e}, |adjoint(sum)(I) - I| = {dev_in:.3e}",
                    residual=max(dev_out, dev_in), tol=10 * tol)


def unit(dim: int) -> Superoperator:
    """The identity map ``A -> A``."""
    d = _require_dim(dim)
    return Superoperator(d, np.eye(d * d, dtype=complex))


def zero(dim: int) -> Superoperator:
    """The zero map ``A -> 0``."""
    d = _require_dim(dim)
    return Superoperator(d, np.zeros((d * d, d * d), dtype=complex))


def projecting(p, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> P A P`` for a projector ``P``."""
    p = as_matrix(p)
    _require_hermitian(p, tol, "input must satisfy P = P*: projector", error=NotProjector)
    _require_within(float(np.abs(p @ p - p).max()), tol, "input must satisfy P = P^2 within tolerance",
                    error=NotProjector)
    return from_kraus([p])


def unitary(u, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> U A U*`` for a unitary ``U``."""
    u = as_matrix(u)
    _require_within(float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()), tol,
                    "input must satisfy U*U = I within tolerance", error=NotUnitary)
    return from_kraus([u])


def unitary_inv(u, tol: float = DEFAULT_TOL) -> Superoperator:
    """The map ``A -> U* A U``, the inverse of :func:`unitary` and its adjoint."""
    return adjoint(unitary(u, tol))


def add(a: Superoperator, b: Superoperator) -> Superoperator:
    return Superoperator(_common_dim((a, b), "superoperators"), a.mat + b.mat)


def scale(a: Superoperator, c: float) -> Superoperator:
    """Scale by a factor ``c``, a finite real number ``>= 0``; any other
    factor is a :class:`ValidationError`.

    Factors in ``[0, 1]`` keep operations inside the operation class; larger
    factors can leave it.
    """
    if not (isinstance(c, Real) and 0 <= c <= sys.float_info.max):
        raise ValidationError(f"scale factor must be a finite real number >= 0, got {c!r}")
    return Superoperator(_require_kind(a).dim, c * a.mat)
