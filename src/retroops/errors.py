"""Exception hierarchy shared across the package.

Every error has one shape.  Where a tolerance check failed, ``residual`` is
the quantity the failed comparison read and ``tol`` the bound it was
compared with; every other error carries ``None`` in both.  A check fails
when ``residual`` exceeds ``tol``, except a vanishing condition
(:class:`ZeroCondition`), which fails when its probability is at most
``tol``.
"""


class RetroOpsError(Exception):
    """Base class for all package-specific errors, and the one ``__init__``:
    the message, then ``residual`` and ``tol`` (see the module docstring).
    The defaults let pickle rebuild an error from its message; it then
    restores both numbers."""

    def __init__(self, message: str, *, residual: float | None = None, tol: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.tol = tol


class DimensionMismatch(RetroOpsError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(RetroOpsError):
    """A matrix required to be Hermitian fails the tolerance check; it
    carries ``|m - m*|_F`` and ``tol * max(1, |m|_F)``."""


class NotCP(RetroOpsError):
    """Kraus extraction was requested for a map that is not completely positive."""


class NotProjector(RetroOpsError):
    """Builder input fails the P = P* = P^2 check; it carries the ``P = P*``
    numbers of :class:`NotHermitian`, or ``max |P^2 - P|`` and ``tol``."""


class NotUnitary(RetroOpsError):
    """Builder input fails the U*U = I check; it carries ``max |U*U - I|`` and ``tol``."""


class NotOperation(RetroOpsError):
    """A superoperator required to be an operation (CP, sub-unital, sub-tracial) is not."""


class NotResolution(RetroOpsError):
    """A family of operations does not sum to a trivial operation.  Where a
    sum was formed it carries ``max(|sum(I) - I|, |adjoint(sum)(I) - I|)``,
    each the largest entry, and ``10 * tol``; the message gives both
    deviations."""


class NotTrivialSum(RetroOpsError):
    """Instrument components do not sum to a unital, trace-preserving map;
    it carries the numbers :class:`NotResolution` does."""


class ZeroCondition(RetroOpsError):
    """A conditional probability was requested with a zero-weight condition;
    it carries the vanishing probability and ``tol``."""


class InvariantViolation(RetroOpsError):
    """A numerical quantity violated an invariant by more than the tolerance."""


class ZeroProbabilityBranch(RetroOpsError):
    """The sampler selected an outcome whose branch probability is numerically zero."""


class NoConditionHits(RetroOpsError):
    """No sampled trajectory produced the conditioning outcome."""


class ParseError(RetroOpsError):
    """Scenario text is not valid JSON."""


class ValidationError(RetroOpsError, ValueError):
    """Input violates a schema or consistency requirement; also a ``ValueError``."""
