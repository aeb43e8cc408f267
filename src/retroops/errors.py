"""Exception hierarchy shared across the package."""


class RetroOpsError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(RetroOpsError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(RetroOpsError):
    """A matrix required to be Hermitian fails the tolerance check.

    ``defect`` is ``|m - m*|_F``, ``scale`` is ``max(1, |m|_F)`` and ``tol``
    the relative bound: the check failed because ``defect > tol * scale``.
    The defaults let pickle rebuild the error from its message; it then
    restores the three numbers.
    """

    def __init__(self, message: str, *, defect: float | None = None, scale: float | None = None,
                 tol: float | None = None):
        super().__init__(message)
        self.defect = defect
        self.scale = scale
        self.tol = tol


class NotCP(RetroOpsError):
    """Kraus extraction was requested for a map that is not completely positive."""


class NotProjector(RetroOpsError):
    """Builder input fails the P = P* = P^2 check."""


class NotUnitary(RetroOpsError):
    """Builder input fails the U*U = I check."""


class NotOperation(RetroOpsError):
    """A superoperator required to be an operation (CP, sub-unital, sub-tracial) is not."""


class _SumDeviation(RetroOpsError):
    """A family of operations whose sum fails the trivial-sum check.

    ``dev_out`` is ``|sum(I) - I|`` and ``dev_in`` is
    ``|adjoint(sum)(I) - I|``, each the largest entry, and ``bound`` is
    ``10 * tol``: the check failed because one deviation exceeds ``bound``.
    The fields are ``None`` where no sum was formed.  As for
    :class:`NotHermitian`, the defaults let pickle rebuild the error from
    its message; it then restores the three numbers.
    """

    def __init__(self, message: str, *, dev_in: float | None = None, dev_out: float | None = None,
                 bound: float | None = None):
        super().__init__(message)
        self.dev_in = dev_in
        self.dev_out = dev_out
        self.bound = bound


class NotResolution(_SumDeviation):
    """A family of operations does not sum to a trivial operation."""


class NotTrivialSum(_SumDeviation):
    """Instrument components do not sum to a unital, trace-preserving map."""


class ZeroCondition(RetroOpsError):
    """A conditional probability was requested with a zero-weight condition."""


class InvariantViolation(RetroOpsError):
    """A numerical quantity violated an invariant by more than the tolerance.

    ``residual`` is the deviation the check measured and ``tol`` the bound
    it exceeded, where the raising check records them, else ``None``.  As
    for :class:`NotHermitian`, the defaults let pickle rebuild the error
    from its message; it then restores the two numbers.
    """

    def __init__(self, message: str, *, residual: float | None = None, tol: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.tol = tol


class ZeroProbabilityBranch(RetroOpsError):
    """The sampler selected an outcome whose branch probability is numerically zero."""


class NoConditionHits(RetroOpsError):
    """No sampled trajectory produced the conditioning outcome."""


class ParseError(RetroOpsError):
    """Scenario text is not valid JSON."""


class ValidationError(RetroOpsError, ValueError):
    """Input violates a schema or consistency requirement; also a ``ValueError``."""
