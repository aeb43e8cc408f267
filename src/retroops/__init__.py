"""Time-symmetric quantum operations toolkit.

Superoperator algebra with positivity classification and Kraus extraction,
predictive and retrodictive conditional probabilities with Bayes formulas,
finite-outcome instruments, inferred input/output states, and a seeded
Monte Carlo simulator for validating retrodictive statistics empirically.
"""

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConditionHits,
    NotCP,
    NotHermitian,
    NotOperation,
    NotProjector,
    NotResolution,
    NotTrivialSum,
    NotUnitary,
    ParseError,
    RetroOpsError,
    ValidationError,
    ZeroCondition,
    ZeroProbabilityBranch,
)
from .matcore import (
    DEFAULT_TOL,
    as_matrix,
    hermitian_eig,
    hs_inner,
    is_psd,
    loewner_leq,
    normalized_trace,
    op_norm,
    trace,
)
from .superop import (
    KrausSet,
    OperationClass,
    Superoperator,
    add,
    adjoint,
    apply,
    classify,
    compose,
    conjugate_map,
    event_weight,
    extract_kraus,
    from_kraus,
    from_tensor,
    hs_trace,
    is_cp,
    is_positive,
    projecting,
    reshuffle,
    scale,
    unit,
    unitary,
    unitary_inv,
    zero,
)
from .bayes import bayes_predict, bayes_retrodict, p_pred, p_prior, p_retro, time_reverse
from .instrument import (
    Instrument,
    make_instrument,
    p_cond_pred,
    p_cond_retro,
    p_inst,
    p_inst_pred,
    p_inst_retro,
    product,
    summed,
)
from .states import (
    DensityMatrix,
    Effect,
    effects_of,
    expect,
    state_of_instrument,
    state_posterior,
    state_prior,
)
from .sim import FreqReport, Trajectory, estimate, exact_sequence_probability, sample_sequence

__version__ = "0.1.0"
