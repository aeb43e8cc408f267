"""Seeded Monte Carlo sampling of instrument sequences.

Trajectories start from the maximally mixed state unless a prior is given.
At each step an outcome ``x`` of the current instrument is drawn with
probability ``tr[op_x(rho)]`` and the state updates to ``op_x(rho)`` divided
by that probability; the branch probabilities sum to one at every step
because instrument components sum to a trace-preserving map.

Selection rule: with the cumulative branch weights ``c_0 <= ... <= c_{K-1}``
of a trial's node and its uniform ``u`` in ``[0, 1)``, the trial takes outcome
``k`` when ``c_{k-1} <= u < c_k`` (``c_{-1} = 0``), and the last outcome when
``u >= c_{K-2}``: ``searchsorted(c, u, side="right")`` capped at ``K - 1``.  A
tie goes to the later outcome, so ``u = 0`` never selects a leading
zero-weight branch.

:func:`estimate` reads two steps, the condition and the target, and samples
only those.  An outcome nobody reads acts as its instrument's non-selective,
summed operation (Davies and Lewis, Commun. Math. Phys. 17, 239, 1970), so
each maximal run of unread steps, the one after the last read step
included, is sampled as one one-outcome block: the product of the run's
summed maps.  The joint law of the read outcomes is unchanged; the
realisation for a given seed is not, since fewer uniforms are read.  A
block's branch weight is its image's trace, the compound trace of the
whole run, so the ``tol / 10`` branch-sum check reads the block, not each
step: per-step losses inside the bound can add up past it over a run, and
whether a run is accepted depends on which steps are read.
:func:`sample_sequence` reports every step, so it samples every step.

One step is one BLAS product: the node states, kept as ``(nodes, d*d)``
rows from step to step, times the step's component stack, the components
side by side, ``(d*d, K*d*d)``, give every node's ``K`` images.  An
instrument's stack is built on its first sampled step and kept on the
instrument, read-only (``K * d**4 * 16`` bytes, as much as its
components); a block's stack is its matrix transposed, built per call.  The
weights are built node-major, ``(nodes, K)``: the real diagonal entries of
each image added in index order (the first two in one call), then clamped
at 0.  The cumulative weights are ``K`` contiguous ``(nodes,)`` rows, each
the previous row plus one outcome's weights, in ``cumsum`` order, and the
last is the branch sum checked at ``tol / 10``.  A trial's outcome is the
number of the first ``K - 1`` rows with ``u >= c_k[node]``, one 1-D
``take`` and one compare per row; the rows never decrease, so this equals
the capped count over all ``K``.  numpy hands a one-row product to gemv,
whose bits can differ from the same row of a gemm, so a lone node is
computed as row 0 of a two-row product: a node's images never depend on
how many nodes share its step.

Trials with one outcome history share a node of the history tree.  The
sampler yields its trials in chunks of at most ``_CHUNK``, and
:func:`estimate` keeps only the running counts, so its memory is
O(chunk * steps) for any trial count.  Within a chunk only occupied nodes
are kept.  After every step but the last, the children ``node * K +
outcome`` are numbered in history order.  When every child is occupied
(the ``bincount`` of the trials' codes has no zero), the codes are already
those numbers and the scaled images are the next states, with nothing
gathered; otherwise the occupied children are renumbered and their images
gathered.  So a step handles at most ``min(chunk, K**s)`` nodes in one
batch and node ids stay below ``chunk * K``.  The last step stops once its
outcomes are selected, and nothing reads its children's states: it reads
the ``_ZERO_BRANCH`` floor from all ``nodes * K`` weights first, and from
the selected codes' weights only when one of those is below it, which
gives the same verdict because a trial can only select a weight that
exists.

Randomness comes from a Philox counter-based generator keyed by the 64-bit
seed.  The uniform variate consumed by trial ``t`` at sampled step ``s``
(a block is one step) sits at flat counter position ``t * steps + s``, for
``steps`` sampled steps; consecutive draws from one
generator continue that stream, so the chunks read exactly the uniforms one
whole-matrix draw would, and results are bit-identical for any chunk size.

Each public call checks its inputs once, where they enter: one entry check
of the steps and the prior gives the start state, and one check per
(step, outcome label) pair gives the outcome index.  The exact forward loop
and the sampler then work on these checked values: a forward step is the
bare product ``apply`` computes, without its checks, on the state kept as
one flat vector, whose trace is the sum of its every ``(d+1)``-th entry
(the bits ``np.trace`` gives); each step's summed map is taken from
``summed`` once per call.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConditionHits,
    ValidationError,
    ZeroCondition,
    ZeroProbabilityBranch,
)
from .matcore import DEFAULT_TOL, _as_probability, _is_int, _require_within
from .superop import _common_dim
from .instrument import Instrument, summed
from .states import DensityMatrix


#: Rounding floor for a selected branch's probability, not a tolerance.
_ZERO_BRANCH = 1e-15

#: Trials per chunk in :func:`estimate`; results do not depend on it.
_CHUNK = 2**14

#: Largest sampled work ``trials * sum_s K_s * d**4`` that :func:`estimate`
#: takes on, for steps of ``K_s`` outcomes on ``d x d`` matrices: a step
#: costs about ``K * d**4`` per node.  It is the ``2 * 10**9`` trial-steps of
#: d = 2, K = 2 (32 per trial-step), about 2 minutes at the 17.7 million
#: trial-steps per second measured for 3e5 trials over 24 alternating Z/X
#: qubit steps (median of 11 calls), on one core of a 2-CPU host with one
#: BLAS thread.  It allows about 2e6 trial-steps at d = 8, K = 8 (7 s at 280k
#: per second) and 6e4 at d = 16, K = 16 (5 s at 13.4k per second).  The
#: sum runs over every step, not over the sampled blocks of unread steps:
#: the exact passes still walk every step, and the cap stays conservative.
MAX_SAMPLED_WORK = 64 * 10**9


@dataclass(frozen=True)
class Trajectory:
    """One sampled run: the seed and the (instrument name, outcome) per step."""

    seed: int
    steps: tuple


@dataclass(frozen=True)
class FreqReport:
    """Empirical conditional frequency next to its exact value.

    ``hits`` is the number of trials in which the condition occurred: the
    sample size of ``empirical``, to which ``std_err`` belongs.
    """

    trials: int
    hits: int
    empirical: float
    exact: float
    abs_err: float
    std_err: float


def _start(instruments, prior, tol: float) -> np.ndarray:
    """The one entry check of a run: the start state's matrix, for steps
    ``instruments`` that must be a nonempty sequence of :class:`Instrument`
    steps of one ``dim``, else :class:`ValidationError` or
    :class:`DimensionMismatch`.  ``prior`` ``None`` is the maximally mixed
    state, and a raw matrix must pass :class:`DensityMatrix` validation at ``tol``."""
    if not (isinstance(instruments, Sequence) and all(isinstance(i, Instrument) for i in instruments)):
        raise ValidationError(f"instrument steps must be a sequence of instruments, got {type(instruments).__name__}")
    if not instruments:
        raise ValidationError("at least one instrument step is required")
    dim = _common_dim(instruments, "instrument steps", Instrument)
    if prior is None:
        return np.eye(dim, dtype=complex) / dim
    m = (prior if isinstance(prior, DensityMatrix) else DensityMatrix(prior, tol)).matrix
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"prior state has shape {m.shape}, expected ({dim}, {dim})")
    return m


def _outcome(instruments, step, label) -> int:
    """The index of outcome ``label`` at ``step``: :class:`ValidationError`
    unless ``step`` is an integer step index of ``instruments`` and
    :meth:`Instrument.op` finds ``label`` there."""
    if not (_is_int(step) and 0 <= step < len(instruments)):
        raise ValidationError(f"step index {step!r} out of range")
    instruments[step].op(label)
    return instruments[step].outcomes.index(label)


def _stack(inst: Instrument) -> np.ndarray:
    """An instrument's component matrices, transposed and side by side in
    outcome order: one contiguous ``(d*d, K*d*d)`` matrix whose columns
    ``k*d*d`` to ``(k+1)*d*d - 1`` give a flat state's image under component ``k``.

    Built on the instrument's first sampled step and kept on it, read-only:
    an instrument and its components never change.  It holds ``K * d**4``
    complex entries, ``K * d**4 * 16`` bytes, as many as the components."""
    if inst._stack is None:
        mats = np.concatenate([inst.ops[label].mat.T for label in inst.outcomes], axis=1)
        mats.setflags(write=False)
        object.__setattr__(inst, "_stack", mats)
    return inst._stack


def _branch_probs(mats: np.ndarray, rows: np.ndarray) -> tuple:
    """Branch weights ``(n, K)`` and image rows ``(n, K, d*d)`` of ``n``
    state rows ``(n, d*d)`` under a ``(d*d, K*d*d)`` stack ``mats``.

    The weights are a fresh node-major array; the images are a view of the
    one product ``rows @ mats``, which for ``n = 1`` is row 0 of a
    two-row product (see the module docstring).
    """
    n, dd = rows.shape
    d = math.isqrt(dd)
    images = (np.concatenate((rows, rows)) @ mats)[:1] if n == 1 else rows @ mats
    k_count = mats.shape[1] // dd
    # re[j, k] is the real part of node j's image under outcome k, read as a
    # row: its diagonal entry (i, i) is re[j, k, i * (d + 1)].  The first two
    # are added in one call, then the rest in index order.
    re = images.real.reshape(n, k_count, dd)
    weights = re[..., 0] + re[..., d + 1] if d > 1 else re[..., 0].copy()
    for i in range(2, d):
        weights += re[..., i * (d + 1)]
    np.maximum(0.0, weights, out=weights)
    return weights, images.reshape(n, k_count, dd)


def _generator(seed) -> np.random.Generator:
    """The Philox generator keyed by ``seed``, an integer in ``[0, 2**128)``."""
    if not (_is_int(seed) and 0 <= seed < 2**128):
        raise ValidationError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


def sample_sequence(instruments, prior=None, rng_seed: int = 0) -> Trajectory:
    """Sample one trajectory: the first row of the sampler's one-trial chunk."""
    gen = _generator(rng_seed)
    rho = _start(instruments, prior, DEFAULT_TOL)
    row = next(_sample_chunks([_stack(i) for i in instruments], rho, 1, gen, DEFAULT_TOL))[0]
    return Trajectory(rng_seed, tuple((i.name, i.outcomes[k]) for i, k in zip(instruments, row)))


def exact_sequence_probability(instruments, outcomes_at, prior=None, tol: float = DEFAULT_TOL) -> float:
    """Exact probability of observing the given outcomes at the given steps.

    ``outcomes_at`` maps step indices to outcome labels; unspecified steps
    are marginalised by using the instrument's summed (trivial) operation.
    A raw ``prior`` is checked at ``tol``.  The trace is returned as a
    probability at ``tol``: rounding within ``tol`` of 0 or 1 is clamped,
    anything farther out raises :class:`InvariantViolation`.
    """
    rho = _start(instruments, prior, tol)
    if not isinstance(outcomes_at, Mapping):
        raise ValidationError(f"outcomes_at must map step indices to outcome labels, got {type(outcomes_at).__name__}")
    fixed = {s: _outcome(instruments, s, out) for s, out in outcomes_at.items()}
    return _forward(instruments, _totals(instruments), fixed, rho, tol)


def _totals(instruments) -> list:
    """Each step's summed (trivial) operation, taken from :func:`summed` once per call."""
    return [summed(inst, inst.outcomes) for inst in instruments]


def _forward(instruments, totals: list, fixed: dict, rho: np.ndarray, tol: float) -> float:
    """Exact probability that each step ``s`` in ``fixed`` gives the outcome
    of index ``fixed[s]``, from the start state ``rho``; the other steps are
    marginalised by their summed operation in ``totals``.  Takes checked
    values (see :func:`_start`, :func:`_outcome` and :func:`_totals`) and
    applies each step as the bare product :func:`~retroops.superop.apply`
    computes, without its checks, to the flat state vector."""
    v = rho.ravel()
    for s, inst in enumerate(instruments):
        op = inst.ops[inst.outcomes[fixed[s]]] if s in fixed else totals[s]
        v = op.mat @ v
    return _as_probability(complex(v[:: len(rho) + 1].sum()), tol)


def _sample_chunks(stacks: list, rho: np.ndarray, trials: int, gen: np.random.Generator, tol: float) -> Iterator:
    """The sampler over the ``(d*d, K*d*d)`` stacks of checked steps, an
    instrument's :func:`_stack` or a one-outcome block of :func:`estimate`,
    from the checked start state ``rho``: yields the outcome matrices of the
    ``trials`` in order, in chunks of at most ``_CHUNK`` trials.  Each chunk
    is sampled by one call, so its arrays are freed before the next chunk
    is drawn."""
    for start in range(0, trials, _CHUNK):
        yield _sample_chunk(stacks, rho, min(_CHUNK, trials - start), gen, tol)


def _sample_chunk(stacks: list, rho: np.ndarray, trials: int, gen: np.random.Generator, tol: float) -> np.ndarray:
    """Vectorised sampler: outcome index per (trial, step), from the next
    ``trials * steps`` uniforms of ``gen``, over each step's ``(d*d, K*d*d)``
    component stack in ``stacks``.

    ``states`` holds one state row ``(d*d,)`` per occupied node and ``node``
    each trial's node.  After every step but the last the children
    ``node * K + outcome`` are numbered in order: when every child is
    occupied the codes are the numbers and the images the next states, else
    the occupied children are renumbered and their images gathered.  The
    selected branches are the occupied children, so the ``_ZERO_BRANCH``
    floor is checked on their weights; at the last step it is read from all
    ``n * K`` weights first, and from the selected codes' weights only if
    one of those is below it.
    The uniforms and outcomes are held step by step (one contiguous row per
    step), and the outcomes are returned as the ``(trials, steps)`` view.
    """
    states = rho.reshape(1, -1)
    u = gen.random((trials, len(stacks))).T.copy()
    node = np.zeros(trials, dtype=np.int64)
    outcomes = np.zeros((len(stacks), trials), dtype=np.int64)
    last = len(stacks) - 1
    for s, mats in enumerate(stacks):
        probs, images = _branch_probs(mats, states)
        n, k_count = probs.shape
        cum = np.empty((k_count, n))
        cum[0] = probs[:, 0]
        for k in range(1, k_count):
            np.add(cum[k - 1], probs[:, k], out=cum[k])
        dev = np.abs(cum[-1] - 1.0)
        if dev.max() > tol / 10:
            bad = np.flatnonzero(dev > tol / 10)[0]
            _require_within(float(dev[bad]), tol / 10, "branch probabilities sum to {:.12g}, not 1", cum[-1, bad])
        idx = outcomes[s]
        for k in range(k_count - 1):
            idx += u[s] >= cum[k].take(node)
        code = node * k_count
        code += idx
        chosen = probs.ravel()
        if s == last:
            # A trial selects one of the n * K weights, so none below the
            # floor means no selected one is.
            if chosen.min() < _ZERO_BRANCH and chosen.take(code).min() < _ZERO_BRANCH:
                raise ZeroProbabilityBranch("a numerically zero branch was selected")
            break
        states = images.reshape(probs.size, -1)
        occupied = np.bincount(code, minlength=probs.size).nonzero()[0]
        if occupied.size == probs.size:
            # Every child is occupied: the codes already number them in order.
            node = code
        else:
            rank = np.empty(probs.size, dtype=np.int64)
            rank[occupied] = np.arange(occupied.size)
            node = rank.take(code)
            chosen = chosen.take(occupied)
            states = states.take(occupied, axis=0)
        if chosen.min() < _ZERO_BRANCH:
            raise ZeroProbabilityBranch("a numerically zero branch was selected")
        # numpy divides a complex entry by a real one as a multiply by the
        # reciprocal, so scaling the float view gives the quotient's values.
        real = states.view(np.float64)
        real *= (1.0 / chosen)[:, None]
    return outcomes.T


def estimate(
    instruments,
    condition,
    target,
    trials: int,
    seed: int = 0,
    prior=None,
    tol: float = DEFAULT_TOL,
) -> FreqReport:
    """Empirical frequency of ``target`` among trajectories matching ``condition``.

    ``condition`` and ``target`` are ``(step index, outcome label)`` pairs
    (tuples or lists of two); anything else is a :class:`ValidationError`.
    The exact reference value is the ratio of the exact joint and condition
    probabilities, which for the maximally mixed prior coincides with the
    instrument-level conditional probabilities (predictive or retrodictive
    according to the temporal order of the two steps).  Deterministic for a
    fixed seed.  A raw ``prior`` is checked at ``tol``, branch sums at ``tol / 10``.
    More than :data:`MAX_SAMPLED_WORK` trials times ``K * d**4`` summed
    over every step is a :class:`ValidationError`, raised before any exact
    value or draw.

    Only the two read steps branch: each maximal run of unread steps, also
    one after the last read step, is sampled as one one-outcome block, the
    product of the run's summed maps (see the module docstring).  The law
    of the report is the one sampling every step gives; for a given seed
    the realisation differs whenever a step is unread.  A block's branch
    sum is its run's compound trace, so per-step losses each within
    ``tol / 10`` can fail the check once a block holds several: which runs
    are accepted depends on the two read steps.

    The inputs are checked once, up front; the exact values and the sampler
    then work on the checked steps, outcome indices and start state.  Only
    the counts of the chunks the sampler yields are kept.  A failing run
    stops in the first chunk that meets a failure, so where trials fail in
    different ways (different branch sums, or a zero branch in one and a bad
    sum in another) the error reported can depend on the chunk size.
    """
    if not (_is_int(trials) and trials >= 1):
        raise ValidationError(f"trials must be an integer >= 1, got {trials!r}")
    gen = _generator(seed)
    rho = _start(instruments, prior, tol)
    work = sum(len(inst.outcomes) for inst in instruments) * len(rho) ** 4
    if trials * work > MAX_SAMPLED_WORK:
        raise ValidationError(f"trials x sum of K*d**4 = {trials} x {work} exceeds {MAX_SAMPLED_WORK}")
    fixed = []
    for what, pair in (("condition", condition), ("target", target)):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValidationError(f"{what} must be a (step, outcome) pair, got {pair!r}")
        fixed.append((pair[0], _outcome(instruments, *pair)))
    (c_step, c_idx), (t_step, t_idx) = fixed

    totals = _totals(instruments)
    p_cond = _forward(instruments, totals, {c_step: c_idx}, rho, tol)
    if p_cond <= tol:
        raise ZeroCondition("conditioning outcome has zero exact probability", residual=p_cond, tol=tol)
    if c_step == t_step and c_idx != t_idx:
        p_joint = 0.0
    else:
        p_joint = _forward(instruments, totals, {c_step: c_idx, t_step: t_idx}, rho, tol)
    exact = _as_probability(complex(p_joint / p_cond), tol)

    # Each read step is sampled through its instrument's kept stack; each
    # run of unread steps is one one-outcome block, the stack of its summed
    # maps' product.
    stacks, col = [], {}
    for s, inst in enumerate(instruments):
        if s in (c_step, t_step):
            col[s] = len(stacks)
            stacks.append(_stack(inst))
        elif s and s - 1 not in col:
            stacks[-1] = stacks[-1] @ totals[s].mat.T
        else:
            stacks.append(totals[s].mat.T)
    hits = both = 0
    for outcomes in _sample_chunks(stacks, rho, trials, gen, tol):
        mask_c = outcomes[:, col[c_step]] == c_idx
        hits += int(np.count_nonzero(mask_c))
        both += int(np.count_nonzero(mask_c & (outcomes[:, col[t_step]] == t_idx)))
    if hits == 0:
        raise NoConditionHits("the conditioning outcome never occurred")
    empirical = both / hits
    std_err = float(np.sqrt(exact * (1.0 - exact) / hits))
    return FreqReport(trials, hits, empirical, exact, abs(empirical - exact), std_err)
