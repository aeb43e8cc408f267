"""Seeded Monte Carlo sampling of instrument sequences.

Trajectories start from the maximally mixed state unless a prior is given.
At each step an outcome ``x`` of the current instrument is drawn with
probability ``tr[op_x(rho)]`` and the state updates to ``op_x(rho)`` divided
by that probability; the branch probabilities sum to one at every step
because instrument components sum to a trace-preserving map.

Trials with one outcome history share a node of the history tree.  Only
occupied nodes are kept, renumbered in history order after each step, so a
step handles at most ``min(trials, K**s)`` nodes in one batch and node ids
stay below ``trials * K``.

Randomness comes from a Philox counter-based generator keyed by the 64-bit
seed.  The uniform variate consumed by trial ``t`` at step ``s`` sits at
flat counter position ``t * steps + s``, so any slice of trials can be
regenerated independently of scheduling and results are bit-identical
regardless of how trials are partitioned across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConditionHits,
    ValidationError,
    ZeroCondition,
    ZeroProbabilityBranch,
)
from .matcore import DEFAULT_TOL
from .superop import apply
from .instrument import Instrument, summed
from .states import DensityMatrix
from . import bayes

__all__ = ["Trajectory", "FreqReport", "sample_sequence", "estimate", "exact_sequence_probability"]

_BRANCH_SUM_TOL = 1e-10
_ZERO_BRANCH = 1e-15


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


def _as_state(prior, dim: int) -> np.ndarray:
    """The prior's matrix; ``None`` is the maximally mixed state, and a raw
    matrix must pass :class:`DensityMatrix` validation."""
    if prior is None:
        return np.eye(dim, dtype=complex) / dim
    raw = not isinstance(prior, DensityMatrix)
    m = np.asarray(prior, dtype=complex) if raw else prior.matrix
    if m.shape != (dim, dim):
        raise DimensionMismatch(f"prior state has shape {m.shape}, expected ({dim}, {dim})")
    return DensityMatrix(m).matrix if raw else m


def _check_uniform_dim(instruments) -> int:
    if not instruments:
        raise ValidationError("at least one instrument step is required")
    dims = {i.dim for i in instruments}
    if len(dims) != 1:
        raise DimensionMismatch(f"instrument steps have mixed dims {sorted(dims)}")
    return dims.pop()


def _branch_probs(inst: Instrument, states: np.ndarray) -> tuple:
    """Branch probabilities ``(n, K)`` and images ``(n, K, d, d)`` of a stack of states."""
    n, d = len(states), inst.dim
    mats = np.stack([inst.op(label).mat for label in inst.outcomes])
    images = (mats @ states.reshape(n, 1, d * d, 1)).reshape(n, len(mats), d, d)
    probs = np.maximum(0.0, np.trace(images, axis1=2, axis2=3).real)
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - 1.0) > _BRANCH_SUM_TOL)
    if bad.size:
        raise InvariantViolation(f"branch probabilities sum to {sums[bad[0]]:.12g}, not 1")
    return probs, images


def sample_sequence(instruments, prior=None, rng_seed: int = 0) -> Trajectory:
    """Sample one trajectory: the one-trial case of the outcome-matrix sampler."""
    row = _sample_outcome_matrix(instruments, prior, 1, rng_seed)[0]
    return Trajectory(rng_seed, tuple((i.name, i.outcomes[k]) for i, k in zip(instruments, row)))


def exact_sequence_probability(instruments, outcomes_at, prior=None) -> float:
    """Exact probability of observing the given outcomes at the given steps.

    ``outcomes_at`` maps step indices to outcome labels; unspecified steps
    are marginalised by using the instrument's summed (trivial) operation.
    """
    dim = _check_uniform_dim(instruments)
    rho = _as_state(prior, dim)
    for s, inst in enumerate(instruments):
        if s in outcomes_at:
            op = inst.op(outcomes_at[s])
        else:
            op = summed(inst, inst.outcomes)
        rho = apply(op, rho)
    return float(np.trace(rho).real)


def _sample_outcome_matrix(instruments, prior, trials: int, seed: int) -> np.ndarray:
    """Vectorised sampler: outcome index per (trial, step).

    ``states`` holds one state per occupied node and ``node`` each trial's
    node; the occupied children ``node * K + outcome`` are renumbered in order.
    """
    dim = _check_uniform_dim(instruments)
    u = np.random.Generator(np.random.Philox(key=seed)).random((trials, len(instruments)))
    states = _as_state(prior, dim)[None]
    node = np.zeros(trials, dtype=np.int64)
    outcomes = np.empty((trials, len(instruments)), dtype=np.int64)
    for s, inst in enumerate(instruments):
        k_count = len(inst.outcomes)
        probs, images = _branch_probs(inst, states)
        cum = np.cumsum(probs, axis=1)
        idx = np.minimum((u[:, s][:, None] > cum[node]).sum(axis=1), k_count - 1)
        if np.any(probs[node, idx] < _ZERO_BRANCH):
            raise ZeroProbabilityBranch("a numerically zero branch was selected")
        outcomes[:, s] = idx
        code = node * k_count + idx
        occupied = np.bincount(code, minlength=probs.size) > 0
        node = (np.cumsum(occupied) - 1)[code]
        parent, child = np.divmod(np.flatnonzero(occupied), k_count)
        states = images[parent, child] / probs[parent, child][:, None, None]
    return outcomes


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

    ``condition`` and ``target`` are ``(step index, outcome label)`` pairs.
    The exact reference value is the ratio of the exact joint and condition
    probabilities, which for the maximally mixed prior coincides with the
    instrument-level conditional probabilities (predictive or retrodictive
    according to the temporal order of the two steps).  Deterministic for a
    fixed seed.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    c_step, c_out = condition
    t_step, t_out = target
    for step, out in ((c_step, c_out), (t_step, t_out)):
        if not 0 <= step < len(instruments):
            raise ValidationError(f"step index {step} out of range")
        if out not in instruments[step].ops:
            raise ValidationError(f"instrument '{instruments[step].name}' has no outcome '{out}'")

    p_cond = exact_sequence_probability(instruments, {c_step: c_out}, prior)
    if p_cond <= tol:
        raise ZeroCondition("conditioning outcome has zero exact probability")
    if c_step == t_step and c_out != t_out:
        p_joint = 0.0
    else:
        p_joint = exact_sequence_probability(instruments, {c_step: c_out, t_step: t_out}, prior)
    exact = bayes._as_probability(complex(p_joint / p_cond), tol)

    outcomes = _sample_outcome_matrix(instruments, prior, trials, seed)
    c_idx = instruments[c_step].outcomes.index(c_out)
    t_idx = instruments[t_step].outcomes.index(t_out)
    mask_c = outcomes[:, c_step] == c_idx
    hits = int(mask_c.sum())
    if hits == 0:
        raise NoConditionHits("the conditioning outcome never occurred")
    both = int((mask_c & (outcomes[:, t_step] == t_idx)).sum())
    empirical = both / hits
    std_err = float(np.sqrt(exact * (1.0 - exact) / hits))
    return FreqReport(trials, hits, empirical, exact, abs(empirical - exact), std_err)
