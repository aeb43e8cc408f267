"""Seeded Monte Carlo sampling of instrument sequences.

Trajectories start from the maximally mixed state unless a prior is given.
At each step an outcome ``x`` of the current instrument is drawn with
probability ``tr[op_x(rho)]`` and the state updates to ``op_x(rho)`` divided
by that probability; the branch probabilities sum to one at every step
because instrument components sum to a trace-preserving map.

Randomness comes from a Philox counter-based generator keyed by the 64-bit
seed.  In :func:`estimate` the uniform variate consumed by trial ``t`` at
step ``s`` sits at flat counter position ``t * steps + s``, so any slice of
trials can be regenerated independently of scheduling and results are
bit-identical regardless of how trials are partitioned across workers.
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


def _branch_probs(inst: Instrument, rho: np.ndarray) -> tuple:
    probs = np.empty(len(inst.outcomes))
    images = []
    for k, label in enumerate(inst.outcomes):
        img = apply(inst.op(label), rho)
        p = np.trace(img).real
        probs[k] = max(0.0, p)
        images.append(img)
    if abs(probs.sum() - 1.0) > _BRANCH_SUM_TOL:
        raise InvariantViolation(f"branch probabilities sum to {probs.sum():.12g}, not 1")
    return probs, images


def _uniforms(seed: int, trials: int, steps: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=seed))
    return gen.random((trials, steps))


def sample_sequence(instruments, prior=None, rng_seed: int = 0) -> Trajectory:
    """Sample one trajectory through a sequence of instruments."""
    dim = _check_uniform_dim(instruments)
    rho = _as_state(prior, dim)
    u = _uniforms(rng_seed, 1, len(instruments))[0]
    steps = []
    for inst, us in zip(instruments, u):
        probs, images = _branch_probs(inst, rho)
        cum = np.cumsum(probs)
        k = min(int(np.searchsorted(cum, us, side="right")), len(probs) - 1)
        if probs[k] < _ZERO_BRANCH:
            raise ZeroProbabilityBranch(
                f"outcome '{inst.outcomes[k]}' selected with probability {probs[k]:.3e}"
            )
        rho = images[k] / probs[k]
        steps.append((inst.name, inst.outcomes[k]))
    return Trajectory(rng_seed, tuple(steps))


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

    Distinct outcome histories form a small tree of states, so branch
    probabilities are computed once per tree node and trials are advanced in
    bulk with searchsorted over each node's cumulative branch weights.
    """
    dim = _check_uniform_dim(instruments)
    u = _uniforms(seed, trials, len(instruments))
    states = [_as_state(prior, dim)]
    node = np.zeros(trials, dtype=np.int64)
    outcomes = np.empty((trials, len(instruments)), dtype=np.int64)
    for s, inst in enumerate(instruments):
        k_count = len(inst.outcomes)
        probs = np.zeros((len(states), k_count))
        children = []
        occupied = np.bincount(node, minlength=len(states)) > 0
        for i, rho in enumerate(states):
            if rho is None or not occupied[i]:
                children.extend([None] * k_count)
                continue
            p, images = _branch_probs(inst, rho)
            probs[i] = p
            children.extend(
                img / pk if pk >= _ZERO_BRANCH else None for img, pk in zip(images, p)
            )
        cum = np.cumsum(probs, axis=1)
        idx = (u[:, s][:, None] > cum[node]).sum(axis=1)
        idx = np.minimum(idx, k_count - 1)
        chosen = probs[node, idx]
        if np.any(chosen < _ZERO_BRANCH):
            raise ZeroProbabilityBranch("a numerically zero branch was selected")
        outcomes[:, s] = idx
        node = node * k_count + idx
        states = children
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
