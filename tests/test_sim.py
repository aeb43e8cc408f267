import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import retroops as r
from retroops import sim
from retroops.errors import (
    InvariantViolation,
    NoConditionHits,
    ValidationError,
    ZeroCondition,
    ZeroProbabilityBranch,
)

from helpers import (
    PZM,
    PZP,
    luders_resolution,
    philox,
    philox_row,
    rand_psd,
    rand_unitary,
    rng,
    scalar_outcomes,
    unsharp_instrument,
    x_instrument,
    z_instrument,
)


def _outcome_matrix(insts, prior, trials, gen, tol=r.DEFAULT_TOL):
    """The outcome index per (trial, step): the sampler's chunks from the
    start state that the simulator's entry check gives, stacked in order."""
    return np.concatenate(list(sim._sample_chunks(insts, sim._start(insts, prior, tol), trials, gen, tol)))


def test_sample_sequence_deterministic():
    z, x = z_instrument(), x_instrument()
    t1 = r.sample_sequence([z, x, z], rng_seed=42)
    t2 = r.sample_sequence([z, x, z], rng_seed=42)
    assert t1 == t2
    assert len(t1.steps) == 3
    assert t1.steps[0][0] == "Z"


def test_sample_sequence_z_then_z_repeats():
    # After a Z outcome, measuring Z again must repeat it.
    z = z_instrument()
    for seed in range(20):
        t = r.sample_sequence([z, z], rng_seed=seed)
        assert t.steps[0][1] == t.steps[1][1]


def test_exact_sequence_probability():
    z, x = z_instrument(), x_instrument()
    assert abs(r.exact_sequence_probability([z], {0: "+"}) - 0.5) < 1e-12
    assert abs(r.exact_sequence_probability([z, x], {0: "+", 1: "+"}) - 0.25) < 1e-12
    assert abs(r.exact_sequence_probability([z, z], {0: "+", 1: "-"})) < 1e-12
    # Marginalising the first step leaves the second unconditional.
    assert abs(r.exact_sequence_probability([z, x], {1: "+"}) - 0.5) < 1e-12


def test_exact_sequence_with_prior():
    z = z_instrument()
    assert abs(r.exact_sequence_probability([z], {0: "+"}, prior=PZP) - 1.0) < 1e-12


def test_estimate_exact_values():
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=2000, seed=5)
    assert rep.exact == 0.5
    rep = r.estimate([z, z], condition=(0, "+"), target=(1, "+"), trials=2000, seed=5)
    assert rep.exact == 1.0 and rep.empirical == 1.0
    # Same step, different outcomes: mutually exclusive.
    rep = r.estimate([z, x], condition=(0, "+"), target=(0, "-"), trials=500, seed=5)
    assert rep.exact == 0.0 and rep.empirical == 0.0


def test_estimate_deterministic_and_seed_sensitive():
    z, x = z_instrument(), x_instrument()
    a = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=5000, seed=9)
    b = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=5000, seed=9)
    c = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=5000, seed=10)
    assert a == b
    assert a.empirical != c.empirical


def test_estimate_converges():
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=200_000, seed=3)
    assert rep.abs_err < 4.0 * rep.std_err + 1e-12


def test_estimate_matches_conditional_probability():
    # The exact reference value agrees with the instrument-level
    # retrodictive conditional for the maximally mixed prior.
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=100, seed=0)
    assert abs(rep.exact - r.p_cond_retro(z, x, ["+"], ["+"])) < 1e-12
    rep = r.estimate([x, z], condition=(0, "+"), target=(1, "+"), trials=100, seed=0)
    assert abs(rep.exact - r.p_cond_pred(z, x, ["+"], ["+"])) < 1e-12


def test_estimate_agrees_with_scalar_sampler():
    # Every trial row of the vectorised outcome matrix is the trajectory the
    # one-state-at-a-time reference draws from that row's Philox uniforms,
    # and sample_sequence is its first row.
    # The d = 4 unsharp instrument has K = 4 outcomes, and the gapped one a
    # zero-weight component, whose cumulative weight ties its predecessor's.
    gen = rng(90)
    for n, k in ((2, 3), (3, 3), (4, 4)):
        projecting = luders_resolution(gen, n)
        sharp = r.make_instrument({str(j): op for j, op in enumerate(projecting)}, name=f"L{n}")
        gapped = r.make_instrument(
            {"0": projecting[0], "gap": r.zero(n), **{str(j): op for j, op in enumerate(projecting) if j}},
            name=f"G{n}",
        )
        unsharp = unsharp_instrument(gen, n, k)
        u = rand_unitary(gen, n)
        mixed = (u * gen.dirichlet(np.ones(n))) @ u.conj().T
        for insts in (
            [sharp, unsharp, sharp, unsharp, unsharp],
            [unsharp, sharp, sharp, unsharp],
            [gapped, unsharp, gapped],
        ):
            for prior in (None, mixed, np.outer(u[:, 0], u[:, 0].conj())):
                seed = int(gen.integers(2**32))
                outcomes = _outcome_matrix(insts, prior, 200, philox(seed))
                rho = np.eye(n, dtype=complex) / n if prior is None else prior
                for t in range(200):
                    want = scalar_outcomes(insts, rho, philox_row(seed, t, len(insts)))
                    assert outcomes[t].tolist() == want
                traj = r.sample_sequence(insts, prior, rng_seed=seed)
                assert traj.steps == tuple(
                    (i.name, i.outcomes[k]) for i, k in zip(insts, outcomes[0])
                )


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("trials, full", [(5, [True, False, False, False]), (1000, [True, True, True, False])])
def test_both_child_numberings_agree_with_scalar_sampler(d, trials, full):
    # After a step whose children are all occupied, the sampler keeps the
    # codes as node numbers and the images as the next states; after any
    # other step it renumbers the occupied children and gathers their
    # images.  A repeated sharp step always leaves children empty.  full[s]
    # says whether step s had every child occupied, read off the outcome
    # matrix, and every row is the one-state-at-a-time reference's.
    gen = rng(96)
    sharp = r.make_instrument({str(j): op for j, op in enumerate(luders_resolution(gen, d))}, name=f"L{d}")
    unsharp = unsharp_instrument(gen, d, 3)
    insts = [unsharp, unsharp, sharp, sharp, unsharp]
    seed = int(gen.integers(2**32))
    outcomes = _outcome_matrix(insts, None, trials, philox(seed))
    rows = outcomes.tolist()
    children = [len({tuple(row[:s]) for row in rows}) for s in range(len(insts))]
    assert [children[s + 1] == children[s] * len(insts[s].outcomes) for s in range(len(insts) - 1)] == full
    rho = np.eye(d, dtype=complex) / d
    for t in range(trials):
        assert rows[t] == scalar_outcomes(insts, rho, philox_row(seed, t, len(insts)))


class _Uniforms:
    """A generator stub whose ``random(shape)`` returns the next ``shape`` of
    the given uniforms, read in order, as consecutive Philox draws are."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float).ravel()
        self.used = 0

    def random(self, shape):
        start = self.used
        self.used += int(np.prod(shape))
        return self.values[start : self.used].reshape(shape)


def test_selection_at_exact_ties():
    # Outcome k is taken when cum[k-1] <= u < cum[k]: a uniform equal to a
    # cumulative weight goes to the later outcome, as in the scalar reference.
    lead_zero = r.make_instrument({"a": r.zero(2), "b": r.unit(2)}, name="lead-zero")
    z = z_instrument()
    half = np.nextafter(0.5, 0.0)
    rho = np.eye(2, dtype=complex) / 2
    for insts, u, want in (
        ([lead_zero], [[0.0]], [[1]]),
        ([z], [[0.0], [half], [0.5], [np.nextafter(1.0, 0.0)]], [[0], [0], [1], [1]]),
    ):
        outcomes = _outcome_matrix(insts, None, len(u), _Uniforms(u))
        assert outcomes.tolist() == want
        assert [scalar_outcomes(insts, rho, row) for row in u] == want


def test_zero_branch_floor_at_a_middle_and_the_last_step(monkeypatch):
    # The prior diag(1 - 4e-16, 4e-16) is a density matrix, and a Z step gives
    # its "-" branch the weight 4e-16, under the 1e-15 floor.  The 9th trial's
    # uniform lands in that branch, at a middle step and at the last one,
    # which stops after selecting outcomes; the first 8 trials' do not.  The
    # error is the same for every chunk size.
    z = z_instrument()
    keep = r.make_instrument({"1": r.unit(2)}, name="keep")
    tiny = np.diag([1 - 4e-16, 4e-16]).astype(complex)
    top = np.nextafter(1.0, 0.0)
    fine = [[0.5, 0.5]] * 8
    for insts, row in (([z, keep], [top, 0.5]), ([keep, z], [0.5, top])):
        assert _outcome_matrix(insts, tiny, 8, _Uniforms(fine)).tolist() == [[0, 0]] * 8
        errors = _chunk_runs(monkeypatch, lambda: _outcome_matrix(insts, tiny, 9, _Uniforms(fine + [row])), 9)
        assert errors == [(ZeroProbabilityBranch, "a numerically zero branch was selected")] * 4


def test_sampled_work_is_limited_before_any_draw(monkeypatch):
    # Over MAX_SAMPLED_WORK, trials times K * d**4 summed over the steps,
    # the call is refused with both numbers, before an exact value is
    # computed or a uniform drawn; the largest sampled run of the tests and
    # the benchmark, 3e5 qubit trials over 24 two-outcome steps, is 277
    # times smaller.
    assert sim.MAX_SAMPLED_WORK >= 277 * 300_000 * 24 * 2 * 2**4
    z, x = z_instrument(), x_instrument()

    def untouched(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(sim, "_forward", untouched)
    monkeypatch.setattr(sim, "_sample_chunks", untouched)
    for steps, trials in (([z, x], 10**11), ([z, x, z], sim.MAX_SAMPLED_WORK // 96 + 1)):
        with pytest.raises(ValidationError) as e:
            r.estimate(steps, (1, "+"), (0, "+"), trials)
        work = 32 * len(steps)
        assert str(e.value) == f"trials x sum of K*d**4 = {trials} x {work} exceeds {sim.MAX_SAMPLED_WORK}"


def test_sampled_work_limit_refuses_large_instruments_at_few_trial_steps(monkeypatch):
    # At d = 16, K = 16 one trial-step is 16 * 16**4 = 2**20 units of work,
    # so 1e5 trials over 4 steps, 4e5 trial-steps, are refused at once.
    part = r.scale(r.unit(16), 1 / 16)
    big = r.make_instrument({str(k): part for k in range(16)}, name="big")

    def untouched(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(sim, "_forward", untouched)
    monkeypatch.setattr(sim, "_sample_chunks", untouched)
    with pytest.raises(ValidationError) as e:
        r.estimate([big] * 4, (1, "0"), (0, "0"), 10**5)
    assert str(e.value) == f"trials x sum of K*d**4 = 100000 x {4 * 2**20} exceeds {sim.MAX_SAMPLED_WORK}"


def test_deep_sequence_occupied_nodes_only():
    # 70 alternating Z/X steps have 2**70 histories, more than int64 node
    # ids can number, of which at most the 2000 trials' are occupied.
    z, x = z_instrument(), x_instrument()
    insts = [z, x] * 35
    rep = r.estimate(insts, condition=(69, "+"), target=(0, "+"), trials=2000, seed=8)
    assert rep.exact == 0.5
    assert rep.abs_err < 5.0 * rep.std_err
    a = _outcome_matrix(insts, None, 2000, philox(8))
    assert np.array_equal(a, _outcome_matrix(insts, None, 2000, philox(8)))
    for t in (0, 1, 999, 1999):
        assert a[t].tolist() == scalar_outcomes(insts, np.eye(2) / 2, philox_row(8, t, 70))


def test_estimate_validation():
    z = z_instrument()
    with pytest.raises(ValidationError):
        r.estimate([z], condition=(2, "+"), target=(0, "+"), trials=10)
    with pytest.raises(ValidationError):
        r.estimate([z], condition=(0, "?"), target=(0, "+"), trials=10)
    with pytest.raises(ValidationError):
        r.estimate([z], condition=(0, "+"), target=(0, "+"), trials=0)
    with pytest.raises(ValidationError):
        r.estimate([], condition=(0, "+"), target=(0, "+"), trials=10)
    for bad in ({"trials": 2.5}, {"trials": True}, {"trials": 10, "seed": -1},
                {"trials": 10, "seed": 2**128}, {"trials": 10, "seed": 1.0}, {"trials": 10, "seed": True}):
        with pytest.raises(ValidationError):
            r.estimate([z], condition=(0, "+"), target=(0, "+"), **bad)
    for step in (True, 1.0, -1):
        with pytest.raises(ValidationError, match="step index"):
            r.estimate([z, z], condition=(step, "+"), target=(0, "+"), trials=10)
    with pytest.raises(ValidationError):
        r.sample_sequence([z], rng_seed=-1)
    assert r.estimate([z], (0, "+"), (0, "+"), trials=10, seed=np.int64(2**63 - 1)).hits > 0
    assert r.sample_sequence([z], rng_seed=2**128 - 1).seed == 2**128 - 1
    for bad in (5, None, (0,), (0, "+", 1), "0+", {0: "+"}):
        for kw in ({"condition": bad, "target": (0, "+")}, {"condition": (0, "+"), "target": bad}):
            with pytest.raises(ValidationError, match=r"must be a \(step, outcome\) pair"):
                r.estimate([z], trials=10, **kw)
    assert r.estimate([z], [0, "+"], [0, "+"], trials=10).hits > 0


def test_exact_sequence_probability_rejects_bad_steps():
    # Every key must name a step, as in estimate; True is not the step 1.
    z = z_instrument()
    for step in (5, -1, True):
        with pytest.raises(ValidationError, match="step index"):
            r.exact_sequence_probability([z], {step: "+"})
    assert r.exact_sequence_probability([z], {0: "+"}) == pytest.approx(0.5)


def test_estimate_zero_condition():
    z = z_instrument()
    with pytest.raises(ZeroCondition):
        r.estimate([z, z], condition=(1, "-"), target=(0, "+"), trials=100, prior=PZP)


def test_no_condition_hits():
    z = z_instrument()
    # Condition Z=- under a pure |0> prior never fires, but has nonzero
    # probability under... it has zero probability, so instead use a prior
    # that nearly pins the state and too few trials to ever see the rare
    # branch.
    eps = 1e-6
    prior = np.array([[1 - eps, 0], [0, eps]], dtype=complex)
    with pytest.raises(NoConditionHits):
        r.estimate([z], condition=(0, "-"), target=(0, "-"), trials=5, seed=1, prior=prior)


def test_branch_probabilities_sum_to_one():
    from retroops.sim import _branch_probs, _stack

    z = z_instrument()
    states = np.stack([np.eye(2, dtype=complex) / 2, PZP])
    probs, images = _branch_probs(_stack(z), states)
    assert probs.shape == (2, 2) and images.shape == (2, 2, 2, 2)
    assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.allclose(probs, [[0.5, 0.5], [1.0, 0.0]])
    assert np.allclose(images[1, 0], PZP) and np.allclose(images[1, 1], 0)


def test_branch_sum_violation_reports_first_node():
    # Components summing to diag(1 - 2e-9, 1 - 4e-9) pass the instrument's
    # 1e-8 sum check but not the sampler's 1e-10 branch check; after a Z step
    # both nodes fail, and the message names the first node's sum.
    z = z_instrument()
    lossy = r.make_instrument(
        {"+": r.scale(r.projecting(PZP), 1 - 2e-9), "-": r.scale(r.projecting(PZM), 1 - 4e-9)},
        name="lossy",
    )
    with pytest.raises(InvariantViolation, match=r"^branch probabilities sum to 0\.999999998, not 1$") as info:
        r.estimate([z, lossy], condition=(1, "+"), target=(0, "+"), trials=100, seed=1)
    # The error carries that node's |sum - 1| and the bound tol / 10, also
    # through pickle.
    e = info.value
    assert e.residual == pytest.approx(2e-9, rel=1e-6) and e.tol == r.DEFAULT_TOL / 10
    back = pickle.loads(pickle.dumps(e))
    assert (str(back), back.residual, back.tol) == (str(e), e.residual, e.tol)


def test_empirical_frequency_three_steps():
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x, z], condition=(2, "+"), target=(0, "+"), trials=100_000, seed=11)
    assert abs(rep.empirical - rep.exact) < 4.0 * max(rep.std_err, 1e-3)


def test_std_err_belongs_to_condition_hits():
    # The frequency is both/hits, so its standard error divides by hits,
    # not by trials; the report carries hits as its sample size.
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=3000, seed=4)
    outcomes = _outcome_matrix([z, x], None, 3000, philox(4))
    assert rep.hits == int((outcomes[:, 1] == 0).sum())
    assert 0 < rep.hits < rep.trials
    assert rep.std_err == float(np.sqrt(rep.exact * (1.0 - rep.exact) / rep.hits))


def test_std_err_calibrated_over_seeds():
    # About 95 % of runs land within 2 sigma.  P(condition) = 1/2 here, so
    # an error bar over trials instead of hits covers only about 84 %.
    z, x = z_instrument(), x_instrument()
    inside = 0
    seeds = 400
    for seed in range(seeds):
        rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=400, seed=seed)
        inside += rep.abs_err <= 2.0 * rep.std_err
    assert 0.92 <= inside / seeds <= 0.98


def test_prior_must_be_a_density_matrix():
    z = z_instrument()
    bad = np.diag([2.0, -1.0]).astype(complex)
    with pytest.raises(InvariantViolation):
        r.exact_sequence_probability([z], {0: "+"}, prior=bad)
    with pytest.raises(InvariantViolation):
        r.estimate([z], condition=(0, "+"), target=(0, "+"), trials=10, prior=bad)
    with pytest.raises(InvariantViolation):
        r.sample_sequence([z], prior=bad)
    rho = r.DensityMatrix(PZP)
    assert r.exact_sequence_probability([z], {0: "+"}, prior=rho) == 1.0


def test_estimate_checks_its_prior_at_its_tol():
    # A prior with eigenvalue -1e-7 is a state at tol=1e-6, not at the default.
    x = x_instrument()
    prior = np.diag([1.0 + 1e-7, -1e-7]).astype(complex)
    rep = r.estimate([x], condition=(0, "+"), target=(0, "+"), trials=100, prior=prior, tol=1e-6)
    assert rep.exact == 1.0 and rep.empirical == 1.0
    with pytest.raises(InvariantViolation):
        r.estimate([x], condition=(0, "+"), target=(0, "+"), trials=100, prior=prior)


def test_exact_sequence_probability_checks_its_prior_at_its_tol():
    # Trace 1 + 1e-8 is a state's trace within tol / 10 at tol=1e-6, not at
    # the default; the exact value and the sampler agree with estimate.
    z = z_instrument()
    prior = np.diag([0.5 + 5e-9, 0.5 + 5e-9]).astype(complex)
    assert r.exact_sequence_probability([z], {0: "+"}, prior=prior, tol=1e-6) == pytest.approx(0.5)
    assert r.estimate([z], (0, "+"), (0, "+"), trials=100, prior=prior, tol=1e-6).exact == 1.0
    with pytest.raises(InvariantViolation):
        r.exact_sequence_probability([z], {0: "+"}, prior=prior)
    with pytest.raises(InvariantViolation):
        _outcome_matrix([z], prior, 10, philox(1))
    assert _outcome_matrix([z], prior, 10, philox(1), tol=1e-6).shape == (10, 1)


def _chunk_runs(monkeypatch, run, trials):
    """``run()`` once per chunk size 1, 7, the default and ``trials``: its
    result, or the type and message of the error it raised."""
    out = []
    for chunk in (1, 7, sim._CHUNK, trials):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        try:
            out.append(run())
        except Exception as e:  # noqa: BLE001 - the error is the result compared
            out.append((type(e), str(e)))
    return out


def test_chunk_size_does_not_change_reports(monkeypatch):
    gen = rng(91)
    z, x = z_instrument(), x_instrument()
    for n in (2, 3):
        sharp = r.make_instrument(
            {str(j): op for j, op in enumerate(luders_resolution(gen, n))}, name=f"L{n}"
        )
        unsharp = unsharp_instrument(gen, n, 3)
        u = rand_unitary(gen, n)
        mixed = (u * gen.dirichlet(np.ones(n))) @ u.conj().T
        insts = [sharp, unsharp, unsharp, sharp, unsharp]
        for trials in (1, 2, 50, 333):
            for prior in (None, mixed):
                seed = int(gen.integers(2**32))
                reports = _chunk_runs(
                    monkeypatch,
                    lambda: r.estimate(insts, (4, "e0"), (0, "1"), trials, seed=seed, prior=prior),
                    trials,
                )
                # One or two trials may miss the condition; more do not.
                missed = (NoConditionHits, "the conditioning outcome never occurred")
                assert isinstance(reports[-1], r.FreqReport) or (trials <= 2 and reports[-1] == missed)
                assert all(rep == reports[-1] for rep in reports), reports
    reports = _chunk_runs(monkeypatch, lambda: r.estimate([z, x] * 6, (11, "+"), (0, "+"), 1000, seed=2), 1000)
    assert isinstance(reports[0], r.FreqReport)
    assert all(rep == reports[0] for rep in reports)


def test_chunk_size_does_not_change_errors(monkeypatch):
    z = z_instrument()
    # Every trial starts in the one prior state, so the lossy first step
    # fails in every chunk with the same branch sum.
    lossy = r.make_instrument(
        {"+": r.scale(r.projecting(PZP), 1 - 2e-9), "-": r.scale(r.projecting(PZM), 1 - 4e-9)},
        name="lossy",
    )
    rare = np.array([[1 - 1e-6, 0], [0, 1e-6]], dtype=complex)
    cases = [
        (lambda: r.estimate([lossy, z], (1, "+"), (0, "+"), 20, seed=1), InvariantViolation),
        (lambda: r.estimate([z], (0, "-"), (0, "-"), 20, seed=1, prior=rare), NoConditionHits),
        (lambda: r.estimate([z, z], (1, "-"), (0, "+"), 20, prior=PZP), ZeroCondition),
    ]
    for run, error in cases:
        errors = _chunk_runs(monkeypatch, run, 20)
        assert errors[0][0] is error
        assert all(e == errors[0] for e in errors), errors


def test_estimate_memory_is_bounded_in_trials():
    # 3e6 trials over 24 alternating Z/X steps, which estimate samples as 3:
    # one (trials, steps) matrix of uniforms and one of outcomes, plus a
    # history node per trial, peak at about 200 MB of RSS; sampled in
    # chunks, the process stays near 40 MB.
    ceiling_mb = 100
    here = Path(__file__).parent
    code = textwrap.dedent(
        """
        import resource, sys
        import retroops as r
        from helpers import x_instrument, z_instrument
        insts = [z_instrument(), x_instrument()] * 12
        rep = r.estimate(insts, condition=(23, "+"), target=(0, "+"), trials=3_000_000, seed=5)
        assert rep.trials == 3_000_000 and rep.abs_err < 5 * rep.std_err, rep
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(peak / (2**20 if sys.platform == "darwin" else 2**10))
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < ceiling_mb


def test_exact_sequence_probability_stays_in_unit_interval():
    # With no outcome fixed, six trace-preserving steps give 1 up to
    # rounding, which can land above 1; a probability is clamped into [0, 1].
    gen = rng(93)
    for trial in range(80):
        d = 2 + trial % 4
        insts = [unsharp_instrument(gen, d, int(gen.integers(2, 5))) for _ in range(6)]
        step = int(gen.integers(6))
        for fixed in ({}, {step: insts[step].outcomes[0]}):
            p = r.exact_sequence_probability(insts, fixed)
            assert 0.0 <= p <= 1.0, (d, fixed, p)


def test_exact_sequence_probability_is_the_public_apply_loop_bit_for_bit():
    # The forward loop skips apply's checks, not its product: each step's
    # state is the bits r.apply gives, and so is the final probability.
    gen = rng(94)
    for trial in range(30):
        d = 2 + trial % 3
        insts = [unsharp_instrument(gen, d, int(gen.integers(2, 4))) for _ in range(4)]
        m = rand_psd(gen, d)
        prior = r.DensityMatrix(m / np.trace(m).real)
        fixed = {1: insts[1].outcomes[0], 3: insts[3].outcomes[-1]}
        rho = prior.matrix
        for s, inst in enumerate(insts):
            rho = r.apply(inst.op(fixed[s]) if s in fixed else r.summed(inst, inst.outcomes), rho)
        expected = min(max(float(np.trace(rho).real), 0.0), 1.0)
        assert r.exact_sequence_probability(insts, fixed, prior=prior) == expected


def test_branch_probs_do_not_depend_on_batch_size():
    # numpy hands a one-row product to gemv and larger ones to gemm; a node's
    # weights and images are the same bits alone, beside one node, or in a
    # batch of 7 or 1000.
    from retroops.sim import _branch_probs, _stack

    gen = rng(94)
    for d in (2, 3, 4, 8):
        mats = _stack(unsharp_instrument(gen, d, 3))
        states = []
        for _ in range(1000):
            u = rand_unitary(gen, d)
            states.append((u * gen.dirichlet(np.ones(d))) @ u.conj().T)
        states = np.array(states)
        probs, images = _branch_probs(mats, states)
        for n in (1, 2, 7):
            for start in range(0, 14, n):
                p, im = _branch_probs(mats, states[start : start + n])
                assert np.array_equal(p, probs[start : start + n]), (d, n, start)
                assert np.array_equal(im, images[start : start + n]), (d, n, start)


def test_scalar_sampler_agreement_at_larger_dims():
    # K = d outcomes at d = 5..8, and K = 8 outcomes of a qubit instrument.
    gen = rng(95)
    for n, k in ((5, 5), (6, 6), (7, 7), (8, 8), (2, 8)):
        sharp = r.make_instrument({str(j): op for j, op in enumerate(luders_resolution(gen, n))}, name=f"L{n}")
        unsharp = unsharp_instrument(gen, n, k)
        insts = [unsharp, sharp, unsharp]
        seed = int(gen.integers(2**32))
        outcomes = _outcome_matrix(insts, None, 200, philox(seed))
        rho = np.eye(n, dtype=complex) / n
        for t in range(200):
            assert outcomes[t].tolist() == scalar_outcomes(insts, rho, philox_row(seed, t, len(insts)))


def test_estimate_reading_every_step_is_the_full_sampler_bit_for_bit():
    # With every step read there is no block, so the report is the one the
    # sampler over the full step list gives, to the bit: its hits and
    # frequency are counted from that sampler's outcome matrix.  One-step
    # runs read their step as condition and target, with the same or
    # another outcome; two-step runs read both steps, in both orders.
    gen = rng(97)
    z, x = z_instrument(), x_instrument()
    unsharp = unsharp_instrument(gen, 3, 3)
    sharp = r.make_instrument({str(j): op for j, op in enumerate(luders_resolution(gen, 3))}, name="L3")
    m = rand_psd(gen, 3)
    mixed = m / np.trace(m).real
    cases = [
        ([z], (0, "+"), (0, "+"), None),
        ([unsharp], (0, "e1"), (0, "e1"), mixed),
        ([unsharp], (0, "e1"), (0, "e2"), None),
        ([z, x], (1, "+"), (0, "+"), None),
        ([x, z], (0, "-"), (1, "+"), PZP),
        ([unsharp, sharp], (1, "2"), (0, "e0"), mixed),
        ([sharp, unsharp], (0, "1"), (1, "e2"), None),
    ]
    for insts, cond, target, prior in cases:
        for trials, seed in ((300, 4), (40_000, 5)):
            rep = r.estimate(insts, cond, target, trials, seed=seed, prior=prior)
            outcomes = _outcome_matrix(insts, prior, trials, philox(seed))
            (c_step, c_out), (t_step, t_out) = cond, target
            mask = outcomes[:, c_step] == insts[c_step].outcomes.index(c_out)
            hits = int(mask.sum())
            both = int((mask & (outcomes[:, t_step] == insts[t_step].outcomes.index(t_out))).sum())
            empirical = both / hits
            std_err = float(np.sqrt(rep.exact * (1.0 - rep.exact) / hits))
            assert rep == r.FreqReport(trials, hits, empirical, rep.exact, abs(empirical - rep.exact), std_err)


def test_unread_steps_keep_the_law_of_the_read_outcomes():
    # Each run of unread steps is sampled as one one-outcome block, which
    # keeps the joint law of the read outcomes.  Bounds, stated before the
    # run: over 200 seeds of 400 trials each, over 6-8 steps at d = 2..4 and
    # K = 2..3 with unread runs at the start, in the middle and at the end,
    # the mean of z = (empirical - exact) / std_err lies in [-0.25, 0.25]
    # (about 3.5 standard errors of a mean of 200 unit-variance values) and
    # the share of runs within 2 sigma lies in [0.92, 0.98].
    gen = rng(98)
    pools = {(d, k): [unsharp_instrument(gen, d, k) for _ in range(4)] for d in (2, 3, 4) for k in (2, 3)}
    zs = []
    for seed in range(200):
        d, k, n = 2 + seed % 3, 2 + seed // 3 % 2, 6 + seed % 3
        pool = pools[d, k]
        insts = [pool[i] for i in gen.integers(len(pool), size=n)]
        early = int(gen.integers(1, n - 3))
        late = int(gen.integers(early + 2, n - 1))
        (c_step, t_step) = (late, early) if seed % 2 else (early, late)
        cond = (c_step, insts[c_step].outcomes[int(gen.integers(k))])
        target = (t_step, insts[t_step].outcomes[int(gen.integers(k))])
        rep = r.estimate(insts, cond, target, 400, seed=seed)
        zs.append((rep.empirical - rep.exact) / rep.std_err)
    zs = np.array(zs)
    assert -0.25 <= zs.mean() <= 0.25, zs.mean()
    assert 0.92 <= np.mean(np.abs(zs) <= 2.0) <= 0.98, np.mean(np.abs(zs) <= 2.0)


def test_each_run_of_unread_steps_is_one_sampler_step(monkeypatch):
    # Sixteen qubit steps that read steps 0 and 15 make 3 sampler steps: the
    # two read instruments' stacks and, between them, one block whose stack
    # is the transposed product of the summed maps of steps 1..14, in step
    # order (the unsharp steps' summed maps do not commute).  A run after
    # the last read step stays a block of its own.
    gen = rng(99)
    z, x = z_instrument(), x_instrument()
    steps = [z] + [unsharp_instrument(gen, 2, 2 + s % 2) for s in range(14)] + [x]
    sampled = []
    chunk = sim._sample_chunk

    def recorded(stacks, *args):
        sampled.append(stacks)
        return chunk(stacks, *args)

    monkeypatch.setattr(sim, "_sample_chunk", recorded)
    r.estimate(steps, (15, "-"), (0, "+"), 1000, seed=1)
    (stacks,) = sampled
    assert [m.shape for m in stacks] == [(4, 8), (4, 4), (4, 8)]
    assert stacks[0] is sim._stack(z) and stacks[2] is sim._stack(x)
    block = np.eye(4)
    for inst in steps[1:15]:
        block = r.summed(inst, inst.outcomes).mat @ block
    assert np.allclose(stacks[1], block.T, rtol=0, atol=1e-14)
    assert not np.allclose(stacks[1], np.linalg.multi_dot([r.summed(i, i.outcomes).mat for i in steps[1:15]]).T)
    sampled.clear()
    r.estimate(steps, (7, "e0"), (0, "+"), 1000, seed=1)
    assert [m.shape for m in sampled[0]] == [(4, 8), (4, 4), (4, 4 * len(steps[7].outcomes)), (4, 4)]


def test_a_lossy_unread_step_fails_the_branch_check():
    # Components summing to diag(1 - 2e-9, 1 - 4e-9) fail the sampler's
    # tol / 10 branch check though no outcome of theirs is read: within a
    # block, in the middle of an unread run between the read steps and at
    # the end of the unread run after them.  Node 0's state is |0><0| there,
    # so the error carries its residual 2e-9.
    z, x = z_instrument(), x_instrument()
    lossy = r.make_instrument(
        {"+": r.scale(r.projecting(PZP), 1 - 2e-9), "-": r.scale(r.projecting(PZM), 1 - 4e-9)},
        name="lossy",
    )
    for steps, condition, target in (
        ([z, z, lossy, x, z], (4, "+"), (0, "+")),
        ([x, z, z, lossy], (1, "+"), (0, "+")),
    ):
        with pytest.raises(InvariantViolation, match=r"^branch probabilities sum to 0\.999999998, not 1$") as info:
            r.estimate(steps, condition, target, trials=100, seed=1)
        assert info.value.residual == pytest.approx(2e-9, rel=1e-6) and info.value.tol == r.DEFAULT_TOL / 10
