import numpy as np
import pytest

import retroops as r
from retroops.errors import InvariantViolation, NoConditionHits, ValidationError, ZeroCondition

from helpers import (
    PZM,
    PZP,
    luders_resolution,
    philox_row,
    rand_unitary,
    rng,
    scalar_outcomes,
    unsharp_instrument,
    x_instrument,
    z_instrument,
)


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
    from retroops.sim import _sample_outcome_matrix

    gen = rng(90)
    for n in (2, 3):
        sharp = r.make_instrument(
            {str(j): op for j, op in enumerate(luders_resolution(gen, n))}, name=f"L{n}"
        )
        unsharp = unsharp_instrument(gen, n, 3)
        u = rand_unitary(gen, n)
        mixed = (u * gen.dirichlet(np.ones(n))) @ u.conj().T
        for insts in ([sharp, unsharp, sharp, unsharp, unsharp], [unsharp, sharp, sharp, unsharp]):
            for prior in (None, mixed, np.outer(u[:, 0], u[:, 0].conj())):
                seed = int(gen.integers(2**32))
                outcomes = _sample_outcome_matrix(insts, prior, 200, seed)
                rho = np.eye(n, dtype=complex) / n if prior is None else prior
                for t in range(200):
                    want = scalar_outcomes(insts, rho, philox_row(seed, t, len(insts)))
                    assert outcomes[t].tolist() == want
                traj = r.sample_sequence(insts, prior, rng_seed=seed)
                assert traj.steps == tuple(
                    (i.name, i.outcomes[k]) for i, k in zip(insts, outcomes[0])
                )


def test_deep_sequence_occupied_nodes_only():
    # 70 alternating Z/X steps have 2**70 histories, more than int64 node
    # ids can number, of which at most the 2000 trials' are occupied.
    from retroops.sim import _sample_outcome_matrix

    z, x = z_instrument(), x_instrument()
    insts = [z, x] * 35
    rep = r.estimate(insts, condition=(69, "+"), target=(0, "+"), trials=2000, seed=8)
    assert rep.exact == 0.5
    assert rep.abs_err < 5.0 * rep.std_err
    a = _sample_outcome_matrix(insts, None, 2000, 8)
    assert np.array_equal(a, _sample_outcome_matrix(insts, None, 2000, 8))
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
    from retroops.sim import _branch_probs

    z = z_instrument()
    states = np.stack([np.eye(2, dtype=complex) / 2, PZP])
    probs, images = _branch_probs(z, states)
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
    with pytest.raises(InvariantViolation, match=r"^branch probabilities sum to 0\.999999998, not 1$"):
        r.estimate([z, lossy], condition=(1, "+"), target=(0, "+"), trials=100, seed=1)


def test_empirical_frequency_three_steps():
    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x, z], condition=(2, "+"), target=(0, "+"), trials=100_000, seed=11)
    assert abs(rep.empirical - rep.exact) < 4.0 * max(rep.std_err, 1e-3)


def test_std_err_belongs_to_condition_hits():
    # The frequency is both/hits, so its standard error divides by hits,
    # not by trials; the report carries hits as its sample size.
    from retroops.sim import _sample_outcome_matrix

    z, x = z_instrument(), x_instrument()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=3000, seed=4)
    outcomes = _sample_outcome_matrix([z, x], None, 3000, seed=4)
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
