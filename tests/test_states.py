import numpy as np
import pytest

import retroops as r
from retroops.errors import DimensionMismatch, InvariantViolation, NotOperation, ValidationError, ZeroCondition

from helpers import (
    PXP,
    PZM,
    PZP,
    rand_operation,
    rand_projector,
    rng,
    x_instrument,
    z_instrument,
)


def test_density_matrix_invariants_enforced():
    r.DensityMatrix(np.eye(2) / 2)
    with pytest.raises(InvariantViolation):
        r.DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(InvariantViolation):
        r.DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(InvariantViolation):
        r.DensityMatrix(np.array([[0.5, 0.5], [0, 0.5]]))  # not Hermitian


def test_density_matrix_immutable():
    rho = r.DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_effect_invariants():
    r.Effect(PZP)
    r.Effect(np.eye(2) * 0.3)
    with pytest.raises(InvariantViolation):
        r.Effect(np.eye(2) * 1.5)
    with pytest.raises(InvariantViolation):
        r.Effect(-PZP)


def test_projector_states():
    rho = r.state_prior(r.projecting(PZP))
    assert np.abs(rho.matrix - PZP).max() < 1e-12
    rho = r.state_posterior(r.projecting(PZP))
    assert np.abs(rho.matrix - PZP).max() < 1e-12


def test_unit_state_is_maximally_mixed():
    rho = r.state_prior(r.unit(3))
    assert np.abs(rho.matrix - np.eye(3) / 3).max() < 1e-12


def test_zero_operation_has_no_state():
    with pytest.raises(ZeroCondition):
        r.state_prior(r.zero(2))


def test_states_are_valid_density_matrices():
    gen = rng(90)
    for n in (2, 3, 4):
        for _ in range(20):
            a = rand_operation(gen, n)
            if r.event_weight(a).real <= 1e-6:
                continue
            for rho in (r.state_prior(a, check=False), r.state_posterior(a, check=False)):
                m = rho.matrix
                assert np.abs(m - m.conj().T).max() < 1e-10
                assert abs(np.trace(m) - 1.0) < 1e-10
                assert np.linalg.eigvalsh(m)[0] > -1e-9


def test_posterior_is_prior_of_reverse():
    gen = rng(91)
    for _ in range(15):
        a = rand_operation(gen, 3)
        if r.event_weight(a).real <= 1e-6:
            continue
        lhs = r.state_posterior(a, check=False).matrix
        rhs = r.state_prior(r.adjoint(a), check=False).matrix
        assert np.abs(lhs - rhs).max() < 1e-12


def test_effects_of_projector():
    m_in, m_out = r.effects_of(r.projecting(PZP))
    assert np.abs(m_in.matrix - PZP).max() < 1e-12
    assert np.abs(m_out.matrix - PZP).max() < 1e-12


def test_effects_match_kraus_sums():
    gen = rng(92)
    for _ in range(10):
        a = rand_operation(gen, 3)
        ks = r.extract_kraus(a)
        s_in = sum(m.conj().T @ m for m in ks.ops)
        s_out = sum(m @ m.conj().T for m in ks.ops)
        m_in, m_out = r.effects_of(a)
        assert np.abs(m_in.matrix - s_in).max() < 1e-9
        assert np.abs(m_out.matrix - s_out).max() < 1e-9


def test_bridge_identities():
    # p_pred(a, b) = tr[state_posterior(b) E_in(a)]
    # p_retro(a, b) = tr[state_prior(b) E_out(a)]
    gen = rng(93)
    for n in (2, 3, 4):
        for _ in range(20):
            a = rand_operation(gen, n)
            b = rand_operation(gen, n)
            if r.event_weight(b).real <= 1e-6:
                continue
            m_in, m_out = r.effects_of(a, tol=1e-9)
            pred = r.expect(r.state_posterior(b, check=False), m_in.matrix)
            retro = r.expect(r.state_prior(b, check=False), m_out.matrix)
            assert abs(pred - r.p_pred(a, b, check=False)) < 1e-9
            assert abs(retro - r.p_retro(a, b, check=False)) < 1e-9


def test_state_of_instrument():
    z = z_instrument()
    rho = r.state_of_instrument(z, ["+"], "prior")
    assert np.abs(rho.matrix - PZP).max() < 1e-12
    rho = r.state_of_instrument(z, z.outcomes, "prior")
    assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-12
    with pytest.raises(ValidationError):
        r.state_of_instrument(z, ["+"], "sideways")


def test_expect_rejects_imaginary():
    rho = r.DensityMatrix(PXP)
    with pytest.raises(InvariantViolation):
        r.expect(rho, np.array([[0, 5j], [0, 0]]))


def test_expect_known_value():
    rho = r.DensityMatrix(PXP)
    sz = np.diag([1.0, -1.0])
    assert abs(r.expect(rho, sz)) < 1e-12
    sx = np.array([[0, 1], [1, 0]], dtype=float)
    assert abs(r.expect(rho, sx) - 1.0) < 1e-12


def test_expect_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        r.expect(r.DensityMatrix(PXP), np.eye(3))


def test_state_and_effect_checks_take_the_callers_tol():
    # An operation at tol=1e-6 but not at the default: a(I) has eigenvalue -1e-7.
    a = r.Superoperator(2, r.projecting(PZP).mat - 1e-7 * r.projecting(PZM).mat)
    assert r.classify(a, 1e-6).operation
    rho = r.state_posterior(a, tol=1e-6)
    assert abs(rho.matrix[1, 1] + 1e-7) < 1e-12
    m_in, m_out = r.effects_of(a, tol=1e-6)
    assert abs(m_in.matrix[1, 1] + 1e-7) < 1e-15 and abs(m_out.matrix[1, 1] + 1e-7) < 1e-15
    with pytest.raises(NotOperation):
        r.state_posterior(a)
    with pytest.raises(NotOperation):
        r.effects_of(a)
    with pytest.raises(InvariantViolation):
        r.DensityMatrix(rho.matrix)
