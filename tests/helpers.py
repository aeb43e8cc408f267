"""Shared random generators, qubit fixtures and the spectral oracle of the test suite.

The package takes every spectrum from LAPACK ``eigvalsh``.  Tests that
certify a spectrum or a spectral verdict use :func:`jacobi_eig`, an
independent cyclic Jacobi eigensolver, so the package's ``eigvalsh`` is
never certified by ``eigvalsh`` itself.  numpy's ``eigvalsh`` is used only
to build test inputs.  The golden CLI cases come from ``tools/goldens.py``,
the one list that CI checks too.
"""

import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import retroops as r

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import goldens  # noqa: E402

#: Off-diagonal Frobenius mass (relative to the input scale) at which the
#: Jacobi sweep is considered converged.
JACOBI_CONVERGENCE = 1e-14

#: Maximum number of cyclic Jacobi sweeps before giving up.
JACOBI_MAX_SWEEPS = 100


class NoConvergence(Exception):
    """The Jacobi oracle exhausted its sweep budget."""


@dataclass(frozen=True, eq=False)
class EigSystem:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; column ``k`` of ``eigenvectors``
    is the eigenvector paired with ``eigenvalues[k]``, and the column matrix
    is unitary.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def jacobi_eig(m, max_sweeps: int = JACOBI_MAX_SWEEPS) -> EigSystem:
    """Diagonalise the Hermitian part of ``m`` by cyclic Jacobi rotations.

    Each rotation is a complex Givens rotation absorbing the phase of the
    targeted off-diagonal entry; a sweep visits every upper-triangle pair
    once.  Raises :class:`NoConvergence` if the off-diagonal mass fails to
    fall below ``JACOBI_CONVERGENCE * scale`` within ``max_sweeps`` sweeps.
    """
    a = np.asarray(m, dtype=complex)
    a = (a + a.conj().T) / 2.0
    n = a.shape[0]
    v = np.eye(n, dtype=complex)
    if n == 1:
        return EigSystem(np.array([a[0, 0].real]), v)

    target = JACOBI_CONVERGENCE * max(1.0, float(np.linalg.norm(a)))
    skip = target / (2.0 * n)
    converged = False
    for _ in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off < target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag <= skip:
                    continue
                phase = apq / mag
                theta = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = -np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0)) if theta != 0.0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Unitary J differs from identity only in rows/columns p, q:
                #   J[p,p] = c, J[p,q] = -s, J[q,p] = conj(phase) s, J[q,q] = conj(phase) c
                jp = np.conj(phase) * s
                jq = np.conj(phase) * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p + jp * col_q
                a[:, q] = -s * col_p + jq * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p + np.conj(jp) * row_q
                a[q, :] = -s * row_p + np.conj(jq) * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                col_p = v[:, p].copy()
                col_q = v[:, q].copy()
                v[:, p] = c * col_p + jp * col_q
                v[:, q] = -s * col_p + jq * col_q
    else:
        converged = np.linalg.norm(a - np.diag(np.diag(a))) < target
    if not converged:
        raise NoConvergence(f"Jacobi sweep budget of {max_sweeps} exhausted")

    eigenvalues = np.diag(a).real.copy()
    order = np.argsort(eigenvalues, kind="stable")
    return EigSystem(eigenvalues[order], v[:, order])


def oracle_eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``, by the Jacobi oracle."""
    return jacobi_eig(m).eigenvalues


def rng(seed):
    return np.random.default_rng(seed)


def rand_matrix(gen, n):
    return gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))


def rand_hermitian(gen, n):
    m = rand_matrix(gen, n)
    return (m + m.conj().T) / 2.0


def rand_psd(gen, n):
    m = rand_matrix(gen, n)
    return m @ m.conj().T


def rand_unitary(gen, n):
    q, rr = np.linalg.qr(rand_matrix(gen, n))
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def rand_projector(gen, n, rank=None):
    if rank is None:
        rank = int(gen.integers(1, n))
    u = rand_unitary(gen, n)
    cols = u[:, :rank]
    return cols @ cols.conj().T


def rand_superop(gen, n):
    """A generic superoperator with no structure at all."""
    return r.from_tensor(rand_matrix(gen, n * n))


def rand_cp(gen, n, k=None):
    """A random completely positive map from a few random Kraus matrices."""
    if k is None:
        k = int(gen.integers(1, 4))
    return r.from_kraus([rand_matrix(gen, n) for _ in range(k)])


def rand_operation(gen, n, k=None):
    """A random CP map rescaled until both Loewner bounds hold."""
    a = rand_cp(gen, n, k)
    eye = np.eye(n)
    out_img = r.apply(a, eye)
    in_img = r.apply(r.adjoint(a), eye)
    top = max(
        np.linalg.eigvalsh(out_img).max(),
        np.linalg.eigvalsh(in_img).max(),
        1.0,
    )
    return r.scale(a, 1.0 / (top * (1.0 + 1e-12)))


def rand_noncp(gen, n):
    """A superoperator certified (by the Jacobi oracle) to have a negative
    Choi eigenvalue, hence not completely positive."""
    while True:
        a = rand_superop(gen, n)
        choi = r.reshuffle(a).mat
        choi = (choi + choi.conj().T) / 2.0
        vals = oracle_eigvalsh(choi)
        if vals[0] < -1e-6 * max(1.0, abs(vals[-1])):
            return r.from_tensor(r.reshuffle(r.from_tensor(choi)).mat)


def rand_resolution(gen, n, k):
    """Operations summing to a trivial map: a random-unitary channel split
    into ``k`` weighted unitary summands."""
    w = gen.dirichlet(np.ones(k))
    return [r.scale(r.unitary(rand_unitary(gen, n)), wk) for wk in w]


def luders_resolution(gen, n):
    """The projecting operations of a random orthonormal basis."""
    u = rand_unitary(gen, n)
    return [
        r.projecting(np.outer(u[:, j], u[:, j].conj())) for j in range(n)
    ]


def unsharp_instrument(gen, n, k):
    """A random unsharp instrument: ``k`` effects mixing the projectors of a
    random basis, each applied through its square-root Kraus operator."""
    u = rand_unitary(gen, n)
    w = gen.dirichlet(np.ones(k), size=n)
    ops = {}
    for j in range(k):
        root = (u * np.sqrt(w[:, j])) @ u.conj().T
        ops[f"e{j}"] = r.from_kraus([root])
    return r.make_instrument(ops, name=f"U{n}x{k}")


def philox(seed):
    """The sampler's generator for ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed))


def philox_row(seed, trial, steps):
    """The sampler's uniforms for one trial, read from the flat Philox counter
    positions ``trial * steps ... trial * steps + steps - 1``."""
    gen = philox(seed)
    gen.random(trial * steps)
    return gen.random(steps)


def scalar_outcomes(instruments, rho, u):
    """Reference sampler: one trajectory's outcome indices, one state at a time.

    At each step the branch weights ``tr[op_x(rho)]`` (clamped at 0) are
    searched for the step's uniform ``u[s]`` and the state is replaced by the
    chosen image over its weight.
    """
    out = []
    for inst, us in zip(instruments, u):
        images = [r.apply(inst.op(label), rho) for label in inst.outcomes]
        probs = np.array([max(0.0, np.trace(img).real) for img in images])
        k = min(int(np.searchsorted(np.cumsum(probs), us, side="right")), len(probs) - 1)
        rho = images[k] / probs[k]
        out.append(k)
    return out


# Qubit fixtures: Z and X eigenprojectors and their Lüders operations.
PZP = np.array([[1, 0], [0, 0]], dtype=complex)
PZM = np.array([[0, 0], [0, 1]], dtype=complex)
PXP = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
PXM = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def qubit_ops():
    return {
        "pz+": r.projecting(PZP),
        "pz-": r.projecting(PZM),
        "px+": r.projecting(PXP),
        "px-": r.projecting(PXM),
    }


def z_instrument():
    return r.make_instrument({"+": r.projecting(PZP), "-": r.projecting(PZM)}, name="Z")


def x_instrument():
    return r.make_instrument({"+": r.projecting(PXP), "-": r.projecting(PXM)}, name="X")
