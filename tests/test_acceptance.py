"""End-to-end acceptance checks.

Each test prints exactly one ``criterion N: PASS``/``FAIL`` line (run with
``pytest -s`` to see them) and asserts the same verdict, so the suite is
meaningful both interactively and under CI.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import retroops as r

from helpers import (
    PXP,
    PZM,
    PZP,
    goldens,
    oracle_eigvalsh,
    luders_resolution,
    qubit_ops,
    rand_cp,
    rand_matrix,
    rand_noncp,
    rand_operation,
    rand_projector,
    rand_resolution,
    rand_superop,
    rand_unitary,
    rng,
    unsharp_instrument,
    x_instrument,
    z_instrument,
)


def verdict(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_involution_and_trace_laws():
    gen = rng(1001)
    t0 = time.time()
    worst = 0.0
    for i in range(500):
        n = (2, 3, 4)[i % 3]
        a = rand_superop(gen, n)
        b = rand_superop(gen, n)
        scale = max(1.0, np.abs(a.mat).max(), np.abs(b.mat).max()) ** 2 * n * n
        cm, adj, rs = r.conjugate_map, r.adjoint, r.reshuffle

        def dev(x, y):
            return np.abs(x.mat - y.mat).max()

        worst = max(
            worst,
            dev(cm(cm(a)), a) / scale,
            dev(adj(adj(a)), a) / scale,
            dev(rs(rs(a)), a) / scale,
            dev(rs(cm(a)), adj(rs(a))) / scale,
            dev(cm(rs(a)), rs(adj(a))) / scale,
            dev(cm(adj(a)), adj(cm(a))) / scale,
            dev(adj(r.compose(a, b)), r.compose(adj(b), adj(a))) / scale,
            dev(cm(r.compose(a, b)), r.compose(cm(a), cm(b))) / scale,
            abs(r.hs_trace(r.compose(a, b)) - r.hs_trace(r.compose(b, a))) / scale,
            abs(r.event_weight(rs(a)) - r.hs_trace(a)) / scale,
            abs(r.hs_trace(rs(a)) - r.event_weight(a)) / scale,
            abs(r.event_weight(a) - np.trace(r.apply(a, np.eye(n)))) / scale,
            abs(
                r.event_weight(r.compose(a, b))
                - np.trace(r.apply(adj(a), np.eye(n)).conj().T @ r.apply(b, np.eye(n)))
            )
            / scale,
        )
    elapsed = time.time() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    verdict(1, ok, f"500 tensors, worst relative residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_positivity_equivalence():
    gen = rng(1002)
    disagreements = 0
    for i in range(200):
        n = 2 + (i % 2)
        for a, cp_known in ((rand_cp(gen, n), True), (rand_noncp(gen, n), False)):
            choi = r.reshuffle(a).mat
            choi_h = np.abs(choi - choi.conj().T).max() < 1e-10
            sym = (choi + choi.conj().T) / 2.0
            vals = oracle_eigvalsh(sym)
            oracle_cp = choi_h and vals[0] >= -1e-9 * max(1.0, abs(vals[-1]))
            if r.is_cp(a) != oracle_cp or oracle_cp != cp_known:
                disagreements += 1
            m = a.mat
            m_h = np.abs(m - m.conj().T).max() < 1e-10
            mv = oracle_eigvalsh(m) if m_h else None
            oracle_pos = m_h and mv[0] >= -1e-9 * max(1.0, abs(mv[-1]))
            if r.is_positive(a) != oracle_pos:
                disagreements += 1
            # quadratic-form spot check on the claimed-positive maps
            if r.is_positive(a):
                x = rand_matrix(gen, n)
                q = np.trace(x.conj().T @ r.apply(a, x)).real
                if q < -1e-7 * max(1.0, np.abs(x).max() ** 2 * np.abs(m).max()):
                    disagreements += 1
    verdict(2, disagreements == 0, f"400 samples, {disagreements} oracle disagreements")


def test_criterion_03_kraus_round_trip():
    gen = rng(1003)
    worst_rt = 0.0
    worst_adj = 0.0
    for i in range(200):
        n = (2, 3, 4)[i % 3]
        a = rand_cp(gen, n)
        ks = r.extract_kraus(a)
        rebuilt = r.from_kraus(ks.ops, dim=n)
        worst_rt = max(worst_rt, np.abs(rebuilt.mat - a.mat).max() / max(1.0, np.abs(a.mat).max()))
        lhs = r.adjoint(rebuilt)
        rhs = r.from_kraus([m.conj().T for m in ks.ops], dim=n)
        worst_adj = max(worst_adj, np.abs(lhs.mat - rhs.mat).max() / max(1.0, np.abs(lhs.mat).max()))
    ok = worst_rt < 1e-9 and worst_adj < 1e-12
    verdict(3, ok, f"200 CP maps, reconstruction {worst_rt:.2e}, adjoint identity {worst_adj:.2e}")


def test_criterion_04_bayes_theorem():
    gen = rng(1004)
    worst = 0.0
    for i in range(200):
        n = 2 + (i % 7)
        k = int(gen.integers(2, 9))
        res = rand_resolution(gen, n, k) if i % 2 else luders_resolution(gen, n)
        b = rand_operation(gen, n)
        if r.p_prior(b, check=False) <= 1e-6:
            continue
        j = int(gen.integers(0, len(res)))
        worst = max(
            worst,
            abs(r.bayes_retrodict(res, b, j) - r.p_retro(res[j], b, check=False)),
            abs(r.bayes_predict(res, b, j) - r.p_pred(res[j], b, check=False)),
        )
    ops = qubit_ops()
    fixture = abs(r.bayes_retrodict([ops["pz+"], ops["pz-"]], ops["px+"], 0) - 0.5)
    ok = worst < 1e-9 and fixture < 1e-12
    verdict(4, ok, f"200 resolutions at d = 2..8, worst residual {worst:.2e}, qubit fixture residual {fixture:.2e}")


def test_criterion_05_time_reversal():
    gen = rng(1005)
    worst = 0.0
    for i in range(200):
        n = 2 + (i % 7)
        a = rand_operation(gen, n)
        b = rand_operation(gen, n)
        if min(r.event_weight(b).real, r.event_weight(r.adjoint(b)).real) <= 1e-6:
            continue
        ra, rb = r.adjoint(a), r.adjoint(b)
        worst = max(
            worst,
            abs(r.p_pred(a, b, check=False) - r.p_retro(ra, rb, check=False)),
            abs(r.p_retro(a, b, check=False) - r.p_pred(ra, rb, check=False)),
            abs(r.p_prior(a, check=False) - r.p_prior(ra, check=False)),
        )
    worst_seq = 0.0
    for i in range(42):
        n = 2 + (i % 7)
        a_seq = [r.projecting(rand_projector(gen, n)) for _ in range(int(gen.integers(1, 7)))]
        b_seq = [r.projecting(rand_projector(gen, n)) for _ in range(int(gen.integers(1, 7)))]

        def chain(seq):
            out = seq[0]
            for s in seq[1:]:
                out = r.compose(out, s)
            return out

        a, b = chain(a_seq), chain(b_seq)
        a_rev, b_rev = chain(a_seq[::-1]), chain(b_seq[::-1])
        worst_seq = max(worst_seq, abs(r.p_prior(a, check=False) - r.p_prior(a_rev, check=False)))
        if min(r.event_weight(b).real, r.event_weight(b_rev).real) > 1e-6:
            worst_seq = max(
                worst_seq,
                abs(r.p_pred(a, b, check=False) - r.p_retro(a_rev, b_rev, check=False)),
            )
    ok = worst < 1e-10 and worst_seq < 1e-9
    verdict(5, ok, f"200 pairs at d = 2..8, residual {worst:.2e}, 42 projective sequences, residual {worst_seq:.2e}")


def test_criterion_06_unitary_invariance():
    gen = rng(1006)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(2, 4))
        a = rand_operation(gen, n)
        b = rand_operation(gen, n)
        if r.event_weight(b).real <= 1e-6:
            continue
        u = r.unitary(rand_unitary(gen, n))
        uinv = r.adjoint(u)
        ca = r.compose(r.compose(u, a), uinv)
        cb = r.compose(r.compose(u, b), uinv)
        worst = max(
            worst,
            abs(r.p_pred(ca, cb, check=False) - r.p_pred(a, b, check=False)),
            abs(r.p_retro(ca, cb, check=False) - r.p_retro(a, b, check=False)),
            abs(r.p_prior(ca, check=False) - r.p_prior(a, check=False)),
        )
    verdict(6, worst < 1e-10, f"200 conjugated triples, worst residual {worst:.2e}")


def test_criterion_07_instruments():
    z, x = z_instrument(), x_instrument()
    worst = abs(r.p_inst(z, z.outcomes) - 1.0)
    a = r.projecting(PXP)
    worst = max(
        worst,
        abs(
            r.p_inst_pred(z, ["+", "-"], a)
            - r.p_inst_pred(z, ["+"], a)
            - r.p_inst_pred(z, ["-"], a)
        ),
    )
    zx = r.product(z, x)
    probs = sorted(r.p_inst(zx, [label]) for label in zx.outcomes)
    worst = max(worst, max(abs(p - 0.25) for p in probs))
    # Random unsharp instruments i (K = 2..4) and k (K = 2, 3) at d = 2..8,
    # bound 1e-12 as for the qubit: the outcomes of i are exhaustive and
    # additive, given an outcome y of k, and the product instrument's outcome
    # "x,y" (k first) has probability p_inst(k, y) p_cond_pred(i, k, x, y),
    # whose sum over x is p_inst(k, y).
    gen = rng(1007)
    worst_d = 0.0
    for n in range(2, 9):
        for _ in range(2):
            i = unsharp_instrument(gen, n, int(gen.integers(2, 5)))
            k = unsharp_instrument(gen, n, int(gen.integers(2, 4)))
            ik = r.product(i, k)
            worst_d = max(worst_d, abs(r.p_inst(i, i.outcomes) - 1.0))
            for y in k.outcomes:
                b, p_y = r.summed(k, [y]), r.p_inst(k, [y])
                singles = [r.p_inst_pred(i, [x], b) for x in i.outcomes]
                joint = [r.p_inst(ik, [f"{x},{y}"]) for x in i.outcomes]
                worst_d = max(
                    worst_d,
                    abs(r.p_inst_pred(i, i.outcomes, b) - sum(singles)),
                    abs(sum(joint) - p_y),
                    max(abs(j - p_y * r.p_cond_pred(i, k, [x], [y])) for j, x in zip(joint, i.outcomes)),
                )
    ok = worst < 1e-12 and len(zx.outcomes) == 4 and worst_d < 1e-12
    verdict(
        7, ok, f"Z/X validate, product has {len(zx.outcomes)} outcomes, worst residual {worst:.2e}; "
        f"14 random instrument pairs at d = 2..8, worst residual {worst_d:.2e}"
    )


def test_criterion_08_bayesian_states():
    gen = rng(1008)
    worst = 0.0
    for _ in range(200):
        n = int(gen.integers(2, 9))
        a = rand_operation(gen, n)
        b = rand_operation(gen, n)
        if r.event_weight(b).real <= 1e-6:
            continue
        m_in, m_out = r.effects_of(a, tol=1e-9)
        post = r.state_posterior(b, check=False)
        prior = r.state_prior(b, check=False)
        worst = max(
            worst,
            abs(r.expect(post, m_in.matrix) - r.p_pred(a, b, check=False)),
            abs(r.expect(prior, m_out.matrix) - r.p_retro(a, b, check=False)),
        )
    verdict(8, worst < 1e-9, f"200 pairs at d = 2..8, worst bridge residual {worst:.2e}")


def test_criterion_09_simulation_concordance():
    z, x = z_instrument(), x_instrument()
    t0 = time.time()
    rep = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=10**6, seed=20260825)
    elapsed = time.time() - t0
    again = r.estimate([z, x], condition=(1, "+"), target=(0, "+"), trials=10**6, seed=20260825)
    ok = (
        rep.exact == 0.5
        and abs(rep.empirical - 0.5) <= 4.0 * rep.std_err
        and elapsed < 60.0
        and rep == again
    )
    verdict(
        9,
        ok,
        f"1e6 trials, empirical {rep.empirical:.6f}, |err| {rep.abs_err:.2e} "
        f"<= {4 * rep.std_err:.2e}, {elapsed:.1f}s, repeatable",
    )


def test_criterion_10_cli_contract():
    # Every golden command, byte for byte with its exit code, and a missing
    # scenario file exits with the validation code.
    notes = goldens.mismatches([sys.executable, "-m", "retroops"])
    proc = subprocess.run(
        [sys.executable, "-m", "retroops", "--scenario", "/nonexistent.json", "--json", "check", "x"],
        capture_output=True, text=True,
    )
    if proc.returncode != 2:
        notes.append("missing-file exit code")
    verdict(10, not notes, "all commands match goldens" if not notes else f"mismatches: {notes}")
