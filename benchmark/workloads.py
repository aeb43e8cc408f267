"""The four benchmark workloads: input generators, units of work and oracles.

Every workload is built from a seed and hands out *rounds*: fixed, balanced
batches of units whose contents (matrices, operand choices, sequences) are
drawn from ``numpy.random.default_rng([seed, workload, round])``.  A round
has the same mix of sizes whatever the seed, so run-to-run spread comes from
the program, not from a lucky or unlucky draw of expensive inputs.

A :class:`Unit` pairs the timed call into the program with an untimed check.
The checks use the benchmark's own oracle: plain-numpy Kraus algebra for the
probability formulas and maps, and the paper's identities (Bayes, time
reversal, the state/effect bridge) evaluated independently of the package.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

import retroops as ro

#: The package's default tolerance; the scenario and query tolerance.
TOL = ro.DEFAULT_TOL

#: Trials per sampler call.  Kept below 2**14, the smallest tree depth, so the
#: sampler's K**steps node list always outgrows the occupied nodes.
SAMPLE_TRIALS = 1000
SAMPLE_STEPS = (14, 15, 16)
#: Sharpness of the unsharp instruments.  How often trials share a history,
#: and so how many tree nodes are occupied, depends on the sharpness and on
#: the angles between measurement axes: both are fixed, and the seed picks a
#: common rotation of all axes, so the work per unit is the same for every
#: seed.
UNSHARP_WEIGHTS = (0.65, 0.7, 0.75, 0.8, 0.85)


@dataclass
class Unit:
    """One unit of work: ``run`` is timed, ``check(result)`` returns a failure reason or None."""

    run: object
    check: object
    work: int = 1


# ----------------------------------------------------------------------------
# Random inputs and the plain-numpy oracle
# ----------------------------------------------------------------------------

def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


def haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def operation_kraus(rng, d: int, rank: int, top: float = 0.9) -> np.ndarray:
    """Random Kraus family scaled so that ``max(|sum K*K|, |sum KK*|) = top``."""
    ks = rng.standard_normal((rank, d, d)) + 1j * rng.standard_normal((rank, d, d))
    s_in = np.einsum("kji,kjl->il", ks.conj(), ks)
    s_out = np.einsum("kij,klj->il", ks, ks.conj())
    now = max(np.linalg.eigvalsh(s_in)[-1], np.linalg.eigvalsh(s_out)[-1])
    return ks * np.sqrt(top / now)


def unsharp_kraus(rng, d: int, outcomes: int) -> dict:
    """Instrument components with both sums equal to the identity.

    ``M_k = W diag(sqrt(e_k)) W*`` with the weights ``e_k`` summing to one,
    followed by a mixture of two unitaries, so ``sum K*K = sum KK* = I``.
    """
    w = haar_unitary(rng, d)
    e = rng.dirichlet(np.full(outcomes, 2.0), size=d)
    v1, v2 = haar_unitary(rng, d), haar_unitary(rng, d)
    q = rng.uniform(0.2, 0.8)
    comps = {}
    for k in range(outcomes):
        m = (w * np.sqrt(e[:, k])) @ w.conj().T
        comps[str(k)] = np.stack([np.sqrt(q) * v1 @ m, np.sqrt(1 - q) * v2 @ m])
    return comps


def k_apply(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_k K_k x K_k*``."""
    return np.einsum("kij,jl,kml->im", ks, x, ks.conj())


def k_adjoint(ks: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(ks, 1, 2))


def k_weight(ks: np.ndarray) -> float:
    """``tr a(I)``."""
    return float(np.vdot(ks, ks).real)


def pred(a: np.ndarray, b: np.ndarray) -> float:
    """``tr a(b(I)) / tr b(I)``."""
    b_img = k_apply(b, np.eye(b.shape[1]))
    return float(np.trace(k_apply(a, b_img)).real / np.trace(b_img).real)


def retro(a: np.ndarray, b: np.ndarray) -> float:
    """``tr b(a(I)) / tr b(I)``."""
    a_img = k_apply(a, np.eye(a.shape[1]))
    return float(np.trace(k_apply(b, a_img)).real / k_weight(b))


def acts_like(a: ro.Superoperator, ks: np.ndarray, rng) -> bool:
    """True iff the stored map acts as the Kraus family on a random matrix."""
    d = a.dim
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    got = (np.asarray(a.mat) @ x.ravel()).reshape(d, d)
    want = k_apply(ks, x)
    return bool(np.abs(got - want).max() <= TOL * max(1.0, float(np.abs(want).max())))


def close(x, y, tol: float = TOL) -> bool:
    return bool(np.abs(np.asarray(x) - np.asarray(y)).max() <= tol)


def _reason(ok: bool, what: str):
    return None if ok else what


class Workload:
    name = ""

    def prepare(self) -> None:
        """Benchmark-side work after set-up and before the first unit, such as
        computing the oracle's expectations; it is not part of ``setup_s``."""

    def round(self, r: int) -> list:
        """Units of round ``r``."""
        raise NotImplementedError


# ----------------------------------------------------------------------------
# validate-fresh
# ----------------------------------------------------------------------------

class ValidateFresh(Workload):
    """Fresh maps through ``from_kraus -> classify -> extract_kraus``; planted invalid maps."""

    name = "validate-fresh"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 1, r)
        units = [self._valid_map(operation_kraus(rng, d, rank))
                 for d in range(2, 9) for rank in (1, d, d * d)]
        # 25 units: the three heaviest maps are the top 12 %, so p90 falls inside
        # one size class rather than on the gap between two.
        units += [self._mixed_unitary(rng, d) for d in (4, 8)]
        units += [self._non_cp(rng, 4), self._super_unital_instrument(rng, 5)]
        return [units[i] for i in rng.permutation(len(units))]

    def _valid_map(self, ks: np.ndarray) -> Unit:
        x_rng = _rng(self.seed, 1, ks.shape[0], ks.shape[1])

        def run():
            a = ro.from_kraus(list(ks))
            return a, ro.classify(a), ro.extract_kraus(a)

        def check(out):
            a, cls, kset = out
            if not (cls.cp and cls.operation):
                return "valid map was not accepted as an operation"
            if not acts_like(a, ks, x_rng):
                return "from_kraus does not act as its Kraus family"
            rebuilt = ro.from_kraus(kset.ops, dim=a.dim)
            if not close(rebuilt.mat, a.mat, TOL * max(1.0, float(np.abs(a.mat).max()))):
                return "extracted Kraus family does not round-trip through from_kraus"
            return _reason(acts_like(a, np.stack(kset.ops), x_rng), "extracted Kraus family acts differently")

        return Unit(run, check)

    def _mixed_unitary(self, rng, d: int) -> Unit:
        us = [haar_unitary(rng, d) for _ in range(6)]
        p = rng.dirichlet(np.full(6, 2.0))
        comps = {str(k): np.stack([np.sqrt(p[2 * k]) * us[2 * k], np.sqrt(p[2 * k + 1]) * us[2 * k + 1]])
                 for k in range(3)}
        x_rng = _rng(self.seed, 1, d)

        def run():
            return ro.make_instrument({label: ro.from_kraus(list(ks)) for label, ks in comps.items()}, name=f"mu{d}")

        def check(inst):
            if tuple(inst.outcomes) != tuple(comps):
                return "instrument outcome labels changed"
            return _reason(all(acts_like(inst.op(x), comps[x], x_rng) for x in comps),
                           "instrument component acts differently from its Kraus family")

        return Unit(run, check)

    def _non_cp(self, rng, d: int) -> Unit:
        # Choi matrix |a><a| - |b><b|: one eigenvalue is negative by construction.
        a, b = (rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d)) for _ in range(2))
        mat = (np.einsum("kgr,kdc->gdrc", a, a.conj()) - np.einsum("kgr,kdc->gdrc", b, b.conj())).reshape(d * d, d * d)

        def run():
            m = ro.from_tensor(mat)
            cls = ro.classify(m)
            try:
                ro.extract_kraus(m)
            except ro.NotCP:
                return cls, True
            return cls, False

        def check(out):
            cls, rejected = out
            return _reason(not cls.cp and not cls.operation and rejected, "non-CP map was not rejected")

        return Unit(run, check)

    def _super_unital_instrument(self, rng, d: int) -> Unit:
        u0, u1 = haar_unitary(rng, d), haar_unitary(rng, d)
        comps = {"0": [np.sqrt(0.5) * u0], "1": [np.sqrt(1.25) * u1]}

        def run():
            try:
                ro.make_instrument({x: ro.from_kraus(ks) for x, ks in comps.items()}, name="bad")
            except ro.NotOperation:
                return True
            return False

        def check(rejected):
            return _reason(rejected, "instrument with a super-unital component was not rejected")

        return Unit(run, check)


# ----------------------------------------------------------------------------
# query-pool
# ----------------------------------------------------------------------------

QUERY_KINDS = (
    "p_pred", "p_retro", "bayes_retrodict", "bayes_predict",
    "p_cond_pred", "p_cond_retro", "state_prior", "state_posterior",
)


class QueryPool(Workload):
    """Repeated queries over a fixed pool of operations and instruments at d = 3, 4."""

    name = "query-pool"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        rng = _rng(seed, 2)
        self.ops = {}
        self.insts = {}
        for d, n_insts in ((3, 2), (4, 1)):
            ops = []
            for _ in range(4):
                ks = operation_kraus(rng, d, 2, top=rng.uniform(0.6, 0.95))
                a = ro.from_kraus(list(ks))
                if not ro.classify(a).operation:
                    raise RuntimeError("generated pool operation failed validation")
                ops.append((a, ks))
            insts = []
            for i in range(n_insts):
                comps = unsharp_kraus(rng, d, 2 + i)
                inst = ro.make_instrument({x: ro.from_kraus(list(ks)) for x, ks in comps.items()}, name=f"I{d}{i}")
                insts.append((inst, comps))
            self.ops[d] = ops
            self.insts[d] = insts

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 2, r)
        units = [self._query(rng, d, kind) for d in (3, 4) for kind in QUERY_KINDS]
        return [units[i] for i in rng.permutation(len(units))]

    def _query(self, rng, d: int, kind: str) -> Unit:
        ops = self.ops[d]
        (a, ka), (b, kb), (_, kc) = (ops[i] for i in rng.integers(len(ops), size=3))
        inst, comps = self.insts[d][rng.integers(len(self.insts[d]))]
        inst2, comps2 = self.insts[d][rng.integers(len(self.insts[d]))]

        def near(v, *refs):
            return all(abs(v - ref) <= TOL for ref in refs)

        if kind in ("p_pred", "p_retro"):
            fn = ro.p_pred if kind == "p_pred" else ro.p_retro
            direct, mirrored = (pred, retro) if kind == "p_pred" else (retro, pred)

            def check(v):
                # Event-weight formula, and the time-reversal identity through adjoints.
                return _reason(near(v, direct(ka, kb), mirrored(k_adjoint(ka), k_adjoint(kb))),
                               f"{kind} disagrees with the event-weight oracle")

            return Unit(lambda: fn(a, b), check)

        if kind in ("bayes_retrodict", "bayes_predict"):
            labels = list(inst.outcomes)
            j = int(rng.integers(len(labels)))
            members = [inst.op(x) for x in labels]
            fn = ro.bayes_retrodict if kind == "bayes_retrodict" else ro.bayes_predict
            direct, other = (retro, pred) if kind == "bayes_retrodict" else (pred, retro)
            terms = [other(kb, comps[x]) * k_weight(comps[x]) for x in labels]

            def check(v):
                # Bayes theorem: the formula equals the direct conditional probability.
                return _reason(near(v, direct(comps[labels[j]], kb), terms[j] / sum(terms)),
                               f"{kind} disagrees with the Bayes oracle")

            return Unit(lambda: fn(members, b, j), check)

        if kind in ("p_cond_pred", "p_cond_retro"):
            ev_a = _event(rng, inst.outcomes)
            ev_b = _event(rng, inst2.outcomes)
            ka_ev = np.concatenate([comps[x] for x in ev_a])
            kb_ev = np.concatenate([comps2[x] for x in ev_b])
            fn = ro.p_cond_pred if kind == "p_cond_pred" else ro.p_cond_retro
            want = pred(ka_ev, kb_ev) if kind == "p_cond_pred" else retro(ka_ev, kb_ev)

            def check(v):
                return _reason(near(v, want), f"{kind} disagrees with the summed-event oracle")

            return Unit(lambda: fn(inst, inst2, ev_a, ev_b), check)

        posterior = kind == "state_posterior"
        image = k_apply(ka if posterior else k_adjoint(ka), np.eye(d))
        fn = ro.state_posterior if posterior else ro.state_prior
        # Bridge: p_pred(c, a) = tr[posterior(a) c*(I)] and p_retro(c, a) = tr[prior(a) c(I)].
        effect = k_apply(k_adjoint(kc) if posterior else kc, np.eye(d))
        bridge = pred(kc, ka) if posterior else retro(kc, ka)

        def check(rho):
            m = np.asarray(rho.matrix)
            if not close(m, image / np.trace(image).real):
                return f"{kind} disagrees with the normalised image oracle"
            return _reason(near(float(np.trace(m @ effect).real), bridge), f"{kind} breaks the state/effect bridge")

        return Unit(lambda: fn(a), check)


def _qubit_axes(n: int) -> list:
    """Eigenbases of ``n`` fixed, well-spread Bloch axes (a Fibonacci lattice)."""
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    bases = []
    for i in range(n):
        z = 1 - (2 * i + 1) / n
        phi = i * np.pi * (3 - np.sqrt(5))
        axis = (np.sqrt(1 - z * z) * np.cos(phi), np.sqrt(1 - z * z) * np.sin(phi), z)
        _, vecs = np.linalg.eigh(np.einsum("i,ijk->jk", axis, pauli))
        bases.append(vecs[:, ::-1])
    return bases


def _event(rng, outcomes) -> list:
    """A random nonempty subset of the outcomes, in instrument order."""
    mask = rng.random(len(outcomes)) < 0.5
    mask[rng.integers(len(outcomes))] = True
    return [x for x, keep in zip(outcomes, mask) if keep]


# ----------------------------------------------------------------------------
# sample-deep
# ----------------------------------------------------------------------------

class SampleDeep(Workload):
    """``estimate`` over 14-16 alternating sharp and unsharp qubit instruments."""

    name = "sample-deep"

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        frame = haar_unitary(_rng(seed, 3), 2)
        axes = [frame @ u for u in _qubit_axes(2 * len(UNSHARP_WEIGHTS))]
        self.sharp = []
        self.unsharp = []
        for e, u, w in zip(UNSHARP_WEIGHTS, axes[0::2], axes[1::2]):
            projs = {str(k): np.outer(u[:, k], u[:, k].conj()) for k in range(2)}
            inst = ro.make_instrument({x: ro.projecting(p) for x, p in projs.items()}, name="S")
            self.sharp.append((inst, {x: p[None] for x, p in projs.items()}))
            weights = {"0": [e, 1 - e], "1": [1 - e, e]}
            ms = {x: (w * np.sqrt(ew)) @ w.conj().T for x, ew in weights.items()}
            inst = ro.make_instrument({x: ro.from_kraus([m]) for x, m in ms.items()}, name="U")
            self.unsharp.append((inst, {x: m[None] for x, m in ms.items()}))

    def round(self, r: int) -> list:
        rng = _rng(self.seed, 3, r)
        units = [self._estimate(rng, steps, repeat=(r % 4 == 0 and k == 0))
                 for k, steps in enumerate(SAMPLE_STEPS)]
        return [units[i] for i in rng.permutation(len(units))]

    def _estimate(self, rng, steps: int, repeat: bool) -> Unit:
        seq = [(self.sharp if s % 2 == 0 else self.unsharp)[rng.integers(len(UNSHARP_WEIGHTS))] for s in range(steps)]
        insts = [inst for inst, _ in seq]
        last = steps - 1
        cond = (last, str(rng.integers(2)))
        target = (0, str(rng.integers(2)))
        seed = int(rng.integers(2**62))

        def exact(fixed: dict) -> float:
            rho = np.eye(2, dtype=complex) / 2
            for s, (inst, kraus) in enumerate(seq):
                ks = kraus[fixed[s]] if s in fixed else np.concatenate([kraus[x] for x in inst.outcomes])
                rho = k_apply(ks, rho)
            return float(np.trace(rho).real)

        def run():
            return ro.estimate(insts, cond, target, SAMPLE_TRIALS, seed=seed)

        def check(rep):
            p = exact({cond[0]: cond[1], target[0]: target[1]}) / exact({cond[0]: cond[1]})
            if abs(rep.exact - p) > TOL:
                return "exact value disagrees with the density-matrix oracle"
            # The frequency is over condition hits, about trials * P(condition) of them.
            p_cond = ro.exact_sequence_probability(insts, {cond[0]: cond[1]})
            bound = 5.0 * np.sqrt(p * (1.0 - p) / (SAMPLE_TRIALS * p_cond))
            if abs(rep.empirical - p) > bound:
                return f"empirical {rep.empirical} is more than 5 sigma from exact {p}"
            if repeat and run().empirical != rep.empirical:
                return "a repeated seed gave a different empirical frequency"
            return None

        return Unit(run, check, work=SAMPLE_TRIALS)


# ----------------------------------------------------------------------------
# cli-scenario
# ----------------------------------------------------------------------------

#: Scenario dimension of each unit in a round.  Three qubit units per qutrit
#: unit put the median inside the qubit cluster and p90 near the middle of
#: the qutrit one, rather than on the gap between them.
CLI_ROUND = (2, 2, 2, 3)
#: Rounds of distinct scenarios generated before timing; round ``r`` runs the
#: scenarios of slot ``r % CLI_POOL_ROUNDS``.  A 25 s run takes seven to
#: nine rounds, so no scenario file is read twice in it.
CLI_POOL_ROUNDS = 12


def _cmatrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _from_cmatrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


@dataclass
class CliScenario:
    """A generated scenario: its JSON document and the Kraus data behind every name."""

    dim: int
    doc: dict
    kraus: dict = field(default_factory=dict)
    instruments: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)


def generate_scenario(rng, d: int) -> CliScenario:
    """About sixty tasks over a dozen reused definitions, plus one 2-step simulate."""
    defs = {}
    kraus = {}
    bases = {"u": haar_unitary(rng, d), "v": haar_unitary(rng, d)}
    for tag, u in bases.items():
        for k in range(d):
            p = np.outer(u[:, k], u[:, k].conj())
            defs[f"P{tag}{k}"] = {"matrix": _cmatrix(p)}
            defs[f"p{tag}{k}"] = {"builder": "projector", "of": f"P{tag}{k}"}
            kraus[f"p{tag}{k}"] = p[None]
    rot = haar_unitary(rng, d)
    defs["R"] = {"matrix": _cmatrix(rot)}
    defs["rot"] = {"builder": "unitary", "of": "R"}
    kraus["rot"] = rot[None]
    defs["id"] = {"builder": "unit"}
    kraus["id"] = np.eye(d)[None]
    defs["deph"] = {"builder": "sum", "of": [f"pu{k}" for k in range(d)]}
    kraus["deph"] = np.concatenate([kraus[f"pu{k}"] for k in range(d)])
    defs["half"] = {"builder": "sum", "of": ["id"], "weights": [0.5]}
    kraus["half"] = np.sqrt(0.5) * kraus["id"]
    noise = operation_kraus(rng, d, 2)
    defs["noise"] = {"kraus": [_cmatrix(m) for m in noise]}
    kraus["noise"] = noise
    defs["mix"] = {"builder": "sum", "of": ["rot", "noise"], "weights": [0.5, 0.5]}
    kraus["mix"] = np.sqrt(0.5) * np.concatenate([kraus["rot"], noise])
    for k, ks in unsharp_kraus(rng, d, d).items():
        defs[f"w{k}"] = {"kraus": [_cmatrix(m) for m in ks]}
        kraus[f"w{k}"] = ks
    instruments = {name: {str(k): f"{prefix}{k}" for k in range(d)}
                   for name, prefix in (("U", "pu"), ("V", "pv"), ("W", "w"))}
    for name, outcomes in instruments.items():
        defs[name] = {"outcomes": outcomes}

    names = sorted(kraus)
    labels = [str(k) for k in range(d)]
    # Definitions are used in turn from a random start, so every seed spreads
    # the tasks evenly over them and a scenario costs about the same.
    turn = itertools.count(int(rng.integers(len(names))))

    def pick():
        return names[next(turn) % len(names)]

    tasks = []
    tasks += [("check", pick()) for _ in range(10)]
    tasks += [("prob", mode, pick(), pick()) for mode in ("pred", "retro") for _ in range(5)]
    tasks += [("prob", "prior", pick()) for _ in range(5)]
    for k in range(9):
        inst = instruments["UVW"[k % 3]]
        tasks.append(("bayes", [inst[x] for x in labels], pick(), k % d))
    tasks += [("reverse", pick(), pick()) for _ in range(8)]
    for k in range(8):
        direction = ("prior", "posterior")[k % 2]
        if k < 4:
            tasks.append(("state", direction, pick()))
        else:
            tasks.append(("state", direction, "UVW"[k % 3], _event(rng, labels)))
    tasks += [("kraus", pick()) for _ in range(9)]
    tasks.append(("simulate", ["U", "V"], (1, labels[rng.integers(d)]), (0, labels[rng.integers(d)])))
    order = rng.permutation(len(tasks))
    tasks = [tasks[i] for i in order]

    doc = {"dim": d, "definitions": defs, "tasks": [_task_json(t) for t in tasks]}
    return CliScenario(d, doc, kraus, instruments, tasks)


def _task_json(task) -> dict:
    kind = task[0]
    if kind in ("check", "kraus"):
        return {"command": kind, "args": [task[1]]}
    if kind == "prob":
        return {"command": "prob", "args": [f"--{task[1]}", *task[2:]]}
    if kind == "bayes":
        members, cond, j = task[1:]
        return {"command": "bayes", "args": [*members, "--condition", cond, "--index", j]}
    if kind == "reverse":
        return {"command": "reverse", "args": list(task[1:])}
    if kind == "state":
        if len(task) == 3:
            return {"command": "state", "args": [task[2], f"--{task[1]}"]}
        return {"command": "state", "args": ["--instrument", task[2], "--event", ",".join(task[3]), f"--{task[1]}"]}
    steps, (cs, co), (ts, to) = task[1:]
    return {"command": "simulate", "args": ["--steps", *steps, "--condition", f"{cs}:{co}", "--target", f"{ts}:{to}"]}


#: The CLI's default trial count and seed, which the simulate task relies on.
CLI_TRIALS = 100_000
CLI_SEED = 0


_CLASS_FIELDS = ("positive", "cp", "sub_unital", "sub_tracial", "operation", "trivial")


class CliOracle:
    """Expected task reports from in-process library calls on the same definitions.

    Expectations are computed once per scenario; checking a report then only
    compares numbers, so checks do not eat into the measured run.
    """

    def __init__(self, scn: CliScenario):
        self.scn = scn
        self.ops = {name: ro.from_kraus(list(ks)) for name, ks in scn.kraus.items()}
        self.insts = {name: ro.make_instrument({x: self.ops[ref] for x, ref in outs.items()}, name=name)
                      for name, outs in scn.instruments.items()}
        self.expected = [self._expect(task) for task in scn.tasks]

    def check_report(self, report: dict):
        if report.get("command") != "run" or len(report.get("tasks", ())) != len(self.scn.tasks):
            return "run report has the wrong shape"
        for k, (task, want, got) in enumerate(zip(self.scn.tasks, self.expected, report["tasks"])):
            if got.get("command") != task[0] or not _matches(task[0], want, got):
                return f"task {k} ({task[0]}) differs from the in-process library result"
        return None

    def _expect(self, task) -> dict:
        kind, ops = task[0], self.ops
        if kind == "check":
            return {"classification": _class_dict(ro.classify(ops[task[1]]))}
        if kind == "prob":
            if task[1] == "prior":
                return {"value": ro.p_prior(ops[task[2]], check=False)}
            fn = ro.p_pred if task[1] == "pred" else ro.p_retro
            return {"value": fn(ops[task[2]], ops[task[3]], check=False)}
        if kind == "bayes":
            members, cond, j = task[1:]
            a, b = ops[members[j]], ops[cond]
            # Bayes theorem: both formulas equal the direct conditional probabilities.
            return {"retrodictive": ro.p_retro(a, b, check=False), "predictive": ro.p_pred(a, b, check=False)}
        if kind == "reverse":
            rev = ro.adjoint(ops[task[1]])
            return {"tensor": rev.mat, "classification": _class_dict(ro.classify(rev))}
        if kind == "state":
            if len(task) == 3:
                fn = ro.state_posterior if task[1] == "posterior" else ro.state_prior
                rho = fn(ops[task[2]], check=False).matrix
            else:
                rho = ro.state_of_instrument(self.insts[task[2]], task[3], task[1]).matrix
            return {"matrix": rho, "eigenvalues": np.linalg.eigvalsh(rho), "purity": float(np.trace(rho @ rho).real)}
        if kind == "kraus":
            return {"mat": ops[task[1]].mat, "dim": self.scn.dim}
        steps, cond, target = task[1:]
        insts = [self.insts[n] for n in steps]
        rep = ro.estimate(insts, cond, target, CLI_TRIALS, seed=CLI_SEED)
        p_cond = ro.exact_sequence_probability(insts, {cond[0]: cond[1]})
        bound = 5.0 * np.sqrt(rep.exact * (1.0 - rep.exact) / (CLI_TRIALS * p_cond))
        return {"empirical": rep.empirical, "exact": rep.exact, "bound": bound}


def _class_dict(cls) -> dict:
    return {k: getattr(cls, k) for k in _CLASS_FIELDS}


def _matches(kind: str, want: dict, got: dict) -> bool:
    if kind == "check":
        return got["classification"] == want["classification"]
    if kind == "prob":
        return abs(got["value"] - want["value"]) <= TOL
    if kind == "bayes":
        return (abs(got["retrodictive"]["value"] - want["retrodictive"]) <= TOL
                and abs(got["predictive"]["value"] - want["predictive"]) <= TOL
                and max(got["residuals"].values()) <= TOL)
    if kind == "reverse":
        return (close(_from_cmatrix(got["tensor"]), want["tensor"])
                and got["classification"] == want["classification"]
                and max(got["residuals"].values()) <= TOL)
    if kind == "state":
        return (close(_from_cmatrix(got["matrix"]), want["matrix"])
                and close(got["eigenvalues"], want["eigenvalues"])
                and abs(got["purity"] - want["purity"]) <= TOL)
    if kind == "kraus":
        rebuilt = ro.from_kraus([_from_cmatrix(m) for m in got["kraus"]], dim=want["dim"])
        return close(rebuilt.mat, want["mat"]) and got["residuals"]["reconstruction"] <= TOL
    rep = got["report"]
    return (rep["trials"] == CLI_TRIALS and rep["empirical"] == want["empirical"]
            and abs(rep["exact"] - want["exact"]) <= TOL
            and abs(rep["empirical"] - want["exact"]) <= want["bound"])


class CliScenarioWorkload(Workload):
    """``retroops.cli.main(["--scenario", <generated>, "--json", "run"])`` per unit.

    The CLI runs inside the worker, not in a fresh interpreter per unit.  On a
    shared 2-vCPU VM, one subprocess per unit spread 15-30 % between runs of
    the same seed, scaled to host speed or not, which no bound of at most
    25 % can hold.  What a fresh process pays before ``main`` (interpreter,
    numpy and package import) is measured by ``setup_s`` and the ``import.*``
    metrics instead.  Process-wide state lives on from unit to unit, so a
    unit can cost less than the same scenario in a fresh process.
    """

    name = "cli-scenario"

    def __init__(self, seed: int, out_dir: str):
        from retroops import cli

        self.cli = cli
        self.seed = seed
        self.out_dir = out_dir
        self.pool = []

    def prepare(self) -> None:
        # Scenario files and the oracle's expectations are the benchmark's own
        # work, so they are made after set-up and before the first timed unit.
        for slot in range(CLI_POOL_ROUNDS):
            units = []
            for i, d in enumerate(CLI_ROUND):
                scn = generate_scenario(_rng(self.seed, 4, slot, i), d)
                path = os.path.join(self.out_dir, f"scenario-{slot}-{i}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(scn.doc, fh)
                units.append((path, CliOracle(scn)))
            self.pool.append(units)

    def round(self, r: int) -> list:
        return [self._unit(path, oracle) for path, oracle in self.pool[r % CLI_POOL_ROUNDS]]

    def _unit(self, path: str, oracle: CliOracle) -> Unit:
        argv = ["--scenario", path, "--json", "run"]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            if code != 0:
                return f"exit code {code}: {text.strip()[-300:]}"
            return oracle.check_report(json.loads(text))

        return Unit(run, check)


WORKLOADS = {
    "cli-scenario": CliScenarioWorkload,
    "validate-fresh": ValidateFresh,
    "query-pool": QueryPool,
    "sample-deep": SampleDeep,
}
