"""Paired timing of every layer: this checkout's calls against another tree's.

Loads ``src/retroops`` of this checkout and ``OTHER_TREE/src/retroops``
under two package names in one process, and counts each tree's eigensolves
by wrapping ``matcore.hermitian_eig`` in every module that binds it.  Four
suites run in turn, each over its own grid of points.  A unit is one seed at
one point: each tree runs the unit's calls, each timed on its own, and the
trees alternate which goes first from unit to unit, so drift in the host's
speed falls on both sides alike.

* ``sample``: ``estimate`` of "outcome 0 at the first step" given "outcome
  0 at the last" over instruments that alternate a projective measurement
  in a random basis and a ``K``-outcome unsharp one, built once per point.
  ``estimate`` samples each run of unread steps as one block, which keeps
  the law of its report but not the realisation for a seed, so the two
  reports must agree as follows, or both calls raise the same error: the
  ``trials`` and ``exact`` fields equal to the bit, each tree's
  ``empirical`` within ``5 * std_err`` of its ``exact`` (the benchmark's
  rule), and the whole report equal to the bit and the type only at points
  that read every step (two steps).
* ``query``: on fresh instruments per unit, validated and with the summed
  events classified untimed, a cold pass on the fresh maps and then a warm
  pass repeating the same queries, per family: ``pred/retro`` (``p_pred``
  and ``p_retro`` of every member of an unsharp instrument given every
  component of a projective one), ``bayes`` (``bayes_retrodict`` and
  ``bayes_predict`` for every index of another unsharp instrument's
  members, given every component of another projective one) and ``cond``
  (``p_cond_pred`` and ``p_cond_retro`` over four pairs of events).  Every
  value must be equal to the bit.
* ``write``: a fresh Kraus family scaled to an operation, as in the
  benchmark's ``validate-fresh`` workload; ``from_kraus``, ``classify`` and
  ``extract_kraus`` on the map, and ``classify_copy``: ``classify`` on a
  ``from_tensor`` copy of its matrix (built untimed), which has no Kraus
  form, so the Gram-certified and the spectral CP check are timed side by
  side.  The records of the map and of its copy must be equal in both
  trees, the Kraus counts equal, and each tree's factor must rebuild its
  map within ``1e-12 * max(1, max |a|)`` entrywise; the Kraus matrices may
  round apart.
* ``layer``: at d = 2...8, ``hermitian_eig`` of a random Hermitian matrix at
  ``n = d**2``, ``make_instrument`` on a fresh 3-outcome unsharp family
  (built untimed) and ``parse_scenario`` of ``tests/fixtures/qubit.json``.
  The eigenvalues, the components' ``classify`` records and every parsed
  operation's matrix must be equal to the bit.

A disagreement exits non-zero and names the suite, the point and the unit.
Prints, per (suite, point, call), the median seconds per call of each tree,
their ratio (this checkout over the other), the share of units this
checkout won, the other tree's interquartile range over its median (the
row's noise floor) and each tree's eigensolves per call; then ``nproc`` and
the numpy version.  ``--json OUT`` also writes every row, with each side's
quartiles, to ``OUT``.  BLAS runs on one thread, as in the benchmark, unless
the environment sets the thread count.

Run from the repository root:

    python3 tools/pair_timing.py OTHER_TREE [--rounds N] [--json OUT]

``--rounds`` is the number of units per grid point (default 15, at least
2); a copy of the parent commit made with ``git archive`` is a suitable
``OTHER_TREE``, and ``.`` gives an A/A run.
"""

import argparse
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import astuple
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class Disagreement(Exception):
    """What one tree's results of a unit get wrong on their own."""


def load(tree: Path, name: str):
    """The package under ``tree/src/retroops``, imported as ``name``."""
    pkg = tree / "src" / "retroops"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def count_eigensolves(ro) -> list:
    """A one-entry list counting ``hermitian_eig`` calls of package ``ro``,
    wrapped in each of its modules that binds it."""
    count = [0]
    real = ro.matcore.hermitian_eig

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == ro.__name__ and getattr(mod, "hermitian_eig", None) is real:
            mod.hermitian_eig = counted
    return count


def random_unitary(gen, d: int) -> np.ndarray:
    """A Haar-random ``d x d`` unitary drawn from ``gen``."""
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def unsharp_family(ro, gen, u: np.ndarray, k: int) -> dict:
    """``k`` maps of package ``ro``, diagonal in the basis ``u`` with
    Dirichlet weights drawn from ``gen``, that sum to a channel."""
    weights = gen.dirichlet(np.ones(k), size=len(u)).T
    return {str(j): ro.from_kraus([(u * np.sqrt(w)) @ u.conj().T]) for j, w in enumerate(weights)}


def steps_of(ro, d: int, k: int, steps: int, seed: int) -> list:
    """``steps`` instruments of package ``ro``, alternating a projective
    measurement in a random basis and a ``k``-outcome unsharp one; the same
    matrices for every package, drawn from ``seed``."""
    gen = np.random.default_rng(seed)
    insts = []
    for s in range(steps):
        u = random_unitary(gen, d)
        if s % 2 == 0:
            ops = {str(j): ro.projecting(np.outer(u[:, j], u[:, j].conj())) for j in range(d)}
        else:
            ops = unsharp_family(ro, gen, u, k)
        insts.append(ro.make_instrument(ops, name=f"I{s}"))
    return insts


def sample(ro, point: int, d: int, k: int, trials: int, steps: int):
    """The ``sample`` suite's unit at one point, over instruments built now."""
    insts = steps_of(ro, d, k, steps, point)

    def estimate(seed):
        try:
            rep = ro.estimate(insts, (steps - 1, "0"), (0, "0"), trials, seed=seed)
        except ro.RetroOpsError as e:
            return type(e).__name__, str(e)
        if abs(rep.empirical - rep.exact) > 5 * rep.std_err:
            raise Disagreement(f"empirical {rep.empirical} is more than 5 std_err from exact {rep.exact}")
        return astuple(rep) if steps <= 2 else (rep.trials, rep.exact)

    return lambda timed, seed: {"estimate": timed("estimate", estimate, seed)}


def events(outcomes) -> list:
    """Two events of an instrument, each of at least one outcome."""
    return [list(outcomes[::2]), list(outcomes[1:])]


def query(ro, point: int, d: int, k: int):
    """The ``query`` suite's unit at one point, over instruments built per unit."""

    def unit(timed, seed):
        p0, u1, p2, u3, p4, u5 = steps_of(ro, d, k, 6, seed)
        members, conds = [u1.op(x) for x in u1.outcomes], [p0.op(x) for x in p0.outcomes]
        resolution = [u3.op(x) for x in u3.outcomes]
        pairs = [(ev_a, ev_b) for ev_a in events(u5.outcomes) for ev_b in events(p4.outcomes)]
        for ev_a, ev_b in pairs:
            ro.classify(ro.summed(u5, ev_a))
            ro.classify(ro.summed(p4, ev_b))
        families = {
            "pred/retro": lambda: [f(a, b) for a in members for b in conds for f in (ro.p_pred, ro.p_retro)],
            "bayes": lambda: [
                f(resolution, p2.op(x), j)
                for x in p2.outcomes
                for j in range(len(resolution))
                for f in (ro.bayes_retrodict, ro.bayes_predict)
            ],
            "cond": lambda: [f(u5, p4, a, b) for a, b in pairs for f in (ro.p_cond_pred, ro.p_cond_retro)],
        }
        return {f"{fam} {run}": timed(f"{fam} {run}", f) for fam, f in families.items() for run in ("cold", "warm")}

    return unit


def write(ro, point: int, d: int, rank: int):
    """The ``write`` suite's unit at one point, on a fresh map per unit."""

    def unit(timed, seed):
        gen = np.random.default_rng(seed)
        ks = gen.standard_normal((rank, d, d)) + 1j * gen.standard_normal((rank, d, d))
        s_in = np.einsum("kji,kjl->il", ks.conj(), ks)
        s_out = np.einsum("kij,klj->il", ks, ks.conj())
        ks = list(ks * np.sqrt(0.9 / max(np.linalg.eigvalsh(s_in)[-1], np.linalg.eigvalsh(s_out)[-1])))
        a = timed("from_kraus", ro.from_kraus, ks)
        record = astuple(timed("classify", ro.classify, a))
        kraus = timed("extract_kraus", ro.extract_kraus, a)
        copy = ro.from_tensor(a.mat)
        copy_record = astuple(timed("classify_copy", ro.classify, copy))
        if copy_record != record:
            raise Disagreement(f"classify records of the map and its copy differ: {record}, {copy_record}")
        if np.abs(ro.from_kraus(kraus.ops, dim=d).mat - a.mat).max() > 1e-12 * max(1.0, np.abs(a.mat).max()):
            raise Disagreement("a Kraus factor does not rebuild its map within 1e-12")
        return {"classify": record, "Kraus count": len(kraus)}

    return unit


def layer(ro, point: int, d: int):
    """The ``layer`` suite's unit at one point: one call of each layer the
    other suites do not time on its own, on inputs drawn per unit."""
    parse_scenario = importlib.import_module(f"{ro.__name__}.cli").parse_scenario
    text = (ROOT / "tests" / "fixtures" / "qubit.json").read_text()

    def unit(timed, seed):
        gen = np.random.default_rng(seed)
        g = gen.normal(size=(d * d, d * d)) + 1j * gen.normal(size=(d * d, d * d))
        spectrum = timed("hermitian_eig", ro.hermitian_eig, g + g.conj().T)
        family = unsharp_family(ro, gen, random_unitary(gen, d), 3)
        inst = timed("make_instrument", ro.make_instrument, family)
        scn = timed("parse_scenario", parse_scenario, text)
        return {
            "hermitian_eig": spectrum.tolist(),
            "make_instrument": [astuple(ro.classify(inst.op(x))) for x in inst.outcomes],
            "parse_scenario": {name: op.mat.tolist() for name, op in scn.operations.items()},
        }

    return unit


#: Each suite's unit builder, the names of its point's parameters and its grid.
SUITES = {
    "sample": (sample, ("dim", "K", "trials", "steps"),
               ((2, 2, 1_000, 16), (2, 2, 100_000, 2), (3, 3, 100_000, 2), (8, 3, 20_000, 6))),
    "query": (query, ("dim", "K"), ((3, 3), (4, 8), (8, 4))),
    "write": (write, ("dim", "rank"),
              tuple((d, r) for d in range(2, 9) for r in sorted({1, d, d * d})) + ((12, 144), (16, 256))),
    "layer": (layer, ("dim",), tuple((d,) for d in range(2, 9))),
}


def timer(count: list, times: dict, solves: dict, side: int):
    """``timed(call, f, *args)``: ``f(*args)``, its seconds and eigensolves
    kept under ``call`` for ``side``."""

    def timed(call, f, *args):
        before, start = count[0], time.perf_counter()
        value = f(*args)
        times.setdefault(call, ([], []))[side].append(time.perf_counter() - start)
        solves.setdefault(call, (set(), set()))[side].add(count[0] - before)
        return value

    return timed


def run_suite(suite: str, trees, counts, rounds: int) -> list:
    """Time ``suite`` over its grid, print a line per row and return the rows."""
    build, names, grid = SUITES[suite]
    rows = []
    for index, params in enumerate(grid):
        point = dict(zip(names, params))
        label = " ".join(f"{k}={v}" for k, v in point.items())
        units = [build(ro, index, *params) for ro in trees]
        times, solves = {}, {}
        for n in range(rounds):
            outs = [None, None]
            for side in ((0, 1) if n % 2 == 0 else (1, 0)):
                try:
                    outs[side] = units[side](timer(counts[side], times, solves, side), 1_000 * index + n)
                except Disagreement as e:
                    raise SystemExit(f"{suite} {label} unit {n}, {('this', 'other')[side]} tree: {e}")
            for key, value in outs[0].items():
                if repr(value) != repr(outs[1][key]):
                    raise SystemExit(f"{suite} {label} unit {n}: {key} differs: {value!r} != {outs[1][key]!r}")
        for call, (this_t, other_t) in times.items():
            this, other = statistics.median(this_t), statistics.median(other_t)
            quartiles = [statistics.quantiles(t, n=4) for t in (this_t, other_t)]
            wins = sum(a < b for a, b in zip(this_t, other_t)) / rounds
            eig = [sorted(side) for side in solves[call]]
            iqr = (quartiles[1][2] - quartiles[1][0]) / other
            print(f"{suite:6} {label:31} {call:15} {this:10.6f} {other:10.6f} {this / other:6.3f} {wins:5.2f} "
                  f"{iqr:5.2f} {','.join(map(str, eig[0]))}/{','.join(map(str, eig[1]))}")
            rows.append({
                "suite": suite, "point": point, "call": call,
                "this_s": this, "other_s": other, "ratio": this / other, "wins": wins,
                "this_quartiles_s": quartiles[0], "other_quartiles_s": quartiles[1],
                "eigensolves_per_call": {"this": eig[0], "other": eig[1]},
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    trees = (load(ROOT, "retroops_this"), load(args.other_tree.resolve(), "retroops_other"))
    counts = [count_eigensolves(ro) for ro in trees]
    print(f"{'suite':6} {'point':31} {'call':15} {'this_s':>10} {'other_s':>10} {'ratio':>6} {'wins':>5} "
          f"{'iqr':>5} eig")
    rows = [row for suite in SUITES for row in run_suite(suite, trees, counts, args.rounds)]
    nproc = len(os.sched_getaffinity(0))
    print(f"nproc {nproc}, numpy {np.__version__}")
    if args.json:
        record = {"tool": "tools/pair_timing.py", "ratio": "this checkout's median over OTHER_TREE's",
                  "rounds": args.rounds, "nproc": nproc, "numpy": np.__version__,
                  "python": platform.python_version(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
                  "rows": rows}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
