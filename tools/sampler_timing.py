"""Paired timing of the sampler: this checkout's ``estimate`` against another tree's.

Loads ``src/retroops`` of this checkout and ``OTHER_TREE/src/retroops``
under two package names in one process, builds the same instruments in
each, and calls ``estimate`` on a fixed grid unit by unit, alternating which
tree goes first, so drift in the host's speed falls on both sides alike.
Every unit's two ``FreqReport``s must have the same fields, to the bit
and the type (or both calls raise the same error).  Prints, per grid
point, the median seconds per call of each tree, their ratio (this
checkout over the other), and the share of units this checkout won; then
``nproc`` and the numpy version.  BLAS runs on one thread, as in the
benchmark, unless the environment sets the thread count.

Run from the repository root:

    python3 tools/sampler_timing.py OTHER_TREE [--rounds N] [--scale F]

``--rounds`` is the number of units per grid point (default 15) and
``--scale`` multiplies every trial count (default 1); a copy of the
parent commit made with ``git archive`` is a suitable ``OTHER_TREE``.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
from dataclasses import astuple
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: (dim, outcomes per unsharp step, trials, steps) of each grid point.
GRID = ((2, 2, 1_000, 16), (2, 2, 100_000, 2), (3, 3, 100_000, 2), (8, 3, 20_000, 6))


def load(tree: Path, name: str):
    """The package under ``tree/src/retroops``, imported as ``name``."""
    pkg = tree / "src" / "retroops"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def unitary(gen, d: int) -> np.ndarray:
    q, r = np.linalg.qr(gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def steps_of(ro, d: int, k: int, steps: int, seed: int) -> list:
    """``steps`` instruments of package ``ro``, alternating a projective
    measurement in a random basis and a ``k``-outcome unsharp one; the same
    matrices for every package, drawn from ``seed``."""
    gen = np.random.default_rng(seed)
    insts = []
    for s in range(steps):
        u = unitary(gen, d)
        if s % 2 == 0:
            ops = {str(j): ro.projecting(np.outer(u[:, j], u[:, j].conj())) for j in range(d)}
        else:
            weights = gen.dirichlet(np.ones(k), size=d).T
            ops = {str(j): ro.from_kraus([(u * np.sqrt(w)) @ u.conj().T]) for j, w in enumerate(weights)}
        insts.append(ro.make_instrument(ops, name=f"I{s}"))
    return insts


def call(ro, insts, trials: int, seed: int) -> tuple:
    """The fields of ``estimate``'s report for the condition "outcome 0 at the
    last step" and the target "outcome 0 at the first", or the error's type
    name and message."""
    try:
        return astuple(ro.estimate(insts, (len(insts) - 1, "0"), (0, "0"), trials, seed=seed))
    except ro.RetroOpsError as e:
        return type(e).__name__, str(e)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    trees = (load(ROOT, "retroops_this"), load(args.other_tree.resolve(), "retroops_other"))
    print(f"{'dim':>3} {'K':>2} {'trials':>7} {'steps':>5} {'this_s':>10} {'other_s':>10} {'ratio':>6} {'wins':>5}")
    for point, (d, k, trials, steps) in enumerate(GRID):
        trials = max(1, round(trials * args.scale))
        insts = [steps_of(ro, d, k, steps, point) for ro in trees]
        times = ([], [])
        for unit in range(args.rounds):
            seed = 1_000 * point + unit
            reports = [None, None]
            for side in ((0, 1) if unit % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                reports[side] = call(trees[side], insts[side], trials, seed)
                times[side].append(time.perf_counter() - start)
            if repr(reports[0]) != repr(reports[1]):
                raise SystemExit(f"reports differ at dim {d}, seed {seed}: {reports}")
        this, other = (statistics.median(t) for t in times)
        wins = sum(a < b for a, b in zip(*times)) / args.rounds
        print(f"{d:3d} {k:2d} {trials:7d} {steps:5d} {this:10.6f} {other:10.6f} {this / other:6.3f} {wins:5.2f}")
    print(f"nproc {len(os.sched_getaffinity(0))}, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
