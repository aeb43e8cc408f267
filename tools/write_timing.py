"""Paired timing of the write path: this checkout's map checks against another tree's.

The write-path twin of ``tools/query_timing.py``: it loads ``src/retroops``
of this checkout and ``OTHER_TREE/src/retroops`` under two package names in
one process, with ``load`` from ``tools/sampler_timing.py``.  A unit is one
fresh Kraus family per grid point, scaled to an operation as in the
benchmark's ``validate-fresh`` workload; each tree builds its map with
``from_kraus``, then runs ``classify`` and ``extract_kraus`` on it, and last
``classify`` on a ``from_tensor`` copy of the map's matrix (row
``classify_copy``; the copy is built untimed), each call timed on its own,
alternating which tree goes first from unit to unit.  The copy carries no
Kraus form, so its row times the spectral CP check beside the fresh map's.
The grid is Kraus rank 1, d and d^2 at d = 2...8, and full rank at d = 12
and 16.

The two trees must agree on every unit: equal ``classify`` records, on the
map and on its copy alike, equal Kraus counts, and each tree's factor
rebuilds its map through ``from_kraus`` within ``1e-12 * max(1, max |a|)``
entrywise.  The Kraus matrices themselves need not be equal to the bit,
because two factorisations may round apart.

Prints, per (dim, rank, call), the median seconds per call of each tree,
their ratio (this checkout over the other), the share of units this checkout
won, and each tree's eigensolves per call (counted by wrapping
``matcore.hermitian_eig`` in every module that binds it); then ``nproc`` and
the numpy version.  ``--json OUT`` also writes every row, with each side's
quartiles, to ``OUT``.  BLAS runs on one thread, as in the benchmark, unless
the environment sets the thread count.

Run from the repository root:

    python3 tools/write_timing.py OTHER_TREE [--rounds N] [--json OUT]

``--rounds`` is the number of units per grid point (default 15); a copy of
the parent commit made with ``git archive`` is a suitable ``OTHER_TREE``.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import astuple
from pathlib import Path

from sampler_timing import ROOT, load

import numpy as np  # after sampler_timing, which fixes the BLAS threads first

#: (dim, Kraus rank) of each grid point.
GRID = tuple((d, rank) for d in range(2, 9) for rank in sorted({1, d, d * d})) + ((12, 144), (16, 256))
#: The timed calls in order; ``classify_copy`` is ``classify`` on a
#: ``from_tensor`` copy of the fresh map.
CALLS = ("from_kraus", "classify", "extract_kraus", "classify_copy")


def family(d: int, rank: int, seed: int) -> np.ndarray:
    """``rank`` random ``d x d`` Kraus matrices scaled so that the larger of
    ``|sum K*K|`` and ``|sum KK*|`` is 0.9: an operation, not a trivial one."""
    gen = np.random.default_rng(seed)
    ks = gen.standard_normal((rank, d, d)) + 1j * gen.standard_normal((rank, d, d))
    s_in = np.einsum("kji,kjl->il", ks.conj(), ks)
    s_out = np.einsum("kij,klj->il", ks, ks.conj())
    return ks * np.sqrt(0.9 / max(np.linalg.eigvalsh(s_in)[-1], np.linalg.eigvalsh(s_out)[-1]))


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


def unit(ro, count: list, ks: np.ndarray) -> tuple:
    """Seconds and eigensolves of each call in :data:`CALLS` on one fresh map
    of package ``ro``, and the results: the map, its ``classify`` record, its
    Kraus factor and the ``classify`` record of its copy."""
    seconds, solves, out = [], [], []
    for call in CALLS:
        arg = list(ks) if call == "from_kraus" else out[0]
        if call == "classify_copy":
            arg = ro.from_tensor(arg.mat)
        before = count[0]
        start = time.perf_counter()
        out.append(getattr(ro, call.removesuffix("_copy"))(arg))
        seconds.append(time.perf_counter() - start)
        solves.append(count[0] - before)
    return seconds, solves, out


def disagreement(trees, outs, d: int) -> str:
    """Empty if the two trees' results of one unit agree, else what differs."""
    (_, cls0, ks0, copy0), (_, cls1, ks1, copy1) = outs
    if not astuple(cls0) == astuple(cls1) == astuple(copy0) == astuple(copy1):
        return f"classify records differ: {cls0}, {cls1}; copies {copy0}, {copy1}"
    if len(ks0) != len(ks1):
        return f"Kraus counts differ: {len(ks0)} != {len(ks1)}"
    for ro, (a, _, ks, _) in zip(trees, outs):
        rebuilt = ro.from_kraus(ks.ops, dim=d)
        if np.abs(rebuilt.mat - a.mat).max() > 1e-12 * max(1.0, np.abs(a.mat).max()):
            return "a Kraus factor does not rebuild its map within 1e-12"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--json", type=Path, help="also write the rows to this file")
    args = parser.parse_args(argv)
    trees = (load(ROOT, "retroops_this"), load(args.other_tree.resolve(), "retroops_other"))
    counts = [count_eigensolves(ro) for ro in trees]
    rows = []
    print(f"{'dim':>3} {'rank':>4} {'call':>13} {'this_s':>10} {'other_s':>10} {'ratio':>6} {'wins':>5} {'eig':>7}")
    for point, (d, rank) in enumerate(GRID):
        times = [[[], []] for _ in CALLS]
        solves = [[set(), set()] for _ in CALLS]
        for n in range(args.rounds):
            ks = family(d, rank, 1_000 * point + n)
            outs = [None, None]
            for side in ((0, 1) if n % 2 == 0 else (1, 0)):
                seconds, eigs, outs[side] = unit(trees[side], counts[side], ks)
                for i in range(len(CALLS)):
                    times[i][side].append(seconds[i])
                    solves[i][side].add(eigs[i])
            problem = disagreement(trees, outs, d)
            if problem:
                raise SystemExit(f"dim {d}, rank {rank}, unit {n}: {problem}")
        for call, (this_t, other_t), eig in zip(CALLS, times, solves):
            this, other = statistics.median(this_t), statistics.median(other_t)
            wins = sum(a < b for a, b in zip(this_t, other_t)) / args.rounds
            eig_per_call = ["/".join(map(str, sorted(side))) for side in eig]
            print(f"{d:3d} {rank:4d} {call:>13} {this:10.6f} {other:10.6f} {this / other:6.3f} {wins:5.2f} "
                  f"{eig_per_call[0]:>3}/{eig_per_call[1]:<3}")
            rows.append({
                "dim": d, "rank": rank, "call": call,
                "this_s": this, "other_s": other, "ratio": this / other, "wins": wins,
                "this_quartiles_s": statistics.quantiles(this_t, n=4),
                "other_quartiles_s": statistics.quantiles(other_t, n=4),
                "eigensolves_per_call": {"this": sorted(eig[0]), "other": sorted(eig[1])},
            })
    nproc = len(os.sched_getaffinity(0))
    print(f"nproc {nproc}, numpy {np.__version__}")
    if args.json:
        record = {
            "tool": "tools/write_timing.py",
            "ratio": "this checkout's median over OTHER_TREE's",
            "rounds": args.rounds,
            "nproc": nproc,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "rows": rows,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
