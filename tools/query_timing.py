"""Paired timing of the read path: this checkout's queries against another tree's.

The read-path twin of ``tools/sampler_timing.py``, whose ``load`` and
instruments it uses: it loads ``src/retroops`` of this checkout and
``OTHER_TREE/src/retroops`` under two package names in one process and
builds the same instruments in each.  A unit is one fresh set of
instruments per tree, validated and with the summed events classified
before any timing.  On it, each query family runs twice, a cold pass on
the fresh maps and then a warm pass repeating the same queries, alternating
which tree goes first from unit to unit:

* ``pred/retro``: ``p_pred`` and ``p_retro`` of every member of a
  ``K``-outcome unsharp instrument given every component of a projective one;
* ``bayes``: ``bayes_retrodict`` and ``bayes_predict`` for every index of
  another unsharp instrument's members, given every component of another
  projective instrument;
* ``cond``: ``p_cond_pred`` and ``p_cond_retro`` over four pairs of events
  of a third pair of instruments.

Every value of every pass must be equal to the bit across the two trees.
Prints, per (dim, K, family, pass), the median seconds per pass of each
tree, their ratio (this checkout over the other) and the share of units
this checkout won; then ``nproc`` and the numpy version.  BLAS runs on one
thread, as in the benchmark, unless the environment sets the thread count.

Run from the repository root:

    python3 tools/query_timing.py OTHER_TREE [--rounds N]

``--rounds`` is the number of units per dimension (default 15); a copy of
the parent commit made with ``git archive`` is a suitable ``OTHER_TREE``.
"""

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

from sampler_timing import ROOT, load, steps_of

import numpy as np  # after sampler_timing, which fixes the BLAS threads first

#: (dim, outcomes of each unsharp instrument) of each grid point.
GRID = ((3, 3), (4, 8), (8, 4))
FAMILIES = ("pred/retro", "bayes", "cond")


def events(outcomes) -> list:
    """Two events of an instrument, each of at least one outcome."""
    return [list(outcomes[::2]), list(outcomes[1:])]


def queries(ro, d: int, k: int, seed: int) -> dict:
    """The three query families of one unit, as functions of no argument
    that return a list of floats, over fresh instruments of package ``ro``."""
    p0, u1, p2, u3, p4, u5 = steps_of(ro, d, k, 6, seed)
    members, conds = [u1.op(x) for x in u1.outcomes], [p0.op(x) for x in p0.outcomes]
    resolution = [u3.op(x) for x in u3.outcomes]
    pairs = [(ev_a, ev_b) for ev_a in events(u5.outcomes) for ev_b in events(p4.outcomes)]
    for ev_a, ev_b in pairs:
        ro.classify(ro.summed(u5, ev_a))
        ro.classify(ro.summed(p4, ev_b))
    return {
        "pred/retro": lambda: [f(a, b) for a in members for b in conds for f in (ro.p_pred, ro.p_retro)],
        "bayes": lambda: [
            f(resolution, p2.op(x), j)
            for x in p2.outcomes
            for j in range(len(resolution))
            for f in (ro.bayes_retrodict, ro.bayes_predict)
        ],
        "cond": lambda: [f(u5, p4, ev_a, ev_b) for ev_a, ev_b in pairs for f in (ro.p_cond_pred, ro.p_cond_retro)],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_tree", type=Path)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    trees = (load(ROOT, "retroops_this"), load(args.other_tree.resolve(), "retroops_other"))
    print(f"{'dim':>3} {'K':>2} {'family':>10} {'pass':>4} {'this_s':>10} {'other_s':>10} {'ratio':>6} {'wins':>5}")
    for point, (d, k) in enumerate(GRID):
        times = {(family, run): ([], []) for family in FAMILIES for run in ("cold", "warm")}
        for unit in range(args.rounds):
            seed = 1_000 * point + unit
            units = [queries(ro, d, k, seed) for ro in trees]
            for (family, run), sides in times.items():
                values = [None, None]
                for side in ((0, 1) if unit % 2 == 0 else (1, 0)):
                    start = time.perf_counter()
                    values[side] = units[side][family]()
                    sides[side].append(time.perf_counter() - start)
                if repr(values[0]) != repr(values[1]):
                    raise SystemExit(f"{family} values differ at dim {d}, seed {seed}, {run} pass: {values}")
        for (family, run), (this_t, other_t) in times.items():
            this, other = statistics.median(this_t), statistics.median(other_t)
            wins = sum(a < b for a, b in zip(this_t, other_t)) / args.rounds
            print(f"{d:3d} {k:2d} {family:>10} {run:>4} {this:10.6f} {other:10.6f} {this / other:6.3f} {wins:5.2f}")
    print(f"nproc {len(os.sched_getaffinity(0))}, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
