"""Benchmark worker: set up one workload, report ready, run the timed phases.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
writes ``ready`` to stdout once set-up is done (imports plus any inputs and
validation the workload builds before timing), then runs whole rounds of
units until each phase's time is used, and writes its results as JSON to
``--result``.  Only the call into the program is timed; input generation and
the oracle checks are not.
"""

import argparse
import json
import resource
import sys
import time
import traceback

from speed import probe, scale
from tracer import Tracer
from workloads import WORKLOADS


def run_phase(wl, tracer, r: int, seconds: float, traced: bool):
    """Run whole rounds from round ``r`` on for about ``seconds``.

    A round is started only if half of it, judged by the previous one, fits
    in the time left, so a phase ends within half a round of ``seconds``.
    Each unit is timed alone, between two speed probes; see ``speed.py``.
    """
    clock = time.perf_counter
    raw, scaled, probes, work, failures = [], [], [], 0, []
    start = clock()
    last_round = 0.0
    while clock() - start + last_round / 2 < seconds:
        round_start = clock()
        for unit in wl.round(r):
            before = probe()
            tracer.active = traced
            t0 = clock()
            try:
                out = unit.run()
                err = None
            except Exception:  # an unexpected error is a failed unit, not a crashed run
                err = traceback.format_exc(limit=3)
            elapsed = clock() - t0
            tracer.active = False
            after = probe()
            raw.append(elapsed)
            scaled.append(scale(elapsed, before, after))
            probes += (before, after)
            work += unit.work
            if err is None:
                try:
                    err = unit.check(out)
                except Exception:
                    err = "check raised: " + traceback.format_exc(limit=3)
            if err:
                failures.append(err)
        r += 1
        last_round = clock() - round_start
    return r, {
        "latencies_s": scaled,
        "raw_s": raw,
        "probe_s": probes,
        "work": work,
        "failed": len(failures),
        "reasons": failures[:5],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", default=None, help="where to write results; omit to stop after set-up")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.out_dir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.result is None:
        return 0
    wl.prepare()

    tracer = Tracer()
    if args.trace:
        # Half the time untraced, half traced: the ratio of the two is the overhead.
        tracer.install()
        phases = (("plain", args.seconds / 2, False), ("traced", args.seconds / 2, True))
    else:
        phases = (("plain", args.seconds, False),)
    result = {}
    r = 0
    for name, seconds, traced in phases:
        r, result[name] = run_phase(wl, tracer, r, seconds, traced)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        result["trace"] = tracer.snapshot()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
