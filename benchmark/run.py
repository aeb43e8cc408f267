"""Benchmark for retroops: one workload per call, results as one JSON line.

Usage, from the root of a checkout::

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cli-scenario``, ``validate-fresh``, ``query-pool``,
``sample-deep`` (see ``workloads.py`` and ``BENCHMARK.json`` for why each
exists).  The package is imported from the checkout's ``src``; nothing is
installed.  Each workload is a closed loop with one caller, pinned to one
CPU, with BLAS capped at one thread.

The worker process is started :data:`SETUP_STARTS` times; ``setup_s`` is the
median time from process start to its ready signal.  The last start is
timed for ``--seconds`` and its units give the end-to-end metrics
(``--trace 0``).  With ``--trace 1`` the last start spends half its time
untraced and half with the package's module boundaries wrapped by
``tracer.py``, and the per-layer metrics come out instead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Exits 2 without a result when the checkout has no ``src/retroops``.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracer
from speed import probe, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("cli-scenario", "validate-fresh", "query-pool", "sample-deep")

SETUP_STARTS = 9
BLAS_THREADS = 1
#: Every run ends within this many seconds of its start, or is killed.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "matcore.eig.calls": "count",
    "matcore.eig.self_ms": "ms",
    "superop.classify.calls": "count",
    "superop.classify.self_ms": "ms",
    "superop.extract_kraus.self_ms": "ms",
    "superop.apply.calls": "count",
    "sim.estimate.self_ms": "ms",
    "sim.exact_sequence_probability.self_ms": "ms",
    "bayes.self_ms": "ms",
    "instrument.make_instrument.self_ms": "ms",
    "instrument.query.self_ms": "ms",
    "states.self_ms": "ms",
    "cli.parse_scenario.self_ms": "ms",
    "cli.command.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "import.numpy_ms": "ms",
    "import.retroops_self_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "error_ratio": "ratio",
    "host.probe_ms": "ms",
}


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Worker:
    """One worker process; ``setup_s`` is measured from spawn to its ready line."""

    def __init__(self, args, out_dir: str, env: dict, measure: bool, importtime: bool, index: int):
        self.result_path = os.path.join(out_dir, f"result-{index}.json") if measure else None
        self.stderr_path = os.path.join(out_dir, f"stderr-{index}.txt")
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), WORKER,
               "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
        if measure:
            cmd += ["--result", self.result_path]
        self.probe_before = probe()
        with open(self.stderr_path, "wb") as err:
            self.t0 = time.perf_counter()
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.PIPE, stderr=err)

    def wait_ready(self, deadline: float) -> float:
        """Set-up time at the reference speed; also sets ``speed_factor``."""
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("worker did not finish set-up in time")
            chunk = os.read(fd, 64)
            if not chunk:
                raise RuntimeError("worker exited during set-up:\n" + self.stderr())
            buf += chunk
        elapsed = time.perf_counter() - self.t0
        scaled = scale(elapsed, self.probe_before, probe())
        self.speed_factor = scaled / elapsed
        return scaled

    def finish(self, deadline: float):
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}:\n" + self.stderr())
        if self.result_path is None:
            return None
        with open(self.result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def stderr(self) -> str:
        with open(self.stderr_path, encoding="utf-8", errors="replace") as fh:
            return fh.read()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def throughput(phase: dict) -> float:
    return phase["work"] / sum(phase["latencies_s"])


def speed_factor(phase: dict) -> float:
    """Reference-speed time over measured time across a phase."""
    return sum(phase["latencies_s"]) / sum(phase["raw_s"])


def end_to_end(setup: list, res: dict) -> dict:
    plain = res["plain"]
    lat_ms = [1000.0 * x for x in plain["latencies_s"]]
    n = len(lat_ms)
    return {
        "setup_s": statistics.median(setup),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if n > 1 else lat_ms[0],
        "throughput_per_s": throughput(plain),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (n - plain["failed"]) / n,
    }


def per_layer(res: dict, import_logs: list) -> tuple:
    """Per-layer metrics; ``import_logs`` holds ``(-X importtime output, speed factor)`` pairs."""
    snap = res["trace"]
    traced = res["traced"]
    values = tracer.per_unit(snap, len(traced["latencies_s"]))
    factor = speed_factor(traced)
    for key in values:
        if key.endswith("_ms"):
            values[key] *= factor
    imports = [{k: v * f for k, v in tracer.import_times(text).items()} for text, f in import_logs]
    for key in ("import.numpy_ms", "import.retroops_self_ms"):
        values[key] = statistics.median(x[key] for x in imports) if imports else 0.0
    values["trace.overhead_ratio"] = throughput(traced) / throughput(res["plain"])
    values["host.probe_ms"] = 1000.0 * statistics.median(res["plain"]["probe_s"])
    attempted = sum(len(res[p]["latencies_s"]) for p in ("plain", "traced"))
    values["error_ratio"] = sum(res[p]["failed"] for p in ("plain", "traced")) / attempted
    return values, snap["absent"]


def measure(args, out_dir: str) -> dict:
    env = worker_env()
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    import_logs = []
    for i in range(SETUP_STARTS):
        last = i == SETUP_STARTS - 1
        w = Worker(args, out_dir, env, measure=last, importtime=bool(args.trace) and not last, index=i)
        try:
            setup.append(w.wait_ready(deadline))
            res = w.finish(deadline)
        finally:
            w.stop()
        if args.trace and not last:
            import_logs.append((w.stderr(), w.speed_factor))
    phases = ("plain", "traced") if args.trace else ("plain",)
    attempted = sum(len(res[p]["latencies_s"]) for p in phases)
    failed = sum(res[p]["failed"] for p in phases)
    for p in phases:
        for why in res[p]["reasons"]:
            print(f"FAILED ({p}): {why}", file=sys.stderr)
    if args.trace:
        metrics, absent = per_layer(res, import_logs)
        units = PER_LAYER
    else:
        metrics, absent = end_to_end(setup, res), []
        units = END_TO_END
    n = len(res["plain"]["latencies_s"])
    print(f"# {args.workload} seed={args.seed}: {attempted} units ({n} untraced latency samples), "
          f"{failed} failed, BLAS threads {BLAS_THREADS}, absent spans: {', '.join(absent) or 'none'}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "retroops", "__init__.py")):
        print(f"no retroops sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and everything it starts, so the speed probe
        # runs where the measured work runs, and set-up is timed on that CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    runs_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(runs_dir, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        result = measure(args, out_dir)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
