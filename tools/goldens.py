"""The golden CLI reports: one list of commands and one byte-for-byte check.

Each case names a file in ``tests/golden``, the exit code its command must
end with and the command's arguments.  A case passes when the command ends
with that code and writes exactly the file's bytes to standard output, so a
signed zero or a changed float format fails as surely as a changed value.
Every file in ``tests/golden`` must have a case.

Run from the repository root with the command that starts the CLI:

    PYTHONPATH=src python3 tools/goldens.py          # python3 -m retroops
    python3 tools/goldens.py retroops                # an installed script

Prints one line per mismatch, in case order, and exits 1 if there is any.
The cases run as subprocesses, at most one per CPU this process may use at
a time.  The tests also run each case in their own process, through
:func:`mismatch_in_process`.
"""

import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
QUBIT = "tests/fixtures/qubit.json"
OFFSUM = "tests/fixtures/offsum.json"
TYPO = "tests/fixtures/typo.json"
TASK_EXTRA = "tests/fixtures/task_extra.json"

#: (golden file, exit code, arguments); paths are relative to the repository root.
CASES = [
    ("check_pz_human.txt", 0, ["--scenario", QUBIT, "check", "pz+"]),
    ("check_damp.json", 0, ["--scenario", QUBIT, "--json", "check", "damp"]),
    ("prob_pred.json", 0, ["--scenario", QUBIT, "--json", "prob", "--pred", "px+", "pz+"]),
    ("kraus_deph.json", 0, ["--scenario", QUBIT, "--json", "kraus", "deph"]),
    ("bayes_z_given_x.json", 0,
     ["--scenario", QUBIT, "--json", "bayes", "pz+", "pz-", "--condition", "px+", "--index", "0"]),
    ("state_prior_pz.json", 0, ["--scenario", QUBIT, "--json", "state", "pz+", "--prior"]),
    ("reverse_py_vs_px.json", 0, ["--scenario", QUBIT, "--json", "reverse", "py+", "px+"]),
    ("run_tasks.json", 0, ["--scenario", QUBIT, "--json", "run"]),
    ("simulate_zx.json", 0, ["--scenario", QUBIT, "--json", "--seed", "7", "--trials", "20000",
                             "simulate", "--steps", "Z", "X", "--condition", "1:+", "--target", "0:+"]),
    ("error_offsum.json", 3, ["--scenario", OFFSUM, "--json",
                              "simulate", "--steps", "Zoff", "--condition", "0:+", "--target", "0:+"]),
    ("reverse_px.json", 0, ["--scenario", QUBIT, "--json", "reverse", "px+"]),
    ("state_instrument_x.json", 0,
     ["--scenario", QUBIT, "--json", "state", "--instrument", "X", "--event", "+", "--posterior"]),
    ("prob_prior.json", 0, ["--scenario", QUBIT, "--json", "prob", "--prior", "pz+"]),
    ("bayes_human.txt", 0, ["--scenario", QUBIT, "bayes", "pz+", "pz-", "--condition", "px+", "--index", "0"]),
    ("error_unknown_key.json", 2, ["--scenario", TYPO, "--json", "check", "h"]),
    ("error_task_extra.json", 2, ["--scenario", TASK_EXTRA, "--json", "run"]),
]


def mismatch(command: list, name: str, code: int, args: list) -> str | None:
    """What is wrong with one case run by ``command``, or ``None``."""
    proc = subprocess.run([*command, *args], capture_output=True, cwd=ROOT)
    return _compare(name, code, proc.returncode, proc.stdout, proc.stderr.decode())


def mismatch_in_process(name: str, code: int, args: list) -> str | None:
    """:func:`mismatch` for one case run by ``retroops.cli.main`` in this
    process, from the repository root, with standard output and error
    captured; an exit through ``SystemExit`` counts as its code."""
    from retroops import cli

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            returncode = cli.main(args)
    except SystemExit as e:
        returncode = e.code
    finally:
        os.chdir(cwd)
    return _compare(name, code, returncode, out.getvalue().encode(), err.getvalue())


def _compare(name: str, code: int, returncode: int, stdout: bytes, stderr: str) -> str | None:
    if returncode != code:
        return f"{name}: exit code {returncode}, expected {code}: {stderr[-500:]}"
    if stdout != (GOLDEN / name).read_bytes():
        return f"{name}: output differs from the golden file"
    return None


def mismatches(command: list) -> list:
    """Every case's mismatch, in case order, and a golden file that has no
    case.  The cases run at most ``len(os.sched_getaffinity(0))`` at a time
    (``os.cpu_count()`` where the platform has no affinity call)."""
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ThreadPoolExecutor(workers) as pool:
        found = [m for m in pool.map(lambda case: mismatch(command, *case), CASES) if m]
    names = {name for name, _, _ in CASES}
    return found + [f"{p.name}: no case" for p in sorted(GOLDEN.iterdir()) if p.name not in names]


def main(command: list) -> None:
    found = mismatches(command or [sys.executable, "-m", "retroops"])
    for line in found:
        print(line)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
