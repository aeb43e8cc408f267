"""The golden CLI reports: one list of commands and one byte-for-byte check.

Each case names a file in ``tests/golden``, the exit code its command must
end with and the command's arguments.  A case passes when the command ends
with that code and writes exactly the file's bytes to standard output, so a
signed zero or a changed float format fails as surely as a changed value.
Every file in ``tests/golden`` must have a case.

Run from the repository root with the command that starts the CLI:

    PYTHONPATH=src python3 tools/goldens.py          # python3 -m retroops
    python3 tools/goldens.py retroops                # an installed script

Prints one line per mismatch and exits 1 if there is any.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
QUBIT = "tests/fixtures/qubit.json"
OFFSUM = "tests/fixtures/offsum.json"
TYPO = "tests/fixtures/typo.json"

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
]


def mismatch(command: list, name: str, code: int, args: list) -> str | None:
    """What is wrong with one case run by ``command``, or ``None``."""
    proc = subprocess.run([*command, *args], capture_output=True, cwd=ROOT)
    if proc.returncode != code:
        return f"{name}: exit code {proc.returncode}, expected {code}: {proc.stderr.decode()[-500:]}"
    if proc.stdout != (GOLDEN / name).read_bytes():
        return f"{name}: output differs from the golden file"
    return None


def mismatches(command: list) -> list:
    """Every case's mismatch, and a golden file that has no case."""
    found = [m for name, code, args in CASES if (m := mismatch(command, name, code, args))]
    names = {name for name, _, _ in CASES}
    return found + [f"{p.name}: no case" for p in sorted(GOLDEN.iterdir()) if p.name not in names]


def main(command: list) -> None:
    found = mismatches(command or [sys.executable, "-m", "retroops"])
    for line in found:
        print(line)
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
