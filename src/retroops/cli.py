"""Scenario files, command dispatch, and machine-readable reports.

A scenario is a JSON document::

    {
      "dim": 2,
      "definitions": {
        "Pz+":  {"matrix": [[[1,0],[0,0]],[[0,0],[0,0]]]},
        "pz+":  {"builder": "projector", "of": "Pz+"},
        "id":   {"builder": "unit"},
        "deph": {"builder": "sum", "of": ["pz+", "pz-"]},
        "damp": {"kraus": [ ...matrices... ]},
        "raw":  {"tensor": ...},
        "Z":    {"outcomes": {"+": "pz+", "-": "pz-"}}
      },
      "tasks": [{"command": "prob", "args": ["--pred", "px+", "pz+"]}]
    }

Complex scalars are two-element ``[re, im]`` arrays (bare numbers are taken
as real) and must be finite; matrices are row-major nested arrays.
Definitions may reference earlier names only.

Exit codes: 0 success, 2 parse/validation failure, 3 numerical invariant
violation.  ``--json`` switches output from the human-readable rendering to
the raw JSON report; both embed the tolerance in use and the residuals of
any identity the command checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bayes, instrument as instr_mod, sim, states, superop
from .errors import (
    InvariantViolation,
    ParseError,
    RetroOpsError,
    ValidationError,
)
from .matcore import DEFAULT_TOL, hermitian_eig
from .superop import Superoperator

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

TOL_ENV_VAR = "RETRO_OP_TOL"

BUILDERS = ("unit", "zero", "projector", "unitary", "sum")


# ----------------------------------------------------------------------------
# JSON <-> numeric conversions
# ----------------------------------------------------------------------------

def _is_finite(x) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _parse_scalar(x, where: str) -> complex:
    if _is_finite(x):
        return complex(x)
    if isinstance(x, list) and len(x) == 2 and all(_is_finite(v) for v in x):
        return complex(x[0], x[1])
    raise ValidationError(f"{where}: expected a finite number or [re, im] pair, got {x!r}")


def _parse_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError(f"{where}: expected a nested array of rows")
    parsed = [[_parse_scalar(x, where) for x in row] for row in rows]
    widths = {len(r) for r in parsed}
    if len(widths) != 1 or widths.pop() != len(parsed):
        raise ValidationError(f"{where}: matrix must be square")
    return np.array(parsed, dtype=complex)


def serialize_scalar(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def serialize_matrix(m: np.ndarray) -> list:
    return [[serialize_scalar(x) for x in row] for row in np.asarray(m, dtype=complex)]


# ----------------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------------

@dataclass
class Scenario:
    dim: int
    matrices: dict = field(default_factory=dict)
    operations: dict = field(default_factory=dict)
    instruments: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    def operation(self, name: str) -> Superoperator:
        if name not in self.operations:
            raise ValidationError(f"unknown operation '{name}'")
        return self.operations[name]

    def instrument(self, name: str):
        if name not in self.instruments:
            raise ValidationError(f"unknown instrument '{name}'")
        return self.instruments[name]


def _build_operation(scn: Scenario, name: str, defn: dict, tol: float) -> Superoperator:
    if "kraus" in defn:
        mats = [_parse_matrix(m, f"'{name}' kraus[{k}]") for k, m in enumerate(defn["kraus"])]
        for k, m in enumerate(mats):
            if m.shape != (scn.dim, scn.dim):
                raise ValidationError(f"'{name}' kraus[{k}]: expected {scn.dim}x{scn.dim}")
        return superop.from_kraus(mats)
    if "tensor" in defn:
        m = _parse_matrix(defn["tensor"], f"'{name}' tensor")
        if m.shape != (scn.dim**2, scn.dim**2):
            raise ValidationError(f"'{name}' tensor: expected {scn.dim**2}x{scn.dim**2}")
        return Superoperator(scn.dim, m)
    builder = defn.get("builder")
    if builder not in BUILDERS:
        raise ValidationError(f"'{name}': unknown builder {builder!r}; expected one of {BUILDERS}")
    if builder == "unit":
        return superop.unit(scn.dim)
    if builder == "zero":
        return superop.zero(scn.dim)
    if builder in ("projector", "unitary"):
        ref = defn.get("of")
        if isinstance(ref, str):
            if ref not in scn.matrices:
                raise ValidationError(f"'{name}': matrix reference '{ref}' is not defined")
            m = scn.matrices[ref]
        else:
            m = _parse_matrix(ref, f"'{name}' of")
        if m.shape != (scn.dim, scn.dim):
            raise ValidationError(f"'{name}': matrix must be {scn.dim}x{scn.dim}")
        make = superop.projecting if builder == "projector" else superop.unitary
        return make(m, tol)
    # builder == "sum"
    refs = defn.get("of")
    if not isinstance(refs, list) or not refs:
        raise ValidationError(f"'{name}': sum builder needs a nonempty list in 'of'")
    weights = defn.get("weights", [1.0] * len(refs))
    if not (isinstance(weights, list) and len(weights) == len(refs) and all(_is_finite(w) and w >= 0 for w in weights)):
        raise ValidationError(f"'{name}': weights must be {len(refs)} finite real numbers >= 0, got {weights!r}")
    total = superop.zero(scn.dim)
    for ref, w in zip(refs, weights):
        if ref not in scn.operations:
            raise ValidationError(f"'{name}': operation reference '{ref}' is not defined")
        total = superop.add(total, superop.scale(scn.operations[ref], float(w)))
    return total


def parse_scenario(text: str, tol: float = DEFAULT_TOL) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario root must be a JSON object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")
    scn = Scenario(dim=dim, tasks=doc.get("tasks", []))
    if not isinstance(scn.tasks, list):
        raise ValidationError("'tasks' must be a list")

    definitions = doc.get("definitions", {})
    if not isinstance(definitions, dict):
        raise ValidationError("'definitions' must be an object")
    for name, defn in definitions.items():
        if not isinstance(defn, dict):
            raise ValidationError(f"'{name}': definition must be an object")
        if "matrix" in defn:
            m = _parse_matrix(defn["matrix"], f"'{name}' matrix")
            if m.shape != (dim, dim):
                raise ValidationError(f"'{name}': matrix must be {dim}x{dim}")
            scn.matrices[name] = m
        elif "outcomes" in defn:
            outcomes = defn["outcomes"]
            if not isinstance(outcomes, dict) or not outcomes:
                raise ValidationError(f"'{name}': 'outcomes' must be a nonempty object")
            ops = {}
            for label, ref in outcomes.items():
                if isinstance(ref, str):
                    if ref not in scn.operations:
                        raise ValidationError(
                            f"'{name}': outcome '{label}' references undefined operation '{ref}'"
                        )
                    ops[label] = scn.operations[ref]
                else:
                    ops[label] = _build_operation(scn, f"{name}:{label}", ref, tol)
            scn.instruments[name] = instr_mod.make_instrument(ops, name=name, tol=tol)
        else:
            scn.operations[name] = _build_operation(scn, name, defn, tol)
    return scn


def load_scenario(path: str, tol: float) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read scenario file: {e}") from None
    return parse_scenario(text, tol)


def serialize_scenario(scn: Scenario) -> dict:
    """Semantic serialization; re-parsing yields an equivalent scenario."""
    defs: dict = {}
    for name, m in scn.matrices.items():
        defs[name] = {"matrix": serialize_matrix(m)}
    for name, op in scn.operations.items():
        defs[name] = {"tensor": serialize_matrix(op.mat)}
    for name, inst in scn.instruments.items():
        defs[name] = {
            "outcomes": {label: {"tensor": serialize_matrix(inst.op(label).mat)} for label in inst.outcomes}
        }
    return {"dim": scn.dim, "definitions": defs, "tasks": scn.tasks}


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------

def _class_dict(cls) -> dict:
    return {
        "positive": cls.positive,
        "cp": cls.cp,
        "sub_unital": cls.sub_unital,
        "sub_tracial": cls.sub_tracial,
        "operation": cls.operation,
        "trivial": cls.trivial,
    }


def _prob_value(v: float) -> dict:
    return {"value": v, "value_str": format(v, ".12g")}


def _check_residuals(residuals: dict, tol: float) -> None:
    worst = max(residuals.values())
    if worst > tol:
        raise InvariantViolation(f"identity residual {worst:.3e} exceeds tolerance {tol:.3e}")


def cmd_check(scn: Scenario, args, tol: float) -> dict:
    op = scn.operation(args.name)
    cls = superop.classify(op, tol)
    return {"command": "check", "name": args.name, "tolerance": tol, "classification": _class_dict(cls)}


def cmd_kraus(scn: Scenario, args, tol: float) -> dict:
    op = scn.operation(args.name)
    ks = superop.extract_kraus(op, tol)
    rebuilt = superop.from_kraus(ks.ops, dim=ks.dim)
    residual = float(np.abs(rebuilt.mat - op.mat).max())
    return {
        "command": "kraus",
        "name": args.name,
        "tolerance": tol,
        "kraus": [serialize_matrix(m) for m in ks.ops],
        "residuals": {"reconstruction": residual},
    }


def cmd_prob(scn: Scenario, args, tol: float) -> dict:
    if args.prior is not None:
        value = bayes.p_prior(scn.operation(args.prior), tol)
        return {
            "command": "prob",
            "mode": "prior",
            "operations": [args.prior],
            "tolerance": tol,
            **_prob_value(value),
        }
    mode, names = ("pred", args.pred) if args.pred else ("retro", args.retro)
    a, b = (scn.operation(n) for n in names)
    value = bayes.p_pred(a, b, tol) if mode == "pred" else bayes.p_retro(a, b, tol)
    return {
        "command": "prob",
        "mode": mode,
        "operations": list(names),
        "tolerance": tol,
        **_prob_value(value),
    }


def cmd_bayes(scn: Scenario, args, tol: float) -> dict:
    a_list = [scn.operation(n) for n in args.members]
    b = scn.operation(args.condition)
    j = args.index
    if not 0 <= j < len(a_list):
        raise ValidationError(f"index {j} out of range for a {len(a_list)}-member resolution")
    retro = bayes.bayes_retrodict(a_list, b, j, tol)
    pred = bayes.bayes_predict(a_list, b, j, tol)
    residuals = {
        "retrodictive": abs(retro - bayes.p_retro(a_list[j], b, tol, check=False)),
        "predictive": abs(pred - bayes.p_pred(a_list[j], b, tol, check=False)),
    }
    _check_residuals(residuals, tol)
    return {
        "command": "bayes",
        "resolution": list(args.members),
        "condition": args.condition,
        "index": j,
        "tolerance": tol,
        "retrodictive": _prob_value(retro),
        "predictive": _prob_value(pred),
        "residuals": residuals,
    }


def cmd_reverse(scn: Scenario, args, tol: float) -> dict:
    a = scn.operation(args.name)
    rev = bayes.time_reverse(a, tol)
    report = {
        "command": "reverse",
        "name": args.name,
        "tolerance": tol,
        "classification": _class_dict(superop.classify(rev, tol)),
        "tensor": serialize_matrix(rev.mat),
    }
    if args.against is not None:
        b = scn.operation(args.against)
        rev_b = bayes.time_reverse(b, tol)
        residuals = {
            "pred_vs_retro": abs(bayes.p_pred(a, b, tol) - bayes.p_retro(rev, rev_b, tol, check=False)),
            "retro_vs_pred": abs(bayes.p_retro(a, b, tol, check=False) - bayes.p_pred(rev, rev_b, tol, check=False)),
            "prior": abs(bayes.p_prior(a, tol, check=False) - bayes.p_prior(rev, tol, check=False)),
        }
        _check_residuals(residuals, tol)
        report["against"] = args.against
        report["residuals"] = residuals
    return report


def cmd_state(scn: Scenario, args, tol: float) -> dict:
    direction = "posterior" if args.posterior else "prior"
    if args.instrument is not None:
        inst = scn.instrument(args.instrument)
        event = args.event.split(",") if args.event else list(inst.outcomes)
        rho = states.state_of_instrument(inst, event, direction, tol)
        source = {"instrument": args.instrument, "event": event}
    else:
        if args.name is None:
            raise ValidationError("state needs an operation name or --instrument")
        rho = (states.state_prior if direction == "prior" else states.state_posterior)(
            scn.operation(args.name), tol
        )
        source = {"operation": args.name}
    eig = hermitian_eig(rho.matrix, tol)
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    return {
        "command": "state",
        "direction": direction,
        **source,
        "tolerance": tol,
        "matrix": serialize_matrix(rho.matrix),
        "eigenvalues": [float(v) for v in eig.eigenvalues],
        "purity": purity,
    }


def _parse_step_outcome(text: str, what: str) -> tuple:
    step, sep, out = text.partition(":")
    if not sep or not step.isdigit():
        raise ValidationError(f"{what} must look like STEP:OUTCOME, got {text!r}")
    return int(step), out


def cmd_simulate(scn: Scenario, args, tol: float) -> dict:
    instruments = [scn.instrument(n) for n in args.steps]
    condition = _parse_step_outcome(args.condition, "--condition")
    target = _parse_step_outcome(args.target, "--target")
    report = sim.estimate(instruments, condition, target, args.trials, seed=args.seed, tol=tol)
    return {
        "command": "simulate",
        "steps": list(args.steps),
        "condition": {"step": condition[0], "outcome": condition[1]},
        "target": {"step": target[0], "outcome": target[1]},
        "seed": args.seed,
        "tolerance": tol,
        "report": {
            "trials": report.trials,
            "hits": report.hits,
            "empirical": report.empirical,
            "exact": report.exact,
            "abs_err": report.abs_err,
            "std_err": report.std_err,
        },
    }


def cmd_run(scn: Scenario, args, tol: float) -> dict:
    """Run the scenario's tasks, parsing each with the parser ``main`` built."""
    reports = []
    for k, task in enumerate(scn.tasks):
        if not isinstance(task, dict) or "command" not in task:
            raise ValidationError(f"task {k}: expected an object with a 'command' field")
        if task["command"] == "run":
            raise ValidationError(f"task {k}: tasks may not nest 'run'")
        if task["command"] not in COMMANDS:
            raise ValidationError(f"task {k}: unknown command {task['command']!r}")
        argv = [task["command"], *[str(x) for x in task.get("args", [])]]
        sub = args.parser.parse_args(argv)
        # The root options are not accepted after a subcommand, so a task
        # always takes --seed and --trials from the parent command line.
        sub.seed, sub.trials = args.seed, args.trials
        reports.append(COMMANDS[sub.command](scn, sub, tol))
    return {"command": "run", "tolerance": tol, "tasks": reports}


COMMANDS = {
    "check": cmd_check,
    "kraus": cmd_kraus,
    "prob": cmd_prob,
    "bayes": cmd_bayes,
    "reverse": cmd_reverse,
    "state": cmd_state,
    "simulate": cmd_simulate,
    "run": cmd_run,
}


# ----------------------------------------------------------------------------
# Argument parsing / rendering
# ----------------------------------------------------------------------------

def _command_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="retroops", add_help=True)
    parser.add_argument("--scenario", help="path to the scenario JSON file")
    parser.add_argument("--tol", type=float, default=None, help="numerical tolerance")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for simulate")
    parser.add_argument("--trials", type=int, default=100_000, help="trial count for simulate")
    parser.add_argument("--json", action="store_true", help="emit the raw JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify an operation")
    p.add_argument("name")

    p = sub.add_parser("kraus", help="extract Kraus matrices of a CP map")
    p.add_argument("name")

    p = sub.add_parser("prob", help="conditional or unconditional probability")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pred", nargs=2, metavar=("A", "B"))
    group.add_argument("--retro", nargs=2, metavar=("A", "B"))
    group.add_argument("--prior", metavar="A")

    p = sub.add_parser("bayes", help="Bayes formulas over a resolution, both directions")
    p.add_argument("members", nargs="+")
    p.add_argument("--condition", required=True)
    p.add_argument("--index", type=int, required=True)

    p = sub.add_parser("reverse", help="time-reverse an operation")
    p.add_argument("name")
    p.add_argument("against", nargs="?", default=None,
                   help="second operation; check the reversal identities against it")

    p = sub.add_parser("state", help="inferred input/output density matrix")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--prior", action="store_true")
    p.add_argument("--posterior", action="store_true")
    p.add_argument("--instrument", default=None)
    p.add_argument("--event", default=None, help="comma-separated outcome labels")

    p = sub.add_parser("simulate", help="Monte Carlo conditional frequency vs exact value")
    p.add_argument("--steps", nargs="+", required=True, help="instrument names in temporal order")
    p.add_argument("--condition", required=True, help="STEP:OUTCOME")
    p.add_argument("--target", required=True, help="STEP:OUTCOME")

    sub.add_parser("run", help="execute the scenario's task list")
    return parser


def _human_lines(report: dict) -> list:
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}{k}." if isinstance(v, dict) else f"{prefix}{k}", v)
        elif isinstance(value, list):
            lines.append(f"{prefix} = {json.dumps(value)}")
        elif isinstance(value, float):
            lines.append(f"{prefix} = {format(value, '.12g')}")
        else:
            lines.append(f"{prefix} = {value}")

    walk("", report)
    return lines


def main(argv=None) -> int:
    parser = _command_parser()
    args = parser.parse_args(argv)
    args.parser = parser
    tol = args.tol
    if tol is None:
        env = os.environ.get(TOL_ENV_VAR)
        tol = float(env) if env else DEFAULT_TOL
    try:
        if not args.scenario:
            raise ValidationError("--scenario is required")
        scn = load_scenario(args.scenario, tol)
        report = COMMANDS[args.command](scn, args, tol)
    except InvariantViolation as e:
        print(json.dumps({"error": "InvariantViolation", "message": str(e)}))
        return EXIT_NUMERIC
    except RetroOpsError as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}))
        return EXIT_VALIDATION
    if args.json:
        print(json.dumps(report))
    else:
        for line in _human_lines(report):
            print(line)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
