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
Definitions may reference earlier names only, and no object may give a key
twice.  Each object holds only the keys it reads, or the scenario is a
:class:`ValidationError`:

- the root: ``dim``, ``definitions``, ``tasks``;
- a task: ``command``, ``args``;
- a definition, top-level or an inline outcome: the first of ``matrix``,
  ``outcomes``, ``kraus``, ``tensor`` and ``builder`` that it holds names
  its kind; besides it, ``of`` for the ``projector``, ``unitary`` and
  ``sum`` builders and ``weights`` for ``sum``.

Every entry of :data:`COMMANDS`, ``run`` included, takes ``(scenario,
args, tol)``, where ``args`` is a namespace :data:`PARSER` returned.  A task
of ``run`` is parsed once, by its command's own subparser of :data:`PARSER`,
into a namespace that holds the root options' defaults (``scenario``,
``tol``, ``seed``, ``trials``, ``json``), ``command`` and the command's
arguments: the namespace ``PARSER.parse_args([command, *args])`` gives.

Exit codes: 0 success, 2 parse/validation failure, 3 numerical invariant
violation.  ``--json`` switches output from the human-readable rendering to
the raw JSON report; both embed the tolerance in use and the residuals of
any identity the command checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
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
from .matcore import DEFAULT_TOL, _is_int, _require_within
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


def _parse_matrix(rows, where: str, side: int) -> np.ndarray:
    """A ``side x side`` matrix of :func:`_parse_scalar` entries; the shape is
    checked before any entry is read, and before any map is built from it."""
    if not (isinstance(rows, list) and len(rows) == side and all(isinstance(r, list) and len(r) == side for r in rows)):
        raise ValidationError(f"{where}: expected a {side}x{side} nested array of rows")
    return np.array([[_parse_scalar(x, where) for x in row] for row in rows], dtype=complex)


def serialize_matrix(m: np.ndarray) -> list:
    """Nested rows of ``[re, im]`` pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1).tolist()


# ----------------------------------------------------------------------------
# Scenario
# ----------------------------------------------------------------------------

#: Largest scenario ``dim``.  A map on ``dim x dim`` matrices is a
#: ``dim**2 x dim**2`` complex matrix (``16 * dim**4`` bytes), and checking it
#: takes spectra of that size: at ``dim = 16`` ``classify`` of a fresh
#: full-rank map built from Kraus matrices takes about 1.7 ms (its CP verdict
#: needs no Choi spectrum), a later ``extract_kraus`` about 8.6 ms, and
#: ``classify`` of the same matrix without a Kraus form (a ``sum``) about
#: 18 ms (medians of 30 fresh maps, one BLAS thread, numpy 2.4.6, 2 shared
#: CPUs).  A larger ``dim`` is refused up front.
MAX_SCENARIO_DIM = 16

@dataclass
class Scenario:
    dim: int
    matrices: dict = field(default_factory=dict)
    operations: dict = field(default_factory=dict)
    instruments: dict = field(default_factory=dict)
    tasks: list = field(default_factory=list)

    def operation(self, name: str) -> Superoperator:
        return _lookup(self.operations, "operation", name, "")

    def instrument(self, name: str):
        return _lookup(self.instruments, "instrument", name, "")


def _lookup(table: dict, kind: str, name, where: str):
    """``table[name]``, or :class:`ValidationError` prefixed by ``where``."""
    if not isinstance(name, str) or name not in table:
        raise ValidationError(f"{where}unknown {kind} '{name}'")
    return table[name]


def _known_keys(obj: dict, keys: tuple, where: str) -> None:
    """:class:`ValidationError` prefixed by ``where`` for the first key of
    ``obj`` that is not in ``keys``, so a misspelt key is not ignored."""
    for key in obj:
        if key not in keys:
            raise ValidationError(f"{where}: unknown key '{key}'")


def _definition_kind(name: str, defn) -> str:
    """The kind of the definition ``defn``: its first key among ``matrix``,
    ``outcomes``, ``kraus``, ``tensor`` and ``builder`` (``builder`` if it has
    none).  Its other keys must be ones that kind reads: ``of`` for the
    projector, unitary and sum builders, ``weights`` for sum.  An unknown
    builder is left to :func:`_build_operation` to name."""
    if not isinstance(defn, dict):
        raise ValidationError(f"'{name}': definition must be an object")
    kind = next((k for k in ("matrix", "outcomes", "kraus", "tensor") if k in defn), "builder")
    builder = defn.get("builder") if kind == "builder" else None
    if builder in BUILDERS or kind != "builder":
        reads = {"projector": ("of",), "unitary": ("of",), "sum": ("of", "weights")}.get(builder, ())
        _known_keys(defn, (kind, *reads), f"'{name}'")
    return kind


def _build_operation(scn: Scenario, name: str, defn: dict, kind: str, tol: float) -> Superoperator:
    """The operation ``defn`` of kind ``kind`` defines; a ``matrix`` or
    ``outcomes`` kind, which names no operation, ends in the builder check."""
    if kind == "kraus":
        if not isinstance(defn["kraus"], list):
            raise ValidationError(f"'{name}': 'kraus' must be a list of matrices, got {defn['kraus']!r}")
        return superop.from_kraus(
            [_parse_matrix(m, f"'{name}' kraus[{k}]", scn.dim) for k, m in enumerate(defn["kraus"])], dim=scn.dim
        )
    if kind == "tensor":
        return Superoperator(scn.dim, _parse_matrix(defn["tensor"], f"'{name}' tensor", scn.dim**2))
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
            m = _lookup(scn.matrices, "matrix", ref, f"'{name}': ")
        else:
            m = _parse_matrix(ref, f"'{name}' of", scn.dim)
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
        total = superop.add(total, superop.scale(_lookup(scn.operations, "operation", ref, f"'{name}': "), float(w)))
    return total


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its ``(key, value)`` pairs; a key given twice is a
    :class:`ValidationError`, where ``json`` would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for k in keys if keys.count(k) > 1)
        raise ValidationError(f"key '{repeated}' appears twice in one object")
    return obj


def parse_scenario(text: str, tol: float = DEFAULT_TOL) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ValidationError("scenario root must be a JSON object")
    _known_keys(doc, ("dim", "definitions", "tasks"), "scenario root")
    dim = doc.get("dim")
    if not (_is_int(dim) and dim >= 1):
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")
    if dim > MAX_SCENARIO_DIM:
        raise ValidationError(
            f"'dim' {dim} exceeds {MAX_SCENARIO_DIM}: one map would be a {dim**2}x{dim**2} "
            f"complex matrix of {16 * dim**4} bytes"
        )
    scn = Scenario(dim=dim, tasks=doc.get("tasks", []))
    if not isinstance(scn.tasks, list):
        raise ValidationError("'tasks' must be a list")

    definitions = doc.get("definitions", {})
    if not isinstance(definitions, dict):
        raise ValidationError("'definitions' must be an object")
    for name, defn in definitions.items():
        kind = _definition_kind(name, defn)
        if kind == "matrix":
            scn.matrices[name] = _parse_matrix(defn["matrix"], f"'{name}' matrix", dim)
        elif kind == "outcomes":
            outcomes = defn["outcomes"]
            if not isinstance(outcomes, dict) or not outcomes:
                raise ValidationError(f"'{name}': 'outcomes' must be a nonempty object")
            ops = {}
            for label, ref in outcomes.items():
                if isinstance(ref, str):
                    ops[label] = _lookup(scn.operations, "operation", ref, f"'{name}': outcome '{label}': ")
                else:
                    inline = f"{name}:{label}"
                    ops[label] = _build_operation(scn, inline, ref, _definition_kind(inline, ref), tol)
            scn.instruments[name] = instr_mod.make_instrument(ops, name=name, tol=tol)
        else:
            scn.operations[name] = _build_operation(scn, name, defn, kind, tol)
    return scn


def load_scenario(path: str, tol: float) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ValidationError(f"cannot read scenario file: {e}") from None
    return parse_scenario(text, tol)


# ----------------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------------

def _prob_value(v: float) -> dict:
    return {"value": v, "value_str": format(v, ".12g")}


def _check_residuals(residuals: dict, tol: float) -> None:
    worst = max(residuals.values())
    _require_within(worst, tol, "identity residual {:.3e} exceeds tolerance {:.3e}", worst, tol)


def cmd_check(scn: Scenario, args, tol: float) -> dict:
    op = scn.operation(args.name)
    cls = superop.classify(op, tol)
    return {"name": args.name, "tolerance": tol, "classification": dict(vars(cls))}


def cmd_kraus(scn: Scenario, args, tol: float) -> dict:
    op = scn.operation(args.name)
    ks = superop.extract_kraus(op, tol)
    rebuilt = superop.from_kraus(ks.ops, dim=ks.dim)
    residual = float(np.abs(rebuilt.mat - op.mat).max())
    return {
        "name": args.name,
        "tolerance": tol,
        "kraus": [serialize_matrix(m) for m in ks.ops],
        "residuals": {"reconstruction": residual},
    }


def cmd_prob(scn: Scenario, args, tol: float) -> dict:
    if args.prior is not None:
        mode, names = "prior", [args.prior]
        value = bayes.p_prior(scn.operation(args.prior), tol)
    else:
        mode, names = ("pred", args.pred) if args.pred else ("retro", args.retro)
        a, b = (scn.operation(n) for n in names)
        value = (bayes.p_pred if mode == "pred" else bayes.p_retro)(a, b, tol)
    return {
        "mode": mode,
        "operations": list(names),
        "tolerance": tol,
        **_prob_value(value),
    }


def cmd_bayes(scn: Scenario, args, tol: float) -> dict:
    a_list = [scn.operation(n) for n in args.members]
    b = scn.operation(args.condition)
    j = args.index
    retro = bayes.bayes_retrodict(a_list, b, j, tol)
    pred = bayes.bayes_predict(a_list, b, j, tol)
    residuals = {
        "retrodictive": abs(retro - bayes.p_retro(a_list[j], b, tol)),
        "predictive": abs(pred - bayes.p_pred(a_list[j], b, tol)),
    }
    _check_residuals(residuals, tol)
    return {
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
        "name": args.name,
        "tolerance": tol,
        "classification": dict(vars(superop.classify(rev, tol))),
        "tensor": serialize_matrix(rev.mat),
    }
    if args.against is not None:
        b = scn.operation(args.against)
        rev_b = bayes.time_reverse(b, tol)
        residuals = {
            "pred_vs_retro": abs(bayes.p_pred(a, b, tol) - bayes.p_retro(rev, rev_b, tol)),
            "retro_vs_pred": abs(bayes.p_retro(a, b, tol) - bayes.p_pred(rev, rev_b, tol)),
            "prior": abs(bayes.p_prior(a, tol) - bayes.p_prior(rev, tol)),
        }
        _check_residuals(residuals, tol)
        report["against"] = args.against
        report["residuals"] = residuals
    return report


def cmd_state(scn: Scenario, args, tol: float) -> dict:
    direction = "posterior" if args.posterior else "prior"
    if args.instrument is not None:
        if args.name is not None:
            raise ValidationError("state takes an operation name or --instrument, not both")
        inst = scn.instrument(args.instrument)
        event = args.event.split(",") if args.event is not None else list(inst.outcomes)
        rho = states.state_of_instrument(inst, event, direction, tol)
        source = {"instrument": args.instrument, "event": event}
    else:
        if args.name is None:
            raise ValidationError("state needs an operation name or --instrument")
        if args.event is not None:
            raise ValidationError("--event needs --instrument")
        rho = (states.state_prior if direction == "prior" else states.state_posterior)(
            scn.operation(args.name), tol
        )
        source = {"operation": args.name}
    purity = float(np.trace(rho.matrix @ rho.matrix).real)
    return {
        "direction": direction,
        **source,
        "tolerance": tol,
        "matrix": serialize_matrix(rho.matrix),
        "eigenvalues": [float(v) for v in rho.spectrum],
        "purity": purity,
    }


def _parse_step_outcome(text: str, what: str) -> tuple:
    step, sep, out = text.partition(":")
    if not sep or not (step.isascii() and step.isdigit()):
        raise ValidationError(f"{what} must look like STEP:OUTCOME, got {text!r}")
    return int(step), out


def cmd_simulate(scn: Scenario, args, tol: float) -> dict:
    instruments = [scn.instrument(n) for n in args.steps]
    condition = _parse_step_outcome(args.condition, "--condition")
    target = _parse_step_outcome(args.target, "--target")
    report = sim.estimate(instruments, condition, target, args.trials, seed=args.seed, tol=tol)
    return {
        "steps": list(args.steps),
        "condition": {"step": condition[0], "outcome": condition[1]},
        "target": {"step": target[0], "outcome": target[1]},
        "seed": args.seed,
        "tolerance": tol,
        "report": dict(vars(report)),
    }


def cmd_run(scn: Scenario, args, tol: float) -> dict:
    """Run the scenario's tasks, each parsed by its command's subparser of
    :data:`PARSER` (see :func:`_parse_task`).  A task argument must be a
    string or a finite JSON number, which is passed as its ``str``."""
    reports = []
    for k, task in enumerate(scn.tasks):
        if not isinstance(task, dict) or not isinstance(task.get("command"), str):
            raise ValidationError(f"task {k}: expected an object with a string 'command' field")
        _known_keys(task, ("command", "args"), f"task {k}")
        if task["command"] == "run":
            raise ValidationError(f"task {k}: tasks may not nest 'run'")
        if task["command"] not in COMMANDS:
            raise ValidationError(f"task {k}: unknown command {task['command']!r}")
        task_args = task.get("args", [])
        if not isinstance(task_args, list):
            raise ValidationError(f"task {k}: 'args' must be a list, got {task_args!r}")
        for j, x in enumerate(task_args):
            if not (isinstance(x, str) or _is_finite(x)):
                raise ValidationError(f"task {k}: argument {j} must be a string or a finite number, got {x!r}")
        sub = _parse_task(task["command"], [str(x) for x in task_args], k)
        # The root options are not accepted after a subcommand, so a task
        # always takes --seed and --trials from the parent command line.
        sub.seed, sub.trials = args.seed, args.trials
        reports.append(_report(scn, sub, tol))
    return {"tolerance": tol, "tasks": reports}


def _parse_task(command: str, args: list, k: int) -> argparse.Namespace:
    """Task ``k``'s namespace: ``args`` parsed once by ``command``'s subparser
    of :data:`PARSER`, into the root defaults with ``command`` set, so it
    holds what ``PARSER.parse_args([command, *args])`` would.  A string the
    subparser leaves over is the root's ``unrecognized arguments`` error.
    Where argparse would print help or a usage error and exit, which would
    end ``run`` without a report, the task is a :class:`ValidationError`
    carrying argparse's message."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            namespace = argparse.Namespace(**_ROOT_DEFAULTS, command=command)
            namespace, extra = _SUBPARSERS[command].parse_known_args(args, namespace)
            if extra:
                PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
            return namespace
    except SystemExit as e:
        if e.code == 0:
            raise ValidationError(f"task {k}: asks for help; a task must be a command to run") from None
        raise ValidationError(f"task {k}: {out.getvalue().strip().splitlines()[-1]}") from None


#: Each command's report, without the ``"command"`` key that :func:`_report` puts first.
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


def _report(scn: Scenario, args, tol: float) -> dict:
    """The report of ``args.command``, led by its ``"command"`` key."""
    return {"command": args.command, **COMMANDS[args.command](scn, args, tol)}


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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--prior", action="store_true")
    group.add_argument("--posterior", action="store_true")
    p.add_argument("--instrument", default=None)
    p.add_argument("--event", default=None, help="comma-separated outcome labels")

    p = sub.add_parser("simulate", help="Monte Carlo conditional frequency vs exact value")
    p.add_argument("--steps", nargs="+", required=True, help="instrument names in temporal order")
    p.add_argument("--condition", required=True, help="STEP:OUTCOME")
    p.add_argument("--target", required=True, help="STEP:OUTCOME")

    sub.add_parser("run", help="execute the scenario's task list")
    return parser


#: The command line grammar, built once: ``parse_args`` leaves a parser as it
#: was, so ``main`` and every task of ``run`` share it.
PARSER = _command_parser()

#: Each command's own parser: the ``choices`` of :data:`PARSER`'s subparsers action.
_SUBPARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices

#: The root options' defaults, which a task's namespace starts from.
_ROOT_DEFAULTS = {
    a.dest: a.default for a in PARSER._actions if a.option_strings and a.default is not argparse.SUPPRESS
}


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


def _tolerance(flag) -> float:
    """``--tol``, else a nonempty ``RETRO_OP_TOL``, else the default; it must
    be a finite number > 0, or :class:`ValidationError`."""
    text = flag if flag is not None else os.environ.get(TOL_ENV_VAR) or DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0.0 < tol <= sys.float_info.max:
        source = "--tol" if flag is not None else TOL_ENV_VAR
        raise ValidationError(f"{source} must be a finite number > 0, got {text!r}")
    return tol


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        tol = _tolerance(args.tol)
        if not args.scenario:
            raise ValidationError("--scenario is required")
        scn = load_scenario(args.scenario, tol)
        report = _report(scn, args, tol)
    except RetroOpsError as e:
        error = {"error": type(e).__name__, "message": str(e)}
        if e.residual is not None:
            error.update(residual=e.residual, tol=e.tol)
        print(json.dumps(error))
        return EXIT_NUMERIC if isinstance(e, InvariantViolation) else EXIT_VALIDATION
    if args.json:
        print(json.dumps(report))
    else:
        for line in _human_lines(report):
            print(line)
    return EXIT_OK


def entry() -> None:
    sys.exit(main())
