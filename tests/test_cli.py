import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import retroops as r
from retroops import cli, sim, superop
from retroops.errors import ParseError, ValidationError

from helpers import goldens

HERE = Path(__file__).parent
QUBIT = str(HERE / "fixtures" / "qubit.json")
OFFSUM = str(HERE / "fixtures" / "offsum.json")
GOLDEN = HERE / "golden"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "retroops", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def golden(name):
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("name,code,args", goldens.CASES, ids=[c[0] for c in goldens.CASES])
def test_golden_reports(name, code, args):
    # Byte for byte, through cli.main in this process; criterion 10 runs the
    # same cases through python -m retroops, and CI through the installed script.
    assert goldens.mismatch_in_process(name, code, args) is None


def test_exit_code_validation_errors():
    proc = run_cli("--scenario", "/nonexistent.json", "--json", "check", "x")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "ValidationError"

    proc = run_cli("--scenario", QUBIT, "--json", "check", "no-such-op")
    assert proc.returncode == 2

    proc = run_cli("--scenario", QUBIT, "--json", "kraus", "Z")
    assert proc.returncode == 2  # instruments are not operations

    proc = run_cli("--scenario", QUBIT, "--seed", "-1", "simulate",
                   "--steps", "Z", "X", "--condition", "0:+", "--target", "1:+")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "ValidationError", "message": "seed must be an integer in [0, 2**128), got -1"
    }


@pytest.mark.parametrize("target", ["\u00b2:+", "\u0661:+"], ids=["superscript-two", "arabic-indic-one"])
def test_step_index_takes_ascii_digits_only(capsys, target):
    # "\u00b2".isdigit() holds but int("\u00b2") fails, and int("\u0661") is 1:
    # only ASCII digits name a step.
    argv = ["--scenario", QUBIT, "--json", "simulate", "--steps", "Z", "X",
            "--condition", "1:+", "--target", target]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError", "message": f"--target must look like STEP:OUTCOME, got {target!r}"
    }


def test_oversized_trial_count_exits_2(monkeypatch, capsys):
    # 1e11 trials over 2 steps would sample for hours; the limit on sampled
    # work, trials x K*d**4 summed over the steps, refuses them before the
    # sampler starts.
    monkeypatch.setattr(sim, "_sample_chunks", None)
    argv = ["--scenario", QUBIT, "--json", "--trials", "100000000000", "simulate", "--steps", "Z", "X",
            "--condition", "1:+", "--target", "0:+"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError",
        "message": f"trials x sum of K*d**4 = 100000000000 x 64 exceeds {sim.MAX_SAMPLED_WORK}",
    }


def test_oversized_dim_fails_fast(tmp_path):
    # Over the limit the scenario is refused before any map is built, with
    # the size it asked for (14.6 TiB at dim 1000); at the limit it parses.
    limit = cli.MAX_SCENARIO_DIM
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 1000, "definitions": {"id": {"builder": "unit"}}}))
    proc = run_cli("--scenario", str(big), "--json", "check", "id")
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": "ValidationError",
        "message": f"'dim' 1000 exceeds {limit}: one map would be a "
        "1000000x1000000 complex matrix of 16000000000000 bytes",
    }
    assert cli.parse_scenario(json.dumps({"dim": limit})).dim == limit
    with pytest.raises(ValidationError, match="exceeds"):
        cli.parse_scenario(json.dumps({"dim": limit + 1}))


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("--scenario", str(bad), "--json", "check", "x")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["error"] == "ParseError"
    assert "line" in report["message"]


def test_tol_reaches_the_sampler_branch_check():
    # Branch sums are checked within tol / 10: --tol 1e-6 admits the
    # off-normalised instrument that the default tolerance rejects above.
    proc = run_cli(
        "--scenario", OFFSUM, "--tol", "1e-6", "--trials", "1000", "--json",
        "simulate", "--steps", "Zoff", "--condition", "0:+", "--target", "0:+",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["report"]["empirical"] == 1.0


@pytest.mark.parametrize("defn", [
    {"M": {"matrix": [[float("nan"), 0], [0, 0]]}},
    {"k": {"kraus": [[[float("inf"), 0], [0, 0]]]}},
    {"s": {"builder": "sum", "of": ["id"], "weights": [float("nan")]}},
    {"s": {"builder": "sum", "of": ["id"], "weights": ["x"]}},
    {"s": {"builder": "sum", "of": ["id"], "weights": [-1]}},
], ids=["nan-matrix", "inf-kraus", "nan-weight", "string-weight", "negative-weight"])
def test_malformed_numbers_are_validation_errors(tmp_path, capsys, defn):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 2, "definitions": {"id": {"builder": "unit"}, **defn}}))
    assert cli.main(["--scenario", str(path), "--json", "check", "id"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["error"] == "ValidationError"


@pytest.mark.parametrize("defn,check", [
    ({"big": {"builder": "sum", "of": ["id"], "weights": [1e308]},
      "big2": {"builder": "sum", "of": ["big", "big"]}}, "id"),
    ({"k": {"kraus": [[[1e200, 0], [0, 0]]]}}, "k"),
], ids=["sum-overflow", "kraus-overflow"])
def test_overflowing_numbers_exit_2(tmp_path, defn, check):
    # Finite inputs whose results overflow are validation errors, not a
    # ValueError traceback; run in a subprocess, where numpy's overflow
    # RuntimeWarning stays a warning.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "definitions": {"id": {"builder": "unit"}, **defn}}))
    proc = run_cli("--scenario", str(path), "--json", "check", check)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == {"error": "ValidationError", "message": "matrix entries must be finite"}


@pytest.mark.parametrize("defn,message", [
    ({"s": {"builder": "sum", "of": ["nope"]}}, "'s': unknown operation 'nope'"),
    ({"s": {"builder": "sum", "of": [["id"]]}}, "'s': unknown operation '['id']'"),
    ({"p": {"builder": "projector", "of": "P"}}, "'p': unknown matrix 'P'"),
    ({"Z": {"outcomes": {"+": "nope"}}}, "'Z': outcome '+': unknown operation 'nope'"),
], ids=["operation", "unhashable", "matrix", "outcome"])
def test_reference_lookups_are_validation_errors(defn, message):
    with pytest.raises(ValidationError) as e:
        cli.parse_scenario(json.dumps({"dim": 2, "definitions": {"id": {"builder": "unit"}, **defn}}))
    assert str(e.value) == message


def test_bayes_index_out_of_range_exits_2(capsys):
    argv = ["--scenario", QUBIT, "--json", "bayes", "pz+", "pz-", "--condition", "px+", "--index"]
    for j in ("2", "-1"):
        assert cli.main([*argv, j]) == cli.EXIT_VALIDATION
        assert json.loads(capsys.readouterr().out) == {
            "error": "ValidationError", "message": f"index {j} out of range for a 2-member resolution"
        }


def test_kraus_noncp_rejected(tmp_path):
    # A transpose-like tensor is not CP; kraus must fail with exit 2.
    doc = {
        "dim": 2,
        "definitions": {
            "swap": {
                "tensor": [
                    [1, 0, 0, 0],
                    [0, 0, 1, 0],
                    [0, 1, 0, 0],
                    [0, 0, 0, 1],
                ]
            }
        },
    }
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("--scenario", str(path), "--json", "kraus", "swap")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "NotCP"


def test_a_map_at_the_loewner_bound_checks_with_exit_0(tmp_path, capsys):
    # The identity scaled by 1 + tol (rounded) sits on the operation bound,
    # where a second verdict rounded differently could disagree and end in
    # exit 3; check reports classify's one Loewner verdict with exit 0.
    path = tmp_path / "h.json"
    path.write_text('{"dim": 2, "definitions": {"i": {"builder": "unit"}, '
                    '"h": {"builder": "sum", "of": ["i"], "weights": [1.0000000009999999]}}}')
    assert cli.main(["--scenario", str(path), "--json", "check", "h"]) == cli.EXIT_OK
    h = cli.load_scenario(str(path), 1e-9).operation("h")
    assert json.loads(capsys.readouterr().out)["classification"] == asdict(r.classify(h))


def test_tol_env_var(tmp_path):
    # RETRO_OP_TOL tightens the tolerance when --tol is absent.
    proc = run_cli(
        "--scenario", QUBIT, "--json", "check", "pz+",
        env_extra={"RETRO_OP_TOL": "1e-6"},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tolerance"] == 1e-6
    proc = run_cli(
        "--scenario", QUBIT, "--tol", "1e-7", "--json", "check", "pz+",
        env_extra={"RETRO_OP_TOL": "1e-6"},
    )
    assert json.loads(proc.stdout)["tolerance"] == 1e-7


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_tol_must_be_a_finite_positive_number(capsys, tol):
    # nan and inf would pass or fail every check, and a negative bound
    # rejects exact projectors; none of them is a tolerance.
    assert cli.main(["--scenario", QUBIT, "--tol", tol, "--json", "check", "pz+"]) == cli.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": "ValidationError", "message": f"--tol must be a finite number > 0, got {float(tol)!r}"}


def test_tol_env_var_must_be_a_number(monkeypatch, capsys):
    monkeypatch.setenv("RETRO_OP_TOL", "abc")
    assert cli.main(["--scenario", QUBIT, "--json", "check", "pz+"]) == cli.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report == {"error": "ValidationError", "message": "RETRO_OP_TOL must be a finite number > 0, got 'abc'"}


def test_parse_scenario_forward_reference_rejected():
    doc = {
        "dim": 2,
        "definitions": {
            "both": {"builder": "sum", "of": ["later"]},
            "later": {"builder": "unit"},
        },
    }
    with pytest.raises(ValidationError):
        cli.parse_scenario(json.dumps(doc))


def test_parse_scenario_complex_entries():
    doc = {
        "dim": 2,
        "definitions": {
            "Py+": {"matrix": [[0.5, [0, -0.5]], [[0, 0.5], 0.5]]},
            "py+": {"builder": "projector", "of": "Py+"},
        },
    }
    scn = cli.parse_scenario(json.dumps(doc))
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(scn.matrices["Py+"] - expected).max() == 0.0
    assert superop.classify(scn.operation("py+"), 1e-9).operation


def test_parse_scenario_validation_messages():
    with pytest.raises(ValidationError):
        cli.parse_scenario(json.dumps({"dim": 0}))
    for dim in (True, 2.0, "2"):
        with pytest.raises(ValidationError, match="'dim' must be a positive integer"):
            cli.parse_scenario(json.dumps({"dim": dim, "definitions": {"id": {"builder": "unit"}}}))
    with pytest.raises(ValidationError):
        cli.parse_scenario(json.dumps({"dim": 2, "definitions": {"a": {"builder": "wat"}}}))
    with pytest.raises(ParseError):
        cli.parse_scenario("[1, 2")


@pytest.mark.parametrize("definitions,key", [
    ('"x": {"builder": "unit"}, "y": {"builder": "sum", "of": ["x"]}, "x": {"builder": "zero"}', "x"),
    ('"id": {"builder": "unit"}, "U": {"outcomes": {"+": "id", "+": "id"}}', "+"),
], ids=["definition", "outcome"])
def test_a_repeated_key_is_a_validation_error(tmp_path, capsys, definitions, key):
    # json.dumps cannot repeat a key, so the document is written by hand;
    # json alone would keep the last value and go on without a word.
    text = f'{{"dim": 2, "definitions": {{{definitions}}}}}'
    message = f"key '{key}' appears twice in one object"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        cli.parse_scenario(text)
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert cli.main(["--scenario", str(path), "--json", "check", "x"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {"error": "ValidationError", "message": message}


def test_scenario_classes_recorded():
    scn = cli.load_scenario(QUBIT, 1e-9)
    assert superop.classify(scn.operation("id"), 1e-9).trivial
    assert superop.classify(scn.operation("deph"), 1e-9).trivial
    assert not superop.classify(scn.operation("damp"), 1e-9).operation
    assert superop.classify(scn.operation("damp"), 1e-9).cp


def test_main_returns_int():
    # main() drives everything in-process as well.
    code = cli.main(["--scenario", QUBIT, "--json", "prob", "--prior", "pz+"])
    assert code == 0


def _scenario_with_tasks(tmp_path, tasks):
    doc = json.loads(Path(QUBIT).read_text())
    doc["tasks"] = tasks
    path = tmp_path / "tasks.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_tasks_inherit_seed_and_trials(tmp_path, capsys):
    path = _scenario_with_tasks(tmp_path, [
        {"command": "simulate", "args": ["--steps", "Z", "X", "--condition", "1:+", "--target", "0:+"]},
    ])
    code = cli.main(["--scenario", path, "--json", "--seed", "7", "--trials", "20000", "run"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["tasks"] == [golden("simulate_zx.json")]


def test_main_and_run_build_no_parser(monkeypatch, capsys):
    # The grammar is built once, at import, as cli.PARSER.
    def refuse():
        raise AssertionError("a parser was built after import")

    monkeypatch.setattr(cli, "_command_parser", refuse)
    assert cli.main(["--scenario", QUBIT, "--json", "run"]) == 0
    assert len(json.loads(capsys.readouterr().out)["tasks"]) == 4


def test_cmd_run_called_directly_gives_the_report_main_prints(capsys):
    argv = ["--scenario", QUBIT, "--json", "run"]
    args = cli.PARSER.parse_args(argv)
    report = cli.cmd_run(cli.load_scenario(QUBIT, 1e-9), args, 1e-9)
    assert cli.main(argv) == 0
    assert {"command": "run", **report} == json.loads(capsys.readouterr().out) == golden("run_tasks.json")


@pytest.mark.parametrize("task", [
    {"command": "--json", "args": ["run"]},
    {"command": "--seed", "args": ["5", "check", "pz+"]},
    {"command": "nope"},
    {"command": ["check"], "args": ["id"]},
])
def test_run_rejects_a_task_that_is_not_a_subcommand(tmp_path, capsys, task):
    path = _scenario_with_tasks(tmp_path, [task])
    assert cli.main(["--scenario", path, "--json", "run"]) == cli.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ValidationError"
    assert report["message"].startswith("task 0: ")


@pytest.mark.parametrize("task,message", [
    ({"command": "check", "args": ["-h"]}, "task 1: asks for help; a task must be a command to run"),
    ({"command": "prob", "args": ["--pred", "px+"]},
     "task 1: retroops prob: error: argument --pred: expected 2 arguments"),
])
def test_run_rejects_a_task_argparse_would_exit_on(tmp_path, task, message):
    # argparse prints help (exit 0) or usage (exit 2) and exits; inside run
    # that would drop every report, so the task is a ValidationError instead.
    path = _scenario_with_tasks(tmp_path, [{"command": "check", "args": ["pz+"]}, task])
    proc = run_cli("--scenario", path, "--json", "run")
    assert proc.returncode == cli.EXIT_VALIDATION
    assert json.loads(proc.stdout) == {"error": "ValidationError", "message": message}
    assert proc.stderr == ""


_VALID_TASKS = [
    ["check", "pz+"],
    ["kraus", "deph"],
    ["prob", "--pred", "px+", "pz+"],
    ["prob", "--pre", "px+", "pz+"],
    ["prob", "--prior", "pz+"],
    ["bayes", "pz+", "pz-", "--condition", "px+", "--index", "-1"],
    ["reverse", "py+", "px+"],
    ["reverse", "--", "px+"],
    ["state", "pz+", "--posterior"],
    ["state", "--instrument", "X", "--event", "+"],
    ["simulate", "--steps", "Z", "X", "--condition", "1:+", "--target", "0:+"],
    ["check", "--", "pz+"],
]

_BAD_TASKS = [
    ["check"],
    ["check", "pz+", "extra"],
    ["check", "pz+", "--seed", "5"],
    ["check", "pz+", "--json"],
    ["bayes", "pz+", "--condition", "px+", "--index", "x"],
    ["state", "pz+", "--prior", "--posterior"],
    ["prob", "--pred", "px+"],
    ["check", "-h"],
]


def _root_parse(argv, k):
    """What ``PARSER.parse_args(argv)`` gives: its namespace's attributes, or
    the task message its exit stands for."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(out):
            return vars(cli.PARSER.parse_args(argv))
    except SystemExit as e:
        if e.code == 0:
            return f"task {k}: asks for help; a task must be a command to run"
        return f"task {k}: {out.getvalue().strip().splitlines()[-1]}"


@pytest.mark.parametrize("argv", _VALID_TASKS + _BAD_TASKS, ids=" ".join)
def test_a_task_parses_as_the_root_parser_would(argv):
    # A task is parsed once, by its command's subparser; its namespace, or
    # its message, is the one the whole command line grammar gives.
    expected = _root_parse(argv, 3)
    try:
        got = vars(cli._parse_task(argv[0], argv[1:], 3))
    except ValidationError as e:
        got = str(e)
    assert got == expected
    assert isinstance(expected, dict) == (argv in _VALID_TASKS)


def test_a_task_abbreviation_is_read_by_its_command_alone():
    # The command line refuses "--s" after a subcommand as ambiguous between
    # the root's --scenario and --seed; a task has none of the root options,
    # so its command reads "--s" as --steps.
    args = ["--s", "Z", "--condition", "0:+", "--target", "0:+"]
    assert _root_parse(["simulate", *args], 0) == (
        "task 0: retroops: error: ambiguous option: --s could match --scenario, --seed"
    )
    assert cli._parse_task("simulate", args, 0).steps == ["Z"]


@pytest.mark.parametrize("arg", [None, True, ["pz+"], {"a": 1}, float("nan"), float("inf")],
                         ids=["null", "true", "array", "object", "nan", "inf"])
def test_a_task_argument_must_be_a_string_or_a_finite_number(tmp_path, capsys, arg):
    # str() would make null the operation name 'None' and an array "['pz+']".
    bayes = ["pz+", "pz-", "--condition", "px+", "--index", arg]
    path = _scenario_with_tasks(tmp_path, [{"command": "check", "args": ["pz+"]}, {"command": "bayes", "args": bayes}])
    assert cli.main(["--scenario", path, "--json", "run"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError",
        "message": f"task 1: argument 5 must be a string or a finite number, got {arg!r}",
    }


def test_a_numeric_task_argument_is_passed_as_its_str(tmp_path, capsys):
    path = _scenario_with_tasks(tmp_path, [
        {"command": "bayes", "args": ["pz+", "pz-", "--condition", "px+", "--index", 0]},
    ])
    assert cli.main(["--scenario", path, "--json", "run"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"] == [golden("bayes_z_given_x.json")]


_THREE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("defn,message", [
    ({"k": {"kraus": [[[1, 0], [0, 1]], _THREE]}}, "'k' kraus[1]: expected a 2x2 nested array of rows"),
    ({"t": {"tensor": _THREE}}, "'t' tensor: expected a 4x4 nested array of rows"),
    ({"p": {"builder": "projector", "of": _THREE}}, "'p' of: expected a 2x2 nested array of rows"),
    ({"u": {"builder": "unitary", "of": [[1, 0], [0]]}}, "'u' of: expected a 2x2 nested array of rows"),
    ({"M": {"matrix": _THREE}}, "'M' matrix: expected a 2x2 nested array of rows"),
    ({"k": {"kraus": 5}}, "'k': 'kraus' must be a list of matrices, got 5"),
    ({"Z": {"outcomes": {"+": 5}}}, "'Z:+': definition must be an object"),
], ids=["kraus", "tensor", "projector-of", "unitary-of", "matrix", "kraus-not-a-list", "inline-outcome"])
def test_definitions_of_the_wrong_shape_exit_2(tmp_path, capsys, defn, message):
    path = tmp_path / "side.json"
    path.write_text(json.dumps({"dim": 2, "definitions": {"id": {"builder": "unit"}, **defn}}))
    assert cli.main(["--scenario", str(path), "--json", "check", "id"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {"error": "ValidationError", "message": message}


_EYE = [[1, 0], [0, 1]]


@pytest.mark.parametrize("doc,message", [
    ({"definitoins": {}}, "scenario root: unknown key 'definitoins'"),
    ({"tasks": [{"command": "check", "arg": ["id"]}]}, "task 0: unknown key 'arg'"),
    ({"definitions": {"M": {"matrix": _EYE, "builder": "unit"}}}, "'M': unknown key 'builder'"),
    ({"definitions": {"Z": {"outcomes": {"+": "id"}, "name": "Z"}}}, "'Z': unknown key 'name'"),
    ({"definitions": {"k": {"kraus": [_EYE], "of": "M"}}}, "'k': unknown key 'of'"),
    ({"definitions": {"t": {"tensor": np.eye(4).tolist(), "builder": "unit"}}}, "'t': unknown key 'builder'"),
    ({"definitions": {"u": {"builder": "unit", "of": "id"}}}, "'u': unknown key 'of'"),
    ({"definitions": {"p": {"builder": "projector", "of": _EYE, "weights": [1]}}}, "'p': unknown key 'weights'"),
    ({"definitions": {"h": {"builder": "sum", "of": ["id"], "wieghts": [0.5]}}}, "'h': unknown key 'wieghts'"),
    ({"definitions": {"Z": {"outcomes": {"+": {"builder": "unit", "of": "id"}}}}}, "'Z:+': unknown key 'of'"),
], ids=["root", "task", "matrix", "outcomes", "kraus", "tensor", "unit", "projector", "sum", "inline-outcome"])
def test_an_unknown_key_is_a_validation_error(tmp_path, capsys, doc, message):
    # A misspelt or misplaced key would otherwise be ignored and change the
    # answer: the sum above would be the identity map, not half of it.
    path = tmp_path / "keys.json"
    definitions = {"id": {"builder": "unit"}, **doc.get("definitions", {})}
    path.write_text(json.dumps({"dim": 2, **doc, "definitions": definitions}))
    assert cli.main(["--scenario", str(path), "--json", "run"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {"error": "ValidationError", "message": message}


def test_an_oversized_inline_matrix_builds_no_map(monkeypatch):
    # The side is checked before any entry is parsed or any map built: a
    # 300x300 projector at dim 2 would otherwise ask from_kraus for a
    # 90,000 x 90,000 Choi matrix.
    calls = []
    monkeypatch.setattr(superop, "from_kraus", lambda *a, **k: calls.append(a))
    big = np.eye(300).tolist()
    with pytest.raises(ValidationError, match="'p' of: expected a 2x2 nested array of rows"):
        cli.parse_scenario(json.dumps({"dim": 2, "definitions": {"p": {"builder": "projector", "of": big}}}))
    assert calls == []


def test_state_takes_one_direction(tmp_path, capsys):
    argv = ["--scenario", QUBIT, "--json", "state", "pz+", "--prior", "--posterior"]
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == cli.EXIT_VALIDATION
    assert "not allowed with argument" in capsys.readouterr().err
    path = _scenario_with_tasks(tmp_path, [{"command": "state", "args": ["pz+", "--prior", "--posterior"]}])
    assert cli.main(["--scenario", path, "--json", "run"]) == cli.EXIT_VALIDATION
    assert "not allowed with argument" in json.loads(capsys.readouterr().out)["message"]


@pytest.mark.parametrize("args,message", [
    (["pz+", "--instrument", "Z"], "state takes an operation name or --instrument, not both"),
    (["pz+", "--event", "+"], "--event needs --instrument"),
    (["--instrument", "Z", "--event", ""], "instrument 'Z' has no outcome ''"),
    (["--instrument", "Z", "--event", "+,+"], "instrument 'Z': event repeats outcome '\\+'"),
], ids=["name-and-instrument", "event-without-instrument", "empty-event", "repeated-label"])
def test_state_uses_every_argument_it_is_given(capsys, args, message):
    # An argument the command would not read is an error, not silently dropped.
    assert cli.main(["--scenario", QUBIT, "--json", "state", *args]) == cli.EXIT_VALIDATION
    report = json.loads(capsys.readouterr().out)
    assert report["error"] == "ValidationError"
    assert re.fullmatch(message, report["message"])


def test_state_echoes_the_event_in_the_order_given(capsys):
    reports = []
    for event in ("+,-", "-,+"):
        assert cli.main(["--scenario", QUBIT, "--json", "state", "--instrument", "Z", f"--event={event}"]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [rep.pop("event") for rep in reports] == [["+", "-"], ["-", "+"]]
    assert reports[0] == reports[1]


def test_task_args_must_be_a_list(tmp_path, capsys):
    path = _scenario_with_tasks(tmp_path, [{"command": "check", "args": 5}])
    assert cli.main(["--scenario", path, "--json", "run"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValidationError", "message": "task 0: 'args' must be a list, got 5"
    }


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_an_empty_kraus_list_is_the_zero_map_at_the_scenario_dim(dim):
    doc = {"dim": dim, "definitions": {"none": {"kraus": []}, "nil": {"builder": "zero"}}}
    scn = cli.parse_scenario(json.dumps(doc))
    none = scn.operation("none")
    assert none.dim == dim
    assert np.array_equal(none.mat, scn.operation("nil").mat)
