import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retroops as r
from retroops import cli, superop
from retroops.errors import ParseError, ValidationError

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


GOLDEN_CASES = [
    ("check_damp.json", ["check", "damp"]),
    ("prob_pred.json", ["prob", "--pred", "px+", "pz+"]),
    ("kraus_deph.json", ["kraus", "deph"]),
    ("bayes_z_given_x.json", ["bayes", "pz+", "pz-", "--condition", "px+", "--index", "0"]),
    ("state_prior_pz.json", ["state", "pz+", "--prior"]),
    ("reverse_py_vs_px.json", ["reverse", "py+", "px+"]),
    ("run_tasks.json", ["run"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_reports(name, args):
    proc = run_cli("--scenario", QUBIT, "--json", *args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == golden(name)


def test_golden_simulate_deterministic():
    proc = run_cli(
        "--scenario", QUBIT, "--json", "--seed", "7", "--trials", "20000",
        "simulate", "--steps", "Z", "X", "--condition", "1:+", "--target", "0:+",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout) == golden("simulate_zx.json")


def test_golden_human_rendering():
    proc = run_cli("--scenario", QUBIT, "check", "pz+")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "check_pz_human.txt").read_text()


def test_exit_code_validation_errors():
    proc = run_cli("--scenario", "/nonexistent.json", "--json", "check", "x")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "ValidationError"

    proc = run_cli("--scenario", QUBIT, "--json", "check", "no-such-op")
    assert proc.returncode == 2

    proc = run_cli("--scenario", QUBIT, "--json", "kraus", "Z")
    assert proc.returncode == 2  # instruments are not operations


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    proc = run_cli("--scenario", str(bad), "--json", "check", "x")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["error"] == "ParseError"
    assert "line" in report["message"]


def test_exit_code_invariant_violation():
    # The off-normalised instrument passes the loose instrument sum
    # tolerance but violates the simulator's strict branch-sum invariant.
    proc = run_cli(
        "--scenario", OFFSUM, "--json",
        "simulate", "--steps", "Zoff", "--condition", "0:+", "--target", "0:+",
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout) == golden("error_offsum.json")


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


def test_scenario_round_trip(tmp_path):
    scn = cli.load_scenario(QUBIT, 1e-9)
    text = json.dumps(cli.serialize_scenario(scn))
    again = cli.parse_scenario(text, 1e-9)
    assert again.dim == scn.dim
    for name, op in scn.operations.items():
        assert np.abs(again.operations[name].mat - op.mat).max() < 1e-12
    for name, inst in scn.instruments.items():
        assert again.instruments[name].outcomes == inst.outcomes
        for label in inst.outcomes:
            assert np.abs(again.instruments[name].op(label).mat - inst.op(label).mat).max() < 1e-12
    assert again.tasks == scn.tasks


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
    with pytest.raises(ValidationError):
        cli.parse_scenario(json.dumps({"dim": 2, "definitions": {"a": {"builder": "wat"}}}))
    with pytest.raises(ParseError):
        cli.parse_scenario("[1, 2")


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


def test_run_builds_the_parser_once(monkeypatch, capsys):
    builds = []
    real = cli._command_parser

    def counted():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_command_parser", counted)
    assert cli.main(["--scenario", QUBIT, "--json", "run"]) == 0
    assert len(json.loads(capsys.readouterr().out)["tasks"]) == 4
    assert len(builds) == 1


@pytest.mark.parametrize("task", [
    {"command": "--json", "args": ["run"]},
    {"command": "--seed", "args": ["5", "check", "pz+"]},
    {"command": "nope"},
])
def test_run_rejects_a_task_that_is_not_a_subcommand(tmp_path, capsys, task):
    path = _scenario_with_tasks(tmp_path, [task])
    assert cli.main(["--scenario", path, "--json", "run"]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().out)["error"] == "ValidationError"
