"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def test_list_target(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "XENON2" in out
    assert "memory-full" in out
    assert "metis" in out


def test_single_figure(capsys):
    assert main(["figure8"]) == 0
    out = capsys.readouterr().out
    assert "FIGURE8" in out
    assert "Algorithm 2" in out


def test_single_table_small(capsys):
    code = main(
        ["table2", "--nprocs", "4", "--scale", "0.2", "--problems", "XENON2", "--orderings", "metis"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "TABLE2" in out
    assert "XENON2" in out


def test_table_json_is_exact_and_untimed(capsys):
    argv = ["table2", "--nprocs", "4", "--scale", "0.2", "--problems", "XENON2", "--orderings", "metis"]
    assert main(argv + ["--no-progress"]) == 0
    text = capsys.readouterr().out
    assert main(argv + ["--format", "json", "--no-progress"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["nprocs"], payload["scale"]) == (4, 0.2)
    cell = payload["tables"]["table2"]["XENON2"]["METIS"]
    assert f"{round(cell, 1)}" in text  # the text output rounds the same cell
    for argv in (["table2", "--format", "csv"], ["all", "--format", "json"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "argument --format: invalid choice" in capsys.readouterr().err


def test_sweep_target(capsys):
    code = main(
        [
            "sweep",
            "--nprocs", "4",
            "--scale", "0.2",
            "--problems", "XENON2",
            "--orderings", "metis",
            "--strategies", "mumps-workload,memory-full",
            "--no-progress",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "SWEEP (2 cases" in out
    assert "mumps-workload" in out and "memory-full" in out


def test_sweep_target_parallel_jobs(capsys):
    code = main(
        [
            "sweep",
            "--nprocs", "4",
            "--scale", "0.2",
            "--problems", "XENON2",
            "--orderings", "metis,amd",
            "--strategies", "memory-full",
            "--jobs", "2",
            "--no-progress",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "SWEEP (2 cases" in out


def test_progress_lines_on_stderr(capsys):
    code = main(
        ["sweep", "--nprocs", "4", "--scale", "0.2", "--problems", "XENON2",
         "--orderings", "metis", "--strategies", "memory-full"]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "[1/1] XENON2/metis/memory-full" in err


def test_unknown_target():
    with pytest.raises(SystemExit):
        main(["table99"])


def test_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["table1", "--jobs", "0"])
    with pytest.raises(SystemExit):
        main(["list", "--jobs", "0"])


def test_rejects_unknown_subset_values(capsys):
    for argv in (
        ["sweep", "--problems", "NOPE"],
        ["sweep", "--strategies", "bogus"],
        ["table2", "--orderings", "bogus"],
    ):
        with pytest.raises(SystemExit):
            main(argv)
        assert "unknown --" in capsys.readouterr().err


def test_parser_defaults():
    args = build_parser().parse_args(["table1"])
    assert args.nprocs == 32
    assert args.scale == 1.0
    assert args.jobs == 1


@pytest.mark.parametrize("engine", ["jit", "flat", "fast", "warp"])
def test_unknown_sim_engine_env_exits_cleanly(monkeypatch, capsys, engine):
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    assert main(["sweep", "--nprocs", "4", "--scale", "0.2", "--problems", "XENON2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: unknown simulator engine")
    assert "soa" in err and "reference" in err
    assert "Traceback" not in err


# --------------------------------------------------------------------------- #
# one parser tree for every verb
# --------------------------------------------------------------------------- #
VERBS = [
    *[[f"table{i}"] for i in range(1, 7)],
    *[[f"figure{i}"] for i in range(1, 9)],
    ["tables"], ["figures"], ["all"], ["sweep"], ["list"], ["robustness"], ["tune"],
    ["bench"], *[["bench", command] for command in ("run", "compare", "fold", "list", "history")],
    ["serve"], ["submit"], ["query"],
]


@pytest.mark.parametrize("verb", VERBS, ids=" ".join)
def test_help_on_every_verb(verb, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*verb, "--help"])
    assert excinfo.value.code == 0
    assert f"usage: repro {' '.join(verb)}" in capsys.readouterr().out


def test_list_leaves_the_subsystems_unimported():
    # `repro serve` starts through the same tree: building it must not pay
    # for the bench, tune, service or faults subsystems
    code = (
        "import sys\n"
        "from repro.cli import main\n"
        "assert main(['list']) == 0\n"
        "subsystems = ('repro.bench', 'repro.tune', 'repro.service', 'repro.faults')\n"
        "sys.stderr.write(repr(sorted(m for m in sys.modules if m.startswith(subsystems))))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stderr == "[]"


def _usage_error(argv, capsys) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def test_submit_nprocs_list_is_parsed_by_the_shared_axis(capsys):
    err = _usage_error(["submit", "--problems", "XENON2", "--nprocs", "8,x"], capsys)
    assert "argument --nprocs: expects integers, got '8,x'" in err


TUNE = ["tune", "--space", "hybrid(alpha=0.0..1.0)", "--problems", "XENON2",
        "--searcher", "grid(resolution=2)", "--nprocs", "4", "--scale", "0.2", "--quiet"]
ROBUSTNESS = ["robustness", "--problems", "XENON2", "--faults", "stragglers(frac=0.5,slowdown=3.0)",
              "--replications", "1", "--nprocs", "4", "--scale", "0.2"]


def test_robustness_spec_lists_split_outside_parentheses(capsys):
    strategy = "hybrid(alpha=0.3,use_predictions=false)"
    assert main([*ROBUSTNESS, "--strategies", strategy, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["strategy"] for row in rows] == [strategy]


def test_tune_spec_lists_split_outside_parentheses(capsys):
    assert main([*TUNE, "--orderings", "metis(leaf_size=32,balance=0.5)", "--format", "json"]) == 0
    board = json.loads(capsys.readouterr().out)
    assert board["evaluations"] == 2


@pytest.mark.parametrize("argv", [TUNE, ROBUSTNESS], ids=["tune", "robustness"])
def test_jobs_zero_is_a_usage_error_naming_the_flag(argv, capsys):
    assert "error: --jobs must be >= 1" in _usage_error([*argv, "--jobs", "0"], capsys)


def test_tune_rejects_unknown_orderings_before_any_work(capsys):
    err = _usage_error([*TUNE, "--orderings", "metis,bogus"], capsys)
    assert "unknown --orderings value 'bogus'" in err
