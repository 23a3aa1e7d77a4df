"""Tests for the command-line interface."""

import json

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
        with pytest.raises(SystemExit):
            main(argv)
        assert "--format text or json" in capsys.readouterr().err


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
