"""Tests of the benchmark subsystem: env validation, the JSON result model,
baseline comparison verdicts, and the ``repro bench`` CLI."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchCase,
    BenchEnv,
    BenchEnvError,
    BenchResult,
    BenchRun,
    BenchRunner,
    PreparedCase,
    SuiteInstance,
    compare_runs,
    default_baseline_path,
    median_run,
    suite_names,
)
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------- #
# BenchEnv
# --------------------------------------------------------------------------- #
class TestBenchEnv:
    def test_defaults_from_empty_environ(self):
        env = BenchEnv.from_environ({})
        assert env.nprocs == 32
        assert env.scale == 0.6
        assert env.to_dict() == {"nprocs": 32, "scale": 0.6}

    def test_reads_every_variable(self):
        env = BenchEnv.from_environ({"REPRO_BENCH_NPROCS": "8", "REPRO_BENCH_SCALE": "0.25"})
        assert (env.nprocs, env.scale) == (8, 0.25)

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("REPRO_BENCH_SCALE", "0"),
            ("REPRO_BENCH_SCALE", "-1"),
            ("REPRO_BENCH_SCALE", "five"),
            ("REPRO_BENCH_SCALE", "99"),
            ("REPRO_BENCH_NPROCS", "0"),
            ("REPRO_BENCH_NPROCS", "2.5"),
        ],
    )
    def test_bad_values_raise_with_variable_name(self, variable, value):
        with pytest.raises(BenchEnvError, match=variable):
            BenchEnv.from_environ({variable: value})

    def test_replace_validates_and_ignores_none(self):
        env = BenchEnv.from_environ({})
        assert env.replace(scale=None).scale == env.scale
        assert env.replace(scale=0.2, nprocs=4) == BenchEnv(nprocs=4, scale=0.2)
        with pytest.raises(BenchEnvError):
            env.replace(scale=0.0)


# --------------------------------------------------------------------------- #
# result model JSON round-trip
# --------------------------------------------------------------------------- #
def _sample_run() -> BenchRun:
    run = BenchRun(host="testhost", timestamp="2026-07-26T00:00:00+00:00")
    run.results.append(
        BenchResult(
            case=BenchCase("alpha", "pipeline", (("nprocs", 8), ("scale", 0.2))),
            seconds=[0.5, 0.4, 0.6],
            warmup=1,
            metrics={"max_peak_stack": 123.0},
        )
    )
    run.results.append(
        BenchResult(case=BenchCase("broken", "pipeline"), error="Traceback: boom")
    )
    return run


class TestModelRoundTrip:
    def test_case_round_trip_and_key(self):
        case = BenchCase("alpha", "pipeline", (("b", 2), ("a", 1)))
        assert case.key == "pipeline/alpha"
        assert BenchCase.from_dict(case.to_dict()) == case
        # params are order-canonical
        assert case == BenchCase("alpha", "pipeline", (("a", 1), ("b", 2)))

    def test_result_statistics(self):
        result = _sample_run().results[0]
        assert result.best == 0.4
        assert result.mean == pytest.approx(0.5)
        assert result.repeats == 3
        errored = _sample_run().results[1]
        assert errored.best != errored.best  # NaN
        assert errored.error is not None

    def test_run_round_trips_through_json_file(self, tmp_path):
        run = _sample_run()
        path = tmp_path / "run.json"
        run.save(str(path))
        loaded = BenchRun.load(str(path))
        assert loaded.to_dict() == run.to_dict()
        assert json.loads(path.read_text())["schema"] == SCHEMA_VERSION
        assert [r.case.key for r in loaded.errors] == ["pipeline/broken"]

    def test_unsupported_schema_is_rejected(self):
        payload = _sample_run().to_dict()
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            BenchRun.from_dict(payload)

    def test_runs_recorded_with_the_removed_env_keys_still_load_and_compare(self, tmp_path):
        # runs saved while BenchEnv still had `cache` and `jobs` (every
        # committed history file up to the suites' removal) hold them in env
        payload = _sample_run().to_dict()
        payload["env"] = {"cache": ".repro_cache", "jobs": 1, "nprocs": 8, "scale": 0.2}
        del payload["results"][1]  # the errored case
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        old = BenchRun.load(str(path))
        assert old.env["cache"] == ".repro_cache" and old.env["jobs"] == 1

        current = BenchRun.started(BenchEnv(nprocs=8, scale=0.2))
        assert current.env == {"nprocs": 8, "scale": 0.2}
        current.results = [BenchResult(case=r.case, seconds=[0.45]) for r in old.results]
        report = compare_runs(current, old, tolerance=0.25)
        assert [(d.key, d.verdict) for d in report.deltas] == [
            ("pipeline/alpha", "within-tolerance")
        ]
        assert not report.failed()

    def test_committed_history_runs_load(self):
        history = sorted((REPO_ROOT / "benchmarks" / "baselines" / "history").glob("run-*.json"))
        assert history
        for path in history:
            assert BenchRun.load(str(path)).results, path


# --------------------------------------------------------------------------- #
# baseline comparison
# --------------------------------------------------------------------------- #
def _run_with(cases: dict[str, float | None], host: str = "h") -> BenchRun:
    """A run with one result per (key → best seconds); ``None`` = errored."""
    run = BenchRun(host=host, timestamp="t")
    for key, best in cases.items():
        suite, name = key.split("/")
        case = BenchCase(name, suite)
        if best is None:
            run.results.append(BenchResult(case=case, error="boom"))
        else:
            run.results.append(BenchResult(case=case, seconds=[best]))
    return run


class TestCompare:
    def test_verdicts(self):
        baseline = _run_with({"s/same": 1.0, "s/slower": 1.0, "s/faster": 1.0, "s/gone": 1.0})
        current = _run_with(
            {"s/same": 1.1, "s/slower": 1.5, "s/faster": 0.5, "s/added": 1.0}
        )
        report = compare_runs(current, baseline, tolerance=0.25)
        verdicts = {d.key: d.verdict for d in report.deltas}
        assert verdicts == {
            "s/same": "within-tolerance",
            "s/slower": "regression",
            "s/faster": "improvement",
            "s/added": "new",
            "s/gone": "missing",
        }
        slower = next(d for d in report.deltas if d.key == "s/slower")
        assert slower.ratio == pytest.approx(1.5)
        assert slower.delta_percent == pytest.approx(50.0)

    def test_identity_compare_is_all_within_tolerance(self):
        run = _run_with({"s/a": 1.0, "s/b": 0.01})
        report = compare_runs(run, run, tolerance=0.0)
        assert all(d.verdict == "within-tolerance" for d in report.deltas)
        assert not report.failed()

    def test_failure_policy(self):
        baseline = _run_with({"s/a": 1.0})
        # a 1.5x slowdown fails by default...
        report = compare_runs(_run_with({"s/a": 1.5}), baseline, tolerance=0.25)
        assert report.failed()
        # ...but passes a CI-style gate that only rejects >2x
        assert not report.failed(max_regression=2.0)
        assert compare_runs(_run_with({"s/a": 2.5}), baseline, tolerance=0.25).failed(
            max_regression=2.0
        )
        # hard errors always fail, whatever the thresholds
        errored = compare_runs(_run_with({"s/a": None}), baseline, tolerance=0.25)
        assert errored.deltas[0].verdict == "error"
        assert errored.failed(max_regression=100.0)

    def test_zero_overlap_fails_the_gate(self):
        # renamed cases (or a baseline from a failed run) must not pass green
        report = compare_runs(
            _run_with({"s/renamed": 1.0}), _run_with({"s/old-name": 1.0}), tolerance=0.25
        )
        assert {d.verdict for d in report.deltas} == {"new", "missing"}
        assert report.failed()
        assert report.failed(max_regression=2.0)
        # a genuinely added case next to matched ones is still fine
        ok = compare_runs(
            _run_with({"s/kept": 1.0, "s/added": 1.0}), _run_with({"s/kept": 1.0})
        )
        assert not ok.failed()

    def test_partial_missing_fails_but_unrun_suites_are_out_of_scope(self):
        baseline = _run_with({"s/kept": 1.0, "s/dropped": 1.0, "other/x": 1.0})
        current = _run_with({"s/kept": 1.0})
        report = compare_runs(current, baseline, tolerance=0.25)
        verdicts = {d.key: d.verdict for d in report.deltas}
        # lost coverage within a suite that ran fails the gate...
        assert verdicts["s/dropped"] == "missing"
        assert report.failed()
        assert report.failed(max_regression=100.0)
        # ...but a suite absent from the current run is simply out of scope
        assert "other/x" not in verdicts

    def test_config_mismatch_is_flagged_and_fails(self):
        def run_at(scale: float) -> BenchRun:
            run = BenchRun(host="h", timestamp="t")
            run.results.append(
                BenchResult(case=BenchCase("a", "s", (("scale", scale),)), seconds=[1.0])
            )
            return run

        report = compare_runs(run_at(0.2), run_at(0.6), tolerance=0.25)
        assert [d.verdict for d in report.deltas] == ["config-mismatch"]
        assert report.failed()
        assert report.failed(max_regression=100.0)
        # identical knobs compare normally
        assert not compare_runs(run_at(0.2), run_at(0.2)).failed()

    def test_tolerance_validation(self):
        run = _run_with({"s/a": 1.0})
        with pytest.raises(ValueError, match="tolerance"):
            compare_runs(run, run, tolerance=1.5)

    def test_report_json_shape(self):
        report = compare_runs(_run_with({"s/a": 2.0}), _run_with({"s/a": 1.0}))
        data = report.to_dict()
        assert data["failed"] is True
        assert data["deltas"][0]["verdict"] == "regression"
        assert "summary" in data

    def test_report_json_is_strictly_parseable_with_unpaired_cases(self):
        # new/missing/error deltas carry NaN internally; JSON must get null
        report = compare_runs(
            _run_with({"s/added": 1.0, "s/err": None}), _run_with({"s/gone": 1.0})
        )
        text = json.dumps(report.to_dict())
        assert "NaN" not in text
        deltas = {d["key"]: d for d in json.loads(text)["deltas"]}
        assert deltas["s/added"]["baseline_seconds"] is None
        assert deltas["s/gone"]["current_seconds"] is None
        assert deltas["s/err"]["ratio"] is None

    def test_report_json_failed_honours_max_regression(self):
        # the artifact and the exit code must tell the same story
        report = compare_runs(_run_with({"s/a": 1.5}), _run_with({"s/a": 1.0}), tolerance=0.25)
        assert report.to_dict()["failed"] is True
        relaxed = report.to_dict(max_regression=2.0)
        assert relaxed["failed"] is False
        assert relaxed["max_regression"] == 2.0


# --------------------------------------------------------------------------- #
# runner
# --------------------------------------------------------------------------- #
class TestBenchRunner:
    def test_warmup_and_repeats_with_fake_timer(self):
        calls = []
        ticks = iter(range(100))

        def fn():
            calls.append("run")
            return {"value": 1.0}

        prepared = PreparedCase(
            case=BenchCase("c", "s"), fn=fn, repeats=3, warmup=2
        )
        runner = BenchRunner(BenchEnv.from_environ({}), timer=lambda: float(next(ticks)))
        result = runner.run_case(prepared)
        assert len(calls) == 5  # 2 warmups + 3 timed repeats
        assert result.seconds == [1.0, 1.0, 1.0]
        assert result.warmup == 2
        assert result.metrics == {"value": 1.0}

    def test_global_overrides_and_validation(self):
        prepared = PreparedCase(case=BenchCase("c", "s"), fn=lambda: None, repeats=5, warmup=3)
        runner = BenchRunner(BenchEnv.from_environ({}), repeats=1, warmup=0)
        assert runner.run_case(prepared).repeats == 1
        with pytest.raises(ValueError):
            BenchRunner(repeats=0)
        with pytest.raises(ValueError):
            BenchRunner(warmup=-1)

    def test_case_error_is_captured_not_raised(self):
        def explode():
            raise RuntimeError("kaboom")

        runner = BenchRunner(BenchEnv.from_environ({}))
        result = runner.run_case(PreparedCase(case=BenchCase("c", "s"), fn=explode))
        assert result.seconds == []
        assert "kaboom" in result.error

    def test_profile_top_attaches_digest_and_round_trips(self):
        calls = []

        def fn():
            calls.append("run")
            return {"value": 1.0}

        prepared = PreparedCase(case=BenchCase("c", "s"), fn=fn, repeats=2, warmup=1)
        runner = BenchRunner(BenchEnv.from_environ({}), profile_top=5)
        result = runner.run_case(prepared)
        # 1 warmup + 2 timed + 1 profiled execution
        assert len(calls) == 4
        assert result.seconds and result.error is None
        assert result.profile is not None and 1 <= len(result.profile) <= 5
        for row in result.profile:
            assert set(row) == {"function", "ncalls", "tottime", "cumtime"}
            assert row["ncalls"] >= 1 and row["cumtime"] >= 0.0
        # the digest survives the JSON round trip (and stays optional)
        back = BenchResult.from_dict(result.to_dict())
        assert back.profile == result.profile
        plain = BenchResult.from_dict(
            BenchResult(case=BenchCase("c", "s"), seconds=[0.1]).to_dict()
        )
        assert plain.profile is None

    def test_profile_failure_never_voids_the_timings(self):
        calls = []

        def fn():
            calls.append("run")
            if len(calls) > 2:  # timed repeats succeed, the profiled run raises
                raise RuntimeError("profiling-only failure")
            return {"value": 1.0}

        prepared = PreparedCase(case=BenchCase("c", "s"), fn=fn, repeats=2, warmup=0)
        result = BenchRunner(BenchEnv.from_environ({}), profile_top=5).run_case(prepared)
        assert len(result.seconds) == 2 and result.error is None
        assert len(result.profile) == 1
        assert result.profile[0]["function"].startswith("<profiling failed>")

    def test_profile_disabled_by_default_and_validated(self):
        runner = BenchRunner(BenchEnv.from_environ({}))
        result = runner.run_case(PreparedCase(case=BenchCase("c", "s"), fn=lambda: None))
        assert result.profile is None
        with pytest.raises(ValueError):
            BenchRunner(profile_top=0)

    def test_suite_registry_names(self):
        assert suite_names() == [
            "pipeline", "analysis", "components", "serving", "results", "tuning", "robustness",
        ]

    def test_registered_suites_are_exactly_the_suites_ci_runs(self):
        # a suite no CI step runs is neither gated nor smoked: it only rots
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        commands = [
            line for line in workflow.replace("\\\n", " ").splitlines()
            if "repro bench run" in line
        ]
        assert commands
        ci_suites = set()
        for command in commands:
            match = re.search(r"--suite[ =](\S+)", command)
            ci_suites.update(match.group(1).split(",") if match else ["pipeline"])
        assert ci_suites == set(suite_names())

    def test_suite_build_failure_is_recorded_not_raised(self, monkeypatch):
        from repro.bench import suites as suites_mod

        def broken_build(env):
            raise RuntimeError("analysis chain broke")

        monkeypatch.setitem(
            suites_mod.SUITES._entries,
            "broken",
            type(suites_mod.SUITES.entry("pipeline"))(
                name="broken", value=broken_build, description="", params={}
            ),
        )
        runner = BenchRunner(BenchEnv.from_environ({}))
        run = runner.run_suites(["broken"])
        assert [r.case.key for r in run.results] == ["broken/broken-build"]
        assert "analysis chain broke" in run.results[0].error


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestBenchCli:
    def test_list_json(self, capsys):
        assert repro_main(["bench", "list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["name"] for entry in payload] == suite_names()

    def test_unknown_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["bench", "run", "--suite", "nope"])
        assert excinfo.value.code == 2
        assert "nope" in capsys.readouterr().err

    def test_suite_all_cannot_be_combined(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["bench", "run", "--suite", "all,components"])
        assert excinfo.value.code == 2
        assert "don't combine" in capsys.readouterr().err

    def test_flag_errors_name_the_flag_not_the_env_var(self, capsys):
        with pytest.raises(SystemExit):
            repro_main(["bench", "run", "--scale", "0"])
        err = capsys.readouterr().err
        assert "--scale" in err and "REPRO_BENCH_SCALE" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "run", "--scale", "0"],
            ["bench", "run", "--nprocs", "0"],
            ["bench", "run", "--repeats", "0"],
            ["bench", "run", "--warmup", "-1"],
            ["bench", "compare", "a.json", "b.json", "--tolerance", "1.5"],
            ["bench", "compare", "a.json", "b.json", "--max-regression", "0.9"],
            ["bench", "run", "--baseline", "b.json", "--tolerance", "1.5"],
            ["bench", "run", "--baseline", "b.json", "--max-regression", "1.0"],
            ["bench", "run", "--format", "yaml"],
            ["bench", "run", "--profile", "0"],
            ["bench"],
        ],
    )
    def test_argument_validation(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(argv)
        assert excinfo.value.code == 2

    def test_compare_missing_file_is_a_clean_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["bench", "compare", missing, missing])
        assert "not found" in str(excinfo.value)

    def test_run_save_and_self_compare_end_to_end(self, tmp_path, capsys):
        out = str(tmp_path / "run.json")
        code = repro_main(
            [
                "bench", "run", "--suite", "components", "--scale", "0.15",
                "--repeats", "1", "--warmup", "0", "--quiet",
                "--format", "json", "--save", out,
                "--history", str(tmp_path / "history"),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["schema"] == SCHEMA_VERSION
        assert all(r["case"]["suite"] == "components" for r in payload["results"])
        # every substrate component ran and measured something non-empty
        assert all("error" not in r and min(r["metrics"].values()) > 0 for r in payload["results"])
        assert BenchRun.load(out).to_dict() == payload

        assert repro_main(["bench", "compare", out, out, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] is False
        assert all(d["verdict"] == "within-tolerance" for d in report["deltas"])

    def test_run_with_baseline_json_is_one_document(self, tmp_path, capsys):
        out = str(tmp_path / "run.json")
        assert repro_main(
            [
                "bench", "run", "--suite", "components", "--scale", "0.15",
                "--repeats", "1", "--warmup", "0", "--quiet",
                "--format", "json", "--save", out, "--no-history",
            ]
        ) == 0
        capsys.readouterr()
        # PR 5 made the micro cases sub-millisecond: a 1-repeat self-compare
        # can jitter past any plain tolerance, so gate on --max-regression —
        # this test pins the one-JSON-document contract, not the timings
        assert repro_main(
            [
                "bench", "run", "--suite", "components", "--scale", "0.15",
                "--repeats", "1", "--warmup", "0", "--quiet",
                "--format", "json", "--baseline", out, "--max-regression", "50.0",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)  # must parse as ONE document
        assert set(payload) == {"run", "compare"}
        assert payload["compare"]["failed"] is False

    def test_default_baseline_path_shape(self):
        path = default_baseline_path(host="box", directory="/tmp/x")
        assert path.endswith("BENCH_box.json")

    def test_save_creates_missing_directories(self, tmp_path):
        run = _sample_run()
        path = tmp_path / "deep" / "nested" / "run.json"
        run.save(str(path))
        assert BenchRun.load(str(path)).to_dict() == run.to_dict()

    def test_flag_first_bench_is_a_clear_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["--nprocs", "8", "bench"])
        assert excinfo.value.code == 2
        assert "'bench' must come first" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# suites must build (and run) against a tiny env
# --------------------------------------------------------------------------- #
def test_pipeline_suite_builds_and_closes():
    from repro.bench import build_suite

    env = BenchEnv.from_environ({}).replace(scale=0.1, nprocs=4)
    instance = build_suite("pipeline", env)
    try:
        assert isinstance(instance, SuiteInstance)
        names = [c.case.name for c in instance.cases]
        assert "sweep-serial-cold" in names
        assert any(name.startswith("simulate-") for name in names)
        for prepared in instance.cases:
            metrics = prepared.fn()
            assert metrics and min(metrics.values()) >= 0
    finally:
        instance.close()


def test_analysis_suite_covers_every_problem_and_ordering():
    from repro.bench import build_suite
    from repro.experiments.problems import PROBLEMS

    env = BenchEnv.from_environ({}).replace(scale=0.1, nprocs=4)
    instance = build_suite("analysis", env)
    try:
        keys = {(dict(c.case.params)["problem"], dict(c.case.params)["ordering"]) for c in instance.cases}
        assert keys == {(p, o) for p in PROBLEMS for o in ("metis", "pord", "amd", "amf")}
        metrics = instance.cases[0].fn()
        assert metrics["nodes"] >= 1 and metrics["factor_entries"] > 0
    finally:
        instance.close()


# --------------------------------------------------------------------------- #
# host-speed calibration
# --------------------------------------------------------------------------- #
class TestCalibration:
    def test_runner_records_calibrated_seconds(self):
        from repro.bench.calibration import REFERENCE_SAMPLE_S
        from repro.bench.runner import CALIBRATION_SAMPLES

        ticks = iter(range(100))
        # around the first repeat the host runs twice as slow as the reference
        # machine (one sample is an outlier), around the second four times
        n = 2 * CALIBRATION_SAMPLES
        samples = iter(
            [2 * REFERENCE_SAMPLE_S] * (n - 1) + [1.0] + [4 * REFERENCE_SAMPLE_S] * n
        )
        prepared = PreparedCase(case=BenchCase("c", "s"), fn=lambda: None, repeats=2, warmup=0)
        runner = BenchRunner(
            BenchEnv.from_environ({}),
            timer=lambda: float(next(ticks)),
            calibrate=lambda: next(samples),
        )
        result = runner.run_case(prepared)
        assert result.seconds == [1.0, 1.0]
        # each repeat is divided by the median slowdown of its own samples
        assert result.calibrated_seconds == pytest.approx([0.5, 0.25])
        assert result.calibrated_best == pytest.approx(0.25)
        loaded = BenchResult.from_dict(result.to_dict())
        assert loaded.calibrated_seconds == result.calibrated_seconds

    def test_schema_1_baseline_still_loads(self, tmp_path):
        payload = _sample_run().to_dict()
        payload["schema"] = 1
        for result in payload["results"]:
            del result["calibrated_seconds"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = BenchRun.load(str(path))
        assert loaded.results[0].seconds == [0.5, 0.4, 0.6]
        assert loaded.results[0].calibrated_seconds == []
        # a raw-only baseline is compared on raw times
        report = compare_runs(_sample_run(), loaded)
        assert [d.calibrated for d in report.compared] == [False]
        assert report.compared[0].ratio == pytest.approx(1.0)

    def test_compare_uses_calibrated_times(self):
        def run(raw: float, calibrated: float) -> BenchRun:
            out = BenchRun(host="h", timestamp="t")
            out.results.append(
                BenchResult(
                    case=BenchCase("a", "s"), seconds=[raw], calibrated_seconds=[calibrated]
                )
            )
            return out

        # the raw time doubled because the host ran twice as slow: no regression
        report = compare_runs(run(2.0, 1.0), run(1.0, 1.0), tolerance=0.25)
        delta = report.deltas[0]
        assert delta.calibrated and delta.verdict == "within-tolerance"
        assert (delta.current_seconds, delta.baseline_seconds) == (1.0, 1.0)
        assert not report.failed()
        # same raw time on a host twice as fast: the code got 2x slower
        slower = compare_runs(run(1.0, 2.0), run(1.0, 1.0), tolerance=0.25)
        assert slower.deltas[0].verdict == "regression"
        assert slower.deltas[0].ratio == pytest.approx(2.0)
        assert slower.to_dict()["deltas"][0]["calibrated"] is True


# --------------------------------------------------------------------------- #
# folding several runs into one baseline
# --------------------------------------------------------------------------- #
class TestMedianRun:
    @staticmethod
    def _run(cases: dict[str, tuple], stamp: str) -> BenchRun:
        """key -> (raw best, calibrated best), or None for an errored case."""
        run = BenchRun(host="h", timestamp=stamp, env={"scale": 0.2, "nprocs": 32})
        for key, times in cases.items():
            suite, name = key.split("/")
            case = BenchCase(name, suite, (("scale", 0.2),))
            if times is None:
                run.results.append(BenchResult(case=case, error="boom"))
            else:
                raw, calibrated = times
                run.results.append(
                    BenchResult(
                        case=case, seconds=[raw, raw * 1.5], calibrated_seconds=[calibrated, calibrated * 2]
                    )
                )
        return run

    def test_per_case_median_of_injected_runs(self):
        runs = [
            self._run({"s/a": (1.0, 0.9), "s/b": (3.0, 3.0), "s/c": None}, "t1"),
            self._run({"s/a": (5.0, 0.2), "s/b": (1.0, 1.0), "s/c": None}, "t2"),
            self._run({"s/a": (2.0, 0.5), "s/b": (2.0, 2.0), "s/c": (4.0, 4.0)}, "t3"),
        ]
        folded = median_run(runs)
        best = {r.case.key: (r.best, r.calibrated_best, r.error) for r in folded.results}
        # the median is taken on the calibrated best; the whole result comes along
        assert best == {"s/a": (2.0, 0.5, None), "s/b": (2.0, 2.0, None), "s/c": (4.0, 4.0, None)}
        assert [r.case.key for r in folded.results] == ["s/a", "s/b", "s/c"]
        assert (folded.timestamp, folded.env) == ("t3", {"scale": 0.2, "nprocs": 32})
        assert folded.schema == SCHEMA_VERSION

    def test_one_lucky_run_cannot_set_the_baseline(self):
        lucky = self._run({"s/a": (0.6, 0.6)}, "lucky")
        usual = [self._run({"s/a": (t, t)}, f"t{t}") for t in (1.0, 1.1, 0.95)]
        folded = median_run([lucky, *usual])
        # upper median of four: one fast outlier moves nothing to its side
        assert folded.results[0].calibrated_best == 1.0
        later = self._run({"s/a": (1.05, 1.05)}, "later")
        assert compare_runs(later, folded).deltas[0].verdict == "within-tolerance"
        assert compare_runs(later, lucky).deltas[0].verdict == "regression"

    def test_all_errored_case_stays_an_error_and_raw_times_are_used_without_calibration(self):
        runs = [self._run({"s/a": None}, "t1"), self._run({"s/a": None}, "t2")]
        assert median_run(runs).results[0].error == "boom"
        raw = [BenchRun(host="h", timestamp=str(t)) for t in range(3)]
        for run, best in zip(raw, (3.0, 1.0, 2.0)):
            run.results.append(BenchResult(case=BenchCase("a", "s"), seconds=[best]))
        assert median_run(raw).results[0].best == 2.0

    def test_mismatched_runs_are_rejected(self):
        base = self._run({"s/a": (1.0, 1.0)}, "t1")
        other_env = self._run({"s/a": (1.0, 1.0)}, "t2")
        other_env.env = {"scale": 0.3, "nprocs": 32}
        with pytest.raises(ValueError, match="settings"):
            median_run([base, other_env])
        other_knobs = self._run({"s/a": (1.0, 1.0)}, "t2")
        other_knobs.results[0].case = BenchCase("a", "s", (("scale", 0.3),))
        with pytest.raises(ValueError, match="knobs"):
            median_run([base, other_knobs])
        with pytest.raises(ValueError):
            median_run([])

    def test_fold_cli_writes_a_baseline_compare_reads(self, tmp_path, capsys):
        paths = []
        for i, t in enumerate((1.0, 3.0, 2.0)):
            path = tmp_path / f"run{i}.json"
            self._run({"s/a": (t, t)}, f"t{i}").save(str(path))
            paths.append(str(path))
        out = str(tmp_path / "baseline.json")
        assert repro_main(["bench", "fold", *paths, "--save", out]) == 0
        assert BenchRun.load(out).results[0].calibrated_best == 2.0
        assert capsys.readouterr().out == ""
        assert repro_main(["bench", "compare", paths[2], out, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["deltas"][0]["ratio"] == 1.0
        mismatched = tmp_path / "other.json"
        run = self._run({"s/a": (1.0, 1.0)}, "t")
        run.env = {"scale": 0.5}
        run.save(str(mismatched))
        with pytest.raises(SystemExit) as excinfo:
            repro_main(["bench", "fold", paths[0], str(mismatched), "--save", out])
        assert excinfo.value.code == 2


# --------------------------------------------------------------------------- #
# contention: wall over process CPU seconds
# --------------------------------------------------------------------------- #
class TestContention:
    def _runner(self, wall_per_repeat: float, cpu_per_repeat: float) -> BenchRunner:
        wall, cpu = iter(range(100)), iter(range(100))
        return BenchRunner(
            BenchEnv.from_environ({}),
            timer=lambda: next(wall) * wall_per_repeat,
            cpu_timer=lambda: next(cpu) * cpu_per_repeat,
            calibrate=lambda: 0.003,
        )

    def _run(self, wall_per_repeat: float, cpu_per_repeat: float) -> BenchRun:
        prepared = PreparedCase(case=BenchCase("a", "s"), fn=lambda: None, repeats=3, warmup=0)
        run = BenchRun(host="h", timestamp="t")
        run.results.append(self._runner(wall_per_repeat, cpu_per_repeat).run_case(prepared))
        return run

    def test_runner_records_cpu_seconds_beside_wall_seconds(self):
        result = self._run(2.0, 1.0).results[0]
        assert result.seconds == [2.0, 2.0, 2.0]
        assert result.cpu_seconds == [1.0, 1.0, 1.0]
        assert result.wall_cpu == pytest.approx(2.0)
        assert BenchResult.from_dict(result.to_dict()).cpu_seconds == result.cpu_seconds

    def test_compare_marks_contended_cases_and_keeps_verdicts(self):
        baseline = self._run(1.0, 1.0)
        quiet = compare_runs(self._run(1.0, 1.0), baseline).deltas[0]
        assert quiet.wall_cpu == pytest.approx(1.0) and not quiet.contended
        # the same code time-sliced with another process: wall 1.3x its CPU
        report = compare_runs(self._run(1.3, 1.0), baseline, tolerance=0.25)
        delta = report.deltas[0]
        assert delta.wall_cpu == pytest.approx(1.3) and delta.contended
        # the mark adds information: the verdict and the gate are unchanged
        assert delta.verdict == "regression"
        assert report.failed() and not report.failed(max_regression=2.0)
        assert report.to_dict()["deltas"][0]["contended"] is True
        from repro.bench.cli import render_report

        text = render_report(report, "text")
        assert "wall/cpu" in text and "1.30 contended" in text

    def test_schema_2_run_loads_without_cpu_seconds(self, tmp_path):
        payload = self._run(1.0, 1.0).to_dict()
        payload["schema"] = 2
        for result in payload["results"]:
            del result["cpu_seconds"]
        path = tmp_path / "schema2.json"
        path.write_text(json.dumps(payload))
        loaded = BenchRun.load(str(path))
        assert loaded.results[0].cpu_seconds == []
        delta = compare_runs(loaded, self._run(1.0, 1.0)).deltas[0]
        assert delta.wall_cpu != delta.wall_cpu and not delta.contended  # NaN: not recorded
        assert delta.to_dict()["wall_cpu"] is None
