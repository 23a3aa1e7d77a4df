"""Tests for the Session façade, declarative sweeps and the machine-readable CLI."""

import json

import numpy as np
import pytest

import repro
from repro import CaseSpec, SweepSpec, open_session
from repro.cli import main
from repro.pipeline import CaseResult
from repro.runtime import SimulationConfig
from repro.session import Session


def assert_case_results_equal(a: CaseResult, b: CaseResult) -> None:
    assert (a.problem, a.ordering, a.strategy, a.split) == (b.problem, b.ordering, b.strategy, b.split)
    assert a.max_peak_stack == b.max_peak_stack
    assert a.total_time == b.total_time
    assert np.array_equal(a.per_proc_peak_stack, b.per_proc_peak_stack)
    assert (a.nodes, a.nodes_split, a.messages, a.nprocs) == (b.nodes, b.nodes_split, b.messages, b.nprocs)


class TestSession:
    def test_open_session_context_manager(self):
        with open_session(nprocs=4, scale=0.2) as session:
            assert isinstance(session, Session)
            result = session.run(CaseSpec("XENON2", "metis", "memory-full"))
            assert result.max_peak_stack > 0
        assert session._executor is None

    def test_close_is_idempotent(self):
        session = open_session(nprocs=4, scale=0.2)
        session.sweep(problems="XENON2", strategies=["memory-full"])
        assert not session.closed  # sweep instantiated the lazy executor
        session.close()
        assert session.closed
        session.close()  # second close: a no-op, not an error
        assert session.closed

    def test_context_manager_safe_after_explicit_close(self):
        """``close()`` inside the ``with`` body must not break ``__exit__``."""
        with open_session(nprocs=4, scale=0.2, jobs=2) as session:
            session.sweep(problems="XENON2", strategies=["memory-full"])
            session.close()
        assert session.closed

    def test_close_before_any_work(self):
        session = open_session(nprocs=4, scale=0.2)
        assert session.closed  # executor is lazy: nothing to shut down yet
        session.close()
        assert session.closed

    def test_run_accepts_dict_cases(self):
        with open_session(nprocs=4, scale=0.2) as session:
            a = session.run({"problem": "XENON2", "ordering": "metis"})
            b = session.run(CaseSpec("XENON2", "metis"))
            assert_case_results_equal(a, b)

    def test_sweep_kwargs_and_spec_forms_agree(self):
        with open_session(nprocs=4, scale=0.2) as session:
            via_kwargs = session.sweep(problems="XENON2", strategies=["memory-full"])
            via_spec = session.sweep(SweepSpec(problems="XENON2", strategies=["memory-full"]))
            via_dict = session.sweep({"problems": ["XENON2"], "strategies": ["memory-full"]})
        for x, y in zip(via_kwargs, via_spec):
            assert_case_results_equal(x, y)
        for x, y in zip(via_kwargs, via_dict):
            assert_case_results_equal(x, y)

    def test_sweep_rejects_mixed_forms(self):
        with open_session(nprocs=4, scale=0.2) as session:
            with pytest.raises(TypeError):
                session.sweep(SweepSpec(problems="XENON2"), problems=["PRE2"])

    def test_per_case_nprocs_override(self):
        with open_session(nprocs=4, scale=0.2) as session:
            results = session.sweep(problems="XENON2", nprocs=[4, 8])
        assert [r.nprocs for r in results] == [4, 8]
        assert results[0].per_proc_peak_stack.shape == (4,)
        assert results[1].per_proc_peak_stack.shape == (8,)

    def test_compare_matches_quick_compare(self):
        outcome = repro.quick_compare("XENON2", "metis", nprocs=4, scale=0.2)
        for key in ("baseline_peak", "candidate_peak", "gain_percent", "time_loss_percent"):
            assert key in outcome

    @pytest.mark.parametrize("split_threshold", [None, 2_000])
    def test_simulate_equals_session_run(self, split_threshold):
        """The one-call API and the pipeline analyse the same tree: one amalgamation recipe."""
        with open_session(nprocs=8, scale=0.2) as session:
            for problem in ("XENON2", "SHIP_003", "PRE2"):
                pattern = session.pattern(problem)
                for ordering in ("pord", "amd"):
                    for strategy in ("mumps-workload", "memory-full"):
                        spec = CaseSpec(
                            problem, ordering, strategy,
                            split=split_threshold is not None, split_threshold=split_threshold,
                        )
                        want = session.run(spec)
                        got = repro.simulate(
                            pattern, ordering=ordering, strategy=strategy, nprocs=8,
                            split_threshold=split_threshold,
                        )
                        assert got.nodes == want.nodes
                        assert got.total_factor_entries == want.total_factor_entries
                        assert np.array_equal(got.per_proc_peak_stack, want.per_proc_peak_stack)
                        assert (got.max_peak_stack, got.total_time) == (want.max_peak_stack, want.total_time)
                        assert sum(got.message_counts.values()) == want.messages

    def test_acceptance_grid_strategy_params_times_nprocs(self):
        """One sweep() varies hybrid alpha AND processor count; serial ≡ parallel; JSON-safe."""
        grid = dict(
            problems="XENON2",
            orderings=["metis"],
            strategies=["hybrid(alpha=0.25)", "hybrid(alpha=0.5)", "hybrid(alpha=0.75)"],
            nprocs=[4, 8],
        )
        with open_session(nprocs=4, scale=0.2) as serial:
            expected = serial.sweep(**grid)
        with open_session(nprocs=4, scale=0.2, jobs=2) as parallel:
            observed = parallel.sweep(**grid)
        assert len(expected) == len(observed) == 6
        for a, b in zip(expected, observed):
            assert_case_results_equal(a, b)
        # the grid covers every (alpha, nprocs) combination, in grid order
        assert [(r.strategy, r.nprocs) for r in expected] == [
            (s, n)
            for s in ("hybrid(alpha=0.25)", "hybrid(alpha=0.5)", "hybrid(alpha=0.75)")
            for n in (4, 8)
        ]
        # results round-trip through JSON bit-identically
        payload = json.dumps([r.to_dict() for r in expected])
        for original, restored in zip(expected, [CaseResult.from_dict(d) for d in json.loads(payload)]):
            assert_case_results_equal(original, restored)

    def test_session_shares_analysis_across_strategy_params(self):
        with open_session(nprocs=4, scale=0.2) as session:
            session.sweep(problems="XENON2", strategies=["hybrid(alpha=0.25)", "hybrid(alpha=0.75)"])
            a = session.analysis("XENON2", "metis")
            b = session.analysis("XENON2", "metis")
            assert a is b  # one analysis bundle serves every strategy variant

    def test_run_accepts_strategy_specs(self):
        with open_session(nprocs=4, scale=0.2) as session:
            case = session.run(CaseSpec("XENON2", "metis", "hybrid(alpha=0.25)"))
            assert case.strategy == "hybrid(alpha=0.25)"

    def test_session_config_passthrough(self):
        config = SimulationConfig.paper(8, latency=1e-5)
        with open_session(nprocs=8, scale=0.2, config=config) as session:
            assert session.config.latency == 1e-5
            assert session.config.type2_front_threshold == 96


class TestMachineReadableCli:
    def test_list_format_json(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {p["name"] for p in payload["problems"]} >= {"XENON2", "PRE2"}
        strategies = {s["name"]: s for s in payload["strategies"]}
        assert "alpha" in strategies["hybrid"]["params"]
        orderings = {o["name"]: o for o in payload["orderings"]}
        assert "leaf_size" in orderings["metis"]["params"]
        assert "table2" in {t["name"] for t in payload["tables"]}
        assert "figure5" in {f["name"] for f in payload["figures"]}

    def test_sweep_format_json(self, capsys):
        code = main(
            ["sweep", "--scale", "0.2", "--problems", "XENON2", "--orderings", "metis",
             "--strategies", "hybrid(alpha=0.25)", "--nprocs", "4,8",
             "--format", "json", "--no-progress"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [case["nprocs"] for case in payload] == [4, 8]
        assert all(case["strategy"] == "hybrid(alpha=0.25)" for case in payload)

    def test_sweep_format_csv(self, capsys):
        code = main(
            ["sweep", "--scale", "0.2", "--nprocs", "4", "--problems", "XENON2",
             "--orderings", "metis", "--strategies", "memory-full",
             "--format", "csv", "--no-progress"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("problem,ordering,strategy,split,nprocs")
        assert len(lines) == 2
        assert lines[1].startswith("XENON2,metis,memory-full")

    def test_multi_nprocs_rejected_outside_sweep(self):
        with pytest.raises(SystemExit):
            main(["table2", "--nprocs", "8,16"])

    def test_figures_reject_engine_flags_they_cannot_use(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure8", "--nprocs", "8"])
        assert "--nprocs" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["figures", "--jobs", "2"])
        with pytest.raises(SystemExit):
            main(["figure2", "--scale", "0.5"])

    def test_figures_reject_condensed_and_abbreviated_flags(self, capsys):
        # -j4 (condensed short option) is rejected like --jobs 4 …
        with pytest.raises(SystemExit) as excinfo:
            main(["figures", "-j4"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: -j4" in capsys.readouterr().err
        # … and prefix abbreviations are rejected outright (allow_abbrev=False)
        with pytest.raises(SystemExit):
            main(["figure2", "--nproc", "16"])

    def test_list_rejects_csv_format(self, capsys):
        with pytest.raises(SystemExit):
            main(["list", "--format", "csv"])
        assert "json" in capsys.readouterr().err

    def test_figures_thread_supported_flags(self, capsys):
        assert main(["figure2", "--nprocs", "6"]) == 0
        out = capsys.readouterr().out
        assert "FIGURE2" in out
        assert main(["figure5", "--cache", ""]) == 0  # figure5 accepts --cache

    def test_bad_strategy_param_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--strategies", "hybrid(gamma=1)"])
        assert "accepted" in capsys.readouterr().err
