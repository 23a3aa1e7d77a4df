"""The deterministic fault-injection layer (``repro.faults``).

Covers the spec mini-language (parsing, canonicalisation, validation), the
compiled :class:`FaultPlan` (seeded determinism, speed/penalty semantics),
the replication summary math of :meth:`CaseResult.from_replications`, the
conditional cache keys, and the acceptance criteria end to end: the same
``(faults, seed)`` pair reproduces byte-identical results across a fresh
run, a store-resumed run and a process-pool sweep.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    MAX_RETRIES,
    FaultPlan,
    FaultSpec,
    MsgLossModel,
    StragglerModel,
    canonical_faults,
    parse_faults,
    replication_seed,
)
from repro.faults.models import _SALT_MSGLOSS, LossStream, _generator
from repro.pipeline.stage import CaseSpec
from repro.results import ResultTable, case_key
from repro.serialize import canonical_json
from repro.session import Session
from repro.specs import SweepSpec

FAULTS = "stragglers(frac=0.3,slowdown=3.0)+msgloss(p=0.1,retry_timeout=5e-4)"


# --------------------------------------------------------------------------- #
# the spec mini-language
# --------------------------------------------------------------------------- #
class TestParsing:
    def test_canonical_binds_defaults_and_sorts_models(self):
        # reordered segments and defaulted parameters canonicalise identically
        a = canonical_faults("msgloss(p=0.02)+stragglers(frac=0.1,slowdown=4.0)")
        b = canonical_faults("stragglers()+msgloss(p=0.02,backoff=2.0,retry_timeout=5e-4)")
        assert a == b
        assert a.startswith("msgloss(")  # alphabetical model order

    def test_parse_round_trips_canonical(self):
        spec = parse_faults(FAULTS)
        assert parse_faults(spec.canonical()) == spec
        assert parse_faults(spec) is spec  # idempotent on FaultSpec

    def test_canonical_faults_of_none_is_empty(self):
        assert canonical_faults(None) == ""
        assert canonical_faults("") == ""

    def test_to_dict_round_trip(self):
        spec = parse_faults(FAULTS)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "text,match",
        [
            ("turbulence(p=0.1)", "unknown fault model"),
            ("msgloss(p=0.1)+msgloss(p=0.2)", "duplicate fault model"),
            ("msgloss(q=0.1)", "unknown parameter"),
            ("msgloss(p=1.5)", "p must be in"),
            ("stragglers(frac=2.0)", "frac must be in"),
            ("stragglers(slowdown=0)", "slowdown must be > 0"),
            ("slowdown(n=0)", "n must be >= 1"),
            ("msgloss(backoff=0.5)", "backoff must be >= 1"),
            ("", "cannot parse fault spec"),
            ("msgloss(p=0.1)++stragglers()", "empty fault model segment"),
        ],
    )
    def test_invalid_specs_rejected(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_faults(text)

    def test_empty_fault_spec_rejected(self):
        with pytest.raises(ValueError, match="at least one fault model"):
            FaultSpec()


# --------------------------------------------------------------------------- #
# the compiled plan
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_same_seed_identical_different_seed_diverges(self):
        a = FaultPlan.compile(FAULTS, nprocs=64, seed=5)
        b = FaultPlan.compile(FAULTS, nprocs=64, seed=5)
        np.testing.assert_array_equal(a.speed_factors, b.speed_factors)
        sa, sb = a.message_stream(), b.message_stream()
        assert [a.message_penalty(sa) for _ in range(50)] == [
            b.message_penalty(sb) for _ in range(50)
        ]
        c = FaultPlan.compile(FAULTS, nprocs=64, seed=6)
        assert not np.array_equal(a.speed_factors, c.speed_factors)

    def test_message_stream_is_fresh_per_call(self):
        plan = FaultPlan.compile("msgloss(p=0.4)", nprocs=2, seed=3)
        draws = [plan.message_penalty(plan.message_stream()) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]

    def test_no_msgloss_means_no_stream(self):
        plan = FaultPlan.compile("stragglers()", nprocs=2, seed=0)
        assert plan.message_stream() is None
        assert not plan.has_msgloss

    def test_straggler_speed_factors(self):
        plan = FaultPlan.compile("stragglers(frac=1.0,slowdown=4.0)", nprocs=8, seed=0)
        np.testing.assert_array_equal(plan.speed_factors, np.full(8, 4.0))
        none = FaultPlan.compile("stragglers(frac=0.0,slowdown=4.0)", nprocs=8, seed=0)
        np.testing.assert_array_equal(none.speed_factors, np.ones(8))

    def test_slowdown_window_gates_start_time(self):
        plan = FaultPlan.compile(
            "slowdown(n=1,span=1.0,duration=0.25,factor=2.0)", nprocs=4, seed=9
        )
        start = float(plan.window_starts[0, 0])
        assert plan.speed_at(0, start) == 2.0  # inclusive start edge
        assert plan.speed_at(0, start + 0.25) == 1.0  # exclusive end edge
        assert plan.speed_at(0, start - 1e-9) == 1.0

    def test_message_penalty_retry_cap(self):
        plan = FaultPlan.compile("msgloss(p=0.99,retry_timeout=1e-4)", nprocs=2, seed=0)

        class AlwaysLost:
            def random(self):
                return 0.0  # < p forever

        penalty, retries = plan.message_penalty(AlwaysLost())
        assert retries == MAX_RETRIES
        assert penalty > 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.one_of(st.floats(0.0, 0.5), st.floats(0.9, 0.99999)),
        retry_timeout=st.floats(1e-9, 1.0),
        backoff=st.floats(1.0, 4.0),
        messages=st.integers(1, 3 * LossStream.BLOCK),
    )
    def test_block_draws_match_scalar_draws(self, seed, p, retry_timeout, backoff, messages):
        """The block-drawn stream gives every message the fate that scalar
        ``Generator.random()`` draws give it, across block boundaries and up
        to the retry cap, and leaves the stream at the same draw."""
        model = MsgLossModel(p=p, retry_timeout=retry_timeout, backoff=backoff)
        plan = FaultPlan(FaultSpec(msgloss=model), nprocs=2, seed=seed)
        scalar = _generator(seed, _SALT_MSGLOSS)

        def scalar_penalty():
            penalty = 0.0
            retries = 0
            while retries < MAX_RETRIES and float(scalar.random()) < p:
                penalty += retry_timeout * backoff**retries
                retries += 1
            return penalty, retries

        stream = plan.message_stream()
        assert [plan.message_penalty(stream) for _ in range(messages)] == [
            scalar_penalty() for _ in range(messages)
        ]
        assert stream.random() == float(scalar.random())

    def test_replication_seed_never_base_and_distinct(self):
        seeds = {replication_seed(7, rep) for rep in range(16)}
        assert len(seeds) == 16
        assert 7 not in seeds

    def test_models_validate(self):
        with pytest.raises(ValueError):
            StragglerModel(frac=-0.1)
        with pytest.raises(ValueError):
            MsgLossModel(retry_timeout=0.0)


# --------------------------------------------------------------------------- #
# sweep axis, replication summary and keys
# --------------------------------------------------------------------------- #
class TestSweepSpecFaults:
    def test_faults_axis_expands_innermost(self):
        spec = SweepSpec(
            problems=["XENON2"],
            strategies=["memory-full"],
            faults=[None, "stragglers()"],
            fault_seed=3,
            replications=4,
        )
        assert len(spec) == 2
        clean, faulted = spec.expand()
        assert clean.faults is None
        assert clean.fault_seed == 0 and clean.replications == 1
        assert faulted.faults == canonical_faults("stragglers()")
        assert faulted.fault_seed == 3 and faulted.replications == 4

    def test_bad_faults_axis_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            SweepSpec(problems=["XENON2"], faults=["nonsense()"])
        with pytest.raises(ValueError):
            SweepSpec(problems=["XENON2"], replications=0)
        with pytest.raises(ValueError):
            SweepSpec(problems=["XENON2"], fault_seed=-1)

    def test_to_dict_round_trip(self):
        spec = SweepSpec(
            problems=["XENON2"], faults=["stragglers()"], fault_seed=2, replications=3
        )
        again = SweepSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


class TestCaseKeys:
    def test_clean_keys_unchanged_by_fault_fields(self):
        spec = CaseSpec("XENON2", "metis", "memory-full")
        base = case_key(spec, nprocs=4, scale=0.2)
        assert case_key(spec, nprocs=4, scale=0.2, faults=None) == base
        assert case_key(spec, nprocs=4, scale=0.2, faults="") == base

    def test_faulted_keys_distinct_per_seed_and_replications(self):
        spec = CaseSpec("XENON2", "metis", "memory-full")
        base = case_key(spec, nprocs=4, scale=0.2)
        k1 = case_key(spec, nprocs=4, scale=0.2, faults=FAULTS, fault_seed=1, replications=3)
        k2 = case_key(spec, nprocs=4, scale=0.2, faults=FAULTS, fault_seed=2, replications=3)
        k3 = case_key(spec, nprocs=4, scale=0.2, faults=FAULTS, fault_seed=1, replications=5)
        assert len({base, k1, k2, k3}) == 4

    def test_equivalent_fault_spellings_share_a_key(self):
        spec = CaseSpec("XENON2", "metis", "memory-full")
        a = case_key(spec, nprocs=4, scale=0.2, faults="msgloss(p=0.1)+stragglers()")
        b = case_key(
            spec, nprocs=4, scale=0.2,
            faults="stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.1)",
        )
        assert a == b


# --------------------------------------------------------------------------- #
# end to end: replications, determinism across execution paths
# --------------------------------------------------------------------------- #
def _sweep_payload(session: Session, **kwargs) -> bytes:
    results = session.sweep(
        problems=["XENON2"],
        strategies=["memory-full", "mumps-workload"],
        faults=[FAULTS],
        fault_seed=11,
        replications=3,
        **kwargs,
    )
    return canonical_json([r.to_dict() for r in results])


class TestFaultedSweeps:
    def test_replication_summary_fields(self):
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            clean = session.sweep(problems=["XENON2"], strategies=["memory-full"])
            faulted = session.sweep(
                problems=["XENON2"], strategies=["memory-full"],
                faults=["stragglers(frac=1.0,slowdown=4.0)"],
                fault_seed=11, replications=3,
            )
        case = faulted[0]
        assert case.replications == 3
        assert case.faults == canonical_faults("stragglers(frac=1.0,slowdown=4.0)")
        assert case.makespan_p50 <= case.makespan_p95
        # every processor 4x slower: the degradation must actually bite
        assert case.degradation > 1.5
        assert case.degradation == pytest.approx(
            case.makespan_p50 / clean[0].total_time
        )
        # clean results keep the neutral summary defaults
        assert clean[0].faults == "" and clean[0].replications == 1
        assert clean[0].degradation == 1.0
        assert clean[0].makespan_p50 == clean[0].total_time

    def test_fresh_runs_byte_identical(self):
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            a = _sweep_payload(session)
            b = _sweep_payload(session)
        assert a == b

    def test_store_resume_byte_identical(self, tmp_path):
        store = tmp_path / "store"
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            fresh = _sweep_payload(session, store=store)
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            replayed = _sweep_payload(session, store=store)
        assert fresh == replayed

    def test_serial_and_parallel_byte_identical(self):
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            serial = _sweep_payload(session)
        with Session(nprocs=4, scale=0.2, cache_dir="", jobs=2) as session:
            parallel = _sweep_payload(session)
        assert serial == parallel

    def test_faulted_rows_survive_the_columnar_table(self):
        with Session(nprocs=4, scale=0.2, cache_dir="") as session:
            results = session.sweep(
                problems=["XENON2"], strategies=["memory-full"],
                faults=[None, FAULTS], fault_seed=11, replications=2,
            )
        table = results.table
        loaded = ResultTable.from_record(json.loads(canonical_json(table.to_record())))
        assert loaded.to_dicts() == table.to_dicts()
        faulted_only = loaded.filter(faults=canonical_faults(FAULTS))
        assert len(faulted_only) == 1
        assert loaded.to_dicts()[1]["replications"] == 2


# --------------------------------------------------------------------------- #
# objective and CLI
# --------------------------------------------------------------------------- #
class TestRobustnessObjective:
    def test_metrics_and_fallback(self):
        from repro.tune.objective import make_objective

        class Row:
            total_time = 2.0
            makespan_p50 = 3.0
            makespan_p95 = 4.0
            degradation = 1.5

        class OldRow:
            total_time = 2.0
            makespan_p50 = 0.0
            makespan_p95 = 0.0
            degradation = 1.0

        assert make_objective("robustness").score(Row()) == 4.0
        assert make_objective("robustness(metric=p50)").score(Row()) == 3.0
        assert make_objective("robustness(metric=degradation)").score(Row()) == 1.5
        # rows stored before the fault layer fall back to the plain makespan
        assert make_objective("robustness").score(OldRow()) == 2.0

    def test_unknown_metric_rejected(self):
        from repro.tune.objective import make_objective

        with pytest.raises(ValueError, match="metric must be one of"):
            make_objective("robustness(metric=p99)")


class TestRobustnessCli:
    ARGS = [
        "--problems", "XENON2",
        "--strategies", "memory-full",
        "--faults", "stragglers(frac=0.5,slowdown=3.0)",
        "--seed", "7",
        "--replications", "2",
        "--nprocs", "4",
        "--scale", "0.2",
    ]

    def test_md_output_and_determinism(self, capsys):
        from repro.cli import main

        assert main(["robustness", *self.ARGS]) == 0
        first = capsys.readouterr().out
        assert main(["robustness", *self.ARGS]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "| degradation |" in first.splitlines()[2]

    def test_json_output(self, capsys):
        from repro.cli import main

        assert main(["robustness", *self.ARGS, "--format", "json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["strategy"] == "memory-full"
        assert row["degradation"] > 0.0

    def test_bad_fault_spec_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["robustness", "--problems", "XENON2", "--faults", "nope()"])
        assert excinfo.value.code == 2
        assert "unknown fault model" in capsys.readouterr().err

    def test_top_level_dispatch(self, capsys):
        from repro.cli import main

        assert main(["robustness", *self.ARGS, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("problem,ordering,strategy")
