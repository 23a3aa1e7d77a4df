"""Tests of the columnar result store: table, serialization, store, traces.

Covers the :mod:`repro.results` package layer by layer — exact
``CaseResult`` round-trips through the columns, the versioned
serialization policy of :mod:`repro.serialize`, the append-only
:class:`ResultStore` (replay, torn records, records of an older format or
key version) and the delta-encoded trace codec.
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durable import append_line
from repro.pipeline.stage import CaseResult, CaseSpec
from repro.results import (
    CASE_KEY_VERSION,
    CaseResultView,
    RESULT_COLUMNS,
    ResultStore,
    ResultTable,
    ResultTableBuilder,
    case_key,
    decode_trace,
    encode_trace,
)
from repro.runtime.trace import SimulationTrace
from repro.serialize import (
    canonical_json,
    check_schema,
    decode_fields,
    parse_schema_tag,
    schema_tag,
    with_schema,
)


def make_result(i: int, *, problem: str = "XENON2", nprocs: int = 4, key_seed: float = 0.0) -> CaseResult:
    """A synthetic, deterministic CaseResult (no engine run needed)."""
    per_proc = np.linspace(1.0 + i + key_seed, 100.0 + i, nprocs)
    return CaseResult(
        problem=problem,
        ordering="metis" if i % 2 == 0 else "amd",
        strategy="memory-full" if i % 3 == 0 else "mumps-workload",
        split=bool(i % 2),
        nprocs=nprocs,
        max_peak_stack=float(per_proc.max()),
        avg_peak_stack=float(per_proc.mean()),
        sum_peak_stack=float(per_proc.sum()),
        total_time=0.001 * (i + 1) + key_seed,
        total_factor_entries=1000.0 * (i + 1),
        per_proc_peak_stack=per_proc,
        nodes=50 + i,
        nodes_split=i % 3,
        messages=200 + 7 * i,
    )


def manifest_record(table: ResultTable, *, key_version: str | None = CASE_KEY_VERSION) -> bytes:
    """The manifest line a store seals ``table`` as (unstamped, as older stores wrote it)."""
    stamp = {} if key_version is None else {"key_version": key_version}
    return canonical_json({"op": "rows", **stamp, **table.to_record()})


#: the manifest record the store writes when it seals ``make_result(1)`` as "k1".
_MANIFEST_RECORD = manifest_record(ResultTable.from_results([make_result(1)], keys=["k1"]))


def assert_results_equal(a: CaseResult, b: CaseResult) -> None:
    da, db = a.to_dict(), b.to_dict()
    assert da == db


# --------------------------------------------------------------------------- #
# repro.serialize — the one serialization policy
# --------------------------------------------------------------------------- #
class TestSerialize:
    def test_canonical_json_is_byte_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b == b'{"a":[1,2],"b":1}\n'

    def test_schema_tag_roundtrip(self):
        tag = schema_tag("case_result")
        assert parse_schema_tag(tag) == ("case_result", 1)
        with pytest.raises(ValueError, match="malformed schema tag"):
            parse_schema_tag("no-version-here")

    def test_check_schema_accepts_absent_and_current(self):
        check_schema("case_spec", {})  # pre-schema payloads keep loading
        check_schema("case_spec", with_schema("case_spec", {"problem": "X"}))

    def test_check_schema_rejects_wrong_kind_and_newer_version(self):
        with pytest.raises(ValueError, match="expected a 'case_spec' payload"):
            check_schema("case_spec", {"schema": "job_spec/v1"})
        with pytest.raises(ValueError, match="newer than this build"):
            check_schema("case_spec", {"schema": "case_spec/v999"})

    def test_decode_fields_strict_raises_historical_message(self):
        with pytest.raises(ValueError, match=r"unknown CaseSpec fields \['nope'\]"):
            decode_fields(
                "case_spec", {"problem": "X", "nope": 1}, {"problem"},
                label="CaseSpec", strict=True,
            )

    def test_decode_fields_tolerant_drops_unknown_and_schema(self):
        payload = with_schema("case_result", {"problem": "X", "future_field": 7})
        decoded = decode_fields("case_result", payload, {"problem"}, strict=False)
        assert decoded == {"problem": "X"}

    def test_case_spec_from_dict_is_strict_by_default(self):
        payload = {"problem": "XENON2", "ordering": "metis", "bogus": True}
        with pytest.raises(ValueError, match="unknown CaseSpec fields"):
            CaseSpec.from_dict(payload)
        spec = CaseSpec.from_dict(payload, strict=False)
        assert spec.problem == "XENON2"

    def test_case_result_from_dict_tolerates_newer_writers(self):
        result = make_result(0)
        payload = result.to_dict()
        payload["added_in_v9"] = "whatever"
        clone = CaseResult.from_dict(payload)
        assert_results_equal(result, clone)


# --------------------------------------------------------------------------- #
# Canonical case keys
# --------------------------------------------------------------------------- #
class TestCaseKeys:
    def test_equal_logical_cases_share_a_key(self):
        a = case_key(CaseSpec("xenon2", "metis", "hybrid(alpha=0.3)"), nprocs=8, scale=0.2)
        b = case_key(CaseSpec("XENON2", "metis", "hybrid( alpha = 0.3 )"), nprocs=8, scale=0.2)
        assert a == b

    def test_parameters_separate_keys(self):
        base = dict(nprocs=8, scale=0.2)
        spec = CaseSpec("XENON2", "metis", "memory-full")
        assert case_key(spec, **base) != case_key(spec, nprocs=16, scale=0.2)
        assert case_key(spec, **base) != case_key(spec, nprocs=8, scale=0.4)
        assert case_key(spec, **base) != case_key(
            CaseSpec("XENON2", "metis", "memory-full", split=True), **base
        )

    def test_matches_service_result_key(self, tmp_path):
        from repro.service import SweepService

        service = SweepService(data_dir=tmp_path, nprocs=4, scale=0.2, journal_fsync=False)
        try:
            outcome = service.query({"problem": "XENON2", "ordering": "metis", "strategy": "memory-full"})
        finally:
            service.stop()
        spec = CaseSpec("XENON2", "metis", "memory-full")
        assert outcome.key == case_key(spec, nprocs=4, scale=0.2)


# --------------------------------------------------------------------------- #
# ResultTable
# --------------------------------------------------------------------------- #
class TestResultTable:
    def test_roundtrip_is_exact(self):
        results = [make_result(i, nprocs=3 + i % 3) for i in range(7)]
        table = ResultTable.from_results(results, keys=[f"k{i}" for i in range(7)])
        assert len(table) == 7
        for i, original in enumerate(results):
            assert_results_equal(table.result(i), original)
        assert_results_equal(table.result(-1), results[-1])

    def test_column_and_per_proc_access(self):
        results = [make_result(i) for i in range(4)]
        table = ResultTable.from_results(results)
        assert list(table.column("problem")) == ["XENON2"] * 4
        assert table.column("nprocs").dtype == np.int64
        np.testing.assert_array_equal(table.per_proc(2), results[2].per_proc_peak_stack)
        # per_proc returns a copy: mutating it must not poison the table
        table.per_proc(2)[:] = -1.0
        np.testing.assert_array_equal(table.per_proc(2), results[2].per_proc_peak_stack)
        with pytest.raises(KeyError, match="no such column"):
            table.column("bogus")

    def test_to_dicts_matches_case_result_to_dict(self):
        results = [make_result(i) for i in range(3)]
        table = ResultTable.from_results(results)
        rows = table.to_dicts(fields=[c for c in RESULT_COLUMNS if c != "key"])
        assert rows == [r.to_dict() for r in results]

    def test_to_dicts_projection_and_unknown_field(self):
        table = ResultTable.from_results([make_result(0)], keys=["k0"])
        (row,) = table.to_dicts(fields=["problem", "key", "nprocs"])
        assert row == {"problem": "XENON2", "key": "k0", "nprocs": 4}
        with pytest.raises(ValueError, match="unknown result field"):
            table.to_dicts(fields=["problem", "oops"])

    def test_filter_on_columns(self):
        results = [make_result(i, problem="XENON2" if i < 4 else "PRE2") for i in range(8)]
        table = ResultTable.from_results(results)
        assert len(table.filter(problem="PRE2")) == 4
        assert len(table.filter(problem=["XENON2", "PRE2"])) == 8
        assert len(table.filter(problem="PRE2", split=True)) == 2
        assert len(table.filter(nprocs=4)) == 8
        assert len(table.filter(nprocs=64)) == 0
        assert len(table.filter(ordering="metis", strategy="memory-full")) > 0

    def test_sorted_is_insertion_order_independent(self):
        results = [make_result(i, nprocs=2 + i) for i in range(6)]
        keys = [f"key-{i}" for i in range(6)]
        forward = ResultTable.from_results(results, keys=keys).sorted()
        backward = ResultTable.from_results(results[::-1], keys=keys[::-1]).sorted()
        assert forward.to_dicts() == backward.to_dicts()

    def test_dedupe_by_key_keeps_last_write(self):
        old, new = make_result(0), make_result(0, key_seed=10.0)
        table = ResultTable.from_results(
            [old, make_result(1), new], keys=["dup", "other", "dup"]
        )
        deduped = table.dedupe_by_key()
        assert len(deduped) == 2
        by_key = {str(k): i for i, k in enumerate(deduped.keys)}
        assert_results_equal(deduped.result(by_key["dup"]), new)

    def test_dedupe_never_drops_empty_keys(self):
        table = ResultTable.from_results([make_result(i) for i in range(3)])  # all keys ""
        assert len(table.dedupe_by_key()) == 3

    def test_concat_merges_vocabularies(self):
        a = ResultTable.from_results([make_result(0, problem="XENON2")], keys=["a"])
        b = ResultTable.from_results([make_result(1, problem="PRE2")], keys=["b"])
        merged = ResultTable.concat([a, b])
        assert list(merged.column("problem")) == ["XENON2", "PRE2"]
        assert list(merged.keys) == ["a", "b"]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=5),
            max_size=4,
        ),
        st.sampled_from([None, "XENON2", "PRE2"]),
    )
    def test_concat_and_dedupe_match_row_by_row(self, groups, problem):
        # tables of (key, variant) rows, optionally filtered so that their
        # vocabularies hold values no row uses
        tables = []
        for rows in groups:
            table = ResultTable.from_results(
                [
                    make_result(k, problem="XENON2" if k % 2 else "PRE2", nprocs=2 + v, key_seed=v)
                    for k, v in rows
                ],
                keys=[f"k{k}" if v else "" for k, v in rows],
            )
            tables.append(table.filter(problem=problem) if problem else table)
        rows = [(str(t.keys[i]), t.result(i)) for t in tables for i in range(len(t))]
        merged = ResultTable.concat(tables)
        expected = ResultTable.from_results([r for _, r in rows], keys=[k for k, _ in rows])
        assert merged.to_dicts() == expected.to_dicts()
        last = {k: i for i, (k, _) in enumerate(rows) if k}
        survivors = [i for i, (k, _) in enumerate(rows) if not k or last[k] == i]
        assert merged.dedupe_by_key().to_dicts() == expected.take(survivors).to_dicts()

    @pytest.mark.parametrize("n", [0, 1, 9])
    def test_record_roundtrip_is_exact(self, n):
        results = [make_result(i, nprocs=1 + i % 4, key_seed=1 / 3) for i in range(n)]
        table = ResultTable.from_results(results, keys=[f"k{i}" if i % 3 else "" for i in range(n)])
        record = json.loads(canonical_json(table.to_record()))
        loaded = ResultTable.from_record(record)
        assert loaded.to_dicts() == table.to_dicts()
        for i, original in enumerate(results):
            assert_results_equal(loaded.result(i), original)
        # vocabularies, codes and keys come back as they were, not re-encoded
        assert ResultTable.concat([loaded, table]).to_dicts() == ResultTable.concat([table, table]).to_dicts()
        assert canonical_json(loaded.to_record()) == canonical_json(record)

    def test_record_rejects_wrong_schema_and_bad_shapes(self):
        record = ResultTable.from_results([make_result(0), make_result(1)], keys=["a", "b"]).to_record()
        with pytest.raises(ValueError, match="expected a 'result_table' payload"):
            ResultTable.from_record({**record, "schema": "trace/v1"})
        with pytest.raises(ValueError, match="newer than this build"):
            ResultTable.from_record({**record, "schema": "result_table/v999"})
        with pytest.raises(ValueError, match="does not hold 3 row"):
            ResultTable.from_record({**record, "rows": 3})
        short = dict(record["arrays"], per_proc_values=record["arrays"]["nodes"])
        with pytest.raises(ValueError, match="offsets and values disagree"):
            ResultTable.from_record({**record, "arrays": short})
        with pytest.raises(ValueError, match="keys must have shape"):
            ResultTable.from_record({**record, "keys": ["a"]})
        with pytest.raises(KeyError):
            ResultTable.from_record({key: v for key, v in record.items() if key != "arrays"})

    def test_parquet_gate_without_pyarrow(self, tmp_path):
        try:
            import pyarrow  # noqa: F401

            pytest.skip("pyarrow installed: the gate does not trigger")
        except ImportError:
            pass
        table = ResultTable.from_results([make_result(0)])
        with pytest.raises(RuntimeError, match="optional 'pyarrow' package"):
            table.to_parquet(tmp_path / "t.parquet")

    def test_empty_builder_builds_empty_table(self):
        table = ResultTableBuilder().build()
        assert len(table) == 0
        assert table.to_dicts() == []
        assert len(table.sorted()) == 0
        assert len(table.filter(problem="XENON2")) == 0


class TestCaseResultView:
    """The list-contract regression: sweep callers must notice nothing."""

    def make_view(self, n: int = 5) -> tuple[CaseResultView, list[CaseResult]]:
        results = [make_result(i) for i in range(n)]
        return ResultTable.from_results(results).view(), results

    def test_len_index_negative_and_out_of_range(self):
        view, results = self.make_view()
        assert len(view) == 5
        assert_results_equal(view[0], results[0])
        assert_results_equal(view[-1], results[-1])
        with pytest.raises(IndexError):
            view[5]

    def test_slice_returns_list(self):
        view, results = self.make_view()
        sliced = view[1:4]
        assert isinstance(sliced, list) and len(sliced) == 3
        for got, expected in zip(sliced, results[1:4]):
            assert_results_equal(got, expected)

    def test_iteration_and_zip(self):
        view, results = self.make_view()
        for got, expected in zip(view, results):
            assert_results_equal(got, expected)
        assert [r.nodes for r in view] == [r.nodes for r in results]


# --------------------------------------------------------------------------- #
# ResultStore
# --------------------------------------------------------------------------- #
class TestResultStore:
    def test_append_get_contains_len(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        result = make_result(0)
        store.append("k0", result)
        assert "k0" in store and "nope" not in store
        assert len(store) == 1
        assert list(store.keys()) == ["k0"]
        assert_results_equal(store.get("k0"), result)
        with pytest.raises(KeyError):
            store.get("nope")

    def test_reopen_replays_everything(self, tmp_path):
        results = {f"k{i}": make_result(i) for i in range(5)}
        store = ResultStore(tmp_path / "store", fsync=False)
        for key, result in results.items():
            store.append(key, result)
        reopened = ResultStore(tmp_path / "store", fsync=False)
        assert len(reopened) == 5
        assert reopened.replay_skipped == 0
        for key, result in results.items():
            assert_results_equal(reopened.get(key), result)

    def test_last_write_wins_across_segments(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        store.append("dup", make_result(0))
        newer = make_result(0, key_seed=42.0)
        store.append("dup", newer)
        assert len(store) == 1
        assert_results_equal(store.get("dup"), newer)
        table = store.table()
        assert len(table) == 1
        reopened = ResultStore(tmp_path / "store", fsync=False)
        assert_results_equal(reopened.get("dup"), newer)

    def test_writer_batches_rows_into_segments(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        with store.writer(flush_every=4) as writer:
            for i in range(10):
                writer.append(f"k{i}", make_result(i))
        assert writer.rows_written == 10
        assert len(store) == 10
        # 4 + 4 + 2 on close
        assert store.stats()["segments"] == 3

    def test_writer_flushes_on_the_error_path(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        with pytest.raises(RuntimeError, match="interrupted"):
            with store.writer(flush_every=100) as writer:
                writer.append("done-before-crash", make_result(0))
                raise RuntimeError("interrupted")
        assert "done-before-crash" in store
        assert "done-before-crash" in ResultStore(tmp_path / "store", fsync=False)

    def test_writer_rejects_bad_flush_every(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        with pytest.raises(ValueError, match="flush_every"):
            store.writer(flush_every=0)

    def test_torn_manifest_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        store.append("k0", make_result(0))
        # simulate a crash mid-append: a half-written trailing line
        with open(store.manifest_path, "ab") as fh:
            fh.write(_MANIFEST_RECORD[: len(_MANIFEST_RECORD) // 2])
        reopened = ResultStore(tmp_path / "store", fsync=False)
        assert len(reopened) == 1 and reopened.replay_skipped == 0
        assert_results_equal(reopened.get("k0"), make_result(0))

    def test_a_sealed_batch_is_one_manifest_line_and_no_other_file(self, tmp_path):
        directory = tmp_path / "store"
        store = ResultStore(directory, fsync=False)
        store.append("k0", make_result(0))
        with store.writer(flush_every=100) as writer:
            for i in range(1, 4):
                writer.append(f"k{i}", make_result(i))
        assert sorted(p.name for p in directory.iterdir()) == ["manifest.jsonl"]
        lines = store.manifest_path.read_bytes().splitlines(keepends=True)
        assert [json.loads(line)["rows"] for line in lines] == [1, 3]
        assert all(json.loads(line)["op"] == "rows" for line in lines)

    @pytest.fixture(scope="class")
    def cuts_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cuts")

    @pytest.mark.parametrize("cut", range(len(_MANIFEST_RECORD)))
    def test_torn_manifest_tail_keeps_the_next_record_whole(self, cuts_dir, cut):
        directory = cuts_dir / f"cut-{cut}"
        store = ResultStore(directory, fsync=False)
        store.append("k0", make_result(0))
        store.append("k1", make_result(1))
        # a crash cut the last record after `cut` bytes: its batch is lost,
        # and a fresh result appends after the fragment's line
        data = store.manifest_path.read_bytes()
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        assert data[last:] == _MANIFEST_RECORD
        fragment = data[last:last + cut]
        store.manifest_path.write_bytes(data[:last] + fragment)
        reopened = ResultStore(directory, fsync=False)
        assert set(reopened.keys()) == {"k0"}
        reopened.append("k2", make_result(2))

        lines = store.manifest_path.read_bytes().splitlines()
        if cut:
            assert lines.pop(1) == fragment  # the torn fragment stays on a line of its own
        assert [json.loads(line)["keys"] for line in lines] == [["k0"], ["k2"]]
        # only a record missing nothing but its newline is whole again
        whole = cut == len(_MANIFEST_RECORD) - 1
        expected = {"k0", "k1", "k2"} if whole else {"k0", "k2"}
        replayed = ResultStore(directory, fsync=False)
        assert set(replayed.keys()) == expected and replayed.replay_skipped == 0
        assert sorted(p.name for p in directory.iterdir()) == ["manifest.jsonl"]

    def test_records_of_an_older_format_are_skipped_and_counted(self, tmp_path):
        # a store written before keys bound parameter defaults: a line of the
        # segment-file format and an unstamped rows record
        directory = tmp_path / "store"
        directory.mkdir()
        old = ResultTable.from_results([make_result(0), make_result(1)], keys=["k0", "k1"])
        (directory / "manifest.jsonl").write_bytes(
            canonical_json({"op": "segment", "file": "seg-0a-000000.npz", "rows": 3})
            + manifest_record(old, key_version=None)
        )
        store = ResultStore(directory, fsync=False)
        assert store.stats() == {"rows": 0, "segments": 0, "replay_skipped": 2}
        assert "k0" not in store and len(store.table()) == 0
        assert store.refresh() == 0 and store.replay_skipped == 2  # counted once
        # their cases are recomputed and appended after the old lines
        store.append("k0", make_result(0, key_seed=1.0))
        store.append("k2", make_result(2))
        for served in (store, ResultStore(directory, fsync=False)):
            assert served.stats() == {"rows": 2, "segments": 2, "replay_skipped": 2}
            assert list(served.keys()) == ["k0", "k2"]
            assert_results_equal(served.get("k0"), make_result(0, key_seed=1.0))
            assert_results_equal(served.get("k2"), make_result(2))
        lines = store.manifest_path.read_bytes().splitlines()
        assert [json.loads(line).get("key_version") for line in lines] == [None, None] + [CASE_KEY_VERSION] * 2
        # a stamped record that does not decode is skipped the same way
        append_line(store.manifest_path, {"op": "rows", "key_version": CASE_KEY_VERSION, "rows": 1}, fsync=False)
        assert store.refresh() == 0 and store.stats()["replay_skipped"] == 3

    def test_refresh_picks_up_sibling_writers(self, tmp_path):
        directory = tmp_path / "store"
        reader = ResultStore(directory, fsync=False)
        assert len(reader) == 0
        sibling = ResultStore(directory, fsync=False)
        sibling.append("from-sibling", make_result(0))
        assert "from-sibling" not in reader
        assert reader.refresh() == 1
        assert_results_equal(reader.get("from-sibling"), make_result(0))

    def test_filter_and_table_dedupe(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        for i in range(6):
            store.append(f"k{i}", make_result(i, problem="XENON2" if i < 3 else "PRE2"))
        assert len(store.filter(problem="PRE2")) == 3
        assert len(store.table()) == 6


def manifest_batches(manifest: bytes) -> list[ResultTable]:
    """The batches a manifest holds, in order, worked out line by line.

    Only newline-terminated lines count, and only a ``rows`` record stamped
    with the current key version holds a batch; a legacy writer's line
    (a ``segment`` line or an unstamped ``rows`` record) holds none.
    """
    batches = []
    for line in manifest[: manifest.rfind(b"\n") + 1].splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if event["op"] == "rows" and event.get("key_version") == CASE_KEY_VERSION:
            batches.append(ResultTable.from_record(event))
    return batches


def manifest_oracle(manifest: bytes) -> list[tuple[str, CaseResult]]:
    """The live rows a store over ``manifest`` must hold, worked out row by row.

    Last write wins and the survivors keep manifest order.
    """
    batches = manifest_batches(manifest)
    rows = [(str(t.keys[r]), t.result(r)) for t in batches for r in range(len(t))]
    last = {key: n for n, (key, _) in enumerate(rows)}
    return [(key, result) for n, (key, result) in enumerate(rows) if last[key] == n]


#: ops of the interleaving test; instances are 0 and 1, keys k0..k5, and a
#: variant changes a row's values so that last-write-wins is visible
_STORE_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 1), st.integers(0, 5), st.integers(0, 3)),
    st.tuples(
        st.just("seal"),
        st.integers(0, 1),
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=4),
    ),
    st.tuples(st.just("tear"), st.integers(0, 5), st.integers(0, 3), st.floats(0.0, 1.0)),
    st.tuples(st.just("legacy"), st.integers(0, 5), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("refresh"), st.integers(0, 1)),
    st.tuples(st.just("reopen"), st.integers(0, 1)),
)


def _variant(key: int, variant: int) -> CaseResult:
    return make_result(key, nprocs=2 + variant, key_seed=float(variant))


class TestResultStoreReads:
    """Incremental reads agree with the full-manifest definition of a store."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_STORE_OPS, max_size=12))
    def test_interleaved_writers_match_the_manifest_oracle(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "store"
            stores = [ResultStore(directory, fsync=False) for _ in range(2)]
            manifest = directory / "manifest.jsonl"
            manifest.touch()
            # the manifest each instance has read in full, as of its last op
            seen = [b"", b""]
            for op in ops:
                if op[0] == "append":
                    _, i, key, variant = op
                    stores[i].append(f"k{key}", _variant(key, variant))
                elif op[0] == "seal":
                    _, i, rows = op
                    with stores[i].writer(flush_every=100) as writer:
                        for key, variant in rows:
                            writer.append(f"k{key}", _variant(key, variant))
                elif op[0] == "tear":
                    # a third writer crashes mid-append: its record is cut
                    # short (maybe to nothing, maybe to all but its newline)
                    _, key, variant, fraction = op
                    table = ResultTable.from_results([_variant(key, variant)], keys=[f"k{key}"])
                    record = manifest_record(table)
                    with open(manifest, "ab+") as fh:
                        if fh.seek(0, 2) > 0:
                            fh.seek(-1, 2)
                            if fh.read(1) != b"\n":
                                fh.write(b"\n")  # as every writer terminates a torn tail
                        fh.write(record[: int(fraction * (len(record) - 1))])
                    continue
                elif op[0] == "legacy":
                    # a writer of an older format seals one row: a segment
                    # line, or a rows record without a key version
                    _, key, variant, segment = op
                    if segment:
                        line = {"op": "segment", "file": f"seg-ffffffff-{key:06d}.npz", "rows": 1}
                    else:
                        table = ResultTable.from_results([_variant(key, variant)], keys=[f"k{key}"])
                        line = {"op": "rows", **table.to_record()}
                    append_line(manifest, line, fsync=False)
                    continue
                elif op[0] == "refresh":
                    i = op[1]
                    stores[i].refresh()
                else:
                    i = op[1]
                    stores[i] = ResultStore(directory, fsync=False)
                seen[i] = manifest.read_bytes()

                for store, view in zip(stores, seen):
                    live = manifest_oracle(view)
                    expected = ResultTable.from_results(
                        [result for _, result in live], keys=[key for key, _ in live]
                    )
                    assert store.table().to_dicts() == expected.to_dicts()
                    assert len(store) == len(live)
                    assert set(store.keys()) == {key for key, _ in live}
                    for key, result in live:
                        assert key in store
                        assert_results_equal(store.get(key), result)

    def test_concurrent_writers_and_readers(self, tmp_path):
        directory = tmp_path / "store"
        store = ResultStore(directory, fsync=False)
        errors: list[BaseException] = []
        written: set[str] = set()

        def hammer(seed: int) -> None:
            try:
                for i in range(60):
                    key = (seed * 31 + i) % 48
                    if i % 3 == 0:
                        store.append(f"k{key}", _variant(key, seed % 4))
                        written.add(f"k{key}")
                    elif i % 3 == 1:
                        if f"k{key}" in store:
                            assert store.get(f"k{key}").problem == "XENON2"
                    elif i % 6 == 2:
                        store.table()
                    else:
                        store.refresh()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(store) == len(written)
        live = manifest_oracle((directory / "manifest.jsonl").read_bytes())
        expected = ResultTable.from_results(
            [result for _, result in live], keys=[key for key, _ in live]
        )
        assert store.table().to_dicts() == expected.to_dicts()

    def test_table_is_cached_until_a_segment_arrives(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        store.append("k0", make_result(0))
        first = store.table()
        assert store.table() is first
        store.append("k1", make_result(1))
        assert store.table() is not first and len(store.table()) == 2

    def test_reads_resume_at_the_consumed_offset(self, tmp_path):
        directory = tmp_path / "store"
        store = ResultStore(directory, fsync=False)
        store.append("k0", make_result(0))
        # rewrite the consumed line in place, same length, to hold another
        # key: only a reader that starts over would see it
        manifest = directory / "manifest.jsonl"
        manifest.write_bytes(manifest.read_bytes().replace(b'"k0"', b'"k1"'))
        store.append("k2", make_result(2))  # a seal reads the manifest tail through its line
        assert "k1" not in store and len(store) == 2
        assert store.refresh() == 0 and "k1" not in store
        assert set(ResultStore(directory, fsync=False).keys()) == {"k1", "k2"}

    def test_shrunk_manifest_is_read_again(self, tmp_path):
        directory = tmp_path / "store"
        reader = ResultStore(directory, fsync=False)
        writer = ResultStore(directory, fsync=False)
        for i in range(3):
            writer.append(f"k{i}", make_result(i))
        reader.refresh()
        # the manifest is replaced by a shorter one holding a new batch
        table = ResultTable.from_results([make_result(9)], keys=["k9"])
        shrunk = manifest_record(table)
        (directory / "manifest.jsonl").write_bytes(shrunk)
        assert reader.refresh() == 1 and "k9" in reader and len(reader) == 4
        assert (directory / "manifest.jsonl").read_bytes() == shrunk


class TestTraces:
    def make_trace(self, nprocs: int = 3, n: int = 50) -> SimulationTrace:
        rng = np.random.default_rng(7)
        blocks = []
        for p in range(nprocs):
            times = np.cumsum(rng.uniform(0.0, 0.01, n + p))
            stack = np.abs(np.cumsum(rng.normal(0.0, 5.0, n + p)))
            factors = np.cumsum(rng.uniform(0.0, 3.0, n + p))
            blocks.append(np.stack((times, stack, factors)))
        return SimulationTrace.from_blocks(blocks)

    def test_codec_roundtrip_close_to_ulp(self):
        trace = self.make_trace()
        payload = encode_trace(trace)
        assert str(payload["schema"]) == "trace/v1"
        decoded = decode_trace(payload)
        assert decoded.nprocs == trace.nprocs
        for p in range(trace.nprocs):
            np.testing.assert_allclose(decoded.times[p], trace.times[p], rtol=1e-12)
            np.testing.assert_allclose(decoded.stack[p], trace.stack[p], rtol=1e-12)
            np.testing.assert_allclose(decoded.factors[p], trace.factors[p], rtol=1e-12)

    def test_empty_trace_roundtrip(self):
        trace = SimulationTrace.from_blocks([])
        decoded = decode_trace(encode_trace(trace))
        assert decoded.nprocs == 0

    def test_store_trace_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store", fsync=False)
        trace = self.make_trace()
        assert not store.has_trace("case-1")
        store.put_trace("case-1", trace)
        assert store.has_trace("case-1")
        loaded = store.get_trace("case-1")
        np.testing.assert_allclose(loaded.stack[0], trace.stack[0], rtol=1e-12)
        with pytest.raises(KeyError):
            store.get_trace("absent")

    def test_deltas_beat_json_on_disk(self, tmp_path):
        """The headline claim: delta + deflate is much smaller than JSON."""
        trace = self.make_trace(nprocs=4, n=2000)
        store = ResultStore(tmp_path / "store", fsync=False)
        store.put_trace("big", trace)
        npz_bytes = store._trace_path("big").stat().st_size
        json_bytes = len(
            json.dumps(
                {
                    "times": [t.tolist() for t in trace.times],
                    "stack": [s.tolist() for s in trace.stack],
                    "factors": [f.tolist() for f in trace.factors],
                }
            ).encode()
        )
        assert npz_bytes < json_bytes / 2
