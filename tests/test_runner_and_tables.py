"""Tests for running cases through a session, the tables and the figures (small scale)."""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.experiments import figures as figs
from repro.experiments import tables as tbl
from repro.pipeline import CaseSpec
from repro.session import Session, percentage_decrease


@pytest.fixture(scope="module")
def session():
    """A small-scale session shared by the table tests (8 simulated processors)."""
    with Session(nprocs=8, scale=0.3) as session:
        yield session


class TestRunner:
    def test_pattern_cached(self, session):
        a = session.pattern("XENON2")
        b = session.pattern("XENON2")
        assert a is b

    def test_analysis_cached(self, session):
        a = session.analysis("XENON2", "metis", split=False)
        b = session.analysis("XENON2", "metis", split=False)
        assert a is b
        c = session.analysis("XENON2", "metis", split=True)
        assert c is not a

    def test_disk_cache_roundtrip(self, tmp_path):
        r1 = Session(nprocs=4, scale=0.2, cache_dir=tmp_path)
        first = r1.analysis("XENON2", "amd", split=False)
        r2 = Session(nprocs=4, scale=0.2, cache_dir=tmp_path)
        second = r2.analysis("XENON2", "amd", split=False)
        assert second.tree.nnodes == first.tree.nnodes
        assert list(tmp_path.glob("analysis-*.pkl"))

    def test_run_case_metrics(self, session):
        case = session.run(CaseSpec("XENON2", "metis", "mumps-workload"))
        assert case.max_peak_stack > 0
        assert case.total_factor_entries > 0
        assert case.nprocs == 8
        assert case.per_proc_peak_stack.shape == (8,)

    def test_same_analysis_for_both_strategies(self, session):
        base = session.run(CaseSpec("XENON2", "metis", "mumps-workload"))
        mem = session.run(CaseSpec("XENON2", "metis", "memory-full"))
        assert base.total_factor_entries == pytest.approx(mem.total_factor_entries)

    def test_compare_fields(self, session):
        cmp = session.compare("XENON2", "metis")
        for key in ("baseline_peak", "candidate_peak", "gain_percent", "time_loss_percent"):
            assert key in cmp
        assert cmp["gain_percent"] == pytest.approx(
            percentage_decrease(cmp["baseline_peak"], cmp["candidate_peak"])
        )

    def test_split_changes_tree(self, session):
        plain = session.analysis("PRE2", "amd", split=False)
        split = session.analysis("PRE2", "amd", split=True)
        assert split.tree.nnodes >= plain.tree.nnodes

    def test_sweep(self, session):
        results = session.sweep(
            problems=["XENON2"], orderings=["metis"], strategies=["mumps-workload", "memory-full"]
        )
        assert len(results) == 2

    def test_percentage_decrease(self):
        assert percentage_decrease(100, 80) == pytest.approx(20.0)
        assert percentage_decrease(100, 120) == pytest.approx(-20.0)
        assert percentage_decrease(0, 10) == 0.0


def _cells(rows):
    return [value for row in rows.values() for value in row.values()]


class TestTables:
    def test_table1_structure(self, session):
        rows = tbl.table1(session, problems=["XENON2", "PRE2"])
        assert set(rows) == {"XENON2", "PRE2"}
        assert rows["XENON2"]["Type"] == "UNS"
        assert rows["XENON2"]["Order"] > 0
        rows = tbl.table1(session)
        assert len(rows) == 8 and min(row["Order"] for row in rows.values()) > 0

    def test_table2_structure(self, session):
        rows = tbl.table2(session, problems=["XENON2"], orderings=["metis", "amd"])
        assert set(rows) == {"XENON2"}
        assert set(rows["XENON2"]) == {"METIS", "AMD"}
        for value in rows["XENON2"].values():
            assert isinstance(value, float)
        # the full table: the strategy helps on average and somewhere, and
        # never catastrophically
        cells = _cells(tbl.table2(session))
        assert len(cells) == 32
        assert np.mean(cells) > -5.0 and max(cells) > 0.0

    def test_table3_unsymmetric_default(self, session):
        rows = tbl.table3(session, problems=["XENON2"], orderings=["metis"])
        assert "XENON2" in rows
        rows = tbl.table3(session)
        assert set(rows) == {"PRE2", "TWOTONE", "ULTRASOUND3", "XENON2"}
        assert np.mean(_cells(rows)) > -10.0

    def test_table4_structure(self, session):
        rows = tbl.table4(session, cases=[("XENON2", "metis")])
        label = "XENON2 - METIS"
        assert label in rows
        assert len(rows[label]) == 4
        for value in rows[label].values():
            assert value >= 0

    def test_table5_and_6(self, session):
        rows5 = tbl.table5(session, problems=["XENON2"], orderings=["metis"])
        assert "XENON2" in rows5
        rows6 = tbl.table6(session, problems=["XENON2"], orderings=["metis"])
        assert "XENON2" in rows6
        # the defaults: splitting + memory strategy pays off on average, and
        # its time loss on the three large problems never explodes
        rows5 = tbl.table5(session)
        assert set(rows5) == {"PRE2", "TWOTONE", "ULTRASOUND3", "XENON2"}
        assert np.mean(_cells(rows5)) > -10.0
        rows6 = tbl.table6(session)
        assert set(rows6) == {"SHIP_003", "PRE2", "ULTRASOUND3"}
        assert max(_cells(rows6)) < 400.0

    def test_format_table(self, session):
        rows = tbl.table1(session, problems=["XENON2"])
        text = tbl.format_table(rows, title="Table 1")
        assert "Table 1" in text
        assert "XENON2" in text
        assert tbl.format_table({}) == ""


#: ``repro tables --format json --jobs 2`` at the defaults (nprocs 32, scale
#: 1.0); CI regenerates it and compares the bytes.  A change that moves a
#: paper number regenerates it and says why.
GOLDEN_TABLES = Path(__file__).parent / "golden" / "tables.json"


def test_tables_match_the_golden_file():
    """Table 4 and the GUPTA3 and XENON2 rows of Table 2, at full precision."""
    golden = json.loads(GOLDEN_TABLES.read_text())
    problems = ["GUPTA3", "XENON2"]
    with Session(nprocs=golden["nprocs"], scale=golden["scale"], cache_dir="") as session:
        table2 = tbl.table2(session, problems=problems, exact=True)
        table4 = tbl.table4(session, exact=True)
    assert table2 == {p: golden["tables"]["table2"][p] for p in problems}
    assert table4 == golden["tables"]["table4"]


def test_quickstart_headline_is_a_golden_table2_cell():
    """``examples/quickstart.py`` leads with this call; it must print a paper cell."""
    golden = json.loads(GOLDEN_TABLES.read_text())
    with repro.open_session(cache_dir="") as session:
        assert (session.nprocs, session.scale) == (golden["nprocs"], golden["scale"])
        cell = session.compare("BMWCRA_1", "metis")
    assert cell["gain_percent"] == golden["tables"]["table2"]["BMWCRA_1"]["METIS"] == 8.453328604380062


class TestFigures:
    def test_figure1(self):
        data = figs.figure1()
        assert data["tree"].nvars == 6
        assert data["nodes"] >= 1
        assert "ascii" in data

    def test_figure2(self):
        data = figs.figure2(nprocs=4)
        assert data["mapping"].nprocs == 4
        assert data["summary"]["nprocs"] == 4 and data["summary"]["count_subtree"] > 0
        assert "TYPE" in data["ascii"] or "SUBTREE" in data["ascii"]

    def test_figure3_blocking(self):
        data = figs.figure3(npiv=40, nfront=200, nslaves=4)
        assert sum(data["unsymmetric_rows"]) == 160
        assert sum(data["symmetric_rows"]) == 160
        # symmetric blocking is irregular: later blocks hold fewer rows
        assert data["symmetric_rows"][0] >= data["symmetric_rows"][-1]

    def test_figure4_levelling(self):
        data = figs.figure4()
        after = data["memory_after"][1:]
        before = data["memory_before"][1:]
        # levelling must shrink the spread of the candidate memories
        assert (after.max() - after.min()) <= (before.max() - before.min()) + 1e-9

    def test_figure5_runs(self):
        data = figs.figure5(latency=1e-4)
        assert set(data["peaks"]) == {"fresh views", "stale views"}

    def test_figure6_prediction_avoids_p0(self):
        data = figs.figure6()
        assert data["rows_on_p0_with"] < data["rows_on_p0_without"]

    def test_figure7_pools(self):
        data = figs.figure7(nprocs=4)
        assert len(data["pools"]) == 4

    def test_figure8_algorithm2_delays(self):
        data = figs.figure8()
        assert data["lifo_choice_node"] == 3
        assert data["memory_choice_node"] != 3
