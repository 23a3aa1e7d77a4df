"""Workload self-test: each workload loads the layers it claims to.

Runs every workload at a tiny scale, on the default seed and one held-out
seed, and asserts that every op passes its output checks and that the
workload still exercises what it was chosen for.  A drift such as a key
change that turns the warm sweep cold fails here.  From the root of a
checkout::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.pipeline import CaseSpec

import cold_analysis
import service_mixed
import strategy_sweep
from common import Op, Tracer, layer_shares

ROOT = Path(__file__).resolve().parent.parent
#: the seed the benchmark documents as its default, and one never tuned on
SEEDS = (1, 20261017)


#: analysis scale of every self-test run
TINY = 0.15


@pytest.mark.parametrize("seed", SEEDS)
def test_cold_analysis_is_dominated_by_ordering(seed):
    bench = cold_analysis.ColdAnalysis(scale=TINY)
    bench.setup()
    ops = cold_analysis.make_ops(seed, 1)
    phase = bench.phase(ops, Tracer())
    assert not phase.failed
    shares = layer_shares(phase.tracer)
    assert max(shares, key=shares.get) == "ordering", shares
    assert bench.counts["pipeline.analysis_runs"] == len(ops) * 5
    assert bench.counts["runtime.sims"] == len(ops)


def test_cold_analysis_pins_match_current_code():
    bench = cold_analysis.ColdAnalysis()
    assert bench.pins, "pins.json was not generated at the cold-analysis scale"
    spec = CaseSpec("XENON2", "amd", cold_analysis.STRATEGY)
    phase = bench.phase([Op("cold", {"spec": spec})])
    assert not phase.failed


@pytest.mark.parametrize("seed", SEEDS)
def test_strategy_sweep_never_runs_the_analysis(seed):
    bench = strategy_sweep.StrategySweep(seed, scale=TINY)
    bench.session = bench.setup()
    ops = strategy_sweep.make_ops(seed, 1)
    untraced, counts = bench.phase(ops)
    traced, traced_counts = bench.phase(ops, Tracer())
    assert not untraced.failed and not traced.failed
    assert counts["pipeline.analysis_runs"] == 0
    # the same op list does the same work, traced or not
    assert counts == traced_counts
    assert counts["runtime.sims"] == counts["pipeline.simulate_runs"]
    shares = layer_shares(traced.tracer)
    assert max(shares, key=shares.get) == "runtime", shares
    groups = len(strategy_sweep.PAIRS) * len(strategy_sweep.NPROCS) * 2
    assert sum(op.kind == "faulted" for op in ops) == groups


@pytest.mark.parametrize("seed", SEEDS)
def test_service_mixed_hits_its_designed_read_fraction(seed, tmp_path):
    bench = service_mixed.ServiceMixed(ROOT, tmp_path, scale=TINY)
    bench.state = bench.setup()
    try:
        phase, counts = bench.phase(service_mixed.make_ops(seed, 1), Tracer())
    finally:
        bench.teardown(bench.state)
    assert not phase.failed
    assert counts["pipeline.analysis_runs"] == 0
    assert counts["service.hit_ratio"] == service_mixed.READ_FRACTION
    # every miss and every job case lands in the store exactly once
    kinds = [op.kind for op in phase.ops]
    assert counts["results.rows"] == kinds.count("miss") + 4 * kinds.count("job")
