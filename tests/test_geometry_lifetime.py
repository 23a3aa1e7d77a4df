"""A simulated analysis is freed with the session that built it.

:data:`repro.runtime.geometry._GEOMETRY_CACHE` memoizes one
:class:`~repro.runtime.geometry.SimGeometry` per tree under a weak key.  The
geometry must not reference its tree, or the key could never die and every
tree a process ever simulated would stay alive with its mapping and
geometry.  These tests drop a session after a run and check that its tree
and cache entry are gone, on both engines and on a faulted case's
replications, and that a run of fresh cold sessions leaves the traced heap flat.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import pytest

import repro
from repro.pipeline import CaseSpec
from repro.runtime.geometry import _GEOMETRY_CACHE

NPROCS = 8
SCALE = 0.2


def _cold_session():
    return repro.open_session(nprocs=NPROCS, scale=SCALE, cache_dir="")


def _run_and_drop(specs):
    """Run ``specs`` in a fresh session, drop it; return a weakref to each tree."""
    session = _cold_session()
    for spec in specs:
        session.run(spec)
    refs = [weakref.ref(session.engine.artifact("split", spec).tree) for spec in specs]
    session.close()
    return refs


@pytest.mark.parametrize(
    "engine, specs",
    [
        ("soa", [CaseSpec("XENON2", "amd", "memory-full")]),
        ("reference", [CaseSpec("XENON2", "amd", "memory-full")]),
        (
            "soa",
            [
                CaseSpec("GUPTA3", "metis", strategy)
                for strategy in ("mumps-workload", "memory-full")
            ]
            + [
                CaseSpec(
                    "GUPTA3", "metis", "memory-full", faults="stragglers(frac=0.25,slowdown=3.0)",
                    fault_seed=2, replications=2,
                ),
            ],
        ),
    ],
    ids=["soa-per-case", "reference-per-case", "faulted"],
)
def test_tree_and_geometry_die_with_the_session(monkeypatch, engine, specs):
    monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
    gc.collect()
    entries = len(_GEOMETRY_CACHE)
    refs = _run_and_drop(specs)
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(_GEOMETRY_CACHE) == entries


#: ceiling on the traced heap growth over GROWTH_SESSIONS fresh cold
#: sessions, once every case has run untraced.  Measured (XENON2 and PRE2 ×
#: amd and metis, scale 0.2, 8 processors): 0.02 MiB when every analysis is
#: freed, 0.50 MiB (62 KiB a session) when each session leaves its tree,
#: mapping and geometry behind.
GROWTH_BOUND_MB = 0.25
GROWTH_SESSIONS = 8


def test_cold_sessions_leave_the_heap_flat():
    cases = [CaseSpec(p, o, "memory-full") for p in ("XENON2", "PRE2") for o in ("amd", "metis")]
    for case in cases:  # lazy imports and per-problem module caches, untraced
        _run_and_drop([case])
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(GROWTH_SESSIONS):
            _run_and_drop([cases[i % len(cases)]])
        gc.collect()
        grown_mb = (tracemalloc.get_traced_memory()[0] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert grown_mb < GROWTH_BOUND_MB
