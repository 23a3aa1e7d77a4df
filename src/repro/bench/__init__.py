"""Continuous performance harness: suites, runs, baselines, comparisons.

The benchmark subsystem turns performance from folklore into diffable data:

* :class:`BenchEnv` — validated ``REPRO_BENCH_NPROCS`` / ``REPRO_BENCH_SCALE``
  configuration;
* :class:`BenchCase` / :class:`BenchResult` / :class:`BenchRun` — the
  schema-versioned, JSON round-trippable result model;
* :data:`~repro.bench.suites.SUITES` — the named suites (``pipeline``,
  ``analysis``, ``components``, ``serving``, ``results``, ``tuning``,
  ``robustness``) built from declarative
  :class:`~repro.bench.suites.PreparedCase` lists;
* :class:`BenchRunner` — warmup/repeat/timer execution of suites;
* :func:`compare_runs` + :class:`CompareReport` — per-case deltas against a
  stored baseline (``benchmarks/baselines/BENCH_<host>.json``), with the
  regression/improvement/within-tolerance verdicts the CI perf gate consumes;
  :func:`median_run` folds several runs into one baseline.

The ``repro bench`` CLI verb (:mod:`repro.bench.cli`) is a thin layer
over these pieces.  See ``docs/benchmarks.md``.
"""

from repro.bench.baseline import (
    CaseDelta,
    CompareReport,
    compare_runs,
    default_baseline_dir,
    default_baseline_path,
    median_run,
)
from repro.bench.env import BenchEnv, BenchEnvError
from repro.bench.model import SCHEMA_VERSION, BenchCase, BenchResult, BenchRun, host_tag
from repro.bench.runner import BenchRunner
from repro.bench.suites import SUITES, PreparedCase, SuiteInstance, build_suite, suite_names

__all__ = [
    "BenchEnv",
    "BenchEnvError",
    "SCHEMA_VERSION",
    "BenchCase",
    "BenchResult",
    "BenchRun",
    "host_tag",
    "BenchRunner",
    "SUITES",
    "PreparedCase",
    "SuiteInstance",
    "build_suite",
    "suite_names",
    "CaseDelta",
    "CompareReport",
    "compare_runs",
    "default_baseline_dir",
    "default_baseline_path",
    "median_run",
]
