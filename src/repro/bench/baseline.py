"""Baseline store and run comparison.

A *baseline* is simply a saved :class:`~repro.bench.model.BenchRun`, by
convention ``BENCH_<host>.json`` under ``benchmarks/baselines/`` (CI commits
``ci-ubuntu.json`` there).  :func:`compare_runs` matches cases across two
runs by their ``suite/name`` key and classifies each pairing against a
relative tolerance on the best (minimum) repeat time — the calibrated time
(at the reference machine's speed, see :mod:`repro.bench.calibration`) when
both runs recorded one, the raw wall time otherwise (a schema-1 baseline):

``regression``        current is slower than ``(1 + tolerance) ×`` baseline
``improvement``       current is faster than ``(1 - tolerance) ×`` baseline
``within-tolerance``  everything in between
``new`` / ``missing`` the case exists on only one side
``config-mismatch``   same key but different recorded knobs (scale, nprocs…)
``error``             the current case raised instead of finishing

Every delta also carries the current run's wall over CPU seconds
(:attr:`~repro.bench.model.BenchResult.wall_cpu`); above
:data:`CONTENDED_WALL_CPU` the case is marked ``contended``: its process
waited, for example while another process held the CPU, which a 3 ms
calibration sample inside one time slice cannot see.  The mark is
information for the reader; no verdict depends on it.

One gate run can land a case at the bottom of its range, and a baseline
recorded from it then reads every later run of the same tree as a
regression.  :func:`median_run` folds several saved runs into one
baseline: per case, the result of the run whose best repeat is the median
(the upper one for an even count), in the same schema, so ``repro bench
compare`` reads it unchanged (``repro bench fold``).

The report renders as text, Markdown, CSV or JSON and owns the exit-code
policy: :meth:`CompareReport.failed` is the single place the CLI and the CI
perf gate consult, with an optional ``max_regression`` ratio so shared
runners can keep a generous tolerance yet only *fail* on hard errors or
(say) >2× slowdowns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.bench.model import BenchResult, BenchRun, host_tag

__all__ = [
    "CONTENDED_WALL_CPU",
    "CaseDelta",
    "CompareReport",
    "compare_runs",
    "default_baseline_dir",
    "default_baseline_path",
    "median_run",
]

#: wall over CPU seconds above which a case's repeats count as contended
CONTENDED_WALL_CPU = 1.25

#: default directory of committed baselines, relative to the repo root / cwd.
_BASELINE_DIR = os.path.join("benchmarks", "baselines")


def default_baseline_dir() -> str:
    return _BASELINE_DIR


def default_baseline_path(host: str | None = None, directory: str | None = None) -> str:
    """``benchmarks/baselines/BENCH_<host>.json`` for this (or the given) host."""
    return os.path.join(directory or _BASELINE_DIR, f"BENCH_{host or host_tag()}.json")


@dataclass
class CaseDelta:
    """Comparison of one case across the current run and the baseline."""

    key: str
    verdict: str
    current_seconds: float = float("nan")
    baseline_seconds: float = float("nan")
    ratio: float = float("nan")
    #: whether the two seconds are calibrated times rather than raw ones
    calibrated: bool = False
    #: the current run's wall over CPU seconds (NaN when not recorded)
    wall_cpu: float = float("nan")

    @property
    def contended(self) -> bool:
        return self.wall_cpu > CONTENDED_WALL_CPU

    @property
    def delta_percent(self) -> float:
        """Signed percentage change (positive = slower than the baseline)."""
        return (self.ratio - 1.0) * 100.0 if math.isfinite(self.ratio) else float("nan")

    def to_dict(self) -> dict[str, object]:
        def finite(value: float) -> float | None:
            # NaN would serialize as the literal `NaN`, which strict JSON
            # parsers (jq, JSON.parse) reject — absent values become null
            return value if math.isfinite(value) else None

        return {
            "key": self.key,
            "verdict": self.verdict,
            "current_seconds": finite(self.current_seconds),
            "baseline_seconds": finite(self.baseline_seconds),
            "ratio": finite(self.ratio),
            "calibrated": self.calibrated,
            "wall_cpu": finite(self.wall_cpu),
            "contended": self.contended,
        }


@dataclass
class CompareReport:
    """Every per-case delta plus the pass/fail policy."""

    tolerance: float
    deltas: list[CaseDelta] = field(default_factory=list)
    current_host: str = ""
    baseline_host: str = ""

    def with_verdict(self, *verdicts: str) -> list[CaseDelta]:
        return [d for d in self.deltas if d.verdict in verdicts]

    @property
    def regressions(self) -> list[CaseDelta]:
        return self.with_verdict("regression")

    @property
    def errors(self) -> list[CaseDelta]:
        return self.with_verdict("error")

    @property
    def compared(self) -> list[CaseDelta]:
        """Deltas that actually paired a current timing with a baseline one."""
        return [d for d in self.deltas if math.isfinite(d.ratio)]

    def failed(self, *, max_regression: Optional[float] = None) -> bool:
        """Exit-code policy.

        Hard errors always fail, and so do configuration mismatches (the two
        runs timed the same case under different knobs — their ratio is
        meaningless) and ``missing`` cases (a suite that ran lost a case the
        baseline still watches — silent coverage shrink must not stay green;
        re-record the baseline when a case is intentionally removed).  A
        comparison that paired *zero* cases (renamed cases, a baseline from a
        failed run) also fails.  With ``max_regression`` set, slowdowns only
        fail beyond that *ratio* (e.g. ``2.0`` = twice as slow) — the
        verdicts still report every beyond-tolerance drift; without it, any
        ``regression`` verdict fails.
        """
        if self.errors or self.with_verdict("config-mismatch", "missing"):
            return True
        if self.deltas and not self.compared:
            return True
        if max_regression is not None:
            return any(d.ratio > max_regression for d in self.compared)
        return bool(self.regressions)

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for delta in self.deltas:
            counts[delta.verdict] = counts.get(delta.verdict, 0) + 1
        parts = [f"{n} {verdict}" for verdict, n in sorted(counts.items())]
        return f"{len(self.deltas)} case(s): " + (", ".join(parts) if parts else "none")

    def to_dict(self, *, max_regression: Optional[float] = None) -> dict[str, object]:
        """JSON-ready form; ``failed`` honours the same ``max_regression``
        policy as the exit code, so the artifact never contradicts the gate."""
        return {
            "tolerance": self.tolerance,
            "max_regression": max_regression,
            "current_host": self.current_host,
            "baseline_host": self.baseline_host,
            "summary": self.summary(),
            "failed": self.failed(max_regression=max_regression),
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _classify(current_best: float, baseline_best: float, tolerance: float) -> tuple[str, float]:
    ratio = current_best / baseline_best if baseline_best > 0 else float("inf")
    if ratio > 1.0 + tolerance:
        return "regression", ratio
    if ratio < 1.0 - tolerance:
        return "improvement", ratio
    return "within-tolerance", ratio


def compare_runs(current: BenchRun, baseline: BenchRun, *, tolerance: float = 0.25) -> CompareReport:
    """Match the two runs case-by-case and classify every pairing."""
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    report = CompareReport(
        tolerance=tolerance, current_host=current.host, baseline_host=baseline.host
    )
    base_by_key = baseline.by_key()
    seen = set()
    for result in current.results:
        key = result.case.key
        seen.add(key)
        if result.error is not None:
            report.deltas.append(CaseDelta(key=key, verdict="error"))
            continue
        base = base_by_key.get(key)
        if base is None or base.error is not None or not base.seconds:
            report.deltas.append(
                CaseDelta(key=key, verdict="new", current_seconds=result.best, wall_cpu=result.wall_cpu)
            )
            continue
        calibrated = bool(result.calibrated_seconds and base.calibrated_seconds)
        if calibrated:
            current_best, base_best = result.calibrated_best, base.calibrated_best
        else:
            current_best, base_best = result.best, base.best
        if result.case.params != base.case.params:
            # same key, different knobs (scale, nprocs, …): the timings are
            # not comparable — surface the mismatch instead of a bogus ratio
            report.deltas.append(
                CaseDelta(
                    key=key,
                    verdict="config-mismatch",
                    current_seconds=current_best,
                    baseline_seconds=base_best,
                    calibrated=calibrated,
                    wall_cpu=result.wall_cpu,
                )
            )
            continue
        verdict, ratio = _classify(current_best, base_best, tolerance)
        report.deltas.append(
            CaseDelta(
                key=key,
                verdict=verdict,
                current_seconds=current_best,
                baseline_seconds=base_best,
                ratio=ratio,
                calibrated=calibrated,
                wall_cpu=result.wall_cpu,
            )
        )
    # baseline cases the current run should have produced but didn't.  Suites
    # that were not run at all are out of scope (comparing a pipeline-only
    # run against a fuller baseline is legitimate); a missing case *within* a
    # suite that ran means lost coverage and fails the gate.
    current_suites = {result.case.suite for result in current.results}
    for key, base in base_by_key.items():
        if key not in seen and base.case.suite in current_suites:
            report.deltas.append(
                CaseDelta(key=key, verdict="missing", baseline_seconds=base.best)
            )
    return report


def median_run(runs: Sequence[BenchRun]) -> BenchRun:
    """One baseline from several runs of the same suites and knobs.

    Each case keeps the whole result of the run whose best repeat (its
    calibrated best when every run of the case recorded one) is the median,
    the upper one for an even count; errored results take part only when
    every run of the case errored.  Cases keep their first-seen order; the
    host, timestamp and Python are the last run's.  Raises
    :class:`ValueError` when the runs were recorded under different
    settings or knobs.
    """
    if not runs:
        raise ValueError("median_run needs at least one run")
    env = runs[0].env
    if any(run.env != env for run in runs):
        raise ValueError("the runs were recorded with different bench settings")
    per_case: dict[str, list[BenchResult]] = {}
    for run in runs:
        for result in run.results:
            per_case.setdefault(result.case.key, []).append(result)
    results = []
    for key, found in per_case.items():
        if len({result.case.params for result in found}) > 1:
            raise ValueError(f"case {key} was recorded with different knobs")
        timed = [result for result in found if result.error is None and result.seconds]
        if not timed:
            results.append(found[-1])
            continue
        calibrated = all(result.calibrated_seconds for result in timed)
        timed.sort(key=lambda r: r.calibrated_best if calibrated else r.best)
        results.append(timed[len(timed) // 2])
    last = runs[-1]
    return BenchRun(
        host=last.host,
        timestamp=last.timestamp,
        python=last.python,
        env=dict(env),
        results=results,
        schema=min(run.schema for run in runs),
    )
