"""Execute benchmark suites with warmup/repeat/timer control.

The runner is deliberately small: suites declare *what* to measure
(:mod:`repro.bench.suites`), the model declares *how results look*
(:mod:`repro.bench.model`) and this module only owns the measurement
protocol — untimed warmup rounds, timed repeats around the injected timer
with calibration samples around each (:mod:`repro.bench.calibration`), and
error capture so one broken case never voids a whole run.
"""

from __future__ import annotations

import cProfile
import pstats
import time
import traceback
from typing import Callable, Optional, Sequence

from repro.bench.calibration import calibration_sample, slowdown
from repro.bench.env import BenchEnv
from repro.bench.model import BenchCase, BenchResult, BenchRun
from repro.bench.suites import PreparedCase, build_suite

__all__ = ["BenchRunner", "CALIBRATION_SAMPLES"]

#: calibration samples taken before and after each timed repeat (~3 ms each)
CALIBRATION_SAMPLES = 3


class BenchRunner:
    """Run named suites into a :class:`~repro.bench.model.BenchRun`.

    Parameters
    ----------
    env:
        Validated benchmark configuration (problem scale, processor count…).
    repeats / warmup:
        Global overrides; ``None`` keeps each case's own protocol (micro
        cases default to several repeats, end-to-end cases to one).
    timer:
        Monotonic clock used around each repeat (injectable for tests).
    calibrate:
        The host-speed sample taken :data:`CALIBRATION_SAMPLES` times before
        and after each repeat (injectable for tests); the repeat's
        calibrated time is its raw time over the samples' slowdown.
    progress:
        Optional callback ``(case, result)`` invoked after each case.
    profile_top:
        When set, each case runs once more under :mod:`cProfile` *after* the
        timed repeats (so profiling overhead never pollutes the timings) and
        the top ``profile_top`` functions by cumulative time are attached to
        the result (``BenchResult.profile``) — the ``repro bench run
        --profile`` hot-path hunting mode.
    """

    def __init__(
        self,
        env: BenchEnv | None = None,
        *,
        repeats: int | None = None,
        warmup: int | None = None,
        timer: Callable[[], float] = time.perf_counter,
        calibrate: Callable[[], float] = calibration_sample,
        progress: Optional[Callable[[PreparedCase, BenchResult], None]] = None,
        profile_top: int | None = None,
    ) -> None:
        if repeats is not None and repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        if warmup is not None and warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        if profile_top is not None and profile_top < 1:
            raise ValueError(f"profile_top must be >= 1, got {profile_top}")
        self.env = env if env is not None else BenchEnv.from_environ()
        self.repeats = repeats
        self.warmup = warmup
        self.timer = timer
        self.calibrate = calibrate
        self.progress = progress
        self.profile_top = profile_top

    # ------------------------------------------------------------------ #
    def run_case(self, prepared: PreparedCase) -> BenchResult:
        """Time one prepared case (warmups, then repeats; errors captured)."""
        repeats = self.repeats if self.repeats is not None else prepared.repeats
        warmup = self.warmup if self.warmup is not None else prepared.warmup
        result = BenchResult(case=prepared.case, warmup=warmup)
        try:
            for _ in range(warmup):
                prepared.fn()
            for _ in range(repeats):
                samples = [self.calibrate() for _ in range(CALIBRATION_SAMPLES)]
                start = self.timer()
                metrics = prepared.fn()
                seconds = self.timer() - start
                samples += [self.calibrate() for _ in range(CALIBRATION_SAMPLES)]
                result.seconds.append(seconds)
                result.calibrated_seconds.append(seconds / slowdown(samples))
                if metrics:
                    result.metrics = {str(k): float(v) for k, v in metrics.items()}
        except Exception:
            result.seconds = []
            result.calibrated_seconds = []
            result.error = traceback.format_exc(limit=8)
        if self.profile_top is not None and result.error is None:
            # a failure of the optional profiling pass must never void the
            # timings already collected above
            try:
                result.profile = self._profile_case(prepared, self.profile_top)
            except Exception:
                result.profile = [
                    {
                        "function": "<profiling failed>: "
                        + traceback.format_exc(limit=2).strip().splitlines()[-1],
                        "ncalls": 0,
                        "tottime": 0.0,
                        "cumtime": 0.0,
                    }
                ]
        if self.progress is not None:
            self.progress(prepared, result)
        return result

    @staticmethod
    def _profile_case(prepared: PreparedCase, top: int) -> list[dict]:
        """One extra cProfile'd execution, digested to the top-N cumulative rows."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            prepared.fn()
        finally:
            profiler.disable()
        stats = pstats.Stats(profiler)
        stats.sort_stats("cumulative")
        rows: list[dict] = []
        for func in stats.fcn_list[:top]:
            _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
            filename, line, name = func
            rows.append(
                {
                    "function": f"{filename}:{line}({name})",
                    "ncalls": int(ncalls),
                    "tottime": float(tottime),
                    "cumtime": float(cumtime),
                }
            )
        return rows

    def run_suites(self, names: Sequence[str]) -> BenchRun:
        """Build and execute every named suite, in order, into one run.

        A suite whose *build* raises (e.g. a broken analysis chain) is
        recorded as one errored ``<suite>/<suite>-build`` result instead of
        aborting the run — the other suites still execute and the partial
        results are still saved and comparable.
        """
        run = BenchRun.started(self.env)
        for name in names:
            try:
                instance = build_suite(name, self.env)
            except Exception:
                run.results.append(
                    BenchResult(
                        case=BenchCase(name=f"{name}-build", suite=name),
                        error=traceback.format_exc(limit=8),
                    )
                )
                continue
            try:
                for prepared in instance.cases:
                    run.results.append(self.run_case(prepared))
            finally:
                instance.close()
        return run
