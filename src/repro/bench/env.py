"""Validated benchmark configuration from the ``REPRO_BENCH_*`` environment.

:class:`BenchEnv` parses and range-checks every knob up front: a typo like
``REPRO_BENCH_SCALE=0`` or ``REPRO_BENCH_NPROCS=two`` raises one uniform
error naming the variable, instead of silently producing empty problems or
a naked ``ValueError`` pointing at the wrong line.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Mapping

__all__ = ["BenchEnv", "BenchEnvError"]


class BenchEnvError(ValueError):
    """A ``REPRO_BENCH_*`` variable holds an out-of-range or unparsable value."""


def _parse(environ: Mapping[str, str], name: str, caster, default):
    raw = environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return caster(raw)
    except (TypeError, ValueError):
        raise BenchEnvError(
            f"{name}={raw!r} is not a valid {caster.__name__}"
        ) from None


@dataclass(frozen=True)
class BenchEnv:
    """Benchmark knobs, with the same defaults the suite always had.

    ``from_environ`` is the only supported constructor from the environment;
    building one directly (e.g. in tests or from CLI flags via
    :meth:`replace`) bypasses the environment but not the validation, which
    runs in ``__post_init__``.
    """

    #: simulated processors used by the suites (paper: 32).
    nprocs: int = 32
    #: problem scale factor (1.0 = largest analogues).
    scale: float = 0.6

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise BenchEnvError(f"REPRO_BENCH_NPROCS must be >= 1, got {self.nprocs}")
        if not self.scale > 0:
            raise BenchEnvError(f"REPRO_BENCH_SCALE must be > 0, got {self.scale!r}")
        if self.scale > 4:
            raise BenchEnvError(
                f"REPRO_BENCH_SCALE={self.scale!r} is out of range (problems only scale up to 4.0)"
            )

    @classmethod
    def from_environ(cls, environ: Mapping[str, str] | None = None) -> "BenchEnv":
        """Read and validate every ``REPRO_BENCH_*`` variable.

        ``environ`` defaults to ``os.environ``; pass a mapping in tests.
        Unset (or empty) variables keep their defaults; malformed or
        out-of-range values raise :class:`BenchEnvError` naming the variable.
        """
        env = os.environ if environ is None else environ
        return cls(
            nprocs=_parse(env, "REPRO_BENCH_NPROCS", int, cls.nprocs),
            scale=_parse(env, "REPRO_BENCH_SCALE", float, cls.scale),
        )

    def replace(self, **overrides) -> "BenchEnv":
        """A copy with ``overrides`` applied (``None`` values are ignored)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update({k: v for k, v in overrides.items() if v is not None})
        return BenchEnv(**data)

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
