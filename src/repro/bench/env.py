"""Validated benchmark configuration: the ``repro bench run`` engine knobs.

:class:`BenchEnv` range-checks every knob up front: a typo like
``--scale 0`` raises one uniform error naming the flag, instead of silently
producing empty problems or a naked ``ValueError`` pointing at the wrong
line.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["BenchEnv", "BenchEnvError"]


class BenchEnvError(ValueError):
    """A benchmark knob holds an out-of-range or mistyped value."""


@dataclass(frozen=True)
class BenchEnv:
    """Benchmark knobs, with the same defaults the suite always had.

    Validation runs in ``__post_init__``, so every construction — the
    defaults, :meth:`replace` with ``repro bench run``'s ``--nprocs`` /
    ``--scale`` flags, or a test's own values — is checked.
    """

    #: simulated processors used by the suites (paper: 32).
    nprocs: int = 32
    #: problem scale factor (1.0 = largest analogues).
    scale: float = 0.6

    def __post_init__(self) -> None:
        if not isinstance(self.nprocs, int) or self.nprocs < 1:
            raise BenchEnvError(f"--nprocs must be an integer >= 1, got {self.nprocs!r}")
        if not isinstance(self.scale, (int, float)) or not self.scale > 0:
            raise BenchEnvError(f"--scale must be a number > 0, got {self.scale!r}")
        if self.scale > 4:
            raise BenchEnvError(
                f"--scale {self.scale!r} is out of range (problems only scale up to 4.0)"
            )

    def replace(self, **overrides) -> "BenchEnv":
        """A copy with ``overrides`` applied (``None`` values are ignored)."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update({k: v for k, v in overrides.items() if v is not None})
        return BenchEnv(**data)

    def to_dict(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
