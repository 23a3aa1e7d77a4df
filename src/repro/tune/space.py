"""Declarative search spaces over strategy parameters and case knobs.

A :class:`SearchSpace` names one strategy preset and, for each tunable
parameter, a *domain* — a float range (:class:`Range`), an integer range
(:class:`IntRange`) or a categorical set (:class:`Choice`).  On top of the
strategy parameters it carries the two case-level knobs the scheduler
exposes: the ``split`` axis and an optional ``split_threshold`` domain.

Domains have a textual mini-language, composing with the spec grammar of
:mod:`repro.specs`::

    hybrid(alpha=0.0..1.0)                       float range, uniform
    hybrid(alpha=0.001..1.0:log)                 float range, log-uniform
    memory-full()                                no tunable parameters
    hybrid(alpha=0.25|0.5|0.75,use_predictions=true|false)   choices
    metis(leaf_size=8..64)                       integer range (both ends int)

Sampling is *explicit-seed deterministic*: the same ``numpy`` generator
state always draws the same configuration, and every sample renders through
:class:`~repro.specs.ParamSpec` — so a drawn ``alpha`` of
``0.30000000000000004`` canonicalises to the spec string ``hybrid(alpha=0.3)``
and shares cache/store keys with the hand-written spelling.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.specs import (
    ParamSpec,
    ParamValue,
    _parse_value,
    _split_top_level,
    canonical_float,
    format_value,
    parse_spec,
)

__all__ = [
    "Domain",
    "Range",
    "IntRange",
    "Choice",
    "parse_domain",
    "parse_space",
    "TuneConfig",
    "SearchSpace",
]


# --------------------------------------------------------------------------- #
# domains
# --------------------------------------------------------------------------- #
class Domain(ABC):
    """One parameter's value set: sampleable, grid-enumerable, serializable."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> ParamValue:
        """Draw one value (consumes exactly one rng call — order matters)."""

    @abstractmethod
    def grid(self, resolution: int) -> tuple[ParamValue, ...]:
        """``resolution`` representative values for exhaustive search."""

    @abstractmethod
    def spec(self) -> str:
        """Canonical textual form; :func:`parse_domain` round-trips it."""

    def __str__(self) -> str:
        return self.spec()


@dataclass(frozen=True)
class Range(Domain):
    """A continuous float range ``[lo, hi]``, uniform or log-uniform.

    The bounds are kept in :func:`~repro.specs.canonical_float` form, as
    every drawn value is, so rounding a value never carries it outside them.
    """

    lo: float
    hi: float
    log: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", canonical_float(float(self.lo)))
        object.__setattr__(self, "hi", canonical_float(float(self.hi)))
        if not self.lo < self.hi:
            raise ValueError(f"range needs lo < hi, got {self.lo!r}..{self.hi!r}")
        if self.log and self.lo <= 0:
            raise ValueError(f"log range needs lo > 0, got {self.lo!r}")

    def sample(self, rng: np.random.Generator) -> float:
        u = float(rng.uniform())
        if self.log:
            return canonical_float(
                math.exp(math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo)))
            )
        return canonical_float(self.lo + u * (self.hi - self.lo))

    def grid(self, resolution: int) -> tuple[float, ...]:
        if resolution < 1:
            raise ValueError(f"grid resolution must be >= 1, got {resolution}")
        if resolution == 1:
            mid = math.sqrt(self.lo * self.hi) if self.log else (self.lo + self.hi) / 2.0
            return (canonical_float(mid),)
        points = (
            np.geomspace(self.lo, self.hi, resolution)
            if self.log
            else np.linspace(self.lo, self.hi, resolution)
        )
        return tuple(canonical_float(float(p)) for p in points)

    def spec(self) -> str:
        suffix = ":log" if self.log else ""
        return f"{format_value(self.lo)}..{format_value(self.hi)}{suffix}"


@dataclass(frozen=True)
class IntRange(Domain):
    """An inclusive integer range ``[lo, hi]``, uniform or log-uniform."""

    lo: int
    hi: int
    log: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", int(self.lo))
        object.__setattr__(self, "hi", int(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"range needs lo < hi, got {self.lo!r}..{self.hi!r}")
        if self.log and self.lo <= 0:
            raise ValueError(f"log range needs lo > 0, got {self.lo!r}")

    def sample(self, rng: np.random.Generator) -> int:
        u = float(rng.uniform())
        if self.log:
            value = int(
                round(
                    math.exp(
                        math.log(self.lo) + u * (math.log(self.hi) - math.log(self.lo))
                    )
                )
            )
            return min(max(value, self.lo), self.hi)
        # uniform over the hi - lo + 1 integers, endpoints included
        return min(self.lo + int(u * (self.hi - self.lo + 1)), self.hi)

    def grid(self, resolution: int) -> tuple[int, ...]:
        if resolution < 1:
            raise ValueError(f"grid resolution must be >= 1, got {resolution}")
        if resolution == 1:
            mid = math.sqrt(self.lo * self.hi) if self.log else (self.lo + self.hi) / 2.0
            return (min(max(int(round(mid)), self.lo), self.hi),)
        points = (
            np.geomspace(self.lo, self.hi, resolution)
            if self.log
            else np.linspace(self.lo, self.hi, resolution)
        )
        values: list[int] = []
        for p in points:
            value = min(max(int(round(float(p))), self.lo), self.hi)
            if value not in values:  # rounding can collapse neighbours
                values.append(value)
        return tuple(values)

    def spec(self) -> str:
        suffix = ":log" if self.log else ""
        return f"{self.lo}..{self.hi}{suffix}"


@dataclass(frozen=True)
class Choice(Domain):
    """An explicit, ordered set of values (categorical; a single value pins it).

    Float values are kept in :func:`~repro.specs.canonical_float` form, the
    form a rendered configuration carries them in.
    """

    values: tuple[ParamValue, ...]

    def __post_init__(self) -> None:
        values = tuple(canonical_float(v) if isinstance(v, float) else v for v in self.values)
        if not values:
            raise ValueError("a choice domain needs at least one value")
        if len(set(values)) != len(values):
            raise ValueError(f"duplicate values in choice domain {values!r}")
        object.__setattr__(self, "values", values)

    def sample(self, rng: np.random.Generator) -> ParamValue:
        u = float(rng.uniform())
        return self.values[min(int(u * len(self.values)), len(self.values) - 1)]

    def grid(self, resolution: int) -> tuple[ParamValue, ...]:
        return self.values  # categorical: resolution does not subsample

    def spec(self) -> str:
        return "|".join(format_value(v) for v in self.values)


def parse_domain(text: str | Domain) -> Domain:
    """Parse one domain spec (``"0.0..1.0"``, ``"8..64:log"``, ``"a|b"``).

    Idempotent on :class:`Domain` inputs; a single plain value becomes a
    one-element :class:`Choice` (a pinned parameter).
    """
    if isinstance(text, Domain):
        return text
    text = str(text).strip()
    if not text:
        raise ValueError("empty domain")
    parts = [part.strip() for part in _split_top_level(text, sep="|")]
    if len(parts) > 1:
        return Choice(tuple(_parse_value(part) for part in parts))
    body, colon, flag = text.partition(":")
    if colon and flag.strip().lower() != "log":
        raise ValueError(f"unknown domain modifier {flag.strip()!r} in {text!r}; expected 'log'")
    log = bool(colon)
    lo_text, dots, hi_text = body.partition("..")
    if not dots:
        if log:
            raise ValueError(f"':log' only applies to ranges, got {text!r}")
        return Choice((_parse_value(body),))
    lo, hi = _parse_value(lo_text), _parse_value(hi_text)
    for bound in (lo, hi):
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise ValueError(f"range bounds must be numbers, got {bound!r} in {text!r}")
    if isinstance(lo, int) and isinstance(hi, int):
        return IntRange(lo, hi, log=log)
    return Range(float(lo), float(hi), log=log)


# --------------------------------------------------------------------------- #
# configurations: one sampled/enumerated point of the space
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TuneConfig:
    """One concrete configuration: a canonical strategy spec plus case knobs.

    ``strategy`` is already the canonical mini-language string (rendered
    through :class:`~repro.specs.ParamSpec`, so sampled float noise is gone)
    — it can go straight into a :class:`~repro.specs.SweepSpec` axis and
    collides with hand-written spellings of the same point.
    """

    strategy: str
    split: bool = False
    split_threshold: int | None = None

    @property
    def key(self) -> str:
        """Stable identity used for dedup, promotion tie-breaks and reports."""
        parts = [self.strategy, f"split={format_value(self.split)}"]
        if self.split_threshold is not None:
            parts.append(f"split_threshold={self.split_threshold}")
        return "|".join(parts)

    def to_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "split": self.split,
            "split_threshold": self.split_threshold,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TuneConfig":
        return cls(
            strategy=str(parse_spec(str(data["strategy"]))),
            split=bool(data.get("split", False)),
            split_threshold=(
                None
                if data.get("split_threshold") is None
                else int(data["split_threshold"])  # type: ignore[arg-type]
            ),
        )


# --------------------------------------------------------------------------- #
# the search space
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SearchSpace:
    """A strategy preset with tunable parameter domains and case knobs.

    ``strategy`` must name a registered preset and every parameter key must
    be one the preset declares (validated against
    :data:`repro.scheduling.STRATEGIES`, so ``hybrid(aplha=...)`` fails at
    construction, not mid-search).  ``split`` is always enumerated — it is a
    two-point axis at most — while ``split_threshold``, when given, is a
    sampled/gridded domain like any strategy parameter.
    """

    strategy: str
    params: tuple[tuple[str, Domain], ...] = ()
    split: tuple[bool, ...] = (False,)
    split_threshold: Domain | None = field(default=None)

    def __post_init__(self) -> None:
        from repro.scheduling import STRATEGIES
        from repro.registry import validate_params

        entry = STRATEGIES.entry(str(self.strategy))  # did-you-mean on a miss
        object.__setattr__(self, "strategy", entry.name)
        params = tuple(sorted((str(k), parse_domain(v)) for k, v in self.params))
        validate_params("strategy", entry.name, entry.params, dict(params))
        object.__setattr__(self, "params", params)
        split = tuple(self.split) if not isinstance(self.split, bool) else (self.split,)
        if not split or any(not isinstance(s, bool) for s in split):
            raise ValueError(f"split axis must be non-empty booleans, got {self.split!r}")
        if len(set(split)) != len(split):
            raise ValueError(f"duplicate split values {split!r}")
        object.__setattr__(self, "split", split)
        if self.split_threshold is not None:
            object.__setattr__(self, "split_threshold", parse_domain(self.split_threshold))

    # ------------------------------------------------------------------ #
    def canonical(self) -> str:
        """Canonical space string (the strategy part only; knobs are fields)."""
        if not self.params:
            return self.strategy
        inner = ",".join(f"{k}={domain.spec()}" for k, domain in self.params)
        return f"{self.strategy}({inner})"

    def __str__(self) -> str:
        return self.canonical()

    def _render(self, values: Mapping[str, ParamValue]) -> str:
        """A sampled parameter dict as the canonical strategy spec string."""
        return ParamSpec(self.strategy, tuple(values.items())).canonical()

    def sample(self, rng: np.random.Generator) -> TuneConfig:
        """Draw one configuration (domains consumed in sorted-key order)."""
        values = {key: domain.sample(rng) for key, domain in self.params}
        split = self.split[0]
        if len(self.split) > 1:
            split = Choice(self.split).sample(rng)
        threshold = None
        if self.split_threshold is not None:
            threshold = int(self.split_threshold.sample(rng))
        return TuneConfig(
            strategy=self._render(values), split=bool(split), split_threshold=threshold
        )

    def grid(self, resolution: int = 3) -> list[TuneConfig]:
        """The exhaustive cartesian grid at ``resolution`` points per range."""
        axes: list[tuple[ParamValue, ...]] = [
            domain.grid(resolution) for _, domain in self.params
        ]
        keys = [key for key, _ in self.params]
        threshold_axis: tuple[int | None, ...] = (None,)
        if self.split_threshold is not None:
            threshold_axis = tuple(int(v) for v in self.split_threshold.grid(resolution))
        configs = []
        for combo in itertools.product(*axes):
            strategy = self._render(dict(zip(keys, combo)))
            for split in self.split:
                for threshold in threshold_axis:
                    configs.append(
                        TuneConfig(strategy=strategy, split=split, split_threshold=threshold)
                    )
        return configs

    def grid_size(self, resolution: int = 3) -> int:
        size = len(self.split)
        for _, domain in self.params:
            size *= len(domain.grid(resolution))
        if self.split_threshold is not None:
            size *= len(self.split_threshold.grid(resolution))
        return size

    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        return {
            "strategy": self.strategy,
            "params": {key: domain.spec() for key, domain in self.params},
            "split": list(self.split),
            "split_threshold": (
                None if self.split_threshold is None else self.split_threshold.spec()
            ),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SearchSpace":
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"SearchSpace params must be a mapping, got {params!r}")
        split = data.get("split", [False])
        if not isinstance(split, Sequence) or isinstance(split, (str, bytes)):
            raise ValueError(f"SearchSpace split must be a list of booleans, got {split!r}")
        threshold = data.get("split_threshold")
        return cls(
            strategy=str(data["strategy"]),
            params=tuple((str(k), parse_domain(str(v))) for k, v in params.items()),
            split=tuple(bool(s) for s in split),
            split_threshold=None if threshold is None else parse_domain(str(threshold)),
        )


def parse_space(
    text: str | SearchSpace,
    *,
    split: Sequence[bool] | bool = (False,),
    split_threshold: str | Domain | None = None,
) -> SearchSpace:
    """Parse ``"name(param=domain, ...)"`` into a :class:`SearchSpace`.

    The strategy-spec grammar of :func:`repro.specs.parse_spec` with domain
    values — ``parse_space("hybrid(alpha=0.0..1.0,use_predictions=true|false)")``.
    Idempotent on :class:`SearchSpace` inputs (the knob arguments are then
    ignored).  The ``split``/``split_threshold`` knobs arrive as keywords
    because they are case-level axes, not strategy parameters.
    """
    if isinstance(text, SearchSpace):
        return text
    from repro.specs import _SPEC_RE, _KEY_RE  # reuse the one grammar

    match = _SPEC_RE.match(str(text))
    if match is None:
        raise ValueError(
            f"cannot parse search space {text!r}; expected 'name' or 'name(key=domain, ...)'"
        )
    name = match.group("name")
    raw = match.group("params")
    params: dict[str, Domain] = {}
    for item in _split_top_level(raw) if raw else ():
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"parameter {item!r} in space {text!r} must be 'key=domain'")
        if not _KEY_RE.match(key):
            raise ValueError(f"bad parameter name {key!r} in space {text!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in space {text!r}")
        params[key] = parse_domain(value)
    return SearchSpace(
        strategy=name,
        params=tuple(params.items()),
        split=(split,) if isinstance(split, bool) else tuple(split),
        split_threshold=None if split_threshold is None else parse_domain(split_threshold),
    )
