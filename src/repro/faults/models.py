"""Deterministic fault models and their compiled execution plan.

The perturbation layer stresses the paper's perfectly uniform machine with
the failure modes real SP-class machines exhibit (ROADMAP open item 3c):

* ``stragglers(frac=0.1, slowdown=4.0)`` — a seeded subset of processors
  runs every kernel ``slowdown`` times slower for the whole run;
* ``slowdown(n=1, span=1.0, duration=0.1, factor=2.0)`` — each processor
  gets ``n`` transient windows of length ``duration`` drawn uniformly in
  ``[0, span)`` during which its compute speed dips by ``factor``;
* ``msgloss(p=0.01, retry_timeout=5e-4, backoff=2.0)`` — every
  point-to-point message is independently lost with probability ``p`` and
  re-sent after ``retry_timeout * backoff**k`` of *simulated* time on the
  ``k``-th retry (the small bookkeeping broadcasts are treated as reliable
  collectives and never dropped).

Fault specs are written in the same mini-language as strategies and
orderings, with models joined by ``+``::

    faults = "stragglers(frac=0.1,slowdown=4.0)+msgloss(p=0.01)"

Everything is deterministic: randomness comes exclusively from the explicit
``seed`` through salted :class:`numpy.random.SeedSequence` streams — never
wall-clock time or ``hash()`` — so the same ``(faults, seed)`` pair
reproduces byte-identical :class:`~repro.runtime.SimulationResult` values
on every engine and every backend.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields
from functools import partial
from typing import Mapping, Optional, Union

import numpy as np

from repro.serialize import decode_fields
from repro.specs import ParamSpec, _split_top_level, parse_spec

__all__ = [
    "StragglerModel",
    "SlowdownModel",
    "MsgLossModel",
    "FaultSpec",
    "FaultPlan",
    "LossStream",
    "parse_faults",
    "canonical_faults",
    "replication_seed",
    "MAX_RETRIES",
]

#: Hard cap on consecutive loss draws for one message.  With sane ``p`` the
#: probability of reaching it is ``p**64`` (≈ never); the cap bounds the
#: retry loop even under adversarial ``p`` close to 1.
MAX_RETRIES = 64

# Stream salts: fixed CRC-32 of the model name, so adding a model never
# shifts the draws of an existing one under the same seed.
_SALT_STRAGGLERS = zlib.crc32(b"stragglers")
_SALT_SLOWDOWN = zlib.crc32(b"slowdown")
_SALT_MSGLOSS = zlib.crc32(b"msgloss")


def _generator(seed: int, salt: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(salt)])))


def replication_seed(seed: int, rep: int) -> int:
    """The fault seed of replication ``rep`` derived from the base ``seed``.

    CRC-32 mixing (the :func:`repro.tune.objective.mixed_seed` idiom) keeps
    the derivation stable across platforms and numpy versions; replication 0
    is *not* the base seed, so a single run at ``seed`` and the first of N
    replications never silently share draws.
    """
    return (int(seed) & 0xFFFFFFFF) ^ zlib.crc32(f"replication-{int(rep)}".encode("ascii"))


@dataclass(frozen=True)
class StragglerModel:
    """Per-processor static speed multipliers."""

    frac: float = 0.1
    slowdown: float = 4.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.frac <= 1.0:
            raise ValueError(f"stragglers frac must be in [0, 1], got {self.frac!r}")
        if self.slowdown <= 0.0:
            raise ValueError(f"stragglers slowdown must be > 0, got {self.slowdown!r}")


@dataclass(frozen=True)
class SlowdownModel:
    """Transient per-processor slowdown windows in simulated time."""

    n: int = 1
    span: float = 1.0
    duration: float = 0.1
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"slowdown n must be >= 1, got {self.n!r}")
        if self.span <= 0.0:
            raise ValueError(f"slowdown span must be > 0, got {self.span!r}")
        if self.duration <= 0.0:
            raise ValueError(f"slowdown duration must be > 0, got {self.duration!r}")
        if self.factor <= 0.0:
            raise ValueError(f"slowdown factor must be > 0, got {self.factor!r}")


@dataclass(frozen=True)
class MsgLossModel:
    """Independent per-message loss with retry after an exponential backoff."""

    p: float = 0.01
    retry_timeout: float = 5e-4
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"msgloss p must be in [0, 1), got {self.p!r}")
        if self.retry_timeout <= 0.0:
            raise ValueError(f"msgloss retry_timeout must be > 0, got {self.retry_timeout!r}")
        if self.backoff < 1.0:
            raise ValueError(f"msgloss backoff must be >= 1, got {self.backoff!r}")


_MODEL_TYPES = {
    "stragglers": StragglerModel,
    "slowdown": SlowdownModel,
    "msgloss": MsgLossModel,
}


@dataclass(frozen=True)
class FaultSpec:
    """A parsed, validated fault specification (schema-versioned: fault_spec)."""

    stragglers: Optional[StragglerModel] = None
    slowdown: Optional[SlowdownModel] = None
    msgloss: Optional[MsgLossModel] = None

    def __post_init__(self) -> None:
        if self.stragglers is None and self.slowdown is None and self.msgloss is None:
            raise ValueError("a FaultSpec needs at least one fault model")

    def canonical(self) -> str:
        """Canonical mini-language form; :func:`parse_faults` round-trips it.

        Models appear in alphabetical order with every parameter bound, so
        equivalent spellings (reordered segments, defaulted vs. explicit
        parameters) canonicalise — and cache-key — identically.
        """
        segments = []
        for name in sorted(_MODEL_TYPES):
            model = getattr(self, name)
            if model is None:
                continue
            params = tuple(
                (f.name, getattr(model, f.name)) for f in fields(model)
            )
            segments.append(ParamSpec(name, params).canonical())
        return "+".join(segments)

    def to_dict(self) -> dict[str, object]:
        data: dict[str, object] = {}
        for name in sorted(_MODEL_TYPES):
            model = getattr(self, name)
            if model is not None:
                data[name] = {f.name: getattr(model, f.name) for f in fields(model)}
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object], *, strict: bool = True) -> "FaultSpec":
        payload = decode_fields(
            "fault_spec", data, set(_MODEL_TYPES), label="FaultSpec", strict=strict
        )
        models: dict[str, object] = {}
        for name, model_cls in _MODEL_TYPES.items():
            raw = payload.get(name)
            if raw is None:
                continue
            if not isinstance(raw, Mapping):
                raise ValueError(f"FaultSpec {name} must be a mapping, got {raw!r}")
            models[name] = model_cls(**raw)
        return cls(**models)  # type: ignore[arg-type]

    def __str__(self) -> str:
        return self.canonical()


def parse_faults(text: Union[str, FaultSpec]) -> FaultSpec:
    """Parse ``"model(...)+model(...)"`` into a :class:`FaultSpec`.

    Idempotent on :class:`FaultSpec` inputs.  Raises ``ValueError`` on
    malformed syntax, unknown models, duplicate models or invalid parameter
    values.
    """
    if isinstance(text, FaultSpec):
        return text
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"cannot parse fault spec {text!r}: expected 'model(...)+model(...)'")
    models: dict[str, object] = {}
    for segment in _split_top_level(text, sep="+"):
        segment = segment.strip()
        if not segment:
            raise ValueError(f"empty fault model segment in {text!r}")
        spec = parse_spec(segment)
        model_cls = _MODEL_TYPES.get(spec.name)
        if model_cls is None:
            known = ", ".join(sorted(_MODEL_TYPES))
            raise ValueError(f"unknown fault model {spec.name!r} (known: {known})")
        if spec.name in models:
            raise ValueError(f"duplicate fault model {spec.name!r} in {text!r}")
        allowed = {f.name for f in fields(model_cls)}
        unknown = set(spec.kwargs) - allowed
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for fault model {spec.name!r} "
                f"(allowed: {sorted(allowed)})"
            )
        try:
            models[spec.name] = model_cls(**spec.kwargs)
        except TypeError as exc:
            raise ValueError(f"bad parameters for fault model {spec.name!r}: {exc}") from exc
    return FaultSpec(**models)  # type: ignore[arg-type]


def canonical_faults(text: Union[str, FaultSpec, None]) -> str:
    """Canonical form of a fault spec string; ``""`` for ``None``/empty."""
    if text is None or text == "":
        return ""
    return parse_faults(text).canonical()


def _blocks(generator: np.random.Generator, size: int):
    while True:
        yield from generator.random(size).tolist()


class LossStream:
    """The message-loss draws of one run, handed out from blocks.

    ``random()`` returns the next uniform ``[0, 1)`` draw of ``generator``.
    A ``Generator.random(k)`` block holds exactly the values of ``k`` scalar
    ``Generator.random()`` calls, so the sequence is the scalar one; a draw
    costs a list step instead of a numpy scalar call.
    """

    __slots__ = ("random",)

    #: draws per ``Generator.random`` block
    BLOCK = 256

    def __init__(self, generator: np.random.Generator) -> None:
        self.random = partial(next, _blocks(generator, self.BLOCK))


class FaultPlan:
    """A :class:`FaultSpec` compiled for one machine size and seed.

    The compile step materialises everything the engines need as numpy
    arrays (per-processor speed factors, sorted slowdown window edges) plus
    python-float mirrors for the scalar hot path.  A plan is immutable and
    reusable: :meth:`message_stream` hands out a *fresh* generator each
    call, so re-running a simulator from the same plan replays identical
    draws.
    """

    __slots__ = (
        "spec",
        "nprocs",
        "seed",
        "speed_factors",
        "window_starts",
        "window_ends",
        "_speed",
        "_windows",
        "_window_factor",
        "_loss_p",
        "_retry_timeout",
        "_backoff",
    )

    def __init__(self, spec: FaultSpec, *, nprocs: int, seed: int) -> None:
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if seed < 0:
            raise ValueError("fault seed must be >= 0")
        self.spec = spec
        self.nprocs = int(nprocs)
        self.seed = int(seed)

        speed = np.ones(self.nprocs, dtype=np.float64)
        if spec.stragglers is not None:
            rng = _generator(self.seed, _SALT_STRAGGLERS)
            mask = rng.random(self.nprocs) < spec.stragglers.frac
            speed[mask] = spec.stragglers.slowdown
        #: per-processor static duration multiplier (>= 1 for stragglers)
        self.speed_factors = speed
        self._speed = [float(x) for x in speed]

        starts = np.zeros((self.nprocs, 0), dtype=np.float64)
        ends = np.zeros((self.nprocs, 0), dtype=np.float64)
        if spec.slowdown is not None:
            rng = _generator(self.seed, _SALT_SLOWDOWN)
            starts = np.sort(rng.random((self.nprocs, spec.slowdown.n)), axis=1)
            starts *= spec.slowdown.span
            ends = starts + spec.slowdown.duration
        #: sorted per-processor window edges, shape ``(nprocs, n_windows)``
        self.window_starts = starts
        self.window_ends = ends
        self._windows = [
            list(zip((float(s) for s in starts[q]), (float(e) for e in ends[q])))
            for q in range(self.nprocs)
        ]
        self._window_factor = float(spec.slowdown.factor) if spec.slowdown is not None else 1.0

        if spec.msgloss is not None:
            self._loss_p = float(spec.msgloss.p)
            self._retry_timeout = float(spec.msgloss.retry_timeout)
            self._backoff = float(spec.msgloss.backoff)
        else:
            self._loss_p = 0.0
            self._retry_timeout = 0.0
            self._backoff = 1.0

    @classmethod
    def compile(
        cls, spec: Union[str, FaultSpec], *, nprocs: int, seed: int = 0
    ) -> "FaultPlan":
        """Parse (if needed) and compile ``spec`` for ``nprocs`` processors."""
        return cls(parse_faults(spec), nprocs=nprocs, seed=seed)

    @property
    def has_msgloss(self) -> bool:
        return self.spec.msgloss is not None

    def speed_at(self, proc: int, t: float) -> float:
        """Duration multiplier of ``proc`` for work *starting* at time ``t``.

        A task started inside a slowdown window runs entirely at the dipped
        speed — windows gate the start time, not an integral over the task's
        span, which keeps every engine's float arithmetic identical.
        """
        s = self._speed[proc]
        for start, end in self._windows[proc]:
            if start <= t < end:
                s = s * self._window_factor
            elif start > t:
                break
        return s

    def message_stream(self) -> Optional[LossStream]:
        """A fresh, deterministic loss-draw stream (``None`` without msgloss)."""
        if self.spec.msgloss is None:
            return None
        return LossStream(_generator(self.seed, _SALT_MSGLOSS))

    def message_penalty(self, stream) -> tuple[float, int]:
        """Draw one message's fate: ``(extra_delay, retries)``.

        ``stream`` is anything with a ``random()`` method returning a float
        in ``[0, 1)``: a :class:`LossStream` or a bare ``Generator``.  Each
        loss re-sends the message after ``retry_timeout * backoff**k`` of
        simulated time; the accumulated penalty is the extra arrival delay.
        Draw count is ``retries + 1`` (the final successful send), capped at
        :data:`MAX_RETRIES`.
        """
        penalty = 0.0
        retries = 0
        draw = stream.random
        while retries < MAX_RETRIES and draw() < self._loss_p:
            penalty += self._retry_timeout * self._backoff**retries
            retries += 1
        return penalty, retries
