"""Declarative, serializable scenario specs and the spec mini-language.

The paper's experiment space is a grid over problems, orderings, scheduling
strategies, splitting and processor counts.  This module provides the
vocabulary to declare any point (or grid) of that space as plain data:

* :class:`ParamSpec` — a name plus keyword parameters, e.g. the strategy
  ``hybrid(alpha=0.3)`` or the ordering ``metis(leaf_size=32)``;
* :func:`parse_spec` — the CLI-friendly string form of a :class:`ParamSpec`
  (``"hybrid(alpha=0.3, use_predictions=false)"``), round-tripping through
  :meth:`ParamSpec.canonical`;
* :class:`SweepSpec` — a declarative grid over every case axis (including
  per-case ``nprocs`` / ``scale`` / ``split_threshold`` overrides), expanded
  with :meth:`SweepSpec.expand` into the
  :class:`~repro.pipeline.stage.CaseSpec` list a
  :class:`~repro.session.Session` or
  :class:`~repro.pipeline.executor.SweepExecutor` runs.

Everything here is JSON round-trippable (``to_dict`` / ``from_dict``) so
sweeps can be stored, shipped and replayed.

Grammar of the mini-language::

    spec   := name [ "(" [param ("," param)*] ")" ]
    param  := key "=" value
    name   := letters, digits, "_", "-", "."
    value  := int | float | true | false | quoted or bare string
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.stage import CaseSpec

__all__ = [
    "ParamSpec",
    "parse_spec",
    "split_spec_list",
    "format_value",
    "canonical_float",
    "SweepSpec",
]

ParamValue = Union[int, float, bool, str]

_NAME_RE = re.compile(r"[A-Za-z0-9_.\-]+")
_SPEC_RE = re.compile(rf"^\s*(?P<name>{_NAME_RE.pattern})\s*(?:\((?P<params>.*)\))?\s*$", re.S)
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _parse_value(text: str) -> ParamValue:
    text = text.strip()
    if not text:
        raise ValueError("empty parameter value")
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        raise ValueError(f"parameter value {text!r} is not allowed; omit the parameter instead")
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if _NAME_RE.fullmatch(text):
        return text  # bare word, e.g. leaf_method=fill
    raise ValueError(f"cannot parse parameter value {text!r}")


def canonical_float(value: float) -> float:
    """Round a float to its canonical 12-significant-digit form.

    Sampled parameter values carry binary-representation noise — a tuner that
    draws ``0.1 + 0.2`` gets ``0.30000000000000004``, which would render (and
    cache-key) differently from the hand-written ``0.3`` naming the same
    configuration.  Twelve significant digits is far beyond any physically
    meaningful parameter resolution here and well within float64's 15–17, so
    the rounding is stable: canonicalising twice is the identity.
    """
    return float(f"{value:.12g}")


def _is_bare_word(text: str) -> bool:
    """Whether ``text`` unquoted parses back as the string itself."""
    try:
        return isinstance(_parse_value(text), str)
    except ValueError:  # none / null
        return False


def format_value(value: ParamValue) -> str:
    """Render one parameter value in its canonical mini-language form."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if _NAME_RE.fullmatch(text) and _is_bare_word(text):
        return text
    # the grammar has no escape sequences: quote with whichever delimiter the
    # value doesn't contain, so the canonical form always re-parses (as a
    # string: "12" or "true" bare would read back as a number or a bool)
    for quote in ("'", '"'):
        if quote not in text:
            return quote + text + quote
    raise ValueError(f"cannot format value {text!r}: it contains both quote characters")


@dataclass(frozen=True)
class ParamSpec:
    """A component name plus keyword parameters, hashable and serializable.

    The parameters are stored as a sorted tuple of ``(key, value)`` pairs so
    two specs naming the same configuration compare (and hash) equal whatever
    the keyword order was.
    """

    name: str
    params: tuple[tuple[str, ParamValue], ...] = ()

    def __post_init__(self) -> None:
        # numbers are normalised (1.0 → 1, sampled noise rounded away) so
        # specs that compare equal — Python treats 1 == 1.0, and a tuner's
        # 0.30000000000000004 *means* 0.3 — also canonicalise (and
        # cache-key) equally
        def norm(value: ParamValue) -> ParamValue:
            if isinstance(value, float) and not isinstance(value, bool):
                # an integral float converts exactly, as the int it equals would
                # stay; any other is rounded first
                if not value.is_integer():
                    value = canonical_float(value)
                if value.is_integer():
                    return int(value)
            return value

        object.__setattr__(
            self, "params", tuple(sorted((k, norm(v)) for k, v in self.params))
        )

    @property
    def kwargs(self) -> dict[str, ParamValue]:
        """The parameters as a keyword-argument dict."""
        return dict(self.params)

    def canonical(self) -> str:
        """Canonical string form; ``parse_spec`` round-trips it."""
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={format_value(v)}" for k, v in self.params)
        return f"{self.name}({inner})"

    def to_dict(self) -> dict[str, object]:
        return {"name": self.name, "params": self.kwargs}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ParamSpec":
        params = data.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"ParamSpec params must be a mapping, got {params!r}")
        return cls(str(data["name"]), tuple(params.items()))  # type: ignore[arg-type]

    def __str__(self) -> str:
        return self.canonical()


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    """Split on ``sep`` outside parentheses and quotes (for params and CLI lists)."""
    parts: list[str] = []
    depth = 0
    quote = ""
    current: list[str] = []
    for ch in text:
        if quote:
            if ch == quote:
                quote = ""
        elif ch in "'\"":
            quote = ch
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if depth != 0 or quote:
        raise ValueError(f"unbalanced parentheses or quotes in {text!r}")
    parts.append("".join(current))
    return parts


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated list of specs, respecting parentheses.

    ``"mumps-workload,hybrid(alpha=0.25,use_predictions=false)"`` →
    ``["mumps-workload", "hybrid(alpha=0.25,use_predictions=false)"]``.
    """
    return [part.strip() for part in _split_top_level(text) if part.strip()]


def parse_spec(text: Union[str, ParamSpec]) -> ParamSpec:
    """Parse ``"name"`` or ``"name(k=v, ...)"`` into a :class:`ParamSpec`.

    Idempotent on :class:`ParamSpec` inputs.  Raises ``ValueError`` on
    malformed syntax, duplicate keys or unparseable values.
    """
    if isinstance(text, ParamSpec):
        return text
    match = _SPEC_RE.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse spec {text!r}; expected 'name' or 'name(key=value, ...)'"
        )
    name = match.group("name")
    raw = match.group("params")
    if raw is None:
        return ParamSpec(name)
    params: dict[str, ParamValue] = {}
    for item in _split_top_level(raw):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"parameter {item!r} in spec {text!r} must be 'key=value'")
        if not _KEY_RE.match(key):
            raise ValueError(f"bad parameter name {key!r} in spec {text!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in spec {text!r}")
        params[key] = _parse_value(value)
    return ParamSpec(name, tuple(params.items()))


# --------------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------------- #
def _axis(value: object, *, scalar_types: tuple[type, ...]) -> tuple:
    """Normalise a sweep axis: a scalar becomes a one-element axis."""
    if value is None or isinstance(value, scalar_types):
        return (value,)
    if isinstance(value, Iterable) and not isinstance(value, (str, bytes)):
        items = tuple(value)
        return items if items else (None,)
    return (value,)


@dataclass
class SweepSpec:
    """A declarative grid over every case axis.

    Every attribute is an axis; scalars are promoted to one-element axes, so
    ``SweepSpec(problems="XENON2", nprocs=[8, 16, 32])`` is valid.  ``None``
    in ``nprocs`` / ``scale`` / ``split_threshold`` means "the engine
    default" for that case.

    :meth:`expand` produces the cartesian product in problem-major order
    (problems × orderings × strategies × split × nprocs × scale ×
    split_threshold × faults), the order the results come back in.

    ``faults`` is an axis of fault-injection specs in the mini-language of
    :mod:`repro.faults` (``None`` = the unperturbed machine); ``fault_seed``
    and ``replications`` are scalar knobs applied to every *faulted* case of
    the grid — clean cases keep their defaults, so a sweep mixing ``None``
    with fault specs leaves the clean cases byte-identical to a sweep
    without the fault axis.
    """

    problems: Sequence[str] = ()
    orderings: Sequence[str] = ("metis",)
    strategies: Sequence[str] = ("memory-full",)
    split: Sequence[bool] = (False,)
    nprocs: Sequence[int | None] = (None,)
    scale: Sequence[float | None] = (None,)
    split_threshold: Sequence[int | None] = (None,)
    faults: Sequence[str | None] = (None,)
    track_traces: bool = False
    fault_seed: int = 0
    replications: int = 1

    def __post_init__(self) -> None:
        self.problems = _axis(self.problems, scalar_types=(str,))
        self.orderings = _axis(self.orderings, scalar_types=(str,))
        self.strategies = _axis(self.strategies, scalar_types=(str,))
        self.split = _axis(self.split, scalar_types=(bool,))
        self.nprocs = _axis(self.nprocs, scalar_types=(int,))
        self.scale = _axis(self.scale, scalar_types=(int, float))
        self.split_threshold = _axis(self.split_threshold, scalar_types=(int,))
        self.faults = _axis(self.faults, scalar_types=(str,))
        if self.problems == (None,):
            raise ValueError("SweepSpec needs at least one problem")
        # an explicitly empty axis would otherwise surface as an opaque
        # parse_spec(None) TypeError deep inside expand()
        if self.orderings == (None,):
            raise ValueError("SweepSpec needs at least one ordering")
        if self.strategies == (None,):
            raise ValueError("SweepSpec needs at least one strategy")
        # split is required too: an explicit None (or an empty axis) used to
        # slip through _axis as (None,) and be silently coerced to False
        if self.split == (None,):
            raise ValueError("SweepSpec needs at least one split value")
        self._check_axis("split", self.split, (bool,), allow_none=False)
        self._check_axis("nprocs", self.nprocs, (int,), allow_none=True)
        self._check_axis("scale", self.scale, (int, float), allow_none=True)
        self._check_axis("split_threshold", self.split_threshold, (int,), allow_none=True)
        self._check_axis("faults", self.faults, (str,), allow_none=True)
        if not isinstance(self.fault_seed, int) or isinstance(self.fault_seed, bool):
            raise ValueError(f"SweepSpec fault_seed must be an int, got {self.fault_seed!r}")
        if self.fault_seed < 0:
            raise ValueError("SweepSpec fault_seed must be >= 0")
        if not isinstance(self.replications, int) or isinstance(self.replications, bool):
            raise ValueError(
                f"SweepSpec replications must be an int, got {self.replications!r}"
            )
        if self.replications < 1:
            raise ValueError("SweepSpec replications must be >= 1")
        # parse eagerly so a malformed fault spec fails at declaration time,
        # not deep inside a worker process
        for value in self.faults:
            if value is not None:
                from repro.faults import parse_faults  # deferred: faults imports specs

                parse_faults(value)

    @staticmethod
    def _check_axis(
        name: str, axis: tuple, types: tuple[type, ...], *, allow_none: bool
    ) -> None:
        expected = " or ".join(t.__name__ for t in types) + (" or None" if allow_none else "")
        for value in axis:
            if value is None and allow_none:
                continue
            # bool is an int subclass, so nprocs=True would otherwise pass
            # the isinstance check and reach the engine as a processor count
            if isinstance(value, bool) and bool not in types:
                raise ValueError(
                    f"SweepSpec {name} values must be {expected}, got the bool {value!r}"
                )
            if not isinstance(value, types):
                raise ValueError(f"SweepSpec {name} values must be {expected}, got {value!r}")

    def __len__(self) -> int:
        return (
            len(self.problems) * len(self.orderings) * len(self.strategies)
            * len(self.split) * len(self.nprocs) * len(self.scale)
            * len(self.split_threshold) * len(self.faults)
        )

    def expand(self) -> list["CaseSpec"]:
        """The grid as explicit :class:`~repro.pipeline.stage.CaseSpec` values."""
        from repro.pipeline.stage import CaseSpec  # deferred: stage imports this module

        def canonical_fault_axis(value):
            if value is None:
                return None
            from repro.faults import canonical_faults

            return canonical_faults(value)

        return [
            CaseSpec(
                problem=problem,
                ordering=str(parse_spec(ordering)),
                strategy=str(parse_spec(strategy)),
                split=bool(split),
                track_traces=self.track_traces,
                nprocs=nprocs,
                scale=scale,
                split_threshold=split_threshold,
                faults=canonical_fault_axis(faults),
                # the scalar fault knobs bind to faulted cases only, so the
                # clean points of a mixed grid keep their seed-era specs
                fault_seed=self.fault_seed if faults is not None else 0,
                replications=self.replications if faults is not None else 1,
            )
            for problem in self.problems
            for ordering in self.orderings
            for strategy in self.strategies
            for split in self.split
            for nprocs in self.nprocs
            for scale in self.scale
            for split_threshold in self.split_threshold
            for faults in self.faults
        ]

    def to_dict(self) -> dict[str, object]:
        return {
            "problems": list(self.problems),
            "orderings": list(self.orderings),
            "strategies": list(self.strategies),
            "split": list(self.split),
            "nprocs": list(self.nprocs),
            "scale": list(self.scale),
            "split_threshold": list(self.split_threshold),
            "faults": list(self.faults),
            "track_traces": self.track_traces,
            "fault_seed": self.fault_seed,
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object], *, strict: bool = True) -> "SweepSpec":
        from repro.serialize import decode_fields

        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        payload = decode_fields("sweep_spec", data, known, label="SweepSpec", strict=strict)
        return cls(**payload)  # type: ignore[arg-type]
