"""One generic plugin registry behind every pluggable family of the package.

Problems, orderings, scheduling strategies, tables and figures used to live in
five hand-maintained dicts with five slightly different lookup helpers.  A
:class:`Registry` unifies them:

* **Mapping view** — a registry behaves like the dict it replaces
  (``"XENON2" in PROBLEMS``, ``list(ORDERINGS)``, ``STRATEGIES.items()``),
  iterating display names in registration order, so historical callers keep
  working unchanged;
* **case-insensitive lookup** — :meth:`get` normalises the name (problems
  upper-case, everything else lower-case) and raises a ``ValueError`` with a
  *did-you-mean* suggestion on a miss;
* **declared parameters** — every entry may carry the keyword parameters its
  value accepts (name → default), which is what the spec mini-language
  (:mod:`repro.specs`) validates against and ``repro list --format json``
  reports;
* **registration** — :meth:`add` for direct values, :meth:`register` as a
  decorator for callables.

>>> orderings = Registry("ordering")
>>> @orderings.register("amd", description="approximate minimum degree",
...                     params={"seed": 0})
... def amd(pattern, *, seed=0): ...
>>> orderings.get("AMD") is amd
True
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, TypeVar

__all__ = ["Registry", "RegistryEntry", "validate_params"]

T = TypeVar("T")


def validate_params(
    kind: str, name: str, declared: Mapping[str, object], given: Mapping[str, object]
) -> None:
    """Reject keyword parameters outside an entry's declared set."""
    unknown = set(given) - set(declared)
    if unknown:
        accepted = sorted(declared) if declared else "none"
        raise ValueError(
            f"{kind} {name!r} does not accept parameter(s) "
            f"{sorted(unknown)}; accepted: {accepted}"
        )


@dataclass(frozen=True)
class RegistryEntry:
    """One registered value plus its metadata."""

    name: str
    value: object
    description: str = ""
    #: keyword parameters the value accepts when built/called (name → default).
    params: Mapping[str, object] = field(default_factory=dict)

    def describe(self) -> dict[str, object]:
        """JSON-ready metadata (what ``repro list --format json`` emits)."""
        return {
            "name": self.name,
            "description": self.description,
            "params": dict(self.params),
        }


class Registry(Mapping[str, T]):
    """A named, case-insensitive mapping of pluggable components.

    Parameters
    ----------
    kind:
        Singular noun used in error messages ("strategy", "ordering", …).
    normalize:
        Name normalisation applied on every lookup and registration
        (default: lower-case; the problem registry uses upper-case to match
        the paper's matrix names).
    """

    def __init__(self, kind: str, *, normalize: Callable[[str], str] = str.lower) -> None:
        self.kind = kind
        self.normalize = normalize
        self._entries: dict[str, RegistryEntry] = {}

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def add(
        self,
        name: str,
        value: T,
        *,
        description: str = "",
        params: Mapping[str, object] | None = None,
    ) -> T:
        """Register ``value`` under ``name`` (replacing any previous entry)."""
        entry = RegistryEntry(
            name=name, value=value, description=description, params=dict(params or {})
        )
        self._entries[self.normalize(name)] = entry
        return value

    def register(
        self,
        name: str | None = None,
        *,
        description: str = "",
        params: Mapping[str, object] | None = None,
    ) -> Callable[[T], T]:
        """Decorator form of :meth:`add` (name defaults to ``__name__``)."""

        def decorator(value: T) -> T:
            entry_name = name if name is not None else getattr(value, "__name__", str(value))
            if not description and getattr(value, "__doc__", None):
                summary = (value.__doc__ or "").strip().splitlines()[0]
            else:
                summary = description
            return self.add(entry_name, value, description=summary, params=params)

        return decorator

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def entry(self, name: str) -> RegistryEntry:
        """Entry (value + metadata) for ``name``; did-you-mean ``ValueError`` on a miss."""
        key = self.normalize(name)
        try:
            return self._entries[key]
        except KeyError:
            raise ValueError(self._unknown_message(name)) from None

    def get(self, name: str, default: object = ...) -> T:  # type: ignore[override]
        """Value for ``name`` (case-insensitive); did-you-mean error on a miss."""
        try:
            return self.entry(name).value  # type: ignore[return-value]
        except ValueError:
            if default is not ...:
                return default  # type: ignore[return-value]
            raise

    def resolve(self, spec: object) -> tuple[RegistryEntry, dict[str, object]]:
        """Parse a mini-language spec against this registry.

        Returns the entry plus the explicitly given parameters, validated
        against the entry's declared set — ``registry.resolve("hybrid(alpha=0.3)")``
        is the one lookup path behind every spec-accepting API.
        """
        from repro.specs import parse_spec  # deferred: specs is registry-free

        parsed = parse_spec(spec)  # type: ignore[arg-type]
        entry = self.entry(parsed.name)
        validate_params(self.kind, entry.name, entry.params, parsed.kwargs)
        return entry, parsed.kwargs

    def canonical(self, spec: object) -> str:
        """Canonical spec string with the entry's declared defaults bound.

        Every spelling of one configuration — name case, parameter order,
        defaults given or left out — maps to one string:
        ``STRATEGIES.canonical("HYBRID")`` and
        ``STRATEGIES.canonical("hybrid(use_predictions=true,alpha=.5)")`` are
        both ``"hybrid(alpha=0.5,use_predictions=true)"``.  Cache keys, store
        keys and tune specs all use this form.
        """
        from repro.specs import ParamSpec  # deferred: specs is registry-free

        entry, params = self.resolve(spec)
        return ParamSpec(entry.name, tuple({**entry.params, **params}.items())).canonical()

    def params_of(self, name: str) -> dict[str, object]:
        """Declared keyword parameters (name → default) of one entry."""
        return dict(self.entry(name).params)

    def describe(self) -> list[dict[str, object]]:
        """Metadata of every entry, in registration order (JSON-ready)."""
        return [entry.describe() for entry in self._entries.values()]

    def suggest(self, name: str) -> Optional[str]:
        """Closest registered name to ``name``, if any is close enough."""
        matches = difflib.get_close_matches(self.normalize(name), list(self._entries), n=1)
        return self._entries[matches[0]].name if matches else None

    def _unknown_message(self, name: str) -> str:
        message = f"unknown {self.kind} {name!r}; expected one of {sorted(self._entries)}"
        suggestion = self.suggest(name)
        if suggestion is not None:
            message += f" (did you mean {suggestion!r}?)"
        return message

    # ------------------------------------------------------------------ #
    # Mapping interface (the thin dict view the historical names keep)
    # ------------------------------------------------------------------ #
    def __getitem__(self, name: str) -> T:
        key = self.normalize(name)
        if key not in self._entries:
            raise KeyError(name)
        return self._entries[key].value  # type: ignore[return-value]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self.normalize(name) in self._entries

    def __iter__(self) -> Iterator[str]:
        return (entry.name for entry in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {list(self)})"
