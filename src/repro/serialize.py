"""Versioned record serialization shared by specs, jobs, benches and the store.

Historically every serializable dataclass (``CaseSpec``, ``CaseResult``,
``JobSpec``, ``BenchRun``, …) carried its own ad-hoc ``to_dict``/``from_dict``
pair with its own take on unknown keys and versioning.  This module is the
one place those concerns live now:

* :func:`canonical_json` — the single byte-stable encoder used for HTTP
  bodies, journal lines and store manifests (sorted keys, fixed separators);
* :func:`with_schema` / :func:`check_schema` — a ``schema`` tag of the form
  ``"<kind>/v<version>"`` stamped into persisted envelopes (store batches,
  trace files) so a format change fails loudly instead of mis-parsing;
* :func:`decode_fields` — the one policy for unknown keys: *strict* decoding
  raises the historical ``"unknown <Kind> fields [...]"`` error (the public
  ``from_dict`` contract, pinned by tests), *tolerant* decoding drops them
  (what stored results and HTTP bodies want, so an old reader survives a
  newer writer).

The version registry below is per-kind: bump a kind's version when its field
layout changes incompatibly, and only that kind's persisted payloads are
invalidated.
"""

from __future__ import annotations

import json
from typing import Collection, Mapping

__all__ = [
    "SCHEMA_FIELD",
    "SCHEMA_VERSIONS",
    "canonical_json",
    "schema_tag",
    "parse_schema_tag",
    "with_schema",
    "check_schema",
    "decode_fields",
]

#: the reserved envelope key carrying the ``"<kind>/v<version>"`` tag.
SCHEMA_FIELD = "schema"

#: current schema version of every serialized kind (bump on layout breaks).
SCHEMA_VERSIONS: dict[str, int] = {
    "case_spec": 1,
    "case_result": 1,
    "fault_spec": 1,
    "sweep_spec": 1,
    "job_spec": 1,
    "job_record": 1,
    "bench_case": 1,
    "bench_result": 1,
    "result_table": 2,
    "trace": 1,
    "tune_spec": 1,
    "leaderboard": 1,
}


def canonical_json(payload: object) -> bytes:
    """The one byte-stable serialization: sorted keys, fixed separators.

    The same logical payload always produces the same bytes, which is what
    lets a cached HTTP re-query, a replayed journal line or a re-listed
    result page compare byte-identical.
    """
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode()


def schema_tag(kind: str) -> str:
    """The current ``"<kind>/v<version>"`` tag of one serialized kind."""
    return f"{kind}/v{SCHEMA_VERSIONS[kind]}"


def parse_schema_tag(tag: str) -> tuple[str, int]:
    """Split a ``"<kind>/v<version>"`` tag; raises ``ValueError`` if malformed."""
    kind, sep, version = str(tag).partition("/v")
    if not sep or not kind or not version.isdigit():
        raise ValueError(f"malformed schema tag {tag!r}; expected '<kind>/v<version>'")
    return kind, int(version)


def with_schema(kind: str, data: Mapping[str, object]) -> dict[str, object]:
    """``data`` as a persistable envelope carrying the current schema tag."""
    return {SCHEMA_FIELD: schema_tag(kind), **data}


def check_schema(kind: str, data: Mapping[str, object]) -> None:
    """Validate the envelope tag of ``data``, if it carries one.

    An absent tag is accepted (payloads from before this module existed);
    a tag of the wrong kind or a *newer* version than this build understands
    raises ``ValueError``.  Older versions of the right kind are accepted —
    per-field tolerance is :func:`decode_fields`' job.
    """
    tag = data.get(SCHEMA_FIELD)
    if tag is None:
        return
    got_kind, got_version = parse_schema_tag(str(tag))
    if got_kind != kind:
        raise ValueError(f"schema mismatch: expected a {kind!r} payload, got {tag!r}")
    if got_version > SCHEMA_VERSIONS[kind]:
        raise ValueError(
            f"schema {tag!r} is newer than this build understands "
            f"(max {schema_tag(kind)}); upgrade to read it"
        )


def decode_fields(
    kind: str,
    data: Mapping[str, object],
    known: Collection[str],
    *,
    label: str | None = None,
    strict: bool = False,
) -> dict[str, object]:
    """Validate + project one record dict onto its known fields.

    Checks the schema envelope (see :func:`check_schema`), strips the
    reserved ``schema`` key, and applies the unknown-key policy: ``strict``
    raises the historical ``ValueError`` (the public ``from_dict`` contract),
    otherwise unknown keys are dropped so old readers tolerate newer writers.
    """
    check_schema(kind, data)
    known = set(known)
    payload = {k: v for k, v in data.items() if k != SCHEMA_FIELD}
    unknown = set(payload) - known
    if unknown:
        if strict:
            name = label or kind
            raise ValueError(
                f"unknown {name} fields {sorted(unknown)}; expected {sorted(known)}"
            )
        for key in unknown:
            del payload[key]
    return payload
