"""The columnar :class:`ResultTable`: ``CaseResult`` fields as parallel arrays.

A :class:`~repro.pipeline.stage.CaseResult` list at corpus scale is the wrong
shape: filtering re-touches every Python object, serialization explodes every
row into JSON, and nothing is shared between rows.  The table stores each
field as one numpy column instead:

* string columns (``problem``/``ordering``/``strategy``) are
  dictionary-encoded — an ``int32`` code per row plus a small vocabulary —
  so predicates compare integers, not strings;
* numeric columns are plain ``float64``/``int64``/``bool`` arrays;
* the ragged ``per_proc_peak_stack`` column is one concatenated ``float64``
  value array plus an ``int64`` offsets array (`offsets[i]:offsets[i+1]`` is
  row ``i``'s slice);
* every row may carry its canonical case ``key`` (see
  :mod:`repro.results.keys`) for indexed lookup and deduplication.

The on-disk form is one compressed ``.npz`` per table (atomic write, schema
tagged); :meth:`to_parquet` additionally exports to parquet when ``pyarrow``
happens to be installed — it is never required.

:meth:`view` wraps the table in a lazy ``Sequence[CaseResult]`` that
materializes rows on access, which is how ``Session.sweep`` keeps returning
"a list of results" to historical callers while holding columns underneath.
All round-trips are exact: columns hold the same ``float64``/``int64``
values the dataclass did, so a materialized row compares bit-identical.
"""

from __future__ import annotations

import io
import os
from collections.abc import Sequence
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from repro.durable import atomic_write
from repro.pipeline.stage import CaseResult
from repro.serialize import check_schema, schema_tag

__all__ = ["ResultTable", "ResultTableBuilder", "CaseResultView", "RESULT_COLUMNS"]

#: dictionary-encoded string columns, in row-dict order.
STRING_COLUMNS = ("problem", "ordering", "strategy", "faults")
#: plain numeric columns and their dtypes.
NUMERIC_COLUMNS: tuple[tuple[str, type], ...] = (
    ("split", np.bool_),
    ("nprocs", np.int64),
    ("max_peak_stack", np.float64),
    ("avg_peak_stack", np.float64),
    ("sum_peak_stack", np.float64),
    ("total_time", np.float64),
    ("total_factor_entries", np.float64),
    ("nodes", np.int64),
    ("nodes_split", np.int64),
    ("messages", np.int64),
    ("replications", np.int64),
    ("makespan_p50", np.float64),
    ("makespan_p95", np.float64),
    ("degradation", np.float64),
    ("messages_lost", np.int64),
    ("retries", np.int64),
)
#: every selectable field of a row dict (``fields=`` validates against this).
RESULT_COLUMNS = (
    STRING_COLUMNS
    + tuple(name for name, _ in NUMERIC_COLUMNS)
    + ("per_proc_peak_stack", "key")
)

_SCHEMA_KIND = "result_table"


class ResultTable:
    """An immutable columnar batch of case results (see module docstring)."""

    __slots__ = ("_codes", "_vocabs", "_numeric", "_values", "_offsets", "_keys")

    def __init__(
        self,
        *,
        codes: Mapping[str, np.ndarray],
        vocabs: Mapping[str, np.ndarray],
        numeric: Mapping[str, np.ndarray],
        values: np.ndarray,
        offsets: np.ndarray,
        keys: np.ndarray,
    ) -> None:
        self._codes = {name: np.asarray(codes[name], dtype=np.int32) for name in STRING_COLUMNS}
        self._vocabs = {name: np.asarray(vocabs[name]) for name in STRING_COLUMNS}
        self._numeric = {
            name: np.asarray(numeric[name], dtype=dtype) for name, dtype in NUMERIC_COLUMNS
        }
        self._values = np.asarray(values, dtype=np.float64)
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._keys = np.asarray(keys)
        n = len(self)
        if self._offsets.shape != (n + 1,):
            raise ValueError(f"offsets must have shape ({n + 1},), got {self._offsets.shape}")
        if self._keys.shape != (n,):
            raise ValueError(f"keys must have shape ({n},), got {self._keys.shape}")

    # ------------------------------------------------------------------ #
    # shape and column access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._codes["problem"].shape[0])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultTable({len(self)} rows)"

    @property
    def keys(self) -> np.ndarray:
        return self._keys

    def column(self, name: str) -> np.ndarray:
        """One column as an array (string columns come back decoded)."""
        if name in STRING_COLUMNS:
            vocab = self._vocabs[name]
            if vocab.size == 0:
                return np.empty(0, dtype="U1")
            return vocab[self._codes[name]]
        if name in self._numeric:
            return self._numeric[name]
        if name == "key":
            return self._keys
        raise KeyError(f"no such column {name!r}; expected one of {RESULT_COLUMNS}")

    def per_proc(self, i: int) -> np.ndarray:
        """Row ``i``'s per-processor peak array (a copy, safely mutable)."""
        lo, hi = int(self._offsets[i]), int(self._offsets[i + 1])
        return self._values[lo:hi].copy()

    # ------------------------------------------------------------------ #
    # row materialization
    # ------------------------------------------------------------------ #
    def result(self, i: int) -> CaseResult:
        """Materialize row ``i`` back into a :class:`CaseResult` (exact)."""
        i = range(len(self))[i]  # normalises negatives, raises IndexError
        return CaseResult(
            problem=str(self._vocabs["problem"][self._codes["problem"][i]]),
            ordering=str(self._vocabs["ordering"][self._codes["ordering"][i]]),
            strategy=str(self._vocabs["strategy"][self._codes["strategy"][i]]),
            split=bool(self._numeric["split"][i]),
            nprocs=int(self._numeric["nprocs"][i]),
            max_peak_stack=float(self._numeric["max_peak_stack"][i]),
            avg_peak_stack=float(self._numeric["avg_peak_stack"][i]),
            sum_peak_stack=float(self._numeric["sum_peak_stack"][i]),
            total_time=float(self._numeric["total_time"][i]),
            total_factor_entries=float(self._numeric["total_factor_entries"][i]),
            per_proc_peak_stack=self.per_proc(i),
            nodes=int(self._numeric["nodes"][i]),
            nodes_split=int(self._numeric["nodes_split"][i]),
            messages=int(self._numeric["messages"][i]),
            faults=str(self._vocabs["faults"][self._codes["faults"][i]]),
            replications=int(self._numeric["replications"][i]),
            makespan_p50=float(self._numeric["makespan_p50"][i]),
            makespan_p95=float(self._numeric["makespan_p95"][i]),
            degradation=float(self._numeric["degradation"][i]),
            messages_lost=int(self._numeric["messages_lost"][i]),
            retries=int(self._numeric["retries"][i]),
        )

    def view(self) -> "CaseResultView":
        """A lazy ``Sequence[CaseResult]`` over this table."""
        return CaseResultView(self)

    def to_dicts(self, fields: Optional[Sequence[str]] = None) -> list[dict[str, object]]:
        """JSON-ready row dicts, optionally projected onto ``fields``.

        Evaluated column-wise (one decode per column, not per row); the
        per-processor arrays become plain float lists, exactly as
        :meth:`CaseResult.to_dict` renders them.
        """
        wanted = tuple(fields) if fields is not None else RESULT_COLUMNS
        unknown = set(wanted) - set(RESULT_COLUMNS)
        if unknown:
            raise ValueError(
                f"unknown result field(s) {sorted(unknown)}; expected {sorted(RESULT_COLUMNS)}"
            )
        n = len(self)
        # ndarray.tolist() yields the Python bool/int/float/str of each element
        columns: dict[str, list] = {}
        for name in wanted:
            if name == "per_proc_peak_stack":
                values = self._values.tolist()
                bounds = self._offsets.tolist()
                columns[name] = [values[bounds[i]:bounds[i + 1]] for i in range(n)]
            else:
                columns[name] = self.column(name).tolist()
        return [{name: columns[name][i] for name in wanted} for i in range(n)]

    # ------------------------------------------------------------------ #
    # columnar predicates, ordering and composition
    # ------------------------------------------------------------------ #
    def _string_mask(self, name: str, wanted: Iterable[str]) -> np.ndarray:
        vocab = self._vocabs[name]
        wanted_set = {str(w) for w in (wanted if isinstance(wanted, (list, tuple, set)) else [wanted])}
        code_hits = np.flatnonzero(np.isin(vocab, list(wanted_set)))
        return np.isin(self._codes[name], code_hits.astype(np.int32))

    def filter(
        self,
        *,
        problem: object = None,
        ordering: object = None,
        strategy: object = None,
        split: Optional[bool] = None,
        nprocs: object = None,
        faults: object = None,
    ) -> "ResultTable":
        """Rows matching every given predicate, evaluated on columns.

        String predicates accept one value or a collection; values are
        matched verbatim (canonicalise upstream — the service does).
        """
        mask = np.ones(len(self), dtype=bool)
        for name, value in (
            ("problem", problem),
            ("ordering", ordering),
            ("strategy", strategy),
            ("faults", faults),
        ):
            if value is not None:
                mask &= self._string_mask(name, value)  # type: ignore[arg-type]
        if split is not None:
            mask &= self._numeric["split"] == bool(split)
        if nprocs is not None:
            wanted = nprocs if isinstance(nprocs, (list, tuple, set)) else [nprocs]
            mask &= np.isin(self._numeric["nprocs"], [int(v) for v in wanted])
        return self.take(np.flatnonzero(mask))

    def take(self, indices) -> "ResultTable":
        """A new table holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        starts = self._offsets[:-1][idx]
        lengths = np.diff(self._offsets)[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # gather every selected row's per-processor slice in one fancy index
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return ResultTable(
            codes={name: arr[idx] for name, arr in self._codes.items()},
            vocabs=self._vocabs,
            numeric={name: arr[idx] for name, arr in self._numeric.items()},
            values=self._values[gather],
            offsets=offsets,
            keys=self._keys[idx],
        )

    def sort_index(self) -> np.ndarray:
        """Indices putting rows in the canonical deterministic order.

        Sorted by (problem, ordering, strategy, split, nprocs, key) — a total
        order independent of insertion order, which is what makes paginated
        listings byte-stable between a resumed store and a fresh re-run.
        """
        return np.lexsort(
            (
                self._keys,
                self._numeric["nprocs"],
                self._numeric["split"],
                self.column("strategy"),
                self.column("ordering"),
                self.column("problem"),
            )
        )

    def sorted(self) -> "ResultTable":
        """This table in the canonical order (see :meth:`sort_index`)."""
        return self.take(self.sort_index())

    def dedupe_by_key(self) -> "ResultTable":
        """Drop duplicate keys, keeping the *last* occurrence of each.

        Rows with an empty key are never deduplicated.  Surviving rows keep
        their relative order.
        """
        n = len(self)
        # first occurrence in the reversed keys = last occurrence in the keys
        _, first_reversed = np.unique(self._keys[::-1], return_index=True)
        keep = self._keys == ""
        keep[n - 1 - first_reversed] = True
        return self.take(np.flatnonzero(keep))

    @classmethod
    def concat(cls, tables: Sequence["ResultTable"]) -> "ResultTable":
        """Concatenate tables column-wise.

        Vocabularies are merged in first-seen order (table by table) and each
        table's codes are remapped with one gather, so the cost is numpy work
        over the rows plus Python work over the vocabularies only.
        """
        if not tables:
            return ResultTableBuilder().build()
        codes: dict[str, np.ndarray] = {}
        vocabs: dict[str, np.ndarray] = {}
        for name in STRING_COLUMNS:
            merged: dict[str, int] = {}
            parts = []
            for table in tables:
                remap = np.asarray(
                    [merged.setdefault(str(v), len(merged)) for v in table._vocabs[name]],
                    dtype=np.int32,
                )
                parts.append(remap[table._codes[name]])
            codes[name] = np.concatenate(parts)
            vocabs[name] = np.asarray(list(merged), dtype=str) if merged else np.empty(0, dtype="U1")
        lengths = np.concatenate([np.diff(table._offsets) for table in tables])
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(
            codes=codes,
            vocabs=vocabs,
            numeric={
                name: np.concatenate([table._numeric[name] for table in tables])
                for name, _ in NUMERIC_COLUMNS
            },
            values=np.concatenate([table._values for table in tables]),
            offsets=offsets,
            keys=np.concatenate([table._keys for table in tables]),
        )

    @classmethod
    def from_results(
        cls, results: Sequence[CaseResult], keys: Optional[Sequence[str]] = None
    ) -> "ResultTable":
        builder = ResultTableBuilder()
        if keys is None:
            keys = [""] * len(results)
        if len(keys) != len(results):
            raise ValueError(f"{len(results)} results but {len(keys)} keys")
        for result, key in zip(results, keys):
            builder.append(result, key=key)
        return builder.build()

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save_npz(self, path: str | os.PathLike, *, fsync: bool = False) -> None:
        """Write the table as one compressed ``.npz``, atomically.

        Written with :func:`repro.durable.atomic_write`, so a reader never
        observes a torn file; ``fsync=True`` additionally makes the bytes
        durable before the rename.
        """
        payload: dict[str, np.ndarray] = {"schema": np.asarray(schema_tag(_SCHEMA_KIND))}
        for name in STRING_COLUMNS:
            payload[f"{name}_codes"] = self._codes[name]
            payload[f"{name}_vocab"] = self._vocabs[name]
        for name, _ in NUMERIC_COLUMNS:
            payload[name] = self._numeric[name]
        payload["per_proc_values"] = self._values
        payload["per_proc_offsets"] = self._offsets
        payload["keys"] = self._keys.astype(str)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **payload)
        atomic_write(path, buffer.getvalue(), fsync=fsync)

    @classmethod
    def load_npz(cls, path: str | os.PathLike) -> "ResultTable":
        """Load a table written by :meth:`save_npz` (schema-checked)."""
        with np.load(os.fspath(path), allow_pickle=False) as data:
            check_schema(_SCHEMA_KIND, {"schema": str(data["schema"])})
            return cls(
                codes={name: data[f"{name}_codes"] for name in STRING_COLUMNS},
                vocabs={name: data[f"{name}_vocab"] for name in STRING_COLUMNS},
                numeric={name: data[name] for name, _ in NUMERIC_COLUMNS},
                values=data["per_proc_values"],
                offsets=data["per_proc_offsets"],
                keys=data["keys"],
            )

    def to_parquet(self, path: str | os.PathLike) -> None:
        """Export to parquet — optional, gated on ``pyarrow`` being present.

        ``pyarrow`` is never a dependency of this package; when it is absent
        this raises ``RuntimeError`` with a clear message instead of
        ``ImportError`` deep inside a sweep.
        """
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq
        except ImportError:
            raise RuntimeError(
                "parquet export needs the optional 'pyarrow' package, which is "
                "not installed; use save_npz() (the native format) instead"
            ) from None
        columns: dict[str, object] = {}
        for name in STRING_COLUMNS:
            columns[name] = pa.DictionaryArray.from_arrays(
                pa.array(self._codes[name]), pa.array([str(v) for v in self._vocabs[name]])
            )
        for name, _ in NUMERIC_COLUMNS:
            columns[name] = pa.array(self._numeric[name])
        columns["per_proc_peak_stack"] = pa.ListArray.from_arrays(
            pa.array(self._offsets, type=pa.int32()), pa.array(self._values)
        )
        columns["key"] = pa.array([str(k) for k in self._keys])
        pq.write_table(pa.table(columns), os.fspath(path))


class ResultTableBuilder:
    """Accumulate rows, then :meth:`build` an immutable :class:`ResultTable`.

    Dictionary encoding happens on append (vocabularies grow in first-seen
    order, deterministically), so building is O(rows) with no re-scan.
    """

    def __init__(self) -> None:
        self._vocabs: dict[str, dict[str, int]] = {name: {} for name in STRING_COLUMNS}
        self._codes: dict[str, list[int]] = {name: [] for name in STRING_COLUMNS}
        self._numeric: dict[str, list] = {name: [] for name, _ in NUMERIC_COLUMNS}
        self._values: list[np.ndarray] = []
        self._lengths: list[int] = []
        self._keys: list[str] = []

    def __len__(self) -> int:
        return len(self._keys)

    def _encode(self, name: str, value: str) -> int:
        vocab = self._vocabs[name]
        code = vocab.get(value)
        if code is None:
            code = vocab[value] = len(vocab)
        return code

    def append(self, result: CaseResult, *, key: str = "") -> None:
        for name in STRING_COLUMNS:
            self._codes[name].append(self._encode(name, str(getattr(result, name))))
        for name, _ in NUMERIC_COLUMNS:
            self._numeric[name].append(getattr(result, name))
        per_proc = np.asarray(result.per_proc_peak_stack, dtype=np.float64)
        self._values.append(per_proc)
        self._lengths.append(per_proc.size)
        self._keys.append(str(key))

    def extend(self, results: Iterable[CaseResult], keys: Optional[Iterable[str]] = None) -> None:
        if keys is None:
            for result in results:
                self.append(result)
        else:
            for result, key in zip(results, keys):
                self.append(result, key=key)

    def build(self) -> ResultTable:
        n = len(self._keys)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.asarray(self._lengths, dtype=np.int64), out=offsets[1:])
        values = (
            np.concatenate(self._values) if self._values else np.empty(0, dtype=np.float64)
        )
        return ResultTable(
            codes={name: np.asarray(codes, dtype=np.int32) for name, codes in self._codes.items()},
            vocabs={
                name: np.asarray(list(vocab), dtype=str) if vocab else np.empty(0, dtype="U1")
                for name, vocab in self._vocabs.items()
            },
            numeric={
                name: np.asarray(column, dtype=dtype)
                for (name, dtype), column in zip(NUMERIC_COLUMNS, self._numeric.values())
            },
            values=np.asarray(values, dtype=np.float64),
            offsets=offsets,
            keys=np.asarray(self._keys, dtype=str) if self._keys else np.empty(0, dtype="U1"),
        )


class CaseResultView(Sequence):
    """A lazy, immutable ``Sequence[CaseResult]`` over a :class:`ResultTable`.

    Supports everything the historical ``list[CaseResult]`` return of
    ``Session.sweep`` supported — ``len``, indexing (negative too), slicing,
    iteration, ``zip`` — materializing one row per access.  ``computed`` /
    ``skipped`` report how a resumable sweep split its grid.
    """

    __slots__ = ("table", "computed", "skipped")

    def __init__(self, table: ResultTable, *, computed: int = 0, skipped: int = 0) -> None:
        self.table = table
        self.computed = int(computed)
        self.skipped = int(skipped)

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.table.result(i) for i in range(len(self))[index]]
        return self.table.result(index)

    def __iter__(self) -> Iterator[CaseResult]:
        for i in range(len(self)):
            yield self.table.result(i)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CaseResultView({len(self)} cases, computed={self.computed}, skipped={self.skipped})"
