"""Columnar result storage: tables, durable stores and keys.

The package behind ``Session.sweep(store=...)``, the service's ``/results``
pagination and the ``repro sweep --store`` CLI flag:

* :class:`~repro.results.table.ResultTable` — immutable column-oriented
  batch of :class:`~repro.pipeline.stage.CaseResult` rows (dictionary-encoded
  strings, ragged per-processor peaks) with filtering, sorting, an exact
  JSON record form and ``.npz`` persistence;
* :class:`~repro.results.store.ResultStore` — append-only on-disk store
  whose crash-tolerant manifest holds each sealed batch as one record;
* :func:`~repro.results.keys.case_key` — the canonical content key shared
  with the sweep service, which is what makes sweeps resumable.
"""

from repro.results.keys import CASE_KEY_VERSION, case_key, case_key_for
from repro.results.store import ResultStore
from repro.results.table import (
    RESULT_COLUMNS,
    CaseResultView,
    ResultTable,
    ResultTableBuilder,
)

__all__ = [
    "CASE_KEY_VERSION",
    "RESULT_COLUMNS",
    "CaseResultView",
    "ResultStore",
    "ResultTable",
    "ResultTableBuilder",
    "case_key",
    "case_key_for",
]
