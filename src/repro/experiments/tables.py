"""Regeneration of the paper's Tables 1-6.

Every function returns the table as structured data (a dict of dicts keyed
like the paper's rows and columns) and can also render it as plain text with
:func:`format_table`.  Cells are rounded as the paper prints them;
``exact=True`` keeps them at full precision (``repro tables --format json``,
and the golden file that pins the tables).  The comparisons follow the
paper exactly:

* **Table 1** — the test problems (analogue order/nnz next to the paper's);
* **Table 2** — % decrease of the maximum stack peak, dynamic memory strategy
  vs. MUMPS workload strategy, no splitting, 8 matrices × 4 orderings;
* **Table 3** — same comparison on trees whose large type-2 masters have been
  split (unsymmetric matrices, as in the paper);
* **Table 4** — absolute peaks (millions of entries) for two illustrative
  cases, crossing {no splitting, splitting} × {workload, memory};
* **Table 5** — % decrease of memory strategy *plus* splitting vs. the
  original MUMPS strategy without splitting (unsymmetric matrices);
* **Table 6** — factorization-time loss (%) of the memory-optimised strategy
  for three large problems.

Every table funnels its cases through :meth:`Session.run_cases`, so
one table is one sweep: with ``jobs > 1`` on the session the cases spread over
a process pool (sharing the analysis artifacts per the pipeline engine's
content-addressed store) and the rows are assembled from the results in
order — serial and parallel regeneration produce identical tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.experiments.problems import PROBLEMS, UNSYMMETRIC_PROBLEMS, get_problem
from repro.pipeline import CaseResult, CaseSpec
from repro.registry import Registry
from repro.session import Session, percentage_decrease

__all__ = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "format_table",
    "ALL_TABLES",
    "ORDERING_NAMES",
]

#: The four reordering techniques of the paper's tables, in column order.
ORDERING_NAMES = ["metis", "pord", "amd", "amf"]

BASELINE = "mumps-workload"
MEMORY = "memory-full"

#: (problem, ordering) pairs of Table 4 — the paper's two illustrative cases.
TABLE4_CASES = [("ULTRASOUND3", "metis"), ("XENON2", "amf")]

#: problems of Table 6 (three large test problems).
TABLE6_PROBLEMS = ["SHIP_003", "PRE2", "ULTRASOUND3"]


def table1(
    session: Session, problems: Iterable[str] | None = None, *, exact: bool = False
) -> dict[str, dict[str, object]]:
    """Table 1: the test problems (analogue sizes next to the paper's; nothing to round)."""
    rows: dict[str, dict[str, object]] = {}
    for name in problems if problems is not None else PROBLEMS:
        spec = get_problem(name)
        pattern = session.pattern(name)
        rows[spec.name] = {
            "Order": pattern.n,
            "NZ": pattern.nnz,
            "Type": "SYM" if spec.symmetric else "UNS",
            "Paper order": spec.paper_order,
            "Paper NZ": spec.paper_nnz,
            "Description": spec.description,
        }
    return rows


def _cell(value: float, ndigits: int, exact: bool) -> float:
    """A table cell: rounded as the paper prints it, or untouched when ``exact``."""
    return value if exact else round(value, ndigits)


def _paired_cases(
    session: Session,
    problems: Sequence[str],
    orderings: Sequence[str],
    *,
    split_baseline: bool,
    split_candidate: bool,
) -> dict[tuple[str, str], tuple[CaseResult, CaseResult]]:
    """(baseline, candidate) results for every (problem, ordering) cell, one sweep."""
    specs: list[CaseSpec] = []
    for problem in problems:
        for ordering in orderings:
            specs.append(CaseSpec(problem, ordering, BASELINE, split=split_baseline))
            specs.append(CaseSpec(problem, ordering, MEMORY, split=split_candidate))
    results = session.run_cases(specs)
    pairs: dict[tuple[str, str], tuple[CaseResult, CaseResult]] = {}
    it = iter(results)
    for problem in problems:
        for ordering in orderings:
            pairs[(problem, ordering)] = (next(it), next(it))
    return pairs


def _gain_table(
    session: Session,
    problems: Sequence[str],
    orderings: Sequence[str],
    *,
    split_baseline: bool,
    split_candidate: bool,
    exact: bool,
) -> dict[str, dict[str, float]]:
    pairs = _paired_cases(
        session, problems, orderings, split_baseline=split_baseline, split_candidate=split_candidate
    )
    rows: dict[str, dict[str, float]] = {}
    for problem in problems:
        row: dict[str, float] = {}
        for ordering in orderings:
            base, cand = pairs[(problem, ordering)]
            row[ordering.upper()] = _cell(
                percentage_decrease(base.max_peak_stack, cand.max_peak_stack), 1, exact
            )
        rows[problem] = row
    return rows


def table2(
    session: Session,
    problems: Sequence[str] | None = None,
    orderings: Sequence[str] = tuple(ORDERING_NAMES),
    *,
    exact: bool = False,
) -> dict[str, dict[str, float]]:
    """Table 2: % decrease of the max stack peak, memory vs. workload, no splitting."""
    if problems is None:
        problems = list(PROBLEMS)
    return _gain_table(
        session, list(problems), list(orderings), split_baseline=False, split_candidate=False, exact=exact
    )


def table3(
    session: Session,
    problems: Sequence[str] | None = None,
    orderings: Sequence[str] = tuple(ORDERING_NAMES),
    *,
    exact: bool = False,
) -> dict[str, dict[str, float]]:
    """Table 3: same comparison on statically split trees (unsymmetric matrices)."""
    if problems is None:
        problems = list(UNSYMMETRIC_PROBLEMS)
    return _gain_table(
        session, list(problems), list(orderings), split_baseline=True, split_candidate=True, exact=exact
    )


def table4(
    session: Session, cases: Sequence[tuple[str, str]] = tuple(TABLE4_CASES), *, exact: bool = False
) -> dict[str, dict[str, float]]:
    """Table 4: absolute max stack peaks (millions of entries) for two cases."""
    combos = [
        (strategy, strategy_label, split, split_label)
        for strategy, strategy_label in ((BASELINE, "MUMPS dynamic"), (MEMORY, "memory-based dynamic"))
        for split, split_label in ((False, "no splitting"), (True, "splitting"))
    ]
    specs = [
        CaseSpec(problem, ordering, strategy, split=split)
        for problem, ordering in cases
        for strategy, _, split, _ in combos
    ]
    results = iter(session.run_cases(specs))
    rows: dict[str, dict[str, float]] = {}
    for problem, ordering in cases:
        row: dict[str, float] = {}
        for _, strategy_label, _, split_label in combos:
            row[f"{strategy_label} / {split_label}"] = _cell(next(results).max_peak_stack / 1e6, 3, exact)
        rows[f"{problem} - {ordering.upper()}"] = row
    return rows


def table5(
    session: Session,
    problems: Sequence[str] | None = None,
    orderings: Sequence[str] = tuple(ORDERING_NAMES),
    *,
    exact: bool = False,
) -> dict[str, dict[str, float]]:
    """Table 5: memory strategy + splitting vs. original MUMPS (no splitting)."""
    if problems is None:
        problems = list(UNSYMMETRIC_PROBLEMS)
    return _gain_table(
        session, list(problems), list(orderings), split_baseline=False, split_candidate=True, exact=exact
    )


def table6(
    session: Session,
    problems: Sequence[str] | None = None,
    orderings: Sequence[str] = tuple(ORDERING_NAMES),
    *,
    exact: bool = False,
) -> dict[str, dict[str, float]]:
    """Table 6: factorization-time loss (%) of the memory-optimised strategy."""
    if problems is None:
        problems = list(TABLE6_PROBLEMS)
    pairs = _paired_cases(
        session, list(problems), list(orderings), split_baseline=False, split_candidate=True
    )
    rows: dict[str, dict[str, float]] = {}
    for problem in problems:
        row: dict[str, float] = {}
        for ordering in orderings:
            base, cand = pairs[(problem, ordering)]
            loss = (
                100.0 * (cand.total_time - base.total_time) / base.total_time
                if base.total_time > 0
                else 0.0
            )
            row[ordering.upper()] = _cell(loss, 1, exact)
        rows[problem] = row
    return rows


#: Registry of the table generators (a Mapping: ``ALL_TABLES["table2"]``).
#: ``params`` records which subset keywords each generator accepts — the CLI
#: uses it to thread ``--problems`` / ``--orderings`` only where supported.
ALL_TABLES: Registry = Registry("table")
ALL_TABLES.add("table1", table1, description="The test problems (analogue sizes vs. the paper's)",
               params={"problems": None})
ALL_TABLES.add("table2", table2, description="% decrease of max stack peak, memory vs. workload",
               params={"problems": None, "orderings": None})
ALL_TABLES.add("table3", table3, description="Same comparison on statically split trees",
               params={"problems": None, "orderings": None})
ALL_TABLES.add("table4", table4, description="Absolute peaks for two illustrative cases",
               params={"cases": None})
ALL_TABLES.add("table5", table5, description="Memory strategy + splitting vs. original MUMPS",
               params={"problems": None, "orderings": None})
ALL_TABLES.add("table6", table6, description="Factorization-time loss of the memory strategy",
               params={"problems": None, "orderings": None})


def format_table(rows: Mapping[str, Mapping[str, object]], *, title: str = "") -> str:
    """Render a table (dict of rows, each a dict of columns) as aligned text."""
    if not rows:
        return title
    columns = list(next(iter(rows.values())).keys())
    row_width = max(len(str(r)) for r in rows) + 2
    col_widths = [max(len(str(c)), max(len(str(row.get(c, ""))) for row in rows.values())) + 2 for c in columns]
    lines = []
    if title:
        lines.append(title)
    header = " " * row_width + "".join(str(c).rjust(w) for c, w in zip(columns, col_widths))
    lines.append(header)
    lines.append("-" * len(header))
    for name, row in rows.items():
        lines.append(
            str(name).ljust(row_width)
            + "".join(str(row.get(c, "")).rjust(w) for c, w in zip(columns, col_widths))
        )
    return "\n".join(lines)
