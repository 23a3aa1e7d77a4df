"""The data types flowing through the pipeline.

A :class:`CaseSpec` names one case; the analysis chain
(:data:`repro.pipeline.stages.STAGES`) turns it into a
:class:`SplitArtifact` and then an :class:`AnalysisProducts` bundle, and
the simulations of the case fold into one :class:`CaseResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.ordering import canonical_ordering

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.mapping import StaticMapping
    from repro.runtime import SimulationResult
    from repro.symbolic import AssemblyTree

__all__ = ["CaseSpec", "SplitArtifact", "AnalysisProducts", "CaseResult"]


@dataclass(frozen=True)
class CaseSpec:
    """One point of the (problem × ordering × splitting × strategy) product.

    Frozen and hashable so it can be used as a grouping key and shipped to
    sweep workers.  ``ordering`` and ``strategy`` are spec strings and may
    carry parameters in the mini-language of :mod:`repro.specs`
    (``"hybrid(alpha=0.3)"``); the pipeline cache keys canonicalise them, so
    distinct parameterisations never share a cached artifact.

    ``nprocs`` / ``scale`` / ``split_threshold`` are per-case overrides of
    the engine defaults (``None`` = use the engine's value), which is what
    lets one sweep vary the processor count — the paper's "gain vs. number
    of processors" axis — through a single shared executor.

    ``faults`` perturbs the simulated machine with the deterministic fault
    models of :mod:`repro.faults` (``"stragglers(frac=0.1)+msgloss(p=0.01)"``);
    ``fault_seed`` seeds their random streams and ``replications`` asks for
    that many seeded faulted replays per case (plus one clean baseline),
    summarised into the fault fields of :class:`CaseResult`.
    """

    problem: str
    ordering: str
    strategy: str = "memory-full"
    split: bool = False
    track_traces: bool = False
    nprocs: Optional[int] = None
    scale: Optional[float] = None
    split_threshold: Optional[int] = None
    faults: Optional[str] = None
    fault_seed: int = 0
    replications: int = 1

    def label(self) -> str:
        """Short human-readable tag used by progress reporting."""
        parts = [f"{self.problem}/{self.ordering}/{self.strategy}"]
        if self.split:
            parts.append("+split")
        if self.nprocs is not None:
            parts.append(f"@np{self.nprocs}")
        if self.scale is not None:
            parts.append(f"@x{self.scale:g}")
        if self.faults:
            parts.append(f"@faults[{self.faults}]")
        return "".join(parts)

    def analysis_signature(self) -> tuple:
        """Grouping key: cases with equal signatures share their analysis.

        The problem and ordering enter in canonical form, so ``xenon2/metis``
        and ``XENON2/METIS(leaf_size=64)`` (one analysis) form one group.  The
        per-case overrides extend the (problem, ordering, split) triple only
        when set.
        """
        signature: tuple = (self.problem.upper(), canonical_ordering(self.ordering), self.split)
        for name in ("nprocs", "scale", "split_threshold"):
            value = getattr(self, name)
            if value is not None:
                signature += ((name, value),)
        return signature

    def overrides(self) -> dict[str, object]:
        """The per-case engine overrides that are actually set."""
        return {
            name: getattr(self, name)
            for name in ("nprocs", "scale", "split_threshold")
            if getattr(self, name) is not None
        }

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form; non-default fields only."""
        data: dict[str, object] = {"problem": self.problem, "ordering": self.ordering}
        defaults = {f.name: f.default for f in fields(self)}
        for name in (
            "strategy",
            "split",
            "track_traces",
            "nprocs",
            "scale",
            "split_threshold",
            "faults",
            "fault_seed",
            "replications",
        ):
            value = getattr(self, name)
            if value != defaults[name]:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object], *, strict: bool = True) -> "CaseSpec":
        from repro.serialize import decode_fields

        payload = decode_fields(
            "case_spec",
            data,
            {f.name for f in fields(cls)},
            label="CaseSpec",
            strict=strict,
        )
        return cls(**payload)  # type: ignore[arg-type]


@dataclass
class SplitArtifact:
    """Output of the splitting stage: the (possibly rewritten) tree."""

    tree: "AssemblyTree"
    nodes_split: int = 0
    threshold: int = 0


@dataclass
class AnalysisProducts:
    """Everything produced by the analysis phase of one case.

    This is the bundle :meth:`Session.analysis <repro.session.Session.analysis>`
    hands out and the disk tier persists as one ``analysis-*.pkl`` artifact;
    the per-stage artifacts behind it stay in memory.
    """

    problem: str
    ordering: str
    scale: float
    split: bool
    split_threshold: int
    tree: "AssemblyTree"
    mapping: "StaticMapping"
    nodes_split: int = 0


@dataclass
class CaseResult:
    """Outcome of one simulated case.

    The fault-summary fields are meaningful for replicated faulted cases
    (see :meth:`from_replications`): the primary metrics then describe the
    *median* (p50 by makespan) replication, ``makespan_p50`` /
    ``makespan_p95`` the makespan distribution across replications,
    ``degradation`` the p50 makespan relative to the unperturbed baseline
    run, and ``messages_lost`` / ``retries`` the summed message-loss
    counters.  Clean cases keep the neutral defaults (p50 = p95 =
    ``total_time``, degradation 1.0).
    """

    problem: str
    ordering: str
    strategy: str
    split: bool
    nprocs: int
    max_peak_stack: float
    avg_peak_stack: float
    sum_peak_stack: float
    total_time: float
    total_factor_entries: float
    per_proc_peak_stack: np.ndarray
    nodes: int
    nodes_split: int
    messages: int
    faults: str = ""
    replications: int = 1
    makespan_p50: float = 0.0
    makespan_p95: float = 0.0
    degradation: float = 1.0
    messages_lost: int = 0
    retries: int = 0

    @classmethod
    def from_simulation(
        cls, analysis: AnalysisProducts, strategy: str, result: "SimulationResult"
    ) -> "CaseResult":
        counts = result.message_counts
        return cls(
            problem=analysis.problem,
            ordering=analysis.ordering,
            strategy=strategy,
            split=analysis.split,
            nprocs=result.nprocs,
            max_peak_stack=result.max_peak_stack,
            avg_peak_stack=result.avg_peak_stack,
            sum_peak_stack=result.sum_peak_stack,
            total_time=result.total_time,
            total_factor_entries=result.total_factor_entries,
            per_proc_peak_stack=result.per_proc_peak_stack,
            nodes=result.nodes,
            nodes_split=analysis.nodes_split,
            messages=int(sum(counts.values())),
            makespan_p50=result.total_time,
            makespan_p95=result.total_time,
            messages_lost=int(counts.get("msg_lost", 0)),
            retries=int(counts.get("msg_retries", 0)),
        )

    @classmethod
    def from_replications(
        cls,
        analysis: AnalysisProducts,
        strategy: str,
        clean: "SimulationResult",
        faulted: "list[SimulationResult]",
        *,
        faults: str,
    ) -> "CaseResult":
        """Summarise a clean baseline plus N seeded faulted replications.

        The primary metrics come from the p50-by-makespan replication (ties
        broken by replication index, so the pick is deterministic); the
        percentiles use the nearest-rank method on the sorted makespans —
        no interpolation, so every value is one actually-simulated float.
        """
        if not faulted:
            raise ValueError("from_replications needs at least one faulted replication")
        order = sorted(range(len(faulted)), key=lambda i: (faulted[i].total_time, i))
        n = len(faulted)
        p50_result = faulted[order[(n - 1) // 2]]
        p95_result = faulted[order[min(n - 1, max(0, -(-95 * n // 100) - 1))]]
        case = cls.from_simulation(analysis, strategy, p50_result)
        case.faults = faults
        case.replications = n
        case.makespan_p50 = p50_result.total_time
        case.makespan_p95 = p95_result.total_time
        case.degradation = (
            p50_result.total_time / clean.total_time if clean.total_time > 0 else 1.0
        )
        case.messages_lost = int(
            sum(r.message_counts.get("msg_lost", 0) for r in faulted)
        )
        case.retries = int(sum(r.message_counts.get("msg_retries", 0) for r in faulted))
        return case

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form (the per-processor peaks become a plain list)."""
        return {
            "problem": self.problem,
            "ordering": self.ordering,
            "strategy": self.strategy,
            "split": self.split,
            "nprocs": self.nprocs,
            "max_peak_stack": float(self.max_peak_stack),
            "avg_peak_stack": float(self.avg_peak_stack),
            "sum_peak_stack": float(self.sum_peak_stack),
            "total_time": float(self.total_time),
            "total_factor_entries": float(self.total_factor_entries),
            "per_proc_peak_stack": [float(x) for x in self.per_proc_peak_stack],
            "nodes": self.nodes,
            "nodes_split": self.nodes_split,
            "messages": self.messages,
            "faults": self.faults,
            "replications": self.replications,
            "makespan_p50": float(self.makespan_p50),
            "makespan_p95": float(self.makespan_p95),
            "degradation": float(self.degradation),
            "messages_lost": self.messages_lost,
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CaseResult":
        from repro.serialize import decode_fields

        # tolerant: a result payload from a newer writer (extra columns) or
        # an HTTP body with an envelope still decodes on this build
        payload = decode_fields(
            "case_result", data, {f.name for f in fields(cls)}, label="CaseResult"
        )
        payload["per_proc_peak_stack"] = np.asarray(
            payload.get("per_proc_peak_stack", ()), dtype=np.float64
        )
        return cls(**payload)  # type: ignore[arg-type]
