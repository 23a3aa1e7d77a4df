"""Canonical case keys: the identity of one result in a result store.

A key is a content address over the *canonical* case parameters with every
default bound in: ``nprocs``/``scale`` overrides resolve to the engine's
effective values, and the ordering/strategy specs take the registries'
canonical form (:meth:`repro.registry.Registry.canonical`: name case-folded,
parameters sorted, declared parameter defaults filled in).  So ``hybrid``,
``HYBRID(alpha=0.50)`` and ``hybrid(use_predictions=true,alpha=.5)`` are one
key, as are ``metis`` and ``metis(leaf_size=64)``.  The same logical case
always lands on the same key whether it arrives spelled out or relying on
defaults.  The engine's machine model and amalgamation enter the key only
where they differ from the defaults (:meth:`SimulationConfig.paper` and
:data:`repro.symbolic.AMALGAMATION`), so every default-engine key stays as
it was and two engines with different defaults never collide.

Version ``"2"`` of the key rule is the one that binds parameter defaults.
Rows keyed under another version cannot be re-keyed (a row does not hold
the scale, split threshold or fault seed its key covered), so a
:class:`~repro.results.store.ResultStore` skips them on replay and their
cases are recomputed on demand.

The service daemon keys ``GET /result`` with :func:`case_key_for`, so a
sweep resumed against a daemon's store skips every case the daemon has
already computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

from repro.ordering import ORDERINGS
from repro.pipeline.store import content_key
from repro.scheduling import STRATEGIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.engine import AnalysisPipeline
    from repro.pipeline.stage import CaseSpec

__all__ = ["CASE_KEY_VERSION", "case_key", "case_key_for"]

#: schema version of the result keys; bump to invalidate every stored result.
CASE_KEY_VERSION = "2"


def case_key(
    spec: "CaseSpec",
    *,
    nprocs: int,
    scale: float,
    split_threshold: Optional[int] = None,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    replications: int = 1,
    machine: Optional[Mapping[str, object]] = None,
) -> str:
    """The content key of one case at explicit effective parameters.

    The fault axis enters the key only when set (in canonical form, with
    the seed and replication count that shape the stored summary), so a
    clean case's key does not depend on the fault seed.  ``machine`` (the
    engine settings that differ from the defaults, see
    :func:`machine_overrides`) enters it only when non-empty.
    """
    params = {
        "problem": spec.problem.upper(),
        "ordering": ORDERINGS.canonical(spec.ordering),
        "strategy": STRATEGIES.canonical(spec.strategy),
        "split": bool(spec.split),
        "nprocs": int(nprocs),
        "scale": float(scale),
        "split_threshold": (
            spec.split_threshold if split_threshold is None else split_threshold
        ),
    }
    if faults:
        from repro.faults import canonical_faults

        params["faults"] = canonical_faults(faults)
        params["fault_seed"] = int(fault_seed)
        params["replications"] = int(replications)
    if machine:
        params["machine"] = tuple(sorted(machine.items()))
    return content_key("result", CASE_KEY_VERSION, params)


#: config fields a key never takes from the engine: the case's own axes
#: (``nprocs``, the fault pair) and a recording switch that changes no result
_UNKEYED_CONFIG = frozenset({"nprocs", "faults", "fault_seed", "track_traces"})


def machine_overrides(engine: "AnalysisPipeline") -> dict[str, object]:
    """The engine settings that differ from the defaults, by name.

    Every :class:`~repro.runtime.SimulationConfig` field but the unkeyed
    ones that differs from ``SimulationConfig.paper(nprocs)``, plus
    ``amalgamation_min_pivots``/``amalgamation_relax`` when the engine's
    amalgamation differs from :data:`repro.symbolic.AMALGAMATION`.
    """
    from repro.runtime import SimulationConfig
    from repro.symbolic import AMALGAMATION

    config = engine.config
    paper = SimulationConfig.paper(config.nprocs)
    out: dict[str, object] = {
        f"config.{name}": value
        for name, value in config.__dict__.items()
        if name not in _UNKEYED_CONFIG and value != getattr(paper, name)
    }
    settings = engine.settings()
    amalgamation = (settings.amalgamation_min_pivots, settings.amalgamation_relax)
    if amalgamation != (AMALGAMATION.min_pivots, AMALGAMATION.relax):
        out["amalgamation_min_pivots"], out["amalgamation_relax"] = amalgamation
    return out


def case_key_for(engine: "AnalysisPipeline", spec: "CaseSpec") -> str:
    """The content key of one case with ``engine``'s defaults bound in."""
    cfg = engine.effective_config(spec)
    return case_key(
        spec,
        nprocs=engine.effective_nprocs(spec),
        scale=engine.effective_scale(spec),
        faults=cfg.faults,
        fault_seed=cfg.fault_seed,
        replications=int(getattr(spec, "replications", 1) or 1),
        machine=machine_overrides(engine),
    )
