"""Canonical case keys: the identity of one result in a result store.

A key is a content address over the *canonical* case parameters with the
engine defaults bound in — ``nprocs``/``scale`` overrides resolve to their
effective values and the ordering/strategy spec strings canonicalise through
:func:`repro.specs.parse_spec` with the name case-folded, as the registries
resolve names (``HYBRID(alpha=0.50)`` keys as ``hybrid(alpha=.5)`` does).
The same logical case always lands on the same key whether it arrives
spelled out or relying on engine defaults; two engines with different
defaults never collide.  Parameter defaults of a strategy or ordering are
not bound: ``hybrid(alpha=0.5)`` and
``hybrid(alpha=0.5,use_predictions=true)`` key apart.

The service daemon keys ``GET /result`` with :func:`case_key_for`, so a
sweep resumed against a daemon's store skips every case the daemon has
already computed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.pipeline.store import content_key
from repro.specs import ParamSpec, parse_spec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.pipeline.engine import AnalysisPipeline
    from repro.pipeline.stage import CaseSpec

__all__ = ["CASE_KEY_VERSION", "case_key", "case_key_for"]

#: schema version of the result keys; bump to invalidate every stored result.
CASE_KEY_VERSION = "1"


def _spec_key(text: str) -> str:
    """The canonical form of one ordering or strategy spec, name case-folded."""
    spec = parse_spec(text)
    return ParamSpec(spec.name.lower(), spec.params).canonical()


def case_key(
    spec: "CaseSpec",
    *,
    nprocs: int,
    scale: float,
    split_threshold: Optional[int] = None,
    faults: Optional[str] = None,
    fault_seed: int = 0,
    replications: int = 1,
) -> str:
    """The content key of one case at explicit effective parameters.

    The fault axis enters the key only when set (in canonical form, with
    the seed and replication count that shape the stored summary), so every
    clean case keeps its seed-era key and stored results stay addressable.
    """
    params = {
        "problem": spec.problem.upper(),
        "ordering": _spec_key(spec.ordering),
        "strategy": _spec_key(spec.strategy),
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
    return content_key("result", CASE_KEY_VERSION, params)


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
    )
