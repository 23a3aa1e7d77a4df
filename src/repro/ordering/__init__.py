"""Fill-reducing orderings: the four reordering techniques of the paper.

The paper studies the scheduling strategies on trees produced by METIS, PORD,
AMD and AMF, because the assembly-tree topology is dictated by the ordering.
This package provides from-scratch substitutes for all four (plus RCM as an
extra baseline) behind a single registry:

>>> from repro.ordering import compute_ordering
>>> perm = compute_ordering(pattern, "metis")

Registry names follow the paper's column labels: ``"metis"``, ``"pord"``,
``"amd"``, ``"amf"`` (and ``"rcm"``, ``"natural"``).  Orderings accept
keyword parameters, either directly or through the spec mini-language::

    compute_ordering(pattern, "metis", leaf_size=32)
    compute_ordering(pattern, "metis(leaf_size=32)")   # equivalent
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.ordering.amd import amd_ordering
from repro.ordering.amf import amf_ordering
from repro.ordering.nested_dissection import nested_dissection_ordering
from repro.ordering.pord import pord_ordering
from repro.ordering.quotient_graph import greedy_ordering
from repro.ordering.rcm import rcm_ordering
from repro.registry import Registry
from repro.sparse.pattern import SparsePattern
from repro.specs import ParamSpec

__all__ = [
    "amd_ordering",
    "amf_ordering",
    "nested_dissection_ordering",
    "pord_ordering",
    "rcm_ordering",
    "greedy_ordering",
    "ORDERINGS",
    "compute_ordering",
    "resolve_ordering",
    "canonical_ordering",
    "is_permutation",
]


def _natural(pattern: SparsePattern, **_kwargs) -> np.ndarray:
    return np.arange(pattern.n, dtype=np.int64)


ORDERINGS: Registry[Callable[..., np.ndarray]] = Registry("ordering")
ORDERINGS.add(
    "metis",
    nested_dissection_ordering,
    description="Recursive nested dissection (METIS analogue)",
    params={"leaf_size": 64, "balance": 0.5, "leaf_method": "degree", "seed": 0, "handle_hubs": True},
)
ORDERINGS.add(
    "pord",
    pord_ordering,
    description="Hybrid multisection (PORD analogue)",
    params={"nd_levels": 4, "leaf_size": 48, "balance": 0.45, "seed": 0},
)
ORDERINGS.add(
    "amd",
    amd_ordering,
    description="Approximate minimum degree",
    params={"seed": 0},
)
ORDERINGS.add(
    "amf",
    amf_ordering,
    description="Approximate minimum fill",
    params={"seed": 0},
)
ORDERINGS.add("rcm", rcm_ordering, description="Reverse Cuthill-McKee (extra baseline)")
ORDERINGS.add("natural", _natural, description="Identity permutation (no reordering)")


def resolve_ordering(spec: str | ParamSpec) -> tuple[str, dict[str, object]]:
    """Parse an ordering spec into (registry name, bound parameters).

    Validates parameter names against the registry's declared ``params`` so a
    typo fails before any analysis runs.
    """
    entry, params = ORDERINGS.resolve(spec)
    return entry.name, params


def canonical_ordering(spec: str | ParamSpec) -> str:
    """Canonical spec string of an ordering, with the declared defaults bound.

    ``"metis"`` and ``"METIS(leaf_size=64)"`` canonicalise identically, so
    equivalent spellings share pipeline cache keys while any genuinely
    different parameterisation gets its own.
    """
    return ORDERINGS.canonical(spec)


def compute_ordering(pattern: SparsePattern, method: str, **kwargs) -> np.ndarray:
    """Compute the ordering ``method`` for ``pattern``.

    ``method`` is one of the registry names (case-insensitive), optionally
    carrying mini-language parameters (``"metis(leaf_size=32)"``).  Extra
    keyword arguments are merged in (explicit kwargs win) and forwarded to
    the underlying algorithm.
    """
    name, params = resolve_ordering(method)
    fn = ORDERINGS[name]
    return fn(pattern, **{**params, **kwargs})


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """True when ``perm`` is a permutation of ``range(n)``."""
    perm = np.asarray(perm)
    return perm.shape == (n,) and np.array_equal(np.sort(perm), np.arange(n))
