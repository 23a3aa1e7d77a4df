"""Content-addressed artifact stores for the analysis pipeline.

Every stage output (pattern, permutation, assembly tree, …) is an *artifact*
identified by a key of the form ``{stage}-{digest}`` where the digest is a
sha256 over the stage name, its version, its parameters and the keys of its
upstream artifacts.  Two cases that share a prefix of the pipeline therefore
share the artifacts of that prefix, whichever order they are computed in —
this is what lets a Table-2-sized sweep pay for each expensive analysis only
once, in memory within a process and on disk across processes and runs.

Two stores are provided:

* :class:`DiskStore` — one pickle per artifact in a cache directory,
  shared across processes and across runs;
* :class:`TieredStore` — a dict, the per-process working set, in front of
  an optional disk store; cheap intermediates can opt out of the disk tier
  (``persist=False``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from repro.durable import atomic_write, remove_stale_temps

__all__ = ["content_key", "DiskStore", "TieredStore"]

#: length of the hex digest kept in artifact keys (96 bits: collisions are
#: not a practical concern for cache keys).
_DIGEST_LEN = 24


def content_key(
    stage: str,
    version: str,
    params: Mapping[str, object],
    upstream: Sequence[str] = (),
) -> str:
    """Content address of one stage invocation.

    The digest covers the stage identity (name + version), its parameters
    (order-independent) and the keys of its upstream artifacts, so a change
    anywhere in the chain changes every downstream key — stale artifacts are
    never *invalidated*, they simply stop being addressed.
    """
    payload = repr((stage, version, sorted(params.items()), tuple(upstream)))
    digest = hashlib.sha256(payload.encode()).hexdigest()[:_DIGEST_LEN]
    return f"{stage}-{digest}"


class DiskStore:
    """One pickle per artifact in ``directory`` (``{key}.pkl``).

    Writes go through :func:`repro.durable.atomic_write`, so a concurrent
    sweep worker or service reader never observes a half-written artifact —
    at worst two writers compute the same artifact and the second rename
    wins with an identical payload.  ``durable=True`` additionally fsyncs
    the payload before the rename, so even a machine crash in the middle of
    a write can never leave a torn file behind the key — the crash-safety
    level the service's table store relies on.
    """

    def __init__(self, directory: str | os.PathLike, *, durable: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        remove_stale_temps(self.directory)
        self.durable = bool(durable)

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> object:
        """Return the artifact for ``key`` or raise :class:`KeyError`."""
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, value: object) -> None:
        atomic_write(self.path(key), pickle.dumps(value), fsync=self.durable)

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> Iterator[str]:
        for path in sorted(self.directory.glob("*.pkl")):
            yield path.stem


class TieredStore:
    """A dict in front of an optional disk store.

    ``get`` promotes disk hits into memory; ``put`` always fills the memory
    tier and forwards to the disk tier only when ``persist`` is true
    (``persist=False`` marks an artifact as cheap to recompute).
    """

    def __init__(self, disk: Optional[DiskStore] = None) -> None:
        self.memory: dict[str, object] = {}
        self.disk = disk

    def get(self, key: str) -> object:
        """Return the artifact for ``key`` or raise :class:`KeyError`."""
        try:
            return self.memory[key]
        except KeyError:
            pass
        if self.disk is None:
            raise KeyError(key)
        value = self.disk.get(key)  # raises KeyError on miss
        self.memory[key] = value
        return value

    def put(self, key: str, value: object, *, persist: bool = True) -> None:
        self.memory[key] = value
        if persist and self.disk is not None:
            self.disk.put(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or (self.disk is not None and key in self.disk)
