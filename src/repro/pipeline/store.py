"""Content-addressed artifact stores for the analysis pipeline.

Every stage output (pattern, permutation, assembly tree, …) is an *artifact*
identified by a key of the form ``{stage}-{digest}`` where the digest is a
sha256 over the stage name, its version, its parameters and the keys of its
upstream artifacts.  Two cases that share a prefix of the pipeline therefore
share the artifacts of that prefix, whichever order they are computed in —
this is what lets a Table-2-sized sweep pay for each expensive analysis only
once, in memory within a process and on disk across processes and runs.

Three store implementations are provided:

* :class:`MemoryStore` — a plain dict, the per-process working set;
* :class:`DiskStore` — one pickle per artifact in a cache directory,
  shared across processes and across runs;
* :class:`TieredStore` — a memory store in front of an optional disk store;
  cheap intermediates can opt out of the disk tier (``persist=False``).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

from repro.durable import atomic_write, remove_stale_temps

__all__ = [
    "content_key",
    "ArtifactStore",
    "MemoryStore",
    "DiskStore",
    "TieredStore",
]

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


class ArtifactStore(ABC):
    """Minimal mapping interface shared by every store backend."""

    @abstractmethod
    def get(self, key: str) -> object:
        """Return the artifact for ``key`` or raise :class:`KeyError`."""

    @abstractmethod
    def put(self, key: str, value: object, *, persist: bool = True) -> None:
        """Store ``value`` under ``key``.

        ``persist=False`` marks the artifact as cheap to recompute; backends
        with a durable tier may skip writing it there.
        """

    @abstractmethod
    def __contains__(self, key: str) -> bool: ...

    def get_or(self, key: str, default: object = None) -> object:
        try:
            return self.get(key)
        except KeyError:
            return default


class MemoryStore(ArtifactStore):
    """In-process artifact store (a dict)."""

    def __init__(self) -> None:
        self._data: dict[str, object] = {}

    def get(self, key: str) -> object:
        return self._data[key]

    def put(self, key: str, value: object, *, persist: bool = True) -> None:
        self._data[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def clear(self) -> None:
        self._data.clear()


class DiskStore(ArtifactStore):
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
        path = self.path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            raise KeyError(key) from None

    def put(self, key: str, value: object, *, persist: bool = True) -> None:
        atomic_write(self.path(key), pickle.dumps(value), fsync=self.durable)

    def delete(self, key: str) -> bool:
        """Remove ``key``; returns whether it existed (races are benign)."""
        try:
            os.unlink(self.path(key))
        except FileNotFoundError:
            return False
        return True

    def size_bytes(self, key: str) -> int:
        """On-disk payload size of ``key`` (0 when it vanished concurrently)."""
        try:
            return self.path(key).stat().st_size
        except FileNotFoundError:
            return 0

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def keys(self) -> Iterator[str]:
        for path in sorted(self.directory.glob("*.pkl")):
            yield path.stem


class TieredStore(ArtifactStore):
    """Memory store in front of an optional disk store.

    ``get`` promotes disk hits into memory; ``put`` always fills the memory
    tier and forwards to the disk tier only when ``persist`` is true.
    """

    def __init__(self, disk: Optional[DiskStore] = None) -> None:
        self.memory = MemoryStore()
        self.disk = disk

    def get(self, key: str) -> object:
        try:
            return self.memory.get(key)
        except KeyError:
            pass
        if self.disk is None:
            raise KeyError(key)
        value = self.disk.get(key)  # raises KeyError on miss
        self.memory.put(key, value)
        return value

    def put(self, key: str, value: object, *, persist: bool = True) -> None:
        self.memory.put(key, value)
        if persist and self.disk is not None:
            self.disk.put(key, value)

    def __contains__(self, key: str) -> bool:
        return key in self.memory or (self.disk is not None and key in self.disk)
