"""The content-addressed stage-artifact store.

A :class:`StageStore` memoizes the artifacts of pipeline stages
(``deploy``, ``tree``, ``links``, ``schedule``) under canonical content
keys (:mod:`repro.store.keys`).  It is two-tiered:

* an **in-memory LRU** shared by every pipeline in the process (bounded
  by entry count, so unbounded sweeps cannot grow it without limit);
* an optional **on-disk tier** (:class:`DiskTier`): one file per
  artifact, written atomically (temp file + ``os.replace``) with a
  versioned schema header, so crashed writers never leave a readable
  half-entry and old-format caches are silently rebuilt rather than
  misread.

Worker processes of a shared-memory :class:`~repro.jobs.JobService` may
additionally attach a read-only **shared-memory tier**
(:meth:`StageStore.attach_shm`, an
:class:`~repro.jobs.shm.ShmArtifactReader`): consulted between the
memory and disk tiers, it serves the coordinator's published artifacts
zero-copy and counts ``shm_hits``.

Per-stage hit/build/disk counters (:class:`StoreStats`) make cache
behaviour observable — :class:`~repro.api.pipeline.Pipeline` surfaces
the per-run delta in ``RunArtifact.provenance["store"]`` and the sweep
engine aggregates deltas across jobs into
``SweepReport.store_stats``.

The store is per-process state (worker processes of a
:class:`~repro.jobs.JobService` each hold their own); it is not
thread-safe and does not need to be — every execution surface in this
library is process-parallel, never thread-parallel.

>>> store = StageStore(memory_entries=4)
>>> store.get_or_build("deploy", "k1", lambda: "artifact")
'artifact'
>>> store.get_or_build("deploy", "k1", lambda: "rebuilt!")
'artifact'
>>> store.stats.snapshot()["deploy"]
{'hits': 1, 'builds': 1, 'disk_hits': 0, 'disk_writes': 0, 'shm_hits': 0}
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = [
    "STORE_SCHEMA_VERSION",
    "DiskTier",
    "StageStore",
    "StoreStats",
    "configure_default_store",
    "get_default_store",
    "reset_default_store",
]

#: Bumped whenever the on-disk payload format changes; entries written
#: under another version are treated as misses and rewritten.
STORE_SCHEMA_VERSION = 2

#: Default bound on memoized artifacts (all stages together).
DEFAULT_MEMORY_ENTRIES = 128

#: Sentinel for "nothing cached" (``None`` could be a legal artifact).
_MISS = object()

_COUNTER_NAMES = ("hits", "builds", "disk_hits", "disk_writes", "shm_hits")


class StoreStats:
    """Per-stage cache instrumentation.

    ``hits`` counts memory-tier hits, ``builds`` actual stage
    computations, ``disk_hits`` artifacts decoded from the disk tier,
    ``disk_writes`` artifacts persisted to it and ``shm_hits`` artifacts
    served by an attached shared-memory reader.  Snapshots and deltas are
    plain nested dicts, so they sum across worker processes and embed
    directly in provenance records.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, Dict[str, int]] = {}

    def _stage(self, stage: str) -> Dict[str, int]:
        return self._stages.setdefault(stage, dict.fromkeys(_COUNTER_NAMES, 0))

    def count(self, stage: str, counter: str) -> None:
        if counter not in _COUNTER_NAMES:
            raise ConfigurationError(
                f"unknown store counter {counter!r}; valid counters: "
                f"{', '.join(_COUNTER_NAMES)}"
            )
        self._stage(stage)[counter] += 1

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """A deep copy of the current counters."""
        return {stage: dict(c) for stage, c in self._stages.items()}

    def delta(self, before: Dict[str, Dict[str, int]]) -> Dict[str, Dict[str, int]]:
        """Counter increments since a prior :meth:`snapshot`."""
        out: Dict[str, Dict[str, int]] = {}
        for stage, counters in self._stages.items():
            base = before.get(stage, {})
            out[stage] = {
                name: value - base.get(name, 0) for name, value in counters.items()
            }
        return out

    @staticmethod
    def merge(
        total: Dict[str, Dict[str, int]], part: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Sum ``part`` into ``total`` (in place) and return it."""
        for stage, counters in part.items():
            slot = total.setdefault(stage, dict.fromkeys(_COUNTER_NAMES, 0))
            for name, value in counters.items():
                slot[name] = slot.get(name, 0) + value
        return total


class DiskTier:
    """The persistent tier: one atomically written file per artifact.

    Layout is ``<root>/<stage>/<key>.pkl``; each file holds a pickled
    envelope ``{"schema", "stage", "key", "payload"}``.  Reads verify
    the schema version and key, so a corrupt, truncated or stale-format
    file degrades to a cache miss (and is overwritten by the next
    build), never to a wrong artifact.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def _path(self, stage: str, key: str) -> Path:
        return self.root / stage / f"{key}.pkl"

    def contains(self, stage: str, key: str) -> bool:
        """Whether an entry file exists (no validation; reads do that)."""
        return self._path(stage, key).exists()

    def load(self, stage: str, key: str) -> Any:
        """The stored payload, or the miss sentinel."""
        path = self._path(stage, key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            return _MISS
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != STORE_SCHEMA_VERSION
            or envelope.get("stage") != stage
            or envelope.get("key") != key
        ):
            return _MISS
        return envelope["payload"]

    def write(self, stage: str, key: str, payload: Any) -> None:
        """Atomically persist one payload (write temp + ``os.replace``)."""
        path = self._path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": STORE_SCHEMA_VERSION,
            "stage": stage,
            "key": key,
            "payload": payload,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict[str, int]]:
        """Entry counts and byte totals, per stage directory."""
        out: Dict[str, Dict[str, int]] = {}
        if not self.root.is_dir():
            return out
        for stage_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            entries = [p for p in stage_dir.glob("*.pkl")]
            out[stage_dir.name] = {
                "entries": len(entries),
                "bytes": sum(p.stat().st_size for p in entries),
            }
        return out

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for stage_dir in self.root.iterdir():
            if not stage_dir.is_dir():
                continue
            for entry in stage_dir.glob("*.pkl"):
                entry.unlink()
                removed += 1
            try:
                stage_dir.rmdir()
            except OSError:
                pass
        return removed

    def __repr__(self) -> str:
        return f"DiskTier({str(self.root)!r})"


class StageStore:
    """Two-tier content-addressed store for stage artifacts.

    Parameters
    ----------
    memory_entries:
        LRU bound on in-memory artifacts (across all stages).
    disk:
        Optional persistent tier — a :class:`DiskTier` or a directory
        path.  Stages opt in per call: :meth:`get_or_build` only touches
        disk when given an ``encode``/``decode`` codec pair (the
        ``links`` stage, whose artifact is cheaply derivable and carries
        process-local kernel caches, stays memory-only).
    """

    def __init__(
        self,
        *,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        disk: Union[DiskTier, str, Path, None] = None,
    ) -> None:
        if memory_entries < 1:
            raise ConfigurationError(
                f"memory_entries must be >= 1, got {memory_entries}"
            )
        self.memory_entries = memory_entries
        self.disk = DiskTier(disk) if isinstance(disk, (str, Path)) else disk
        #: Optional read-only shared-memory tier (an
        #: :class:`~repro.jobs.shm.ShmArtifactReader`); see :meth:`attach_shm`.
        self.shm: Any = None
        self.stats = StoreStats()
        self._memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        stage: str,
        key: str,
        build: Callable[[], Any],
        *,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ) -> Any:
        """The artifact for ``(stage, key)``, computing it at most once.

        Lookup order: memory tier, then (when a codec is given) the
        attached shared-memory reader, then the disk tier, then
        ``build()``.  Fresh builds are written through to both writable
        tiers; shm/disk hits are promoted into memory, and memory hits
        backfill a disk tier that lacks the entry (so attaching a cache
        directory to a warm store still persists its artifacts).
        """
        mk = (stage, key)
        if mk in self._memory:
            self._memory.move_to_end(mk)
            self.stats.count(stage, "hits")
            value = self._memory[mk]
            if (
                self.disk is not None
                and encode is not None
                and not self.disk.contains(stage, key)
            ):
                self.disk.write(stage, key, encode(value))
                self.stats.count(stage, "disk_writes")
            return value
        value = _MISS
        if self.shm is not None and decode is not None:
            payload = self.shm.load(stage, key, _MISS)
            if payload is not _MISS:
                value = decode(payload)
                self.stats.count(stage, "shm_hits")
        if value is _MISS and self.disk is not None and decode is not None:
            payload = self.disk.load(stage, key)
            if payload is not _MISS:
                value = decode(payload)
                self.stats.count(stage, "disk_hits")
        if value is _MISS:
            value = build()
            self.stats.count(stage, "builds")
            if self.disk is not None and encode is not None:
                self.disk.write(stage, key, encode(value))
                self.stats.count(stage, "disk_writes")
        self._memory[mk] = value
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
        return value

    def peek(self, stage: str, key: str) -> Any:
        """The memory-tier artifact, or ``None`` — no build, no counters."""
        return self._memory.get((stage, key))

    def values(self, stage: str) -> Iterator[Any]:
        """Memory-tier artifacts of one stage (oldest first)."""
        for (entry_stage, _), value in self._memory.items():
            if entry_stage == stage:
                yield value

    def entries(self, stage: str) -> Iterator[Tuple[str, Any]]:
        """Memory-tier ``(key, artifact)`` pairs of one stage (oldest
        first) — the publishing surface of the shared-memory transport."""
        for (entry_stage, key), value in list(self._memory.items()):
            if entry_stage == stage:
                yield key, value

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory tier (and optionally the disk tier)."""
        self._memory.clear()
        if disk and self.disk is not None:
            self.disk.clear()

    # ------------------------------------------------------------------
    def attach_disk(self, path: Union[DiskTier, str, Path, None]) -> Optional[DiskTier]:
        """Swap the disk tier; returns the previous one (for scoped use)."""
        previous = self.disk
        self.disk = (
            DiskTier(path) if isinstance(path, (str, Path)) else path
        )
        return previous

    def attach_shm(self, reader: Any) -> Any:
        """Swap the read-only shared-memory tier; returns the previous one.

        ``reader`` is an :class:`~repro.jobs.shm.ShmArtifactReader` (or
        anything with its ``load(stage, key, default)`` signature), or
        ``None`` to detach.  The store never writes to this tier — its
        lifecycle belongs to the coordinating
        :class:`~repro.jobs.JobService`.
        """
        previous = self.shm
        self.shm = reader
        return previous

    def __len__(self) -> int:
        return len(self._memory)

    def __repr__(self) -> str:
        return (
            f"StageStore(entries={len(self._memory)}/{self.memory_entries}, "
            f"disk={self.disk!r})"
        )


# ----------------------------------------------------------------------
# The per-process default store
# ----------------------------------------------------------------------
_default_store: Optional[StageStore] = None


def get_default_store() -> StageStore:
    """The process-wide store every :class:`~repro.api.pipeline.Pipeline`
    uses unless given another (created on first use)."""
    global _default_store
    if _default_store is None:
        _default_store = StageStore()
    return _default_store


def configure_default_store(
    *, memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    disk: Union[DiskTier, str, Path, None] = None,
) -> StageStore:
    """Replace the default store with a freshly configured one."""
    global _default_store
    _default_store = StageStore(memory_entries=memory_entries, disk=disk)
    return _default_store


def reset_default_store() -> None:
    """Drop the default store (cold-cache baseline for benchmarks/tests)."""
    global _default_store
    _default_store = None
