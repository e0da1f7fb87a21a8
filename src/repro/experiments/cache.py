"""Content-addressed on-disk cache for sweep-task results.

Each :class:`~repro.experiments.api.SweepTask` is addressed by the
SHA-256 of its canonical cache material — experiment key, task key,
runner, parameters, scale, seed and the package version — so a cache
entry can never be served to a run it does not byte-identically belong
to. Entries live under ``<root>/<digest[:2]>/<digest>.json`` and store
the task payload plus its metrics snapshot and cold timing, which is
exactly what the merge step needs; warm re-runs therefore skip the
simulation entirely and still produce the same series, digest and
merged metrics as a cold run. :meth:`ResultCache.get_payload` and
:meth:`ResultCache.put_payload` are the one mapping between an entry
and an ``execute_task`` payload; the scheduler and the worker daemon's
local cache both go through them, so the two write identical bytes.

The cache is also the sweep's only checkpoint: each task is stored as
soon as its result arrives, so re-running a killed sweep with the same
cache directory executes only the tasks it finds no entry for.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
sharing a cache directory cannot corrupt entries; a torn or unreadable
entry is treated as a miss and rewritten, and additionally counted in
:attr:`ResultCache.errors` so corruption is observable instead of
folded silently into the miss count. A lost entry costs a re-run of
its task, never a wrong result. Opening a cache sweeps ``*.tmp``
droppings left by workers killed between ``mkstemp`` and
``os.replace``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Optional


def material_digest(material: dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON of ``material``."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed task-result store with hit/miss accounting."""

    def __init__(self, root: str):
        self.root = str(root)
        self.hits = 0
        self.misses = 0
        #: Unreadable/torn entries served as misses, plus swallowed
        #: write failures (unwritable cache directory).
        self.errors = 0
        #: Orphaned temp files removed when the cache was opened.
        self.tmp_swept = 0
        os.makedirs(self.root, exist_ok=True)
        self._sweep_orphans()

    def _sweep_orphans(self) -> None:
        """Remove ``*.tmp`` files abandoned by workers killed mid-put."""
        try:
            walker = os.walk(self.root)
            for dirpath, _subdirs, files in walker:
                for name in files:
                    if name.endswith(".tmp"):
                        try:
                            os.unlink(os.path.join(dirpath, name))
                            self.tmp_swept += 1
                        except OSError:
                            pass
        except OSError:
            pass

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    def contains(self, digest: str) -> bool:
        """Whether an entry for ``digest`` exists, without reading it
        (and without touching the hit/miss accounting) — the remote
        scheduler's cheap "I already have this blob" probe."""
        return os.path.exists(self._path(digest))

    def get(self, digest: str) -> Optional[dict[str, Any]]:
        """The stored entry for ``digest``, or ``None`` on a miss.

        An entry that exists but cannot be parsed (torn write, bytes
        that are not UTF-8, bad permissions) is a miss *and* an error,
        so corruption shows up in the accounting.
        """
        try:
            with open(self._path(digest), "r", encoding="utf-8") as fp:
                entry = json.load(fp)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, OSError):  # JSONDecodeError, UnicodeDecodeError
            self.misses += 1
            self.errors += 1
            return None
        self.hits += 1
        return entry

    def put(self, digest: str, entry: dict[str, Any]) -> str:
        """Atomically store ``entry`` under ``digest``; returns the path."""
        path = self._path(digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                json.dump(entry, fp, sort_keys=True,
                          separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def get_payload(self, digest: str) -> Optional[tuple]:
        """The entry for ``digest`` as an ``execute_task`` payload
        ``(data, metrics, events, elapsed_s)``, or ``None`` on a miss.
        Entries keep no trace events, so ``events`` is empty."""
        entry = self.get(digest)
        if entry is None:
            return None
        return (entry["data"], entry.get("metrics", {}), (),
                entry.get("elapsed_s", 0.0))

    def put_payload(self, digest: str, payload: tuple) -> None:
        """Store an ``execute_task`` payload under ``digest``, without
        its trace events. A failed write is counted in :attr:`errors`
        and swallowed: the task itself succeeded, and the missing entry
        only costs a re-run."""
        data, metrics, _events, elapsed = payload
        try:
            self.put(digest, {"data": data, "metrics": metrics,
                              "elapsed_s": elapsed})
        except OSError:
            self.errors += 1

    def __len__(self) -> int:
        n = 0
        for _dir, _subdirs, files in os.walk(self.root):
            n += sum(1 for f in files if f.endswith(".json"))
        return n

    def __repr__(self) -> str:
        return (f"<ResultCache {self.root!r} hits={self.hits} "
                f"misses={self.misses} errors={self.errors}>")
