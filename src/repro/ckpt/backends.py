"""Storage backends for the multilevel C/R runtime.

Three directory-backed stores model the paper's three storage levels:

* :class:`LocalStore` — node-local NVM.  Holds at most ``capacity``
  checkpoints in FIFO order (the Section 4.2.1 circular buffer) with
  per-checkpoint drain locks (Section 4.2.2).
* :class:`PartnerStore` — a partner node's local storage (redundant copy).
* :class:`IOStore` — the global parallel file system, optionally
  bandwidth-throttled so examples exhibit realistic relative timings.

A checkpoint is one directory of per-rank context files committed
atomically via a manifest update (write-temp-then-rename), so readers
never observe partially-written checkpoints — the same invariant BLCR's
metadata provides.
"""

from __future__ import annotations

import json
import shutil
import threading
import time
from pathlib import Path

from .format import (
    ContextHeader,
    read_context_file,
    write_context_file,
    write_context_frames,
)

__all__ = ["DirectoryStore", "LocalStore", "PartnerStore", "IOStore"]

_MANIFEST = "MANIFEST.json"


class DirectoryStore:
    """A checkpoint store rooted at a directory.

    Layout: ``root/<app_id>/ckpt_<id>/rank_<r>.ctx`` plus a per-app
    ``MANIFEST.json`` listing committed checkpoint ids.  All public
    methods are thread-safe (one lock per store instance — the NDP drain
    daemon and the host touch stores concurrently).
    """

    level = "generic"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    def _app_dir(self, app_id: str) -> Path:
        return self.root / app_id

    def _ckpt_dir(self, app_id: str, ckpt_id: int) -> Path:
        return self._app_dir(app_id) / f"ckpt_{ckpt_id:08d}"

    def _manifest_path(self, app_id: str) -> Path:
        return self._app_dir(app_id) / _MANIFEST

    # -- manifest ------------------------------------------------------------

    def _read_manifest(self, app_id: str) -> dict:
        path = self._manifest_path(app_id)
        if not path.exists():
            return {"committed": [], "locked": []}
        return json.loads(path.read_text())

    def _write_manifest(self, app_id: str, manifest: dict) -> None:
        path = self._manifest_path(app_id)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        tmp.replace(path)

    # -- public API ------------------------------------------------------------

    def write_checkpoint(
        self,
        app_id: str,
        ckpt_id: int,
        files: dict[int, tuple[ContextHeader, bytes]],
    ) -> None:
        """Persist one checkpoint (all rank files), then commit it.

        The checkpoint becomes visible to readers only after every context
        file is on disk and the manifest rename lands.
        """
        if not files:
            raise ValueError("a checkpoint needs at least one rank file")
        for rank, (header, payload) in sorted(files.items()):
            self.stage_rank_file(app_id, ckpt_id, rank, header, payload)
        self.commit_checkpoint(app_id, ckpt_id)

    def stage_rank_file(
        self,
        app_id: str,
        ckpt_id: int,
        rank: int,
        header: ContextHeader,
        payload: bytes,
    ) -> None:
        """Write one rank's context file without committing the checkpoint.

        :meth:`write_checkpoint`'s per-rank step.  Staged files are
        invisible to readers until :meth:`commit_checkpoint` lands.
        """
        cdir = self._ckpt_dir(app_id, ckpt_id)
        cdir.mkdir(parents=True, exist_ok=True)
        write_context_file(cdir / f"rank_{rank:05d}.ctx", payload, header)
        self._on_chunk(len(payload))

    def stage_rank_frames(
        self,
        app_id: str,
        ckpt_id: int,
        rank: int,
        frames,
        *,
        position: float = 0.0,
        uncompressed_size: int | None = None,
        codec: str | None = None,
        delta_base: int | None = None,
    ) -> ContextHeader:
        """Stream one rank's payload ``frames`` into a staged context file.

        The streaming counterpart of :meth:`stage_rank_file` and the one
        way ranks reach the I/O level: the NDP drain and the host-mode push
        both feed it :func:`repro.ckpt.stream.rank_frames`.  ``frames`` is
        an iterable of byte chunks written as they arrive, so the store
        never holds a rank payload in one piece.  Each chunk
        passes through the :meth:`_on_chunk` hook — the throttled
        :class:`IOStore` charges bandwidth per chunk, which is what lets a
        producer overlap compression with the sleep of the previous
        chunk's write.  Returns the finalized header.
        """
        cdir = self._ckpt_dir(app_id, ckpt_id)
        cdir.mkdir(parents=True, exist_ok=True)
        return write_context_frames(
            cdir / f"rank_{rank:05d}.ctx",
            frames,
            app_id=app_id,
            rank=rank,
            ckpt_id=ckpt_id,
            position=position,
            uncompressed_size=uncompressed_size,
            codec=codec,
            delta_base=delta_base,
            on_chunk=self._on_chunk,
        )

    def commit_checkpoint(self, app_id: str, ckpt_id: int) -> None:
        """Atomically publish a fully-staged checkpoint."""
        with self._lock:
            manifest = self._read_manifest(app_id)
            if ckpt_id not in manifest["committed"]:
                manifest["committed"].append(ckpt_id)
                manifest["committed"].sort()
            self._publish(app_id, manifest)

    def read_checkpoint(
        self, app_id: str, ckpt_id: int, verify: bool = True
    ) -> dict[int, tuple[ContextHeader, bytes]]:
        """Load all rank files of a committed checkpoint, keyed by rank.

        Reads through :meth:`iter_rank_files`, so the files are read
        outside the store lock: a commit on this store never waits for
        the read (the NDP drain reads every checkpoint it ships this way).
        """
        return {
            header.rank: (header, payload)
            for header, payload in self.iter_rank_files(app_id, ckpt_id, verify)
        }

    def rank_files(self, app_id: str, ckpt_id: int) -> list[Path]:
        """Paths of a committed checkpoint's rank files, rank order.

        Raises :class:`FileNotFoundError` for uncommitted or file-less
        checkpoints.
        """
        with self._lock:
            if ckpt_id not in self.committed(app_id):
                raise FileNotFoundError(
                    f"checkpoint {ckpt_id} of {app_id!r} not committed on {self.level}"
                )
            paths = sorted(self._ckpt_dir(app_id, ckpt_id).glob("rank_*.ctx"))
            if not paths:
                raise FileNotFoundError(
                    f"checkpoint {ckpt_id} of {app_id!r} is committed but has "
                    f"no rank files on {self.level} (directory lost?)"
                )
            return paths

    def read_rank_file(
        self, app_id: str, ckpt_id: int, rank: int, verify: bool = True
    ) -> tuple[ContextHeader, bytes]:
        """Load a single rank file of a committed checkpoint.

        Restore uses this for a delta rank's base, so at most one rank's
        payload is resident while a checkpoint reconstructs.  Like
        :meth:`iter_rank_files`, it reads outside the store lock.
        """
        if ckpt_id not in self.committed(app_id):
            raise FileNotFoundError(
                f"checkpoint {ckpt_id} of {app_id!r} not committed on {self.level}"
            )
        path = self._ckpt_dir(app_id, ckpt_id) / f"rank_{rank:05d}.ctx"
        return read_context_file(path, verify=verify)

    def iter_rank_files(self, app_id: str, ckpt_id: int, verify: bool = True):
        """Yield ``(header, payload)`` per rank of a committed checkpoint.

        Validates the commit eagerly (:meth:`rank_files`' errors) but
        reads lazily, one file per step and outside the store lock, so a
        slow consumer never serializes concurrent store traffic and never
        holds more than one rank file.
        """
        paths = self.rank_files(app_id, ckpt_id)

        def _iter():
            for path in paths:
                yield read_context_file(path, verify=verify)

        return _iter()

    def committed(self, app_id: str) -> list[int]:
        """Committed checkpoint ids, ascending."""
        with self._lock:
            return list(self._read_manifest(app_id)["committed"])

    def latest(self, app_id: str) -> int | None:
        """Newest committed checkpoint id, or None."""
        ids = self.committed(app_id)
        return ids[-1] if ids else None

    def delete_checkpoint(self, app_id: str, ckpt_id: int) -> None:
        """Remove a checkpoint and uncommit it."""
        with self._lock:
            manifest = self._read_manifest(app_id)
            if ckpt_id in manifest["committed"]:
                manifest["committed"].remove(ckpt_id)
                self._write_manifest(app_id, manifest)
            shutil.rmtree(self._ckpt_dir(app_id, ckpt_id), ignore_errors=True)

    def wipe(self, app_id: str) -> None:
        """Destroy every checkpoint of an app (models NVM loss in tests)."""
        with self._lock:
            shutil.rmtree(self._app_dir(app_id), ignore_errors=True)

    def usage(self, app_id: str) -> int:
        """On-store bytes held by an app's committed checkpoints.

        Counts context-file payload+header bytes of committed checkpoints
        only (staged/uncommitted files are excluded), so capacity planning
        sees what retention actually retains.
        """
        with self._lock:
            total = 0
            for ckpt_id in self._read_manifest(app_id)["committed"]:
                cdir = self._ckpt_dir(app_id, ckpt_id)
                for path in cdir.glob("rank_*.ctx"):
                    try:
                        total += path.stat().st_size
                    except OSError:
                        continue
            return total

    # -- hooks ----------------------------------------------------------------

    def _on_chunk(self, nbytes: int) -> None:
        """Per-chunk write hook (bandwidth accounting/throttling lives here)."""

    def _evict(self, manifest: dict) -> list[int]:
        """Retention policy: drop victims from ``manifest``, return them."""
        return []

    def _publish(self, app_id: str, manifest: dict, changed: bool = True) -> None:
        """Apply retention to ``manifest`` and write it once, then delete
        the victims.  The manifest lands before any victim's directory
        goes, so it never lists a deleted checkpoint.  ``changed=False``
        skips the write when retention evicts nothing.
        """
        victims = self._evict(manifest)
        if changed or victims:
            self._write_manifest(app_id, manifest)
        self._post_commit(app_id, victims)

    def _post_commit(self, app_id: str, victims: list[int]) -> None:
        """Delete the directories of checkpoints the manifest dropped."""
        for victim in victims:
            shutil.rmtree(self._ckpt_dir(app_id, victim), ignore_errors=True)


class LocalStore(DirectoryStore):
    """Node-local NVM: FIFO circular buffer with NDP drain locks.

    Keeps the newest ``capacity`` checkpoints; older ones are evicted at
    commit time unless locked by the drain daemon, matching the paper's
    circular-buffer-with-locks organization.
    """

    level = "local"

    def __init__(self, root: Path | str, capacity: int = 4):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(root)
        self.capacity = capacity

    def lock(self, app_id: str, ckpt_id: int) -> None:
        """Prevent eviction while the NDP drains this checkpoint."""
        with self._lock:
            manifest = self._read_manifest(app_id)
            if ckpt_id not in manifest["committed"]:
                raise FileNotFoundError(f"cannot lock uncommitted checkpoint {ckpt_id}")
            if ckpt_id not in manifest["locked"]:
                manifest["locked"].append(ckpt_id)
                self._write_manifest(app_id, manifest)

    def unlock(self, app_id: str, ckpt_id: int) -> None:
        """Release a drain lock (the checkpoint becomes evictable)."""
        with self._lock:
            manifest = self._read_manifest(app_id)
            released = ckpt_id in manifest["locked"]
            if released:
                manifest["locked"].remove(ckpt_id)
            self._publish(app_id, manifest, changed=released)

    def locked(self, app_id: str) -> list[int]:
        """Currently drain-locked checkpoint ids."""
        with self._lock:
            return list(self._read_manifest(app_id)["locked"])

    def _evict(self, manifest: dict) -> list[int]:
        committed = manifest["committed"]
        locked = set(manifest["locked"])
        # Evict oldest unlocked first, but never the newest checkpoint —
        # it is the recovery point.  Locked slots defer eviction to the
        # unlock that releases them (the buffer runs over capacity until
        # then, mirroring the NDP drain-lock semantics of Section 4.2.2).
        newest = committed[-1] if committed else None
        evictable = [c for c in committed if c not in locked and c != newest]
        victims = evictable[: max(0, len(committed) - self.capacity)]
        for victim in victims:
            committed.remove(victim)
        return victims


class PartnerStore(DirectoryStore):
    """A partner node's local storage holding redundant copies."""

    level = "partner"

    def __init__(self, root: Path | str, capacity: int = 2):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__(root)
        self.capacity = capacity

    def _evict(self, manifest: dict) -> list[int]:
        committed = manifest["committed"]
        victims = committed[: max(0, len(committed) - self.capacity)]
        del committed[: len(victims)]
        return victims


class IOStore(DirectoryStore):
    """Global I/O (parallel file system), optionally bandwidth-throttled.

    ``throttle_bps`` caps the apparent write bandwidth by sleeping
    proportionally to bytes written — the examples use it to make the
    NDP-vs-host contrast observable at laptop scale.  ``None`` disables
    throttling (tests).
    """

    level = "io"

    def __init__(self, root: Path | str, throttle_bps: float | None = None):
        super().__init__(root)
        if throttle_bps is not None and throttle_bps <= 0:
            raise ValueError("throttle_bps must be positive or None")
        self.throttle_bps = throttle_bps
        self.bytes_written = 0

    def _on_chunk(self, nbytes: int) -> None:
        # Whole-file and per-frame writes share this accounting, so a
        # streaming producer pays the throttle one chunk at a time (and
        # can compress the next block during the sleep) instead of in one
        # checkpoint-sized stall at the end.
        self.bytes_written += nbytes
        if self.throttle_bps is not None:
            time.sleep(nbytes / self.throttle_bps)
