"""The multilevel checkpointer: the library's SCR-style front door.

:class:`MultilevelCheckpointer` orchestrates the full Section 4.2 data
path over real files:

* every :meth:`checkpoint` commits per-rank context files to the local
  store (pausing the NDP drain for the duration — the host gets all NVM
  bandwidth), optionally mirroring every ``partner_every``-th checkpoint
  to a partner store;
* in **ndp** mode the background :class:`~repro.ckpt.ndp_daemon.NDPDrainDaemon`
  compresses and pushes checkpoints to the I/O store off the critical
  path; in **host** mode every ``io_every``-th checkpoint is written to
  I/O synchronously, reproducing the conventional configuration the
  paper compares against.  Both modes write each rank as the same
  :func:`~repro.ckpt.stream.rank_frames` streamed into
  :meth:`~repro.ckpt.backends.DirectoryStore.stage_rank_frames`, so the
  I/O level holds one format whichever mode wrote it;
* :meth:`restart` runs the local -> partner -> I/O recovery protocol,
  pausing the drain while reading from I/O.

Usage::

    with MultilevelCheckpointer("myapp", local, io, mode="ndp",
                                codec=make_codec("gzip", 1)) as cr:
        for step in range(n):
            state = compute(...)
            cr.checkpoint({0: serialize(state)}, position=step)
    # after a crash:
    result = cr.restart()
"""

from __future__ import annotations

import threading

from ..compression.codecs import Codec
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .async_local import AsyncLocalWriter
from .backends import IOStore, LocalStore, PartnerStore
from .format import ContextHeader, make_header
from .metrics import RuntimeMetrics
from .ndp_daemon import NDPDrainDaemon
from .restart import RecoveryResult, recover
from .stream import DEFAULT_BLOCK_SIZE, rank_frames

__all__ = ["MultilevelCheckpointer"]

# Registry instruments shared by every checkpointer, labelled per call.
_CHECKPOINTS = obs_metrics.REGISTRY.counter(
    "cr_checkpoints_total", "coordinated checkpoints committed"
)
_RESTORES = obs_metrics.REGISTRY.counter(
    "cr_restores_total", "recoveries served, by storage level"
)
_BYTES = obs_metrics.REGISTRY.counter(
    "cr_bytes_total", "payload bytes written on the critical path, by level"
)


class MultilevelCheckpointer:
    """Multilevel C/R orchestrator (host or NDP mode).

    Parameters
    ----------
    app_id:
        Application identity used in store paths and metadata.
    local, io:
        Node-local and global-I/O stores.
    partner:
        Optional partner-node store.
    mode:
        ``"ndp"`` (background drain, the paper's proposal) or ``"host"``
        (synchronous I/O pushes, the conventional baseline).
    codec:
        Compression for the I/O level (both modes); local/partner copies
        are never compressed (Section 3.5: local bandwidth outruns any
        achievable compression rate).
    io_every:
        Host mode: push every ``io_every``-th checkpoint to I/O
        (the locally-saved : I/O-saved ratio).
    partner_every:
        Mirror every ``partner_every``-th checkpoint to the partner store
        (0 disables).
    block_size:
        Compression block size for the streamed format.
    delta_every:
        NDP mode only: store ``delta_every - 1`` of every ``delta_every``
        drains as XOR-deltas against the last full drain (0 disables; see
        :class:`~repro.ckpt.ndp_daemon.NDPDrainDaemon`).
    local_async:
        Commit local checkpoints on a background writer thread
        (double-buffered, one in flight): :meth:`checkpoint` returns as
        soon as the payloads are staged, hiding ``delta_L`` too.  A crash
        before the background commit lands falls back to the previous
        checkpoint — the same guarantee a crash mid-blocking-write gives.
        Requires ndp mode.
    """

    def __init__(
        self,
        app_id: str,
        local: LocalStore,
        io: IOStore,
        partner: PartnerStore | None = None,
        mode: str = "ndp",
        codec: Codec | None = None,
        io_every: int = 1,
        partner_every: int = 1,
        block_size: int = DEFAULT_BLOCK_SIZE,
        delta_every: int = 0,
        local_async: bool = False,
    ):
        if mode not in ("ndp", "host"):
            raise ValueError(f"mode must be 'ndp' or 'host': {mode!r}")
        if io_every < 1:
            raise ValueError("io_every must be >= 1")
        if partner_every < 0:
            raise ValueError("partner_every must be >= 0")
        if delta_every and mode != "ndp":
            raise ValueError("delta_every requires ndp mode (the drain daemon)")
        if local_async and mode != "ndp":
            raise ValueError("local_async requires ndp mode")
        self.app_id = app_id
        self.local = local
        self.io = io
        self.partner = partner
        self.mode = mode
        self.codec = codec
        self.io_every = io_every
        self.partner_every = partner_every
        self.block_size = block_size
        self.metrics = RuntimeMetrics()
        obs_metrics.register_runtime_metrics(self.metrics, app=app_id, mode=mode)
        self._lock = threading.Lock()
        self._next_id = self._initial_id()
        self.daemon: NDPDrainDaemon | None = None
        self._async_writer: AsyncLocalWriter | None = None
        if mode == "ndp":
            self.daemon = NDPDrainDaemon(
                app_id,
                local,
                io,
                codec=codec,
                block_size=block_size,
                delta_every=delta_every,
            )
            if local_async:
                self._async_writer = AsyncLocalWriter(
                    app_id,
                    local,
                    pre_commit=self.daemon.pause,
                    post_commit=self.daemon.resume,
                )

    def _initial_id(self) -> int:
        """Resume numbering after the newest checkpoint on any level."""
        ids = [self.local.latest(self.app_id), self.io.latest(self.app_id)]
        if self.partner is not None:
            ids.append(self.partner.latest(self.app_id))
        known = [i for i in ids if i is not None]
        return (max(known) + 1) if known else 1

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "MultilevelCheckpointer":
        """Start the NDP drain daemon (no-op in host mode)."""
        if self.daemon is not None:
            self.daemon.start()
        return self

    def close(self, flush: bool = True, timeout: float = 60.0) -> None:
        """Stop the daemon, optionally waiting for pending drains."""
        if self._async_writer is not None:
            self._async_writer.drain(timeout)
        if self.daemon is not None:
            if flush:
                self.daemon.wait_idle(timeout)
            self.daemon.stop()

    def __enter__(self) -> "MultilevelCheckpointer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self, payloads: dict[int, bytes], position: float = 0.0) -> int:
        """Commit one coordinated checkpoint; returns its id.

        ``payloads`` maps rank -> serialized state.  The call blocks for
        exactly what the host pays in each mode: the local (and partner)
        writes always; the compressed I/O push only in host mode on
        ``io_every`` boundaries.
        """
        if not payloads:
            raise ValueError("need at least one rank payload")
        with self._lock:
            ckpt_id = self._next_id
            self._next_id += 1

        files = {
            rank: (self._header(rank, ckpt_id, data, position), data)
            for rank, data in payloads.items()
        }
        nbytes = sum(len(d) for d in payloads.values())
        with obs_trace.span(
            "ckpt",
            "commit",
            label=f"ckpt-{ckpt_id}",
            ckpt=ckpt_id,
            ranks=len(files),
            bytes=nbytes,
            mode=self.mode,
        ):
            if self._async_writer is not None:
                # Background commit: stage and return.  The writer pauses the
                # drain around the actual NVM write itself.
                with self.metrics.timed("local"):
                    self._async_writer.submit(ckpt_id, files)
            else:
                if self.daemon is not None:
                    self.daemon.pause()  # host takes all NVM bandwidth
                try:
                    with self.metrics.timed("local"):
                        self.local.write_checkpoint(self.app_id, ckpt_id, files)
                finally:
                    if self.daemon is not None:
                        self.daemon.resume()
            self.metrics.checkpoints += 1
            self.metrics.bytes_local += nbytes
            _CHECKPOINTS.inc(app=self.app_id, mode=self.mode)
            _BYTES.inc(nbytes, app=self.app_id, level="local")

            if (
                self.partner is not None
                and self.partner_every > 0
                and ckpt_id % self.partner_every == 0
            ):
                with obs_trace.span("ckpt", "partner-push", ckpt=ckpt_id), self.metrics.timed(
                    "partner"
                ):
                    self.partner.write_checkpoint(self.app_id, ckpt_id, files)
                self.metrics.bytes_partner += nbytes
                _BYTES.inc(nbytes, app=self.app_id, level="partner")

            if self.mode == "host" and ckpt_id % self.io_every == 0:
                with obs_trace.span("ckpt", "io-push", ckpt=ckpt_id), self.metrics.timed("io"):
                    self._host_push_io(ckpt_id, payloads, position)
                self.metrics.bytes_io_host += nbytes
                _BYTES.inc(nbytes, app=self.app_id, level="io_host")
        return ckpt_id

    def _host_push_io(
        self, ckpt_id: int, payloads: dict[int, bytes], position: float
    ) -> None:
        """Synchronous (blocking) compressed push to the I/O store."""
        codec_name = self.codec.name if self.codec is not None else None
        for rank, data in sorted(payloads.items()):
            self.io.stage_rank_frames(
                self.app_id,
                ckpt_id,
                rank,
                rank_frames(data, self.codec, self.block_size),
                position=position,
                uncompressed_size=len(data),
                codec=codec_name,
            )
        self.io.commit_checkpoint(self.app_id, ckpt_id)

    def _header(
        self, rank: int, ckpt_id: int, data: bytes, position: float
    ) -> ContextHeader:
        return make_header(
            app_id=self.app_id,
            rank=rank,
            ckpt_id=ckpt_id,
            payload=data,
            position=position,
        )

    # -- restart -------------------------------------------------------------------

    def restart(self) -> RecoveryResult:
        """Recover the newest usable checkpoint (local -> partner -> I/O).

        Pauses the drain daemon while recovery may be reading from the I/O
        store (Section 4.2.3), then resumes it.
        """
        stores = [self.local]
        if self.partner is not None:
            stores.append(self.partner)
        stores.append(self.io)
        if self._async_writer is not None:
            self._async_writer.drain()  # recovery must not race a commit
        if self.daemon is not None:
            self.daemon.pause()
        try:
            with obs_trace.span("restore", "restart", app=self.app_id) as sp:
                with self.metrics.timed("restore"):
                    result = recover(self.app_id, stores)
                sp.set(ckpt=result.ckpt_id, level=result.level)
            self.metrics.restores += 1
            _RESTORES.inc(app=self.app_id, level=result.level)
            return result
        finally:
            if self.daemon is not None:
                self.daemon.resume()

    # -- introspection ---------------------------------------------------------------

    def flush_to_io(self, timeout: float = 60.0) -> bool:
        """Wait until the drain daemon has nothing left to push."""
        if self._async_writer is not None and not self._async_writer.drain(timeout):
            return False
        if self.daemon is None:
            return True
        return self.daemon.wait_idle(timeout)
