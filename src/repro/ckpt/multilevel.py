"""The multilevel checkpointer: the library's SCR-style front door.

:class:`MultilevelCheckpointer` orchestrates the full Section 4.2 data
path over real files:

* every :meth:`checkpoint` commits per-rank context files to the local
  store and blocks until they land (the paper's ``delta_L``), pausing the
  NDP drain for the duration — the host gets all NVM bandwidth —
  optionally mirroring every ``partner_every``-th checkpoint to a partner
  store;
* the I/O level is written as ``mode``'s entry in
  :data:`~repro.core.strategy.TABLE` says: drained off the critical path
  by the background :class:`~repro.ckpt.ndp_daemon.NDPDrainDaemon`, or
  pushed synchronously every ``io_every``-th checkpoint.  Both write
  each rank as the same
  :func:`~repro.ckpt.stream.rank_frames` streamed into
  :meth:`~repro.ckpt.backends.DirectoryStore.stage_rank_frames`, so the
  I/O level holds one format whichever mode wrote it;
* :meth:`restart` runs the local -> partner -> I/O recovery protocol,
  pausing the drain while reading from I/O;
* :meth:`close` flushes the drain and stops it, returning whether the
  flush finished.

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
from ..core.strategy import TABLE
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .backends import IOStore, LocalStore, PartnerStore
from .format import ContextHeader, make_header
from .metrics import RuntimeMetrics
from .ndp_daemon import NDPDrainDaemon
from .restart import RecoveryResult, recover
from .stream import DEFAULT_BLOCK_SIZE, rank_frames

__all__ = ["MultilevelCheckpointer"]


class MultilevelCheckpointer:
    """Multilevel C/R orchestrator (a strategy with both levels).

    Parameters
    ----------
    app_id:
        Application identity used in store paths and metadata.
    local, io:
        Node-local and global-I/O stores.
    partner:
        Optional partner-node store.
    mode:
        The name of a two-level entry of :data:`~repro.core.strategy.TABLE`.
    codec:
        Compression for the I/O level (every mode); local/partner copies
        are never compressed (Section 3.5: local bandwidth outruns any
        achievable compression rate).
    io_every:
        Under ``host_push``: push every ``io_every``-th checkpoint to I/O
        (the locally-saved : I/O-saved ratio).
    partner_every:
        Mirror every ``partner_every``-th checkpoint to the partner store
        (0 disables).
    block_size:
        Compression block size for the streamed format.
    delta_every:
        Modes that drain only: store ``delta_every - 1`` of every ``delta_every``
        drains as XOR-deltas against the last full drain (0 disables; see
        :class:`~repro.ckpt.ndp_daemon.NDPDrainDaemon`).
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
    ):
        spec = TABLE.get(mode)
        if spec is None or not (spec.local and spec.has_io):
            modes = [n for n, s in TABLE.items() if s.local and s.has_io]
            raise ValueError(f"mode must be one of {modes}: {mode!r}")
        if io_every < 1:
            raise ValueError("io_every must be >= 1")
        if partner_every < 0:
            raise ValueError("partner_every must be >= 0")
        if delta_every and not spec.drains:
            drainers = [n for n, s in TABLE.items() if s.drains]
            raise ValueError(f"delta_every needs a mode that drains {drainers}: {mode!r}")
        self.app_id = app_id
        self.local = local
        self.io = io
        self.partner = partner
        self.mode = mode
        self.spec = spec
        self.codec = codec
        self.io_every = io_every
        self.partner_every = partner_every
        self.block_size = block_size
        self.metrics = RuntimeMetrics()
        obs_metrics.register_runtime_metrics(self.metrics, app=app_id, mode=mode)
        self._lock = threading.Lock()
        self._next_id = self._initial_id()
        self.daemon: NDPDrainDaemon | None = None
        if spec.drains:
            self.daemon = NDPDrainDaemon(
                app_id,
                local,
                io,
                codec=codec,
                block_size=block_size,
                delta_every=delta_every,
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
        """Start the NDP drain daemon (no-op unless the mode drains)."""
        if self.daemon is not None:
            self.daemon.start()
        return self

    def close(self, flush: bool = True, timeout: float = 60.0) -> bool:
        """Stop the daemon, with ``flush`` first waiting up to ``timeout``
        for pending drains (:meth:`flush_to_io`).

        Returns False when a requested flush did not finish, else True.
        """
        flushed = not flush or self.flush_to_io(timeout)
        if self.daemon is not None:
            self.daemon.stop()
        return flushed

    def __enter__(self) -> "MultilevelCheckpointer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpoint ---------------------------------------------------------------

    def checkpoint(self, payloads: dict[int, bytes], position: float = 0.0) -> int:
        """Commit one coordinated checkpoint; returns its id.

        ``payloads`` maps rank -> serialized state.  The call blocks for
        exactly what the host pays: the local (and partner) writes always;
        the compressed I/O push under ``host_push`` on ``io_every`` boundaries.
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

            if self.spec.host_push and ckpt_id % self.io_every == 0:
                with obs_trace.span("ckpt", "io-push", ckpt=ckpt_id), self.metrics.timed("io"):
                    self._host_push_io(ckpt_id, payloads, position)
                self.metrics.bytes_io_host += nbytes
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
        if self.daemon is not None:
            self.daemon.pause()
        try:
            with obs_trace.span("restore", "restart", app=self.app_id) as sp:
                with self.metrics.timed("restore"):
                    result = recover(self.app_id, stores)
                sp.set(ckpt=result.ckpt_id, level=result.level)
            self.metrics.restores += 1
            return result
        finally:
            if self.daemon is not None:
                self.daemon.resume()

    # -- introspection ---------------------------------------------------------------

    def flush_to_io(self, timeout: float = 60.0) -> bool:
        """Wait until the drain daemon has nothing left to push."""
        if self.daemon is None:
            return True
        return self.daemon.wait_idle(timeout)
