"""The NDP drain daemon: background checkpoint-to-I/O offload.

This thread plays the role of the NDP processor in Figure 2: it watches
the node-local store for newly committed checkpoints, locks the newest
undrained one, compresses it block-by-block, and ships it to the global
I/O store — all without involving the "host" (the caller's thread).
Faithful to Section 4.2:

* always drains the *newest* eligible checkpoint (older undrained ones are
  skipped — draining them would only lengthen I/O-recovery rerun),
* locks the checkpoint in the local circular buffer for the duration and
  unlocks (making it evictable) on completion,
* compression overlaps the I/O write block-by-block: the daemon thread
  feeds compressed frames (:func:`repro.ckpt.stream.rank_frames`, the
  same frames the host-mode push writes) through a bounded queue to a
  single writer thread, kept for the daemon's lifetime, streaming them
  into the (possibly throttled) I/O store, so at most ``queue_depth``
  blocks are in flight and a rank's compressed payload is never
  materialized whole (Section 4.2.2's small-DMA pipeline),
* :meth:`pause` / :meth:`resume` let the host claim full NVM bandwidth
  during its local checkpoint writes, and recovery code pauses the drain
  while it reads from global I/O (Section 4.2.3).

Per-stage byte/second counters (:class:`repro.ckpt.metrics.StageCounter`)
on :class:`DrainStats` expose the achieved compress and write rates, the
two terms of the paper's drain-rate bound
``min(io_bw / (1 - factor), compress_rate)``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

from ..compression.codecs import Codec
from ..compression.delta import xor_delta, zero_rle
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .backends import IOStore, LocalStore
from .format import CorruptCheckpointError
from .metrics import StageCounter
from .stream import DEFAULT_BLOCK_SIZE, rank_frames

__all__ = ["NDPDrainDaemon", "DrainStats"]

#: Idle poll period, seconds, of the drain loop and of ``wait_idle``.
POLL_INTERVAL = 0.005

#: Queued in place of a frame when the compressor fails mid-rank: the
#: writer raises instead of finalizing the rank file.
_ABORT = object()


@dataclass
class DrainStats:
    """The daemon's counts: each drain event is counted here once.

    ``/metrics`` reads these fields when scraped
    (:func:`repro.obs.metrics.register_drain_stats`); nothing else
    counts the same events.
    """

    checkpoints_skipped: int = 0
    delta_drains: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: Backpressure accounting: how many frames blocked on a full writer
    #: queue, and the total seconds the compressor spent blocked.  A
    #: nonzero value means the drain is I/O-bound — the paper's regime
    #: where only overlap (not kernel speed) helps.
    stalls: int = 0
    stall_seconds: float = 0.0
    drained_ids: list[int] = field(default_factory=list)
    #: Time spent producing frames (daemon thread), charged with the
    #: *compressed* frame bytes — so ``compress.rate`` is
    #: ``(1 - factor)`` x the model's ``compress_rate``, which is
    #: ``bytes_in / compress.seconds``.
    compress: StageCounter = field(default_factory=StageCounter)
    #: Time/bytes spent writing frames to the I/O store (writer thread);
    #: the writer's waits on the compressor are not counted.
    write: StageCounter = field(default_factory=StageCounter)
    #: Whole-checkpoint drain wall time, charged with *uncompressed*
    #: bytes — ``drain.bytes / drain.seconds`` is the measured end-to-end
    #: drain rate, directly comparable to the model's
    #: ``min(io_bw / (1 - factor), compress_rate)`` bound.
    drain: StageCounter = field(default_factory=StageCounter)

    @property
    def checkpoints_drained(self) -> int:
        """Checkpoints committed to the I/O level."""
        return len(self.drained_ids)

    @property
    def achieved_factor(self) -> float:
        """Aggregate compression factor over everything drained."""
        if self.bytes_in == 0:
            return 0.0
        return 1.0 - self.bytes_out / self.bytes_in


class NDPDrainDaemon:
    """Background drainer from a :class:`LocalStore` to an :class:`IOStore`.

    Parameters
    ----------
    app_id:
        Application whose checkpoints are drained.
    local, io:
        Source and destination stores.
    codec:
        Optional compression codec; ``None`` drains uncompressed.
    block_size:
        Compression block size (Section 4.2.2's small-DMA blocks).
    delta_every:
        The paper's future-work optimization: 0 disables (every drain is a
        full checkpoint); ``k > 0`` stores ``k-1`` drains out of every
        ``k`` as zero-RLE'd XOR *deltas* against the most recent full
        drain, shrinking I/O traffic for slowly-evolving state.  Recovery
        reconstructs delta checkpoints from their base
        (:mod:`repro.ckpt.restart`).
    queue_depth:
        Frames in flight between the compressor and the writer thread —
        the backpressure bound: compression of block ``b+1`` overlaps the
        write (and throttle sleep) of block ``b``, and peak buffering is
        ``queue_depth`` blocks.
    """

    def __init__(
        self,
        app_id: str,
        local: LocalStore,
        io: IOStore,
        codec: Codec | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        delta_every: int = 0,
        queue_depth: int = 8,
    ):
        if delta_every < 0:
            raise ValueError("delta_every must be >= 0")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.app_id = app_id
        self.local = local
        self.io = io
        self.codec = codec
        self.block_size = block_size
        self.delta_every = delta_every
        self.queue_depth = queue_depth
        self.stats = DrainStats()
        #: The frame queue of the rank being compressed (``None`` between
        #: drains), read by ``ndp_queue_depth`` at scrape time.
        self._fifo: queue.Queue | None = None
        obs_metrics.register_drain_stats(
            self.stats, queue_depth=self._queue_depth, app=app_id
        )
        # Delta state: the most recent *full* drained checkpoint.
        self._base_id: int | None = None
        self._base_payloads: dict[int, bytes] = {}
        self._since_full = 0

        self._stop = threading.Event()
        self._running = threading.Event()  # set => not paused
        self._running.set()
        self._idle = threading.Event()
        self._idle.set()
        self._high_water = -1
        self._thread: threading.Thread | None = None
        self._writer: ThreadPoolExecutor | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "NDPDrainDaemon":
        """Start the drain thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(target=self._loop, name="ndp-drain", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the daemon, waiting for the current drain to finish, and
        end its writer thread."""
        self._stop.set()
        self._running.set()  # unblock a paused loop so it can exit
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("NDP drain daemon failed to stop in time")
            self._thread = None
        if self._writer is not None:
            self._writer.shutdown(wait=True)
            self._writer = None

    def __enter__(self) -> "NDPDrainDaemon":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- host-facing controls ----------------------------------------------------

    def pause(self) -> None:
        """Suspend draining (host NVM write or I/O recovery in progress)."""
        self._running.clear()

    def resume(self) -> None:
        """Resume draining after :meth:`pause`."""
        self._running.set()

    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until no drain is in progress and nothing is eligible.

        Returns False on timeout, and at once when a checkpoint is
        eligible but the drain thread is not running (never started,
        stopped or dead), since nothing would ever drain it.  Useful in
        tests and at application shutdown ("flush the last checkpoint to
        I/O").
        """
        end = time.monotonic() + timeout
        while not (self._idle.is_set() and self._candidate() is None):
            thread = self._thread
            if thread is None or not thread.is_alive() or time.monotonic() >= end:
                return False
            time.sleep(POLL_INTERVAL)
        return True

    # -- internals ---------------------------------------------------------------

    def _candidate(self) -> int | None:
        """Newest local checkpoint not yet drained/skipped or on I/O."""
        latest = self.local.latest(self.app_id)
        if latest is None or latest <= self._high_water:
            return None
        on_io = set(self.io.committed(self.app_id))
        if latest in on_io:
            return None
        return latest

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._running.wait()
            if self._stop.is_set():
                return
            ckpt_id = self._candidate()
            if ckpt_id is None:
                self._stop.wait(POLL_INTERVAL)
                continue
            self._idle.clear()
            try:
                self._drain_one(ckpt_id)
            finally:
                self._idle.set()

    def _drain_one(self, ckpt_id: int) -> None:
        """Lock, compress (overlapped with writing), commit, unlock."""
        try:
            self.local.lock(self.app_id, ckpt_id)
        except FileNotFoundError:
            # Evicted between candidate selection and lock: skip it.
            self._note_skip(ckpt_id)
            return
        try:
            files = self.local.read_checkpoint(self.app_id, ckpt_id)
        except (FileNotFoundError, CorruptCheckpointError, OSError):
            # Evicted, corrupted on NVM, or unreadable: draining it would
            # propagate bad data to the I/O level — skip it and move on.
            self.local.unlock(self.app_id, ckpt_id)
            self._note_skip(ckpt_id)
            return
        use_delta = self._delta_eligible(files)
        payload_bytes = sum(len(p) for _, p in files.values())
        try:
            with obs_trace.span(
                "drain",
                "drain-ckpt",
                label=f"ckpt-{ckpt_id}",
                ckpt=ckpt_id,
                ranks=len(files),
                bytes=payload_bytes,
                delta=use_delta,
            ), self.stats.drain.timed(payload_bytes):
                try:
                    self._push(ckpt_id, files, use_delta)
                except Exception:
                    # A codec or store failure mid-push, before anything
                    # is committed: drop the ranks already staged and
                    # skip the checkpoint, like an unreadable one.
                    self.io.delete_checkpoint(self.app_id, ckpt_id)
                    self._note_skip(ckpt_id)
                    return
                self.io.commit_checkpoint(self.app_id, ckpt_id)
            self.stats.drained_ids.append(ckpt_id)
            self._high_water = max(self._high_water, ckpt_id)
            if use_delta:
                self.stats.delta_drains += 1
                self._since_full += 1
            elif self.delta_every > 0:
                self._base_id = ckpt_id
                self._base_payloads = {r: p for r, (_, p) in files.items()}
                self._since_full = 0
        finally:
            self.local.unlock(self.app_id, ckpt_id)

    def _rank_body(self, rank: int, payload: bytes, use_delta: bool):
        """The bytes actually drained for one rank: payload or its delta."""
        if use_delta:
            return zero_rle(xor_delta(self._base_payloads[rank], payload, strict=True))
        return payload

    def _push(self, ckpt_id: int, files: dict, use_delta: bool) -> None:
        """Frame-at-a-time drain: bounded queue into a single writer thread.

        The daemon thread compresses blocks and feeds wire frames into a
        ``queue_depth``-bounded queue; the writer thread streams the
        queue into the store via :meth:`DirectoryStore.stage_rank_frames`.
        The queue bound is the backpressure: when the (throttled) store
        falls behind, ``put`` blocks and compression stalls rather than
        buffering the checkpoint.  The compressor may run one rank ahead
        of the writer, still bounded by that rank's queue.

        The writer thread is the daemon's, made on first use and ended by
        :meth:`stop`, so draining starts no thread per checkpoint.  On
        any failure every rank write submitted here has finished before
        this returns, so the caller may delete the staged ranks.
        """
        delta_base = self._base_id if use_delta else None
        codec_name = self.codec.name if self.codec is not None else None
        if self._writer is None:
            self._writer = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ndp-write")
        submitted: list[Future] = []
        try:
            for rank, (header, payload) in sorted(files.items()):
                self._running.wait()
                body = self._rank_body(rank, payload, use_delta)
                frames = rank_frames(body, self.codec, self.block_size)
                fifo: queue.Queue = queue.Queue(maxsize=self.queue_depth)
                self._fifo = fifo
                fut = self._writer.submit(
                    self._write_rank,
                    ckpt_id,
                    rank,
                    fifo,
                    header.position,
                    header.uncompressed_size,
                    codec_name,
                    delta_base,
                )
                submitted.append(fut)
                out_bytes = 0
                t0 = time.perf_counter()
                try:
                    for frame in frames:
                        self.stats.compress.add(len(frame), time.perf_counter() - t0)
                        out_bytes += len(frame)
                        self._feed(fifo, fut, bytes(frame))
                        t0 = time.perf_counter()
                except BaseException:
                    # The writer blocks on the queue until told the rank
                    # is over; leaving without the abort mark would hang
                    # the wait below (and the writer thread) forever.
                    self._abort(fifo, fut)
                    raise
                fifo.put(None)
                if len(submitted) > 1:
                    submitted[-2].result()
                self.stats.bytes_in += len(payload)
                self.stats.bytes_out += out_bytes
            if submitted:
                submitted[-1].result()
        finally:
            self._fifo = None
            wait(submitted)

    def _queue_depth(self) -> int:
        """Frames queued for the writer now; 0 when no drain is running."""
        fifo = self._fifo
        return fifo.qsize() if fifo is not None else 0

    def _feed(self, fifo: queue.Queue, fut: Future, frame: bytes) -> None:
        """Put a frame with backpressure, bailing out if the writer died.

        A full queue means the (throttled) store has fallen behind: the
        stall is counted and its duration charged to
        ``stats.stall_seconds`` — the live signal that the drain is
        I/O-bound rather than compute-bound.
        """
        t0 = time.perf_counter()
        stalled = False
        while True:
            try:
                fifo.put(frame, timeout=0.1)
                break
            except queue.Full:
                if not stalled:
                    stalled = True
                    self.stats.stalls += 1
                if fut.done():
                    fut.result()  # surfaces the writer's exception
                    raise RuntimeError("writer finished while frames remained")
        if stalled:
            self.stats.stall_seconds += time.perf_counter() - t0

    def _abort(self, fifo: queue.Queue, fut: Future) -> None:
        """Queue the abort mark for a rank's writer, unless it already died."""
        while not fut.done():
            try:
                fifo.put(_ABORT, timeout=0.1)
                return
            except queue.Full:
                continue

    def _write_rank(
        self,
        ckpt_id: int,
        rank: int,
        fifo: queue.Queue,
        position: float,
        uncompressed_size: int,
        codec_name: str | None,
        delta_base: int | None,
    ):
        """Writer-thread body: drain the frame queue into the I/O store."""
        waited = [0.0]
        t0 = time.perf_counter()
        out_header = self.io.stage_rank_frames(
            self.app_id,
            ckpt_id,
            rank,
            _queued_frames(fifo, waited),
            position=position,
            uncompressed_size=uncompressed_size,
            codec=codec_name,
            delta_base=delta_base,
        )
        self.stats.write.add(
            out_header.payload_size, time.perf_counter() - t0 - waited[0]
        )
        return out_header

    def _delta_eligible(self, files: dict) -> bool:
        """Whether this drain may be stored as a delta against the base."""
        if self.delta_every <= 0 or self._base_id is None:
            return False
        if self._since_full >= self.delta_every - 1:
            return False  # due for a full checkpoint
        # Every rank needs a base of matching size — a resized rank state
        # forces a full drain (strict xor_delta would reject it anyway).
        if set(files) != set(self._base_payloads):
            return False
        return all(
            len(payload) == len(self._base_payloads[rank])
            for rank, (_, payload) in files.items()
        )

    def _note_skip(self, ckpt_id: int) -> None:
        self.stats.checkpoints_skipped += 1
        self._high_water = max(self._high_water, ckpt_id)


def _queued_frames(fifo: queue.Queue, waited: list[float]):
    """The frames fed to ``fifo`` up to its ``None`` end mark; the abort
    mark raises, so the store discards the partial rank file.  Adds the
    seconds blocked on ``fifo`` (waiting on the compressor) to ``waited``."""
    while True:
        t0 = time.perf_counter()
        frame = fifo.get()
        waited[0] += time.perf_counter() - t0
        if frame is None:
            return
        if frame is _ABORT:
            raise RuntimeError("compressor failed mid-rank; rank write aborted")
        yield frame
