"""Recovery protocol: local -> partner -> global I/O (Section 4.2.3).

Given the prioritized list of stores, :func:`recover` determines the
rollback point (the newest checkpoint committed *anywhere*), then fetches
it from the fastest level that holds it, verifying integrity and
decompressing drained checkpoints with parallel host-side block decoding
(Section 4.3).  Rank files are read one at a time
(:meth:`DirectoryStore.iter_rank_files`), so restore memory is bounded by
one rank's state, not the whole checkpoint.  Delta-drained checkpoints
(the NDP daemon's ``delta_every`` mode) are reconstructed rank-by-rank
from their full base checkpoint on the same store.  If the designated
checkpoint is unreadable (corrupt file, CRC mismatch, missing delta base)
recovery walks back to the next-newest id rather than failing — a failed
restore must never strand the application.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..compression.codecs import codec_from_name
from ..compression.delta import apply_xor_delta, zero_rle_decode
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .backends import DirectoryStore
from .format import ContextHeader, CorruptCheckpointError
from .stream import parallel_decompress

_RECOVERIES = obs_metrics.REGISTRY.counter(
    "restore_recoveries_total", "successful recover() calls, by serving level"
)
_WALKBACKS = obs_metrics.REGISTRY.counter(
    "restore_walkbacks_total", "designated checkpoints rejected during recovery"
)

__all__ = ["RecoveryResult", "recover", "NoCheckpointError"]

#: Threads decoding one rank's blocks (:func:`~repro.ckpt.stream.parallel_decompress`).
DECOMPRESS_WORKERS = 4


class NoCheckpointError(RuntimeError):
    """No usable checkpoint exists on any storage level."""


@dataclass(frozen=True)
class RecoveryResult:
    """A successful recovery.

    Attributes
    ----------
    ckpt_id:
        The checkpoint recovered.
    level:
        Storage level that served it (``"local"``, ``"partner"``, ``"io"``).
    payloads:
        Per-rank application state, decompressed (and delta-reconstructed).
    positions:
        Per-rank progress markers from the context headers.
    """

    ckpt_id: int
    level: str
    payloads: dict[int, bytes]
    positions: dict[int, float]


def recover(app_id: str, stores: list[DirectoryStore]) -> RecoveryResult:
    """Restore the newest usable checkpoint, preferring earlier stores.

    ``stores`` is ordered fastest-first (local, partner, I/O).  The
    rollback point is the newest id committed on any store; each store
    holding that id is tried in priority order; on corruption the next
    older id is designated, until no candidates remain.  Every rank file
    (and delta base) is CRC-verified as it is read.
    """
    if not stores:
        raise ValueError("need at least one store")
    candidates: set[int] = set()
    for store in stores:
        candidates.update(store.committed(app_id))
    if not candidates:
        raise NoCheckpointError(f"no committed checkpoints for {app_id!r} on any level")

    with obs_trace.span("restore", "recover", app=app_id) as sp:
        for ckpt_id in sorted(candidates, reverse=True):
            for store in stores:
                if ckpt_id not in store.committed(app_id):
                    continue
                try:
                    files = store.iter_rank_files(app_id, ckpt_id)
                    payloads, positions = _unpack(files, store, app_id)
                except (CorruptCheckpointError, FileNotFoundError, OSError, ValueError, KeyError):
                    _WALKBACKS.inc(app=app_id)
                    continue
                sp.set(
                    ckpt=ckpt_id,
                    level=store.level,
                    ranks=len(payloads),
                    bytes=sum(len(p) for p in payloads.values()),
                )
                _RECOVERIES.inc(app=app_id, level=store.level)
                return RecoveryResult(
                    ckpt_id=ckpt_id,
                    level=store.level,
                    payloads=payloads,
                    positions=positions,
                )
        sp.set(failed=True)
    raise NoCheckpointError(
        f"all committed checkpoints of {app_id!r} failed verification"
    )


def _decode(header: ContextHeader, payload: bytes) -> bytes:
    """Undo the codec layer of one rank file (not the delta layer)."""
    if header.codec is None:
        return payload
    codec = codec_from_name(header.codec)
    return parallel_decompress(payload, codec, workers=DECOMPRESS_WORKERS)


def _unpack(
    files, store: DirectoryStore, app_id: str
) -> tuple[dict[int, bytes], dict[int, float]]:
    """Decompress and delta-reconstruct payloads/positions per rank.

    ``files`` yields ``(header, payload)`` pairs lazily (one rank file
    resident at a time); a delta rank pulls only its *own* rank's base
    file, so peak memory during reconstruction is one rank's compressed
    payload, its base, and the decoded state — never a whole checkpoint
    of extra copies.
    """
    payloads: dict[int, bytes] = {}
    positions: dict[int, float] = {}
    for header, payload in files:
        rank = header.rank
        body = _decode(header, payload)
        if header.delta_base is not None:
            base_header, base_payload = store.read_rank_file(app_id, header.delta_base, rank)
            if base_header.delta_base is not None:
                raise ValueError(
                    f"delta base {header.delta_base} is itself a delta "
                    "(chained deltas are not produced by the daemon)"
                )
            base = _decode(base_header, base_payload)
            body = apply_xor_delta(base, zero_rle_decode(body))
        if len(body) != header.uncompressed_size:
            raise ValueError(
                f"rank {rank}: reconstructed {len(body)} bytes, "
                f"expected {header.uncompressed_size}"
            )
        payloads[rank] = body
        positions[rank] = header.position
    return payloads, positions
