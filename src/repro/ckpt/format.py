"""Checkpoint context-file format (the BLCR stand-in).

BLCR writes one *process context file* per MPI rank plus metadata
identifying the application, the rank, and a unique checkpoint id
(Section 4.2.1).  This module defines the equivalent on-disk format:

``[magic][version][header-length][header JSON][payload]``

The JSON header carries the metadata and integrity information (CRC32 of
the payload, sizes, codec name if the payload is compressed).  Payload
bytes are the application state (for the proxy apps, a serialized state
dict).  Headers are JSON so context files remain debuggable with a hex
editor and ``jq``.

Files are written whole (:func:`write_context_file`, the local and
partner commits) or streamed frame by frame (:func:`write_context_frames`,
every I/O-level write); both read back through :func:`read_context_file`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = [
    "ContextHeader",
    "write_context_file",
    "write_context_frames",
    "read_context_file",
    "make_header",
    "CorruptCheckpointError",
]

_MAGIC = b"RPCR"
_VERSION = 1


class CorruptCheckpointError(ValueError):
    """A context file failed integrity verification."""


@dataclass(frozen=True)
class ContextHeader:
    """Metadata stored with every context file.

    Attributes
    ----------
    app_id:
        Application identity (BLCR's parent-process analog).
    rank:
        MPI rank this context file belongs to.
    ckpt_id:
        Monotone checkpoint number, unique per application.
    position:
        Application-defined progress marker (e.g. step count).
    payload_crc:
        CRC32 of the stored payload bytes.
    payload_size:
        Stored payload size in bytes.
    uncompressed_size:
        Original state size (== ``payload_size`` when ``codec`` is None).
    codec:
        Name of the codec applied to the payload, or None.
    delta_base:
        When set, the payload is a delta (zero-RLE'd XOR) against the
        *full* checkpoint with this id; reconstruction needs that base.
        None for full checkpoints.
    """

    app_id: str
    rank: int
    ckpt_id: int
    position: float
    payload_crc: int
    payload_size: int
    uncompressed_size: int
    codec: str | None = None
    delta_base: int | None = None


def write_context_file(path: Path | str, payload: bytes, header: ContextHeader) -> int:
    """Atomically write a context file; returns bytes written.

    Write-to-temp-then-rename so a crash mid-write never leaves a file
    that parses (incomplete checkpoints must look absent, Section 4.2.1's
    'pause until consistent' requirement).
    """
    path = Path(path)
    if header.payload_size != len(payload):
        raise ValueError(
            f"header payload_size {header.payload_size} != payload length {len(payload)}"
        )
    head = json.dumps(asdict(header), separators=(",", ":")).encode("utf-8")
    prefix = _MAGIC + struct.pack("<HI", _VERSION, len(head)) + head
    tmp = path.with_suffix(path.suffix + ".tmp")
    # Two writes: joining the payload onto the header would copy it.
    with open(tmp, "wb") as fh:
        fh.write(prefix)
        fh.write(payload)
    tmp.replace(path)
    return len(prefix) + len(payload)


def write_context_frames(
    path: Path | str,
    frames,
    *,
    app_id: str,
    rank: int,
    ckpt_id: int,
    position: float = 0.0,
    uncompressed_size: int | None = None,
    codec: str | None = None,
    delta_base: int | None = None,
    on_chunk=None,
) -> ContextHeader:
    """Stream ``frames`` (an iterable of byte chunks) into a context file.

    The streaming counterpart of :func:`write_context_file`: the payload
    never exists as one object — each frame is written (and CRC'd) as it
    arrives, so a drain pipeline can feed compressed blocks straight from
    the codec to disk with only one block in memory.  ``on_chunk(nbytes)``
    is invoked after each frame hits the file — backends hook this for
    per-chunk bandwidth throttling.

    The header is written into a space reserved up front and patched once
    sizes and CRC are known (JSON tolerates the padding), keeping the
    write single-pass; the temp-then-rename dance still makes the commit
    atomic.  Returns the final :class:`ContextHeader`.
    """
    path = Path(path)
    meta = dict(
        app_id=app_id,
        rank=rank,
        ckpt_id=ckpt_id,
        position=position,
        codec=codec,
        delta_base=delta_base,
    )
    placeholder = ContextHeader(
        payload_crc=0, payload_size=0, uncompressed_size=0, **meta
    )
    reserve = len(json.dumps(asdict(placeholder), separators=(",", ":")).encode("utf-8")) + 48
    tmp = path.with_suffix(path.suffix + ".tmp")
    crc = 0
    size = 0
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC + struct.pack("<HI", _VERSION, reserve))
            fh.write(b" " * reserve)
            for frame in frames:
                fh.write(frame)
                crc = zlib.crc32(frame, crc)
                size += len(frame)
                if on_chunk is not None:
                    on_chunk(len(frame))
            header = ContextHeader(
                payload_crc=crc & 0xFFFFFFFF,
                payload_size=size,
                uncompressed_size=size if uncompressed_size is None else uncompressed_size,
                **meta,
            )
            head = json.dumps(asdict(header), separators=(",", ":")).encode("utf-8")
            fh.seek(10)
            fh.write(head + b" " * (reserve - len(head)))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)
    return header


def read_context_file(path: Path | str, verify: bool = True) -> tuple[ContextHeader, bytes]:
    """Read and (by default) integrity-check a context file.

    Raises :class:`CorruptCheckpointError` on bad magic, truncation, or a
    CRC mismatch.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 10 or blob[:4] != _MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint context file")
    version, head_len = struct.unpack_from("<HI", blob, 4)
    if version != _VERSION:
        raise CorruptCheckpointError(f"{path}: unsupported version {version}")
    head_end = 10 + head_len
    if len(blob) < head_end:
        raise CorruptCheckpointError(f"{path}: truncated header")
    try:
        header = ContextHeader(**json.loads(blob[10:head_end]))
    except (json.JSONDecodeError, TypeError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed header: {exc}") from exc
    payload = blob[head_end:]
    if len(payload) != header.payload_size:
        raise CorruptCheckpointError(
            f"{path}: payload truncated ({len(payload)} of {header.payload_size} bytes)"
        )
    if verify and (zlib.crc32(payload) & 0xFFFFFFFF) != header.payload_crc:
        raise CorruptCheckpointError(f"{path}: payload CRC mismatch")
    return header, payload


def make_header(
    app_id: str,
    rank: int,
    ckpt_id: int,
    payload: bytes,
    position: float = 0.0,
    uncompressed_size: int | None = None,
    codec: str | None = None,
    delta_base: int | None = None,
) -> ContextHeader:
    """Convenience constructor computing the CRC and sizes."""
    return ContextHeader(
        app_id=app_id,
        rank=rank,
        ckpt_id=ckpt_id,
        position=position,
        payload_crc=zlib.crc32(payload) & 0xFFFFFFFF,
        payload_size=len(payload),
        uncompressed_size=len(payload) if uncompressed_size is None else uncompressed_size,
        codec=codec,
        delta_base=delta_base,
    )
