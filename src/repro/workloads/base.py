"""Mini-app proxy infrastructure: the base class, state serialization, and
the precision knob used to calibrate checkpoint compressibility.

The paper collects BLCR checkpoints of seven Mantevo mini-apps; we cannot
run BLCR, so each mini-app is replaced by a small *proxy kernel* — a real
(if miniature) implementation of the same numerical method whose state
arrays form the checkpoint.  Physics state at laptop scale does not
automatically exhibit the same compressibility as the paper's production-
size checkpoints, so each proxy exposes a continuous *precision* knob: the
fraction of float mantissa bits carrying physical signal.  Masking the
remaining bits is exactly what lossy-precision checkpoint studies observe
in practice (trailing mantissa bits of converged solvers are noise) and
gives a monotone handle that :mod:`repro.workloads.calibration` bisects to
match each app's published gzip(1) compression factor.
"""

from __future__ import annotations

import functools
import struct
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "MiniApp",
    "field_dot",
    "quantize_mantissa",
    "serialize_state",
    "deserialize_state",
    "state_nbytes",
]

_MAGIC = b"RPST"  # "repro state"


def field_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two real 3-D fields, summed on the calling thread.

    ``np.einsum`` (default ``optimize=False``) runs its own loop, never
    BLAS: ``np.vdot`` would hand each CG inner product to OpenBLAS's
    thread pool, which waits for a core the NDP drain holds and sums in
    an order that depends on the pool's size.
    """
    return float(np.einsum("ijk,ijk->", a, b))


@functools.lru_cache(maxsize=8)
def _mantissa_mask(n: int, keep_bits: float) -> np.ndarray:
    """Read-only uint64 mask that keeps ``keep_bits`` of each of ``n`` elements.

    Element ``i`` keeps ``k + 1`` bits when ``(i * 2654435761) % 2**32 <
    f * 2**32`` (``keep_bits = k + f``), else ``k``: a deterministic,
    shuffle-free stride.  Cached, so a checkpoint filter pays one
    ``bitwise_and`` per array rather than rebuilding the pattern.
    """
    k = int(keep_bits)
    frac = keep_bits - k
    mask_lo = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - k)
    if frac > 0 and k < 52:
        mask_hi = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(52 - (k + 1))
        extra = (np.arange(n) * 2654435761 % 2**32) < frac * 2**32
        mask = np.where(extra, mask_hi, mask_lo)
        mask.flags.writeable = False
        return mask
    return np.broadcast_to(mask_lo, (n,))


def quantize_mantissa(a: np.ndarray, keep_bits: float) -> np.ndarray:
    """Zero the low mantissa bits of a float64 array, keeping ``keep_bits``.

    ``keep_bits`` may be fractional: with ``keep_bits = k + f`` a fraction
    ``f`` of elements (deterministically, by index stride) keeps ``k+1``
    bits and the rest keep ``k``.  This makes compressibility a continuous,
    monotone function of the knob, which the calibration bisection needs.

    The mask is cached per ``(a.size, keep_bits)``, so a call is one
    GIL-releasing ``np.bitwise_and`` into a new C-contiguous array
    (docs/RUNTIME.md, "Host interference").
    """
    if a.dtype != np.float64:
        raise TypeError(f"quantize_mantissa expects float64, got {a.dtype}")
    if not 0.0 <= keep_bits <= 52.0:
        raise ValueError(f"keep_bits must be in [0, 52]: {keep_bits}")
    bits = np.bitwise_and(a.reshape(-1).view(np.uint64), _mantissa_mask(a.size, keep_bits))
    return bits.view(np.float64).reshape(a.shape)


def serialize_state(state: dict[str, np.ndarray]) -> bytes:
    """Serialize a state dict to bytes (the proxy 'checkpoint file').

    Simple self-describing format: magic, count, then per array a
    length-prefixed name, dtype string, shape, and raw C-order bytes.
    This stands in for the BLCR process context file.  Each array's bytes
    are joined straight from its buffer, so the only copy is the join.
    """
    parts = [_MAGIC, struct.pack("<I", len(state))]
    for name, arr in state.items():
        arr = np.ascontiguousarray(arr)
        name_b = name.encode("utf-8")
        dtype_b = arr.dtype.str.encode("ascii")
        parts.append(struct.pack("<H", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<H", len(dtype_b)))
        parts.append(dtype_b)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}q", *arr.shape))
        raw = arr.reshape(-1).view(np.uint8)
        parts.append(struct.pack("<Q", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def deserialize_state(blob: bytes) -> dict[str, np.ndarray]:
    """Invert :func:`serialize_state`."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a serialized proxy state (bad magic)")
    (count,) = struct.unpack_from("<I", blob, 4)
    off = 8
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + nlen].decode("utf-8")
        off += nlen
        (dlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        dtype = np.dtype(blob[off : off + dlen].decode("ascii"))
        off += dlen
        (ndim,) = struct.unpack_from("<B", blob, off)
        off += 1
        shape = struct.unpack_from(f"<{ndim}q", blob, off)
        off += 8 * ndim
        (rawlen,) = struct.unpack_from("<Q", blob, off)
        off += 8
        arr = np.frombuffer(blob[off : off + rawlen], dtype=dtype).reshape(shape)
        off += rawlen
        state[name] = arr.copy()
    return state


def state_nbytes(state: dict[str, np.ndarray]) -> int:
    """Total payload bytes of a state dict (excluding format framing)."""
    return int(sum(a.nbytes for a in state.values()))


class MiniApp(ABC):
    """A Mantevo mini-app proxy: a steppable kernel with checkpointable state.

    Subclasses implement :meth:`step` (advance the physics) and
    :meth:`_raw_state` (the live arrays).  The public :meth:`state` applies
    the precision knob to float64 arrays; :meth:`checkpoint_bytes`
    serializes the result — that byte stream is what the compression study
    compresses and what the C/R runtime stores.

    Parameters
    ----------
    seed:
        Deterministic initialization seed.
    precision_bits:
        Mantissa bits of physical signal retained in checkpoints
        (the calibration knob; 52 = full precision).
    """

    #: mini-app name matching the paper's Table 2 row.
    name: str = "miniapp"

    def __init__(self, seed: int = 0, precision_bits: float = 52.0):
        self.rng = np.random.default_rng(seed)
        self.precision_bits = precision_bits
        self.steps_taken = 0

    @abstractmethod
    def step(self) -> None:
        """Advance the kernel by one timestep/iteration."""

    @abstractmethod
    def _raw_state(self) -> dict[str, np.ndarray]:
        """The live state arrays (not yet precision-filtered)."""

    def run(self, steps: int) -> None:
        """Advance ``steps`` timesteps."""
        for _ in range(steps):
            self.step()
            self.steps_taken += 1

    def state(self) -> dict[str, np.ndarray]:
        """Checkpointable state with the precision knob applied.

        Below full precision each float64 array is a new masked copy; every
        other array (and every array at 52 bits) is the live buffer when it
        is already C-contiguous, so use the result before the next step.
        """
        out: dict[str, np.ndarray] = {}
        for name, arr in self._raw_state().items():
            if arr.dtype == np.float64 and self.precision_bits < 52.0:
                out[name] = quantize_mantissa(arr, self.precision_bits)
            else:
                out[name] = np.ascontiguousarray(arr)
        return out

    def restore(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite live arrays from a checkpointed state dict.

        Default implementation writes back into the arrays returned by
        :meth:`_raw_state` (which must therefore be the live buffers).
        """
        live = self._raw_state()
        for name, arr in state.items():
            if name not in live:
                raise KeyError(f"{self.name}: unknown state array {name!r}")
            if live[name].shape != arr.shape:
                raise ValueError(
                    f"{self.name}: shape mismatch for {name!r}: "
                    f"{live[name].shape} vs {arr.shape}"
                )
            live[name][...] = arr

    def checkpoint_bytes(self) -> bytes:
        """Serialized checkpoint of the current state."""
        return serialize_state(self.state())

    @property
    def checkpoint_size(self) -> int:
        """Size of :meth:`checkpoint_bytes` payload, bytes."""
        return state_nbytes(self._raw_state())
