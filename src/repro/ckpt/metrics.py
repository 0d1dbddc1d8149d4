"""Runtime telemetry for the multilevel checkpointer.

Collects the quantities the paper's model is about, measured live:
host-blocked wall time per activity (the critical-path cost NDP is
supposed to hide), checkpoint counts and bytes per level.  The MD example
uses this to show the NDP-vs-host contrast on real data.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["RuntimeMetrics", "StageCounter"]

#: The clock both ``timed`` context managers charge from.  Monotonic by
#: contract (``perf_counter`` is a monotonic clock with the highest
#: available resolution): elapsed time can never go negative under
#: system clock adjustments, and the ``finally`` blocks below charge it
#: even when the timed body raises.
_clock = time.perf_counter


@dataclass
class StageCounter:
    """Byte/second throughput counter for one stage of a data pipeline.

    The NDP drain and restore paths account each stage (compress, write,
    read, decompress) separately so the achieved pipeline rate can be
    compared against the model's ``min(io_bw / (1 - factor),
    compress_rate)`` drain-rate bound stage by stage.
    """

    bytes: int = 0
    seconds: float = 0.0
    ops: int = 0

    def add(self, nbytes: int, seconds: float) -> None:
        """Charge ``nbytes`` processed in ``seconds`` to this stage."""
        self.bytes += nbytes
        self.seconds += seconds
        self.ops += 1

    @contextmanager
    def timed(self, nbytes: int) -> Iterator[None]:
        """Context manager charging elapsed wall time for ``nbytes``.

        The time is charged even when the body raises — an aborted write
        still consumed the seconds, and dropping them would inflate the
        reported rate.
        """
        t0 = _clock()
        try:
            yield
        finally:
            self.add(nbytes, _clock() - t0)

    @property
    def rate(self) -> float:
        """Throughput in bytes/second.

        0.0 before anything was charged; ``inf`` when bytes were charged
        with no measurable time (clock resolution, or ``add(n, 0.0)``) —
        explicitly "unmeasurably fast", never a silent 0.0 that would
        read as "no throughput".
        """
        if self.seconds <= 0.0:
            return math.inf if self.bytes > 0 else 0.0
        return self.bytes / self.seconds

    def summary(self) -> str:
        """One-line human-readable summary."""
        return f"{self.bytes}B in {self.seconds:.3f}s ({self.rate / 1e6:.2f} MB/s, {self.ops} ops)"


@dataclass
class RuntimeMetrics:
    """Host-visible cost counters for one checkpointer instance.

    Each checkpoint event is counted here once, by
    :class:`~repro.ckpt.multilevel.MultilevelCheckpointer`; ``/metrics``
    reads these fields when scraped
    (:func:`repro.obs.metrics.register_runtime_metrics`).  The split of
    restores by serving level is counted by
    :func:`~repro.ckpt.restart.recover` alone
    (``restore_recoveries_total{level}``).

    Attributes
    ----------
    blocked_seconds:
        Wall seconds the application thread spent inside blocking C/R
        operations, keyed by activity (``"local"``, ``"partner"``,
        ``"io"``, ``"restore"``).
    checkpoints:
        Checkpoints committed (locally).
    bytes_local, bytes_partner, bytes_io_host:
        Payload bytes written on the critical path per level
        (``bytes_io_host`` counts only *host-mode* synchronous pushes —
        NDP drains are background and tracked by the daemon's own stats).
    restores:
        Recoveries served.
    """

    blocked_seconds: dict[str, float] = field(
        default_factory=lambda: {"local": 0.0, "partner": 0.0, "io": 0.0, "restore": 0.0}
    )
    checkpoints: int = 0
    restores: int = 0
    bytes_local: int = 0
    bytes_partner: int = 0
    bytes_io_host: int = 0

    @contextmanager
    def timed(self, activity: str) -> Iterator[None]:
        """Context manager charging elapsed wall time to ``activity``.

        The activity is validated *before* the clock starts (a typo can
        never corrupt another bucket) and time is charged in a
        ``finally`` — an exception mid-operation still blocked the host
        for however long it ran.
        """
        if activity not in self.blocked_seconds:
            raise KeyError(f"unknown activity {activity!r}")
        t0 = _clock()
        try:
            yield
        finally:
            self.blocked_seconds[activity] += _clock() - t0

    @property
    def total_blocked(self) -> float:
        """Total host-blocked wall seconds across activities."""
        return sum(self.blocked_seconds.values())

    def summary(self) -> str:
        """One-line human-readable summary."""
        parts = ", ".join(
            f"{k}={v:.3f}s" for k, v in self.blocked_seconds.items() if v > 0
        )
        return (
            f"{self.checkpoints} checkpoints, {self.restores} restores, "
            f"blocked {self.total_blocked:.3f}s ({parts or 'none'})"
        )
