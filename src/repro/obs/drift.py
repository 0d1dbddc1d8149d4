"""Model-vs-measured drift reports.

The paper's argument is a *model* (``repro.core.model``) predicting what
the C/R runtime should achieve; the runtime's telemetry measures what it
actually achieves.  This module closes the loop: it takes measured
telemetry (drain stats, host-blocked seconds, a simulated breakdown) and
the corresponding model prediction, and emits a side-by-side table with
percentage deviations — Figure 7's breakdown as a live report.

Three report builders:

* :func:`drain_drift` — the NDP drain pipeline vs the drain-rate bound
  ``min(io_bw / (1 - factor), compress_rate)`` and its two stage terms.
* :func:`blocked_drift` — host-blocked wall seconds per level vs the
  model's ``delta_L`` / ``delta_IO`` commit-time predictions.
* :func:`breakdown_drift` — a measured seven-way
  :class:`~repro.core.breakdown.OverheadBreakdown` (e.g. from the
  discrete-event simulator) against a model result's breakdown.

The builders duck-type their measured inputs (anything with the right
attributes works), so this module never imports ``repro.ckpt`` and stays
cycle-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.breakdown import OverheadBreakdown
from ..core.configs import NO_COMPRESSION, CompressionSpec, CRParameters
from ..core.strategy import resolve

__all__ = [
    "DriftRow",
    "DriftReport",
    "drain_rate_bound",
    "drain_drift",
    "blocked_drift",
    "breakdown_drift",
]


@dataclass(frozen=True)
class DriftRow:
    """One measured-vs-predicted comparison.

    ``unit`` drives rendering: ``"B/s"`` prints as MB/s, ``"s"`` as
    seconds, ``"%"`` as a percentage, anything else via ``%g``.
    """

    metric: str
    measured: float
    predicted: float
    unit: str = ""

    @property
    def deviation(self) -> float:
        """``(measured - predicted) / predicted``.

        0.0 when both sides are (near) zero; signed infinity when only
        the prediction is zero — an explicit "the model said this
        shouldn't exist" marker, never a silent 0.
        """
        if abs(self.predicted) < 1e-12:
            if abs(self.measured) < 1e-12:
                return 0.0
            return math.copysign(math.inf, self.measured)
        return (self.measured - self.predicted) / self.predicted

    def _fmt(self, value: float) -> str:
        if math.isinf(value):
            return "inf"
        if self.unit == "B/s":
            return f"{value / 1e6:.2f} MB/s"
        if self.unit == "s":
            return f"{value:.4f} s"
        if self.unit == "%":
            return f"{value:.2%}"
        return f"{value:g}"

    def render(self, width: int = 28) -> str:
        """One aligned table line."""
        dev = self.deviation
        dev_s = "   n/a" if math.isinf(dev) else f"{dev:+7.1%}"
        return (
            f"  {self.metric:<{width}s} {self._fmt(self.measured):>14s} "
            f"{self._fmt(self.predicted):>14s} {dev_s:>8s}"
        )

    def as_dict(self) -> dict:
        """Plain-dict view for JSON export."""
        return {
            "metric": self.metric,
            "measured": self.measured,
            "predicted": self.predicted,
            "unit": self.unit,
            "deviation": None if math.isinf(self.deviation) else self.deviation,
        }


@dataclass
class DriftReport:
    """A titled collection of :class:`DriftRow` with table rendering."""

    title: str
    rows: list[DriftRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, metric: str, measured: float, predicted: float, unit: str = "") -> None:
        """Append one comparison row."""
        self.rows.append(DriftRow(metric, float(measured), float(predicted), unit))

    def note(self, text: str) -> None:
        """Append a footnote line."""
        self.notes.append(text)

    @property
    def max_abs_deviation(self) -> float:
        """Largest finite |deviation| across rows (0.0 when empty)."""
        finite = [abs(r.deviation) for r in self.rows if not math.isinf(r.deviation)]
        return max(finite, default=0.0)

    def render(self) -> str:
        """The measured/predicted/drift table as text."""
        width = max([len(r.metric) for r in self.rows], default=20)
        header = (
            f"{self.title}\n"
            f"  {'metric':<{width}s} {'measured':>14s} {'predicted':>14s} {'drift':>8s}"
        )
        body = [r.render(width) for r in self.rows]
        notes = [f"  ({n})" for n in self.notes]
        return "\n".join([header, *body, *notes])

    def as_dict(self) -> dict:
        """Plain-dict view for JSON export."""
        return {
            "title": self.title,
            "rows": [r.as_dict() for r in self.rows],
            "notes": list(self.notes),
        }


def drain_rate_bound(params: CRParameters, compression: CompressionSpec) -> float:
    """The paper's drain-rate bound, in uncompressed bytes/second."""
    io_term = params.io_bandwidth / max(1.0 - compression.factor, 1e-12)
    return min(io_term, compression.compress_rate)


def drain_drift(
    stats,
    params: CRParameters,
    compression: CompressionSpec,
    title: str = "NDP drain: measured vs model",
) -> DriftReport:
    """Compare drain-pipeline telemetry against the model's bound.

    ``stats`` duck-types :class:`~repro.ckpt.ndp_daemon.DrainStats`:
    ``bytes_in``/``bytes_out``, ``achieved_factor`` and the
    ``compress``/``write``/``drain`` stage counters.  Rates are in
    *uncompressed* bytes/second wherever the model's are, so the two
    columns are directly comparable.
    """
    report = DriftReport(title)
    if stats.compress.seconds > 0:
        report.add(
            "compress rate",
            stats.bytes_in / stats.compress.seconds,
            compression.compress_rate,
            "B/s",
        )
    if stats.write.seconds > 0:
        report.add("write rate (compressed)", stats.write.rate, params.io_bandwidth, "B/s")
    if stats.drain.seconds > 0:
        report.add(
            "drain rate (end-to-end)",
            stats.drain.bytes / stats.drain.seconds,
            drain_rate_bound(params, compression),
            "B/s",
        )
    if stats.bytes_in > 0:
        report.add("compression factor", stats.achieved_factor, compression.factor, "%")
    report.note(
        "bound = min(io_bw / (1 - factor), compress_rate) "
        f"= {drain_rate_bound(params, compression) / 1e6:.2f} MB/s"
    )
    if getattr(stats, "stalls", 0):
        report.note(
            f"backpressure: {stats.stalls} stalls, "
            f"{stats.stall_seconds:.3f} s blocked (I/O-bound drain)"
        )
    return report


def blocked_drift(
    metrics,
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    mode: str = "ndp",
    io_every: int = 1,
    title: str | None = None,
) -> DriftReport:
    """Compare per-level host-blocked seconds against the model.

    ``metrics`` duck-types :class:`~repro.ckpt.metrics.RuntimeMetrics`.
    Predictions follow ``mode``'s :data:`~repro.core.strategy.TABLE`
    entry: a local level blocks ``delta_L`` per checkpoint; ``host_push``
    blocks ``delta_IO`` per push (one every ``io_every`` checkpoints); an
    I/O writer without a local level blocks ``delta_IO`` per checkpoint;
    a drain or no I/O level blocks on I/O for *zero* seconds, so any
    measured value is pure drift.  Recoveries read the local level when
    there is one, else the I/O level.
    """
    spec = resolve(mode)
    report = DriftReport(title or f"host-blocked time ({mode} mode): measured vs model")
    n = max(metrics.checkpoints, 1)
    report.add(
        "blocked local s/ckpt",
        metrics.blocked_seconds.get("local", 0.0) / n,
        params.local_commit_time if spec.local else 0.0,
        "s",
    )
    io_blocked = metrics.blocked_seconds.get("io", 0.0)
    if spec.host_push:
        pushes = max(metrics.checkpoints // max(io_every, 1), 1)
        report.add(
            "blocked I/O s/push",
            io_blocked / pushes,
            params.io_commit_time(compression),
            "s",
        )
    else:
        writes = metrics.checkpoints if spec.has_io and not spec.local else 0
        report.add(
            "blocked I/O s (total)",
            io_blocked,
            writes * params.io_commit_time(compression),
            "s",
        )
    if metrics.restores:
        report.add(
            "blocked restore s/recovery",
            metrics.blocked_seconds.get("restore", 0.0) / metrics.restores,
            params.local_restore_time if spec.local else params.io_restore_time(compression),
            "s",
        )
        report.note(
            f"restore prediction assumes {'local' if spec.local else 'I/O'}-level recovery"
        )
    return report


def breakdown_drift(
    measured: OverheadBreakdown,
    predicted,
    title: str = "overhead breakdown: measured vs model",
) -> DriftReport:
    """Compare two seven-way breakdowns component by component.

    ``predicted`` may be an :class:`OverheadBreakdown` or anything with
    a ``.breakdown`` attribute (e.g. a
    :class:`~repro.core.model.ModelResult`).  This is the simulator-vs-
    model check as a report: run the discrete-event simulator, feed its
    breakdown here against the analytic prediction.
    """
    pred = getattr(predicted, "breakdown", predicted)
    report = DriftReport(title)
    report.add("efficiency", measured.compute, pred.compute, "%")
    for name in OverheadBreakdown.component_names():
        if name == "compute":
            continue
        report.add(name, getattr(measured, name), getattr(pred, name), "%")
    return report
