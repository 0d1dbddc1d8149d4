"""Metrics registry: named counters/gauges/histograms with labels.

The registry is the runtime's one export point for quantitative
telemetry: the checkpointer, the NDP drain daemon, the stream codecs
and the simulation pool all register instruments here, and exporters
(:meth:`MetricsRegistry.snapshot` for JSON, :meth:`render_prometheus`
for Prometheus text format) read them out without knowing who owns what.

Three instrument types, all label-aware:

* :class:`Counter` — monotonically increasing totals
  (``cr_checkpoints_total{mode="ndp"}``).
* :class:`Gauge` — point-in-time values.
* :class:`Histogram` — bucketed distributions (span durations).

A counter or gauge cell is either updated in place (``inc``/``set``) or
bound to a callback evaluated at read time (``set_function``).  Binding
is the adapter mechanism: the C/R runtime's
:class:`~repro.ckpt.metrics.StageCounter` /
:class:`~repro.ckpt.metrics.RuntimeMetrics` / ``DrainStats`` objects
and the service batcher's ``BatchStats`` keep the one count of each
event, and the registry reads it at snapshot time, so no event is
counted twice.  A bound counter still exports as ``counter``.

Everything is guarded by one registry lock; updates are a dict get +
float add, cheap enough for per-block (1 MiB) granularity but not meant
for per-byte loops.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Any, Callable, Iterable

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "register_stage_counter",
    "register_runtime_metrics",
    "register_drain_stats",
]


class MetricError(ValueError):
    """Invalid metric operation (type clash, negative counter add...)."""


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Common machinery: name, help text, labelled value cells, and
    cells bound to a callback."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._values: dict[tuple, Any] = {}
        self._callbacks: dict[tuple, Callable[[], float]] = {}

    def set_function(self, fn: Callable[[], float], **labels: Any) -> None:
        """Bind the labelled cell to ``fn``, evaluated at read time.

        This is the adapter hook: a live object (a ``DrainStats``, a
        ``BatchStats``) exposes a field by closure, and every snapshot
        sees its current value.  Re-binding the same labels replaces the
        previous callback.
        """
        with self._lock:
            self._callbacks[_label_key(labels)] = fn

    def value(self, **labels: Any) -> float:
        """Current value of the labelled cell (callback cells are
        evaluated; 0.0 if never touched)."""
        key = _label_key(labels)
        with self._lock:
            fn = self._callbacks.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        return float(fn())

    def clear(self) -> None:
        """Drop every cell and binding (used by ``registry.reset()``)."""
        with self._lock:
            self._values.clear()
            self._callbacks.clear()

    def samples(self) -> list[tuple[dict[str, str], Any]]:
        """``(labels, value)`` pairs, deterministically ordered."""
        with self._lock:
            merged = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, fn in callbacks.items():
            try:
                merged[key] = float(fn())
            except Exception:
                # A dead adapter (its object torn down mid-snapshot) must
                # not take the whole exporter with it.
                merged[key] = math.nan
        return [(dict(key), value) for key, value in sorted(merged.items())]


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled cell."""
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelled cell to ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Adjust the labelled cell by ``amount`` (may be negative)."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        """Shorthand for ``inc(-amount)``."""
        self.inc(-amount, **labels)


#: Default histogram buckets, tuned for span durations in seconds.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, math.inf)


class Histogram(_Instrument):
    """A bucketed distribution (cumulative buckets, Prometheus-style)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, lock)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise MetricError("histogram needs at least one bucket")
        if edges[-1] != math.inf:
            edges = edges + (math.inf,)
        self.buckets = edges

    def set_function(self, fn: Callable[[], float], **labels: Any) -> None:
        """Refused: a distribution has no single live value to read."""
        raise MetricError(f"histogram {self.name} cannot be bound to a callback")

    def observe(self, value: float, exemplar: str | None = None, **labels: Any) -> None:
        """Record one observation.

        ``exemplar`` attaches a trace id to the observation's bucket
        (last writer wins) — exported OpenMetrics-style in the
        Prometheus text so a spike in a latency bucket names a concrete
        request trace to go look at.
        """
        key = _label_key(labels)
        # bisect_left returns the first edge with value <= edge — the
        # same bucket the old linear scan chose, in O(log n).  The +Inf
        # terminal edge guarantees the index is in range.
        i = bisect.bisect_left(self.buckets, value)
        with self._lock:
            cell = self._values.get(key)
            if cell is None:
                cell = self._values[key] = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            cell["counts"][i] += 1
            cell["sum"] += value
            cell["count"] += 1
            if exemplar is not None:
                cell.setdefault("exemplars", {})[i] = (exemplar, value)

    def value(self, **labels: Any) -> dict:
        """``{"counts": [...], "sum": s, "count": n}`` for the cell."""
        with self._lock:
            cell = self._values.get(_label_key(labels))
            if cell is None:
                return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            out = {"counts": list(cell["counts"]), "sum": cell["sum"], "count": cell["count"]}
            if cell.get("exemplars"):
                out["exemplars"] = dict(cell["exemplars"])
            return out

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile by linear interpolation.

        The estimate assumes observations are uniformly distributed
        within their bucket (the standard ``histogram_quantile``
        convention): the answer lies in the first bucket whose
        cumulative count reaches ``q * count``, interpolated between its
        lower and upper edge.  The first bucket's lower edge is taken as
        0 (durations are non-negative); a quantile landing in the
        ``+Inf`` bucket reports the highest finite edge — there is no
        upper bound to interpolate toward.  Returns ``nan`` for an empty
        cell.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile q must be in [0, 1]: {q!r}")
        with self._lock:
            cell = self._values.get(_label_key(labels))
            if cell is None or not cell["count"]:
                return math.nan
            counts = list(cell["counts"])
            total = cell["count"]
        rank = q * total
        cum = 0.0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            prev, cum = cum, cum + n
            if cum >= rank:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i]
                if math.isinf(hi):
                    return lo
                return lo + (hi - lo) * ((rank - prev) / n)
        # Unreachable (cum == total >= rank by the time the loop ends),
        # but keep a sane answer if float fuzz ever gets here.
        return self.buckets[-2] if len(self.buckets) > 1 else math.nan


class MetricsRegistry:
    """A named collection of instruments with snapshot/Prometheus export.

    ``counter``/``gauge``/``histogram`` are get-or-create: registering
    the same name twice returns the existing instrument (so module-level
    handles and adapters can share), and a *type* clash raises
    :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._constant_labels: dict[str, str] = {}

    def set_constant_labels(self, **labels: Any) -> None:
        """Attach labels to **every** exported sample of this registry.

        The prefork service workers use this to stamp ``worker="<i>"``
        onto everything they export without touching any call site:
        instruments keep their per-sample labels, and the constant set is
        merged in at export time (:meth:`snapshot`,
        :meth:`render_prometheus`) with per-sample labels winning on a
        name clash.  Passing a value of ``None`` removes that label.
        """
        with self._lock:
            for name, value in labels.items():
                if value is None:
                    self._constant_labels.pop(name, None)
                else:
                    self._constant_labels[name] = str(value)

    def _merged(self, labels: dict[str, str]) -> dict[str, str]:
        with self._lock:
            const = dict(self._constant_labels)
        if not const:
            return labels
        const.update(labels)
        return const

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise MetricError(f"invalid metric name: {name!r}")
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = self._instruments[name] = cls(name, help, self._lock, **kwargs)
            elif not isinstance(inst, cls) or type(inst) is not cls:
                raise MetricError(
                    f"metric {name!r} already registered as {inst.kind}, not {cls.kind}"
                )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def reset(self) -> None:
        """Zero every instrument (handles stay valid; tests use this)."""
        with self._lock:
            instruments = list(self._instruments.values())
        for inst in instruments:
            inst.clear()

    # -- exporters ------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able view: ``{name: {type, help, samples: [...]}}``.

        Callback cells are evaluated at snapshot time, so adapters over
        live objects report their *current* state.
        """
        with self._lock:
            instruments = dict(self._instruments)
        out: dict[str, dict] = {}
        for name, inst in sorted(instruments.items()):
            out[name] = {
                "type": inst.kind,
                "help": inst.help,
                "samples": [
                    {"labels": self._merged(labels), "value": value}
                    for labels, value in inst.samples()
                ],
            }
        return out

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            instruments = dict(self._instruments)
        lines: list[str] = []
        for name, inst in sorted(instruments.items()):
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            for labels, value in inst.samples():
                labels = self._merged(labels)
                if inst.kind == "histogram":
                    cum = 0
                    exemplars = value.get("exemplars") or {}
                    for i, (edge, n) in enumerate(zip(inst.buckets, value["counts"])):  # type: ignore[attr-defined]
                        cum += n
                        le = "+Inf" if edge == math.inf else f"{edge:g}"
                        line = f"{name}_bucket{_fmt_labels({**labels, 'le': le})} {cum}"
                        ex = exemplars.get(i)
                        if ex is not None:
                            # OpenMetrics exemplar: the last trace seen in
                            # this bucket, with its observed value.
                            line += f' # {{trace_id="{ex[0]}"}} {ex[1]:g}'
                        lines.append(line)
                    lines.append(f"{name}_sum{_fmt_labels(labels)} {value['sum']:g}")
                    lines.append(f"{name}_count{_fmt_labels(labels)} {value['count']}")
                else:
                    lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    return f"{value:g}"


#: The process-global default registry all built-in instrumentation uses.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return REGISTRY


# -- adapters over the runtime's own counts ------------------------------------
#
# StageCounter, RuntimeMetrics and DrainStats hold the one count of each
# C/R event; these functions bind registry cells to their fields, read at
# snapshot time.  The registry is process-wide, so a cell follows the
# object registered last under its labels.


def register_stage_counter(
    stage, name: str, registry: MetricsRegistry | None = None, **labels: Any
) -> None:
    """Expose a :class:`~repro.ckpt.metrics.StageCounter` under ``labels``.

    ``{name}_bytes_total``, ``{name}_seconds_total`` and ``{name}_ops_total``
    are counters; ``{name}_bytes_per_second`` is a gauge.
    """
    reg = registry or REGISTRY
    reg.counter(f"{name}_bytes_total", "bytes processed by this stage").set_function(
        lambda: stage.bytes, **labels
    )
    reg.counter(f"{name}_seconds_total", "seconds charged to this stage").set_function(
        lambda: stage.seconds, **labels
    )
    reg.counter(f"{name}_ops_total", "operations charged to this stage").set_function(
        lambda: stage.ops, **labels
    )
    reg.gauge(f"{name}_bytes_per_second", "stage throughput").set_function(
        lambda: stage.rate, **labels
    )


def register_runtime_metrics(
    metrics, registry: MetricsRegistry | None = None, **labels: Any
) -> None:
    """Bind a :class:`~repro.ckpt.metrics.RuntimeMetrics` into the registry.

    ``cr_checkpoints_total``, ``cr_restores_total`` and
    ``cr_bytes_total{level}`` are counters over its fields;
    ``cr_blocked_seconds{activity}`` is a gauge.
    """
    reg = registry or REGISTRY
    blocked = reg.gauge(
        "cr_blocked_seconds", "host wall seconds blocked in C/R, by activity"
    )
    for activity in metrics.blocked_seconds:
        blocked.set_function(
            lambda a=activity: metrics.blocked_seconds[a], activity=activity, **labels
        )
    reg.counter("cr_checkpoints_total", "coordinated checkpoints committed").set_function(
        lambda: metrics.checkpoints, **labels
    )
    reg.counter(
        "cr_restores_total", "restarts served (split by level: restore_recoveries_total)"
    ).set_function(lambda: metrics.restores, **labels)
    written = reg.counter(
        "cr_bytes_total", "payload bytes written on the critical path, by level"
    )
    for level in ("local", "partner", "io_host"):
        written.set_function(
            lambda f=f"bytes_{level}": getattr(metrics, f), level=level, **labels
        )


def register_drain_stats(
    stats,
    registry: MetricsRegistry | None = None,
    queue_depth: Callable[[], float] | None = None,
    **labels: Any,
) -> None:
    """Bind a :class:`~repro.ckpt.ndp_daemon.DrainStats` into the registry.

    Drains, backpressure stalls and the compress/write/drain
    :class:`StageCounter` totals are counters; the skip/delta/byte
    totals, the achieved compression factor and the stage rates are
    gauges.  ``queue_depth``, when
    given, is bound as the ``ndp_queue_depth`` gauge.
    """
    reg = registry or REGISTRY
    for name, help, field in (
        ("ndp_drains_total", "checkpoints drained to the I/O level", "checkpoints_drained"),
        ("ndp_backpressure_stalls_total",
         "frames that blocked because the writer queue was full", "stalls"),
        ("ndp_backpressure_stall_seconds_total",
         "seconds the compressor spent blocked on writer backpressure", "stall_seconds"),
    ):
        reg.counter(name, help).set_function(lambda f=field: getattr(stats, f), **labels)
    for field, help in (
        ("checkpoints_skipped", "checkpoints skipped (evicted/corrupt/stale)"),
        ("delta_drains", "drains stored as XOR deltas"),
        ("bytes_in", "uncompressed bytes entering the drain"),
        ("bytes_out", "bytes actually written to the I/O level"),
        ("achieved_factor", "aggregate compression factor"),
    ):
        reg.gauge(f"ndp_{field}", help).set_function(
            lambda f=field: getattr(stats, f), **labels
        )
    if queue_depth is not None:
        reg.gauge(
            "ndp_queue_depth", "compressed frames currently queued for the writer"
        ).set_function(queue_depth, **labels)
    for stage_name in ("compress", "write", "drain"):
        register_stage_counter(
            getattr(stats, stage_name), f"ndp_{stage_name}", reg, **labels
        )
