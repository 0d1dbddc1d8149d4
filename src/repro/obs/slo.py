"""SLO tracking: latency objectives, rolling counters, burn rates.

An *SLO* here is "fraction ``target`` of requests to ``route`` complete
within ``threshold`` seconds" — e.g. ``simulate=50ms:0.99`` reads "99%
of ``/v1/simulate`` requests under 50 ms".  The tracker keeps, per
route:

* lifetime good/bad totals (exported as counters);
* a time-bucketed ring (5 s buckets spanning 1 h) from which any
  trailing window's good/bad counts are summed — no per-request
  allocation, no timestamps retained;
* multi-window **burn rates**: ``bad_fraction / (1 - target)`` over the
  trailing 5 m and 1 h.  Burn rate 1.0 means the error budget is being
  consumed exactly as fast as the SLO allows; a classic page condition
  is "burn > 14.4 on the short window AND burn > 1 on the long window"
  (fast burn confirmed by sustained burn — the two windows exist so a
  single slow request can't page you and a slow leak can't hide).

The tracker is clock-injectable (tests pin time) and lock-guarded; one
``record()`` is a couple of dict/list operations.
"""

from __future__ import annotations

import re
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "SLOError",
    "SLOTarget",
    "SLOTracker",
    "parse_slo",
    "parse_duration",
    "WINDOWS",
]

#: The burn-rate windows surfaced everywhere: (name, seconds).
WINDOWS: tuple[tuple[str, float], ...] = (("5m", 300.0), ("1h", 3600.0))

#: Ring geometry: 5 s buckets x 720 = exactly the 1 h long window.
_BUCKET_S = 5.0
_N_BUCKETS = 720


class SLOError(ValueError):
    """Malformed SLO spec."""


@dataclass(frozen=True)
class SLOTarget:
    """One objective: ``target`` fraction of ``route`` under ``threshold_s``."""

    route: str
    threshold_s: float
    target: float


_DURATION_RE = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*(us|ms|s|m)?\s*$")
_DURATION_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0, None: 1.0}


def parse_duration(text: str) -> float:
    """``"50ms"`` / ``"0.05s"`` / ``"2m"`` / bare seconds → seconds."""
    m = _DURATION_RE.match(text)
    if not m:
        raise SLOError(f"cannot parse duration {text!r} (want e.g. '50ms', '1.5s')")
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


def parse_slo(spec: str) -> SLOTarget:
    """Parse ``route=threshold:target`` (e.g. ``simulate=50ms:0.99``)."""
    route, sep, rest = spec.partition("=")
    route = route.strip()
    if not sep or not route:
        raise SLOError(f"SLO spec {spec!r} must look like 'route=50ms:0.99'")
    thr, sep, tgt = rest.partition(":")
    if not sep:
        raise SLOError(f"SLO spec {spec!r} is missing the ':target' fraction")
    threshold = parse_duration(thr)
    if threshold <= 0:
        raise SLOError(f"SLO threshold must be positive: {spec!r}")
    try:
        target = float(tgt)
    except ValueError:
        raise SLOError(f"SLO target must be a fraction: {spec!r}") from None
    if not 0.0 < target < 1.0:
        raise SLOError(f"SLO target must be in (0, 1): {spec!r}")
    return SLOTarget(route, threshold, target)


class _RouteState:
    """Lifetime totals plus the time-bucketed ring for one route."""

    __slots__ = ("target", "good", "bad", "shed", "expired", "slots")

    def __init__(self, target: SLOTarget):
        self.target = target
        self.good = 0
        self.bad = 0
        #: Requests rejected by the admission controller (HTTP 503) and
        #: requests whose deadline expired before dispatch (HTTP 504).
        #: Both also count as *bad* (they burn error budget: the client
        #: asked and was not served within objective), but the split is
        #: kept so an operator can tell "slow" from "deliberately shed".
        self.shed = 0
        self.expired = 0
        # Each slot: [bucket_epoch, good, bad]; epoch -1 marks "unused".
        self.slots: list[list[float]] = [[-1, 0, 0] for _ in range(_N_BUCKETS)]

    def record(self, now: float, good: bool) -> None:
        epoch = int(now // _BUCKET_S)
        slot = self.slots[epoch % _N_BUCKETS]
        if slot[0] != epoch:
            slot[0], slot[1], slot[2] = epoch, 0, 0
        slot[1 if good else 2] += 1
        if good:
            self.good += 1
        else:
            self.bad += 1

    def window_counts(self, now: float, window_s: float) -> tuple[int, int]:
        """(good, bad) over the trailing ``window_s`` seconds."""
        epoch = int(now // _BUCKET_S)
        oldest = epoch - int(window_s // _BUCKET_S) + 1
        good = bad = 0
        for slot in self.slots:
            if oldest <= slot[0] <= epoch:
                good += slot[1]
                bad += slot[2]
        return good, bad


class SLOTracker:
    """Rolling good/bad accounting and burn rates for a set of targets."""

    def __init__(self, targets: list[SLOTarget] | tuple[SLOTarget, ...] = (), clock: Callable[[], float] = time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._routes: dict[str, _RouteState] = {t.route: _RouteState(t) for t in targets}

    @property
    def routes(self) -> list[str]:
        """Routes with objectives, sorted."""
        with self._lock:
            return sorted(self._routes)

    def target(self, route: str) -> SLOTarget | None:
        state = self._routes.get(route)
        return state.target if state else None

    def record(self, route: str, latency_s: float, ok: bool = True) -> bool | None:
        """Account one request; returns good/bad, or ``None`` (no SLO).

        A request is *good* iff it succeeded (``ok``) and finished within
        the route's threshold — an erroring fast response still burns
        budget.
        """
        state = self._routes.get(route)
        if state is None:
            return None
        good = bool(ok) and latency_s <= state.target.threshold_s
        with self._lock:
            state.record(self._clock(), good)
        return good

    def note(self, route: str, kind: str) -> None:
        """Attribute one load-control rejection to ``route``.

        ``kind`` is ``"shed"`` (admission-controller 503) or
        ``"expired"`` (deadline 504).  These requests are *also* fed
        through :meth:`record` with ``ok=False`` by the server — this
        only maintains the split so the snapshot can show why budget
        burned.
        """
        if kind not in ("shed", "expired"):
            raise SLOError(f"unknown rejection kind {kind!r}")
        state = self._routes.get(route)
        if state is None:
            return
        with self._lock:
            setattr(state, kind, getattr(state, kind) + 1)

    @staticmethod
    def burn_rate(good: int, bad: int, target: float) -> float:
        """``bad_fraction / error_budget`` (0.0 when the window is empty)."""
        total = good + bad
        if not total:
            return 0.0
        return (bad / total) / (1.0 - target)

    def snapshot(self) -> dict:
        """Per-route objective, totals, and per-window burn rates."""
        now = self._clock()
        out: dict[str, dict] = {}
        with self._lock:
            for route, state in sorted(self._routes.items()):
                t = state.target
                windows = {}
                for wname, wsecs in WINDOWS:
                    good, bad = state.window_counts(now, wsecs)
                    windows[wname] = {
                        "good": good,
                        "bad": bad,
                        "burn_rate": self.burn_rate(good, bad, t.target),
                    }
                out[route] = {
                    "objective": f"{t.threshold_s * 1000.0:g}ms:{t.target:g}",
                    "threshold_s": t.threshold_s,
                    "target": t.target,
                    "good": state.good,
                    "bad": state.bad,
                    "shed": state.shed,
                    "expired": state.expired,
                    "windows": windows,
                }
        return out

    def register_metrics(self, registry) -> None:
        """Bind the tracker's counts into a metrics registry.

        Exports the counters ``repro_slo_requests_total{route,verdict}``
        and ``repro_slo_rejected_total{route,kind}`` and the gauges
        ``repro_slo_target{route}`` and
        ``repro_slo_burn_rate{route,window}`` (evaluated at scrape time).
        """
        totals = registry.counter(
            "repro_slo_requests_total", "requests accounted against an SLO, by verdict"
        )
        target_g = registry.gauge("repro_slo_target", "SLO target fraction per route")
        burn = registry.gauge(
            "repro_slo_burn_rate", "error-budget burn rate per route and window"
        )
        rejected = registry.counter(
            "repro_slo_rejected_total",
            "requests rejected by load control, by route and kind (shed/expired)",
        )
        for route, state in self._routes.items():
            totals.set_function(lambda s=state: float(s.good), route=route, verdict="good")
            totals.set_function(lambda s=state: float(s.bad), route=route, verdict="bad")
            rejected.set_function(lambda s=state: float(s.shed), route=route, kind="shed")
            rejected.set_function(
                lambda s=state: float(s.expired), route=route, kind="expired"
            )
            target_g.set_function(lambda s=state: s.target.target, route=route)
            for wname, wsecs in WINDOWS:
                burn.set_function(
                    lambda s=state, w=wsecs: self.burn_rate(
                        *s.window_counts(self._clock(), w), s.target.target
                    ),
                    route=route,
                    window=wname,
                )
