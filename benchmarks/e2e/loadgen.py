"""Open- and closed-loop request generators (one process, few threads).

Both drive a ``send(worker, i)`` callable, so the same accounting runs
against the real service and against the stubs in ``test_harness.py``.
Each worker thread owns one connection; the generators never start more
threads than ``workers``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

Send = Callable[[int, int], Any]


@dataclass
class LoopResult:
    """What one loop observed, indexed by request number."""

    #: Seconds from when request i was due (open loop) or sent (closed
    #: loop) until its response arrived.
    latency: list[float] = field(default_factory=list)
    #: Open loop only: seconds request i left after its due time.
    late: list[float] = field(default_factory=list)
    #: ``send``'s return value per request.
    outcomes: list[Any] = field(default_factory=list)
    #: First send to last response, seconds.
    wall: float = 0.0


def _run(workers: int, body: Callable[[int], None]) -> float:
    threads = [threading.Thread(target=body, args=(w,)) for w in range(workers)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def open_loop(send: Send, n: int, rate: float, workers: int) -> LoopResult:
    """Send ``n`` requests on a fixed schedule, ``rate`` per second.

    Request ``i`` is due at ``start + i / rate`` whatever happened to the
    requests before it.  Its latency is measured from that due time, so
    a stall that holds every worker delays the requests queued behind it
    and shows in their latency; ``late`` records how far behind schedule
    the generator itself ran.
    """
    latency = [0.0] * n
    late = [0.0] * n
    outcomes: list[Any] = [None] * n
    lock = threading.Lock()
    counter = iter(range(n))
    start = time.perf_counter() + 0.005

    def worker(w: int) -> None:
        while True:
            with lock:
                i = next(counter, None)
            if i is None:
                return
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            outcomes[i] = send(w, i)
            latency[i] = time.perf_counter() - due
            late[i] = max(0.0, sent - due)

    wall = _run(workers, worker)
    return LoopResult(latency, late, outcomes, wall)


def closed_loop(send: Send, seconds: float, workers: int) -> LoopResult:
    """Each worker sends its next request when the previous one returns,
    until ``seconds`` have passed; requests are numbered in send order."""
    done: list[tuple[int, float, Any]] = []
    lock = threading.Lock()
    nxt = [0]
    deadline = time.perf_counter() + seconds

    def worker(w: int) -> None:
        while time.perf_counter() < deadline:
            with lock:
                i = nxt[0]
                nxt[0] += 1
            t0 = time.perf_counter()
            out = send(w, i)
            dt = time.perf_counter() - t0
            with lock:
                done.append((i, dt, out))

    wall = _run(workers, worker)
    done.sort(key=lambda item: item[0])
    return LoopResult(
        latency=[dt for _, dt, _ in done],
        outcomes=[out for _, _, out in done],
        wall=wall,
    )
