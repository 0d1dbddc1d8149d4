"""Capacity-planning service: a batching, coalescing API over the model.

The simulation substrate (vectorized fast engine, worker pool, on-disk
result cache, memoized optimizer) is built for throughput, but a fresh
process per question pays full startup and shares nothing.  This package
serves it instead: a long-lived asyncio HTTP/JSON server
(:mod:`~repro.service.server`) where clients submit ``simulate`` /
``sweep`` / ``optimize`` requests and the server squeezes the substrate:

* **coalescing and micro-batching** (:mod:`~repro.service.batcher`) —
  the batcher answers cache hits at submit with one probe, attaches an
  identical miss (by :func:`~repro.simulation.pool.config_key`) to the
  pending job of its key so every waiter receives the same result, and
  a bounded-delay drain fuses the queued misses into single
  :func:`~repro.simulation.fastpath.simulate_batch` passes (via the
  existing worker pool), preserving the per-config bit-identical
  determinism contract.
* **shared state** — one process-wide
  :class:`~repro.simulation.pool.ResultCache` and the memoized
  ``core.optimizer._MEMO`` across all requests, plus ``/metrics``
  (Prometheus text from :data:`repro.obs.metrics.REGISTRY`) and
  ``/healthz``.

* **scale-out & tail control** — prefork multi-process serving on one
  ``SO_REUSEPORT`` port (:mod:`~repro.service.supervisor`), chunked
  NDJSON streaming for large sweeps, and deadline/priority scheduling
  with admission-control load shedding (:mod:`~repro.service.batcher`).

Everything is stdlib: ``asyncio`` transports with hand-rolled HTTP/1.1
framing, ``json`` bodies.  See ``docs/SERVICE.md`` for the API schema.
"""

from .batcher import Batcher, BatchStats, DeadlineExceeded, Overloaded
from .client import ServiceClient, ServiceError
from .protocol import (
    ProtocolError,
    QoS,
    canonical_dumps,
    config_from_json,
    model_result_to_json,
    qos_from_json,
    result_to_json,
    sweep_rows_from_json,
)
from .server import BackgroundServer, ServiceConfig, ServiceServer, serve
from .supervisor import SO_REUSEPORT_AVAILABLE, WorkerSupervisor, serve_prefork

__all__ = [
    "BackgroundServer",
    "Batcher",
    "BatchStats",
    "DeadlineExceeded",
    "Overloaded",
    "ProtocolError",
    "QoS",
    "SO_REUSEPORT_AVAILABLE",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "WorkerSupervisor",
    "canonical_dumps",
    "config_from_json",
    "model_result_to_json",
    "qos_from_json",
    "result_to_json",
    "serve",
    "serve_prefork",
    "sweep_rows_from_json",
]
