"""Prefork multi-process serving: one port, N worker processes.

The asyncio server is single-threaded by design — the GIL-free work
already runs on executor threads and pool processes, but request framing,
coalescing and batching all share one event loop.  Past a few thousand
requests per second that loop is the bottleneck.  The classic fix is the
prefork model: a parent supervisor spawns N worker processes that each
run the full :class:`~repro.service.server.ServiceServer` stack and
**share one TCP port**.

Two sharing mechanisms, picked automatically:

``SO_REUSEPORT`` (Linux, modern BSD — the preferred path)
    Every worker binds its *own* listening socket to the same address
    with ``SO_REUSEPORT``; the kernel hashes incoming connections across
    the listeners.  No accept lock, no thundering herd, per-worker
    accept queues.  The parent reserves the port (and resolves
    ``port=0``) with a bound-but-never-listening placeholder socket:
    only *listening* sockets join the kernel's distribution group, so
    the placeholder never steals a connection.

Inherited listener (the portable fallback)
    The parent binds and listens once; forked workers adopt the same
    socket via ``asyncio.start_server(sock=...)`` and take turns
    accepting from its shared queue.

Worker processes are forked (the pool's own preference — see
``simulation.pool``), so the supervisor must run before any threads are
started in the parent.  Each worker:

* resets the inherited metrics registry and stamps every exported
  sample with its ``worker="<i>"`` label;
* publishes its ``/stats`` snapshot into a shared ``stats_dir`` so any
  worker — the kernel picks which one answers a scrape — can merge the
  whole group into one response;
* drains gracefully on SIGTERM (stop accepting, finish in-flight
  requests, exit).

The parent restarts crashed workers (same index, same socket) until
:meth:`WorkerSupervisor.stop` — a wedged or OOM-killed worker costs its
in-flight requests, never the service.  Respawns of one slot back off
exponentially, and a slot that crashes :data:`MAX_CONSECUTIVE_CRASHES`
times in a row is left dead (``WorkerSupervisor.gave_up``) instead of
crash-looping.  On every crash the parent writes ``supervisor.json``
(``restarts`` and the sorted ``gave_up`` slots) into ``stats_dir``, so
any surviving worker's ``/stats`` reports it, and its ``/metrics``
exports it as ``repro_supervisor_restarts`` and
``repro_supervisor_gave_up``.

Determinism is untouched: workers share the on-disk
:class:`~repro.simulation.pool.ResultCache` (atomic, multi-writer-safe
by construction) and every response is rendered by ``canonical_dumps``
from seed-owned RNG streams, so which worker serves a request can never
change a byte of the response — the equivalence tests pin serial vs
multi-process byte identity.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from tempfile import mkdtemp

from .server import ServiceConfig, serve

__all__ = ["SO_REUSEPORT_AVAILABLE", "WorkerSupervisor", "serve_prefork"]

#: Whether this platform can kernel-load-balance accepts across workers.
SO_REUSEPORT_AVAILABLE = hasattr(socket, "SO_REUSEPORT")

#: Delay before respawning a crashed slot; doubles per consecutive crash.
RESPAWN_BACKOFF = 0.1
#: Longest delay between two respawns of one slot.
RESPAWN_BACKOFF_CAP = 5.0
#: A worker that stayed up this long before crashing resets its slot's count.
CRASH_RESET_SECONDS = 30.0
#: Consecutive crashes after which a slot is no longer respawned.
MAX_CONSECUTIVE_CRASHES = 5


def _reserve_port(host: str, port: int) -> socket.socket:
    """A bound, *non-listening* SO_REUSEPORT placeholder.

    Reserves the address (resolving ``port=0`` to a real port) without
    joining the kernel's accept-distribution group — a socket must
    listen to receive connections, and this one never does.
    """
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        s.bind((host, port))
    except OSError:
        s.close()
        raise
    return s


def _shared_listener(host: str, port: int) -> socket.socket:
    """The fallback: one listening socket every forked worker inherits."""
    s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((host, port))
        s.listen(128)
    except OSError:
        s.close()
        raise
    return s


def _worker_main(
    config: ServiceConfig, sock: socket.socket | None, ready
) -> None:
    """A worker process: the full server stack on the shared port.

    Runs in a forked child.  The inherited metrics registry is zeroed
    first (fork copies the parent's counts; a worker's exports must
    start from its own zero) and then stamped with the worker label.
    ``serve`` installs the SIGTERM -> graceful-drain handler.
    """
    from ..obs import metrics as obs_metrics

    # The supervisor's own INT handler must not fire in the worker: a
    # Ctrl-C at the terminal reaches the whole process group, and the
    # workers' shutdown is the parent's SIGTERM to orchestrate.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    obs_metrics.REGISTRY.reset()
    serve(config, sock=sock, ready=ready)


class WorkerSupervisor:
    """Parent of a prefork worker group sharing one port.

    Usable as a context manager (tests do)::

        with WorkerSupervisor(ServiceConfig(port=0), procs=4) as sup:
            client = ServiceClient("127.0.0.1", sup.port)

    ``start`` binds/reserves the port, forks ``procs`` workers, and
    blocks until every worker's socket is accepting.  A monitor thread
    restarts any worker that dies (``restarts`` counts the attempts),
    backing off per slot; slots that crash-looped are listed in
    ``gave_up`` and stay dead.  ``stop`` SIGTERMs the group, waits for
    graceful drains, and SIGKILLs stragglers past the timeout.
    """

    def __init__(self, config: ServiceConfig | None = None, procs: int = 2) -> None:
        if procs < 1:
            raise ValueError(f"procs must be >= 1: {procs}")
        self.config = config or ServiceConfig()
        self.procs = procs
        self.port: int = -1
        self.restarts = 0
        self.gave_up: set[int] = set()
        self.reuse_port = SO_REUSEPORT_AVAILABLE
        self._ctx = mp.get_context("fork")
        self._placeholder: socket.socket | None = None
        self._shared_sock: socket.socket | None = None
        self._workers: list[mp.process.BaseProcess | None] = [None] * procs
        # Per-slot crash-loop state: consecutive crashes, last spawn time,
        # and when the next respawn is due.
        self._crashes = [0] * procs
        self._spawned_at = [0.0] * procs
        self._respawn_at = [0.0] * procs
        self._stopping = threading.Event()
        self._monitor_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self.stats_dir = self.config.stats_dir or mkdtemp(prefix="repro-workers-")

    # -- lifecycle ------------------------------------------------------------

    def start(self, ready_timeout: float = 15.0) -> "WorkerSupervisor":
        host, port = self.config.host, self.config.port
        if self.reuse_port:
            self._placeholder = _reserve_port(host, port)
            self.port = self._placeholder.getsockname()[1]
        else:
            self._shared_sock = _shared_listener(host, port)
            self.port = self._shared_sock.getsockname()[1]
        for i in range(self.procs):
            self._spawn(i, ready_timeout)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="repro-supervisor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def _worker_config(self, index: int) -> ServiceConfig:
        return replace(
            self.config,
            port=self.port,
            reuse_port=self.reuse_port,
            worker_index=index,
            stats_dir=self.stats_dir,
        )

    def _spawn(self, index: int, ready_timeout: float) -> None:
        self._spawned_at[index] = time.monotonic()
        ready = self._ctx.Event()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._worker_config(index), self._shared_sock, ready),
            name=f"repro-worker-{index}",
            daemon=False,
        )
        proc.start()
        self._workers[index] = proc
        deadline = self._spawned_at[index] + ready_timeout
        while not ready.wait(0.05):
            if not proc.is_alive():
                raise RuntimeError(
                    f"worker {index} (pid {proc.pid}) exited with code "
                    f"{proc.exitcode} before becoming ready"
                )
            if time.monotonic() >= deadline:
                proc.kill()
                proc.join(timeout=5.0)
                raise RuntimeError(
                    f"worker {index} (pid {proc.pid}) did not become ready "
                    f"within {ready_timeout}s"
                )

    def _note_crash(self, index: int) -> None:
        """Count a crash of slot ``index``; schedule its respawn or give up."""
        now = time.monotonic()
        if now - self._spawned_at[index] >= CRASH_RESET_SECONDS:
            self._crashes[index] = 0
        self._crashes[index] += 1
        self._workers[index] = None
        if self._crashes[index] >= MAX_CONSECUTIVE_CRASHES:
            self.gave_up.add(index)
        else:
            delay = RESPAWN_BACKOFF * 2 ** (self._crashes[index] - 1)
            self._respawn_at[index] = now + min(delay, RESPAWN_BACKOFF_CAP)
        self._publish_state()

    def _publish_state(self) -> None:
        """Atomically write ``supervisor.json`` into ``stats_dir``."""
        d = Path(self.stats_dir)
        tmp = d / f".supervisor.json.{os.getpid()}.tmp"
        state = {"restarts": self.restarts, "gave_up": sorted(self.gave_up)}
        try:
            tmp.write_text(json.dumps(state))
            tmp.replace(d / "supervisor.json")
        except OSError:
            pass  # stats publication must never take the supervisor down

    def _monitor(self) -> None:
        """Restart crashed workers until the supervisor stops.

        A worker that exits while we are not stopping did so abnormally
        (graceful exits only happen on our SIGTERM); it is respawned at
        the same index — same port, same shared socket, same stats slot —
        once its slot's backoff delay has passed.  A failed respawn (the
        child exits before it is ready, fork fails, the port is gone)
        counts as one more crash of that slot.
        """
        while not self._stopping.wait(0.1):
            for i, proc in enumerate(self._workers):
                if i in self.gave_up or self._stopping.is_set():
                    continue
                if proc is not None:
                    if not proc.is_alive():
                        proc.join()
                        self._note_crash(i)
                    continue
                if time.monotonic() < self._respawn_at[i]:
                    continue
                with self._lock:
                    if self._stopping.is_set():
                        break
                    self.restarts += 1
                    try:
                        self._spawn(i, ready_timeout=15.0)
                    except (RuntimeError, OSError):
                        self._note_crash(i)

    def worker_pids(self) -> list[int]:
        """Live worker pids, by index (crashed slots omitted)."""
        return [
            p.pid
            for p in self._workers
            if p is not None and p.is_alive() and p.pid is not None
        ]

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful group shutdown: SIGTERM, drain, join, then SIGKILL."""
        with self._lock:
            self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        for proc in self._workers:
            if proc is not None and proc.is_alive() and proc.pid is not None:
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._workers:
            if proc is None:
                continue
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self._workers = [None] * self.procs
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None
        if self._shared_sock is not None:
            self._shared_sock.close()
            self._shared_sock = None

    def __enter__(self) -> "WorkerSupervisor":
        try:
            return self.start()
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_prefork(config: ServiceConfig | None = None, procs: int = 2) -> None:
    """Blocking entry point for ``repro serve --procs N``."""
    sup = WorkerSupervisor(config, procs)
    sup.start()
    mode = "SO_REUSEPORT" if sup.reuse_port else "shared listener"
    print(
        f"repro service listening on http://{sup.config.host}:{sup.port} "
        f"({procs} workers, {mode})",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):  # noqa: ARG001 - signal handler shape
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        while not stop.wait(0.5):
            pass
    finally:
        sup.stop()
