"""Prefork serving: byte identity, crash restart, graceful drain, merged stats."""

import json
import os
import signal
import threading
import time

import pytest

from repro.service import supervisor
from repro.service import (
    SO_REUSEPORT_AVAILABLE,
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    WorkerSupervisor,
)

SIMULATE = {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3}
SWEEP = {
    "configs": [
        {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3},
        {"params": {"mtti": 600.0}, "strategy": "host", "work_mttis": 3},
    ],
    "seeds": [0, 1],
    "detail": True,
}


def _wait_until(cond, timeout=10.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cond():
            return True
        time.sleep(interval)
    return cond()


class TestByteIdentity:
    def test_prefork_responses_byte_identical_to_serial(self):
        """ISSUE acceptance: responses under --procs N are byte-identical
        to single-process serving.  Which worker the kernel picks must
        never change a byte."""
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=2) as sup:
            with ServiceClient("127.0.0.1", sup.port) as c:
                multi = [
                    c.post_raw("/v1/simulate", SIMULATE)
                    for _ in range(6)  # several, to hit both workers
                ]
                multi_sweep = c.post_raw("/v1/sweep", SWEEP)
        with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                serial = c.post_raw("/v1/simulate", SIMULATE)
                serial_sweep = c.post_raw("/v1/sweep", SWEEP)
        assert all(m == serial for m in multi)
        assert multi_sweep == serial_sweep


class TestSupervision:
    def test_crashed_worker_is_restarted_and_service_survives(self):
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=2) as sup:
            pids = sup.worker_pids()
            assert len(pids) == 2
            os.kill(pids[0], signal.SIGKILL)
            assert _wait_until(lambda: sup.restarts >= 1)
            assert _wait_until(lambda: len(sup.worker_pids()) == 2)
            new_pids = sup.worker_pids()
            assert pids[0] not in new_pids
            with ServiceClient("127.0.0.1", sup.port) as c:
                for _ in range(4):
                    assert c.healthz() == {"status": "ok"}

    def test_sigterm_drains_in_flight_request(self):
        """Graceful drain: SIGTERM mid-request finishes the request
        (the worker stops accepting, completes in-flight work, exits)."""
        # ~0.3 s of fast-engine work (ndp runs ~0.1 s per 100 MTTIs).
        heavy = {"params": {"mtti": 600.0}, "work_mttis": 300}
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=1) as sup:
            (pid,) = sup.worker_pids()
            result = {}

            def fire():
                with ServiceClient("127.0.0.1", sup.port, timeout=60.0) as c:
                    result["body"] = json.loads(c.post_raw("/v1/simulate", heavy))

            t = threading.Thread(target=fire)
            t.start()
            time.sleep(0.08)  # let the request reach the worker (~0.3 s job)
            os.kill(pid, signal.SIGTERM)
            t.join(timeout=30)
            assert not t.is_alive()
            assert "efficiency" in result["body"]["result"]


class TestCrashLoop:
    def test_spawn_fails_as_soon_as_the_worker_exits(self, monkeypatch):
        monkeypatch.setattr(supervisor, "_worker_main", lambda config, sock, ready: os._exit(3))
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="exited with code 3 before becoming ready"):
            with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=1):
                pass
        assert time.monotonic() - t0 < 5.0

    def test_crash_loop_backs_off_and_gives_up(self, monkeypatch, tmp_path):
        """The first worker comes up and dies; every respawn dies before it
        is ready.  Restarts stay bounded, the slot is given up, and no
        respawn waits out the 15 s readiness timeout."""
        marker = tmp_path / "first-worker-ran"

        def crashing(config, sock, ready):
            if not marker.exists():
                marker.touch()
                ready.set()
            os._exit(3)

        monkeypatch.setattr(supervisor, "_worker_main", crashing)
        monkeypatch.setattr(supervisor, "RESPAWN_BACKOFF", 0.02)
        t0 = time.monotonic()
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=1) as sup:
            assert _wait_until(lambda: sup.gave_up == {0}, timeout=10.0)
            time.sleep(0.3)  # a slot given up is never respawned again
            assert sup.restarts == supervisor.MAX_CONSECUTIVE_CRASHES - 1
            assert sup.worker_pids() == []
        assert time.monotonic() - t0 < 10.0

    def test_stats_report_the_slot_given_up(self, monkeypatch, tmp_path):
        """Slot 1 comes up once and then crash-loops; /stats, answered by
        the surviving slot 0, reports it under ``supervisor.gave_up``."""
        marker = tmp_path / "slot-1-ran"
        real_main = supervisor._worker_main

        def slot_one_crashes(config, sock, ready):
            if config.worker_index != 1:
                return real_main(config, sock, ready)
            if not marker.exists():
                marker.touch()
                ready.set()
            os._exit(3)

        monkeypatch.setattr(supervisor, "_worker_main", slot_one_crashes)
        monkeypatch.setattr(supervisor, "RESPAWN_BACKOFF", 0.02)
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=2) as sup:
            with ServiceClient("127.0.0.1", sup.port) as c:

                def stats():
                    return json.loads(c.get_raw("/stats"))

                assert _wait_until(
                    lambda: stats().get("supervisor", {}).get("gave_up") == [1],
                    timeout=10.0)
                snap = stats()
        assert snap["worker"] == 0
        assert snap["supervisor"] == {
            "restarts": supervisor.MAX_CONSECUTIVE_CRASHES - 1,
            "gave_up": [1],
        }


class TestObservability:
    def test_metrics_carry_worker_label(self):
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=2) as sup:
            with ServiceClient("127.0.0.1", sup.port) as c:
                c.post_raw("/v1/simulate", SIMULATE)
                text = c.get_raw("/metrics").decode()
        assert 'worker="' in text

    def test_stats_merges_all_workers(self):
        """Any worker answering /stats folds in every published
        worker-<i>.json snapshot."""
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=2) as sup:
            with ServiceClient("127.0.0.1", sup.port) as c:

                def indexes():
                    snap = json.loads(c.get_raw("/stats"))
                    return {w["worker"] for w in snap.get("workers", [])}

                assert _wait_until(lambda: indexes() == {0, 1})

    def test_reuse_port_flag_reflects_platform(self):
        with WorkerSupervisor(ServiceConfig(port=0, jobs=1), procs=1) as sup:
            assert sup.reuse_port == SO_REUSEPORT_AVAILABLE
