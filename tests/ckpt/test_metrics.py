"""Runtime metrics collection."""

import math

import pytest

from repro.ckpt.backends import IOStore, LocalStore, PartnerStore
from repro.ckpt.metrics import RuntimeMetrics, StageCounter
from repro.ckpt.multilevel import MultilevelCheckpointer
from repro.obs.metrics import REGISTRY


class TestStageCounter:
    def test_rate(self):
        s = StageCounter()
        s.add(1000, 0.5)
        assert s.rate == 2000.0
        assert s.ops == 1

    def test_rate_empty_is_zero(self):
        assert StageCounter().rate == 0.0

    def test_rate_zero_seconds_nonzero_bytes_is_inf(self):
        s = StageCounter()
        s.add(1000, 0.0)
        assert s.rate == math.inf  # not a silent 0.0

    def test_timed_charges_on_exception(self):
        s = StageCounter()
        with pytest.raises(RuntimeError):
            with s.timed(50):
                raise RuntimeError("x")
        assert s.bytes == 50
        assert s.seconds > 0.0
        assert s.ops == 1


class TestRuntimeMetrics:
    def test_timed_accumulates(self):
        m = RuntimeMetrics()
        with m.timed("local"):
            pass
        with m.timed("io"):
            pass
        assert m.blocked_seconds["local"] >= 0.0
        assert m.total_blocked == sum(m.blocked_seconds.values())

    def test_unknown_activity_rejected(self):
        m = RuntimeMetrics()
        with pytest.raises(KeyError):
            with m.timed("lunch"):
                pass

    def test_summary_renders(self):
        m = RuntimeMetrics()
        m.checkpoints = 3
        assert "3 checkpoints" in m.summary()

    def test_timed_charges_on_exception(self):
        m = RuntimeMetrics()
        with pytest.raises(RuntimeError):
            with m.timed("io"):
                raise RuntimeError("x")
        assert m.blocked_seconds["io"] > 0.0


class TestCheckpointerIntegration:
    def test_counters_track_operations(self, tmp_path, small_blob):
        local = LocalStore(tmp_path / "nvm", capacity=4)
        io = IOStore(tmp_path / "pfs")
        cr = MultilevelCheckpointer("m", local, io, mode="host", io_every=2)
        cr.checkpoint({0: small_blob})
        cr.checkpoint({0: small_blob})
        assert cr.metrics.checkpoints == 2
        assert cr.metrics.bytes_local == 2 * len(small_blob)
        assert cr.metrics.bytes_io_host == len(small_blob)  # only ckpt 2
        assert cr.metrics.blocked_seconds["local"] > 0.0
        assert cr.metrics.blocked_seconds["io"] > 0.0

    def test_restore_counted(self, tmp_path, small_blob):
        local = LocalStore(tmp_path / "nvm", capacity=4)
        io = IOStore(tmp_path / "pfs")
        cr = MultilevelCheckpointer("m", local, io, mode="host")
        cr.checkpoint({0: small_blob})
        cr.restart()
        assert cr.metrics.restores == 1
        assert cr.metrics.blocked_seconds["restore"] > 0.0

    def test_ndp_mode_no_host_io_bytes(self, tmp_path, small_blob):
        local = LocalStore(tmp_path / "nvm", capacity=4)
        io = IOStore(tmp_path / "pfs")
        with MultilevelCheckpointer("m", local, io, mode="ndp") as cr:
            cr.checkpoint({0: small_blob})
            cr.flush_to_io(30)
            assert cr.metrics.bytes_io_host == 0  # drains are background


class TestOneCountPerEvent:
    """Each C/R quantity is one registry series, bound to the one field
    that counts it; a second checkpointer for the same app replaces the
    first one's bindings instead of adding to them."""

    def test_series_read_the_last_instances_fields(self, tmp_path, small_blob):
        def run(root, partner, n):
            cr = MultilevelCheckpointer(
                "app", LocalStore(root / "nvm", capacity=4), IOStore(root / "pfs"),
                partner=partner, mode="ndp",
            ).start()
            for step in range(n):
                cr.checkpoint({0: small_blob, 1: small_blob[::-1]}, position=step)
            assert cr.flush_to_io(30)
            cr.restart()
            return cr

        first = run(tmp_path / "a", None, 3)
        first.close()
        cr = run(tmp_path / "b", PartnerStore(tmp_path / "b" / "partner"), 2)
        try:
            assert cr.daemon.wait_idle(30)
            m, stats = cr.metrics, cr.daemon.stats
            cr_cell, ndp_cell = {"app": "app", "mode": "ndp"}, {"app": "app"}
            expected = [
                ("cr_checkpoints_total", cr_cell, m.checkpoints),
                ("cr_restores_total", cr_cell, m.restores),
                ("cr_bytes_total", dict(cr_cell, level="local"), m.bytes_local),
                ("cr_bytes_total", dict(cr_cell, level="partner"), m.bytes_partner),
                ("cr_bytes_total", dict(cr_cell, level="io_host"), m.bytes_io_host),
                ("ndp_drains_total", ndp_cell, stats.checkpoints_drained),
                ("ndp_backpressure_stalls_total", ndp_cell, stats.stalls),
                ("ndp_backpressure_stall_seconds_total", ndp_cell, stats.stall_seconds),
            ]
            assert (m.checkpoints, m.restores) == (2, 1)
            assert m.bytes_partner == m.bytes_local > 0
            assert stats.checkpoints_drained >= 1
            text = REGISTRY.render_prometheus()
            for name, cell, want in expected:
                assert REGISTRY.counter(name).value(**cell) == want, name
                assert f"# TYPE {name} counter" in text
            assert REGISTRY.gauge("ndp_queue_depth").value(app="app") == 0
            snapshot = REGISTRY.snapshot()
            for gone in (
                "cr_checkpoints", "cr_restores", "cr_bytes_local",
                "cr_bytes_partner", "cr_bytes_io_host",
                "ndp_checkpoints_drained", "ndp_stalls", "ndp_stall_seconds",
            ):
                assert gone not in snapshot
        finally:
            cr.close()
