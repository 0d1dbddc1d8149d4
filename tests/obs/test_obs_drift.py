"""Drift reports: measured-vs-model tables."""

import math

import pytest

from repro.ckpt.backends import IOStore, LocalStore
from repro.ckpt.format import make_header
from repro.ckpt.metrics import RuntimeMetrics, StageCounter
from repro.ckpt.ndp_daemon import NDPDrainDaemon
from repro.compression.codecs import make_codec
from repro.core.breakdown import OverheadBreakdown
from repro.core.configs import (
    NDP_GZIP1,
    NO_COMPRESSION,
    CompressionSpec,
    CRParameters,
    paper_parameters,
)
from repro.core.model import multilevel_ndp
from repro.core.strategy import TABLE
from repro.obs.drift import (
    DriftReport,
    DriftRow,
    blocked_drift,
    breakdown_drift,
    drain_drift,
    drain_rate_bound,
)
from repro.simulation import SimConfig, simulate


class TestDriftRow:
    def test_deviation_basic(self):
        assert DriftRow("x", 110.0, 100.0).deviation == pytest.approx(0.10)
        assert DriftRow("x", 90.0, 100.0).deviation == pytest.approx(-0.10)

    def test_both_zero_is_zero(self):
        assert DriftRow("x", 0.0, 0.0).deviation == 0.0

    def test_predicted_zero_is_signed_inf(self):
        assert DriftRow("x", 5.0, 0.0).deviation == math.inf
        assert DriftRow("x", -5.0, 0.0).deviation == -math.inf

    def test_render_units(self):
        assert "2.00 MB/s" in DriftRow("r", 2e6, 1e6, "B/s").render()
        assert "0.5000 s" in DriftRow("t", 0.5, 1.0, "s").render()
        assert "50.00%" in DriftRow("f", 0.5, 1.0, "%").render()

    def test_as_dict_inf_deviation_none(self):
        d = DriftRow("x", 1.0, 0.0).as_dict()
        assert d["deviation"] is None


class TestDriftReport:
    def test_add_and_render(self):
        rep = DriftReport("t")
        rep.add("alpha", 1.0, 2.0, "s")
        rep.note("hello")
        out = rep.render()
        assert "t" in out and "alpha" in out and "(hello)" in out
        assert "-50.0%" in out

    def test_max_abs_deviation_ignores_inf(self):
        rep = DriftReport("t")
        rep.add("a", 1.1, 1.0)
        rep.add("b", 1.0, 0.0)  # inf
        assert rep.max_abs_deviation == pytest.approx(0.1)

    def test_as_dict(self):
        rep = DriftReport("t")
        rep.add("a", 1.0, 1.0)
        d = rep.as_dict()
        assert d["title"] == "t"
        assert len(d["rows"]) == 1


class _Stats:
    """Duck-typed DrainStats for drift tests."""

    def __init__(self):
        self.bytes_in = 0
        self.bytes_out = 0
        self.stalls = 0
        self.stall_seconds = 0.0
        self.compress = StageCounter()
        self.write = StageCounter()
        self.drain = StageCounter()

    @property
    def achieved_factor(self):
        return 1.0 - self.bytes_out / self.bytes_in if self.bytes_in else 0.0


SPEC = CompressionSpec(factor=0.5, compress_rate=100e6, decompress_rate=1e9, name="t")
PARAMS = CRParameters(
    checkpoint_size=1e6, local_bandwidth=1e9, io_bandwidth=25e6, local_interval=10.0
)


class TestDrainDrift:
    def test_bound_io_limited(self):
        # io term: 25e6 / 0.5 = 50e6 < compress_rate 100e6
        assert drain_rate_bound(PARAMS, SPEC) == pytest.approx(50e6)

    def test_bound_compute_limited(self):
        slow = SPEC.with_factor(0.9)  # io term 250e6 > compress 100e6
        assert drain_rate_bound(PARAMS, slow) == pytest.approx(100e6)

    def test_report_rows(self):
        stats = _Stats()
        stats.bytes_in = 100_000_000
        stats.bytes_out = 50_000_000
        stats.compress.add(50_000_000, 1.0)  # compressed bytes, 1s
        stats.write.add(50_000_000, 2.0)
        stats.drain.add(100_000_000, 2.0)  # uncompressed, end-to-end
        rep = drain_drift(stats, PARAMS, SPEC)
        rows = {r.metric: r for r in rep.rows}
        # compress rate is measured in *uncompressed* B/s: bytes_in/seconds
        assert rows["compress rate"].measured == pytest.approx(100e6)
        assert rows["drain rate (end-to-end)"].predicted == pytest.approx(50e6)
        assert rows["compression factor"].measured == pytest.approx(0.5)

    def test_compress_rate_row_on_a_real_drain(self, tmp_path):
        # The compress counter is charged *compressed* frame bytes, so its
        # own rate is (1 - factor) x the model's compress_rate; the drift
        # row must use uncompressed bytes over compress seconds instead.
        local, io = LocalStore(tmp_path / "nvm"), IOStore(tmp_path / "pfs")
        payload = bytes(200_000) + bytes(range(256)) * 400
        local.write_checkpoint("app", 1, {0: (make_header("app", 0, 1, payload), payload)})
        daemon = NDPDrainDaemon(
            "app", local, io, codec=make_codec("gzip", 1), block_size=16_384
        )
        daemon._drain_one(1)
        stats = daemon.stats
        measured = {r.metric: r for r in drain_drift(stats, PARAMS, SPEC).rows}[
            "compress rate"
        ].measured
        assert measured == pytest.approx(stats.bytes_in / stats.compress.seconds)
        assert stats.compress.rate == pytest.approx((1 - stats.achieved_factor) * measured)
        assert stats.achieved_factor > 0.5

    def test_stall_note(self):
        stats = _Stats()
        stats.stalls = 3
        stats.stall_seconds = 0.5
        rep = drain_drift(stats, PARAMS, SPEC)
        assert any("3 stalls" in n for n in rep.notes)

    def test_empty_stats_no_rows(self):
        rep = drain_drift(_Stats(), PARAMS, SPEC)
        assert rep.rows == []
        assert rep.notes  # bound note always present


class TestBlockedDrift:
    def _metrics(self):
        m = RuntimeMetrics()
        m.checkpoints = 4
        m.blocked_seconds["local"] = 0.004
        return m

    def test_ndp_mode_predicts_zero_io(self):
        m = self._metrics()
        m.blocked_seconds["io"] = 0.0
        rep = blocked_drift(m, PARAMS, SPEC, mode="ndp")
        rows = {r.metric: r for r in rep.rows}
        assert rows["blocked I/O s (total)"].predicted == 0.0
        assert rows["blocked local s/ckpt"].measured == pytest.approx(0.001)
        assert rows["blocked local s/ckpt"].predicted == pytest.approx(
            PARAMS.local_commit_time
        )

    def test_host_mode_predicts_io_commit(self):
        m = self._metrics()
        m.blocked_seconds["io"] = 0.08
        rep = blocked_drift(m, PARAMS, SPEC, mode="host", io_every=2)
        rows = {r.metric: r for r in rep.rows}
        assert rows["blocked I/O s/push"].measured == pytest.approx(0.04)  # 2 pushes
        assert rows["blocked I/O s/push"].predicted == pytest.approx(
            PARAMS.io_commit_time(SPEC)
        )

    def test_io_only_blocks_on_every_checkpoint(self):
        params = CRParameters(checkpoint_size=50e6, io_bandwidth=25e6)
        assert params.io_commit_time(NO_COMPRESSION) == pytest.approx(2.0)
        m = RuntimeMetrics()
        m.checkpoints = 4
        m.blocked_seconds["io"] = 8.0
        rep = blocked_drift(m, params, NO_COMPRESSION, mode="io-only")
        rows = {r.metric: r for r in rep.rows}
        assert rows["blocked I/O s (total)"].predicted == pytest.approx(8.0)
        assert rows["blocked I/O s (total)"].deviation == pytest.approx(0.0)
        assert rows["blocked local s/ckpt"].predicted == 0.0

    @pytest.mark.parametrize("name", list(TABLE))
    def test_counts_each_strategy_produces_give_zero_drift(self, name):
        # The failure-free DES charges each entry's checkpoints to the
        # levels its spec names; those counts and seconds, read as
        # runtime metrics, must match the prediction row for row.
        params = CRParameters(mtti=math.inf)
        ratio = 3
        res = simulate(SimConfig(
            params=params, strategy=name, ratio=ratio, compression=SPEC,
            work=7 * 150.0 + 33.0,
        ))
        m = RuntimeMetrics()
        m.checkpoints = res.local_checkpoints if TABLE[name].local else res.io_checkpoints
        for level in ("local", "io"):
            m.blocked_seconds[level] = getattr(res.breakdown, f"checkpoint_{level}") * res.wall_time
        rep = blocked_drift(m, params, SPEC, mode=name, io_every=ratio)
        assert m.checkpoints > 0
        for row in rep.rows:
            assert row.deviation == pytest.approx(0.0, abs=1e-9), row

    def test_restore_row_only_when_restored(self):
        m = self._metrics()
        rep = blocked_drift(m, PARAMS, SPEC)
        assert not any("restore" in r.metric for r in rep.rows)
        m.restores = 1
        m.blocked_seconds["restore"] = 0.002
        rep = blocked_drift(m, PARAMS, SPEC)
        assert any("restore" in r.metric for r in rep.rows)


class TestBreakdownDrift:
    def test_against_model_result(self):
        params = paper_parameters()
        model = multilevel_ndp(params, NDP_GZIP1)
        measured = model.breakdown  # zero drift against itself
        rep = breakdown_drift(measured, model)
        assert rep.max_abs_deviation == 0.0
        names = [r.metric for r in rep.rows]
        assert "efficiency" in names
        assert "rerun_io" in names
        assert len(names) == 7

    def test_accepts_raw_breakdown(self):
        b = OverheadBreakdown(
            compute=0.9,
            checkpoint_local=0.04,
            checkpoint_io=0.0,
            restore_local=0.01,
            restore_io=0.01,
            rerun_local=0.02,
            rerun_io=0.02,
        )
        rep = breakdown_drift(b, b)
        assert rep.max_abs_deviation == 0.0
