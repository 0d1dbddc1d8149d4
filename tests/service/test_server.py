"""End-to-end over real sockets: byte-identity, shared state, HTTP edges."""

import dataclasses
import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import REGISTRY
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    canonical_dumps,
    config_from_json,
    result_to_json,
)
from repro.simulation import simulate
from repro.simulation.pool import ResultCache

BODY = {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3, "seed": 1}


def expected_bytes(body: dict) -> bytes:
    """What a serial, single-request evaluation would answer, exactly."""
    return canonical_dumps({"result": result_to_json(simulate(config_from_json(body)))})


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


class TestLiveness:
    def test_healthz(self, client):
        assert client.healthz() == {"status": "ok"}

    def test_metrics_exposes_service_and_pool_counters(self, client):
        client.simulate(BODY)  # make sure the counters exist
        text = client.metrics_text()
        for name in ("service_requests_total", "service_batches_total", "pool_runs_total"):
            assert name in text

    def test_stats_shape(self, client):
        client.simulate(BODY)
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["batch"]["submitted"] >= 1
        assert stats["cache"] == {"enabled": False, "hits": 0, "misses": 0}
        assert set(stats["coalesce"]) == {"primary", "coalesced", "inflight"}


class TestByteIdentity:
    def test_simulate_matches_serial_exactly(self, client):
        assert client.post_raw("/v1/simulate", BODY) == expected_bytes(BODY)

    def test_concurrent_duplicates_all_byte_identical(self, server):
        """ISSUE acceptance: identical in-flight requests coalesce onto
        one computation and every waiter gets the exact serial bytes."""
        body = dict(BODY, seed=7)

        def fire(_):
            with ServiceClient("127.0.0.1", server.port) as c:
                return c.post_raw("/v1/simulate", body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            blobs = list(pool.map(fire, range(8)))
        want = expected_bytes(body)
        assert all(blob == want for blob in blobs)

    def test_concurrent_near_duplicates_ride_fused_batches_exactly(self, server):
        """Different seeds fuse into one simulate_batch call; each response
        still matches its own serial evaluation byte-for-byte."""
        bodies = [dict(BODY, seed=s) for s in range(20, 26)]

        def fire(body):
            with ServiceClient("127.0.0.1", server.port) as c:
                return body, c.post_raw("/v1/simulate", body)

        with ThreadPoolExecutor(max_workers=6) as pool:
            out = list(pool.map(fire, bodies))
        for body, blob in out:
            assert blob == expected_bytes(body)


class TestSweep:
    def test_aggregates_match_serial_per_cell(self, client):
        body = {
            "configs": [
                {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3},
                {"params": {"mtti": 600.0}, "strategy": "host", "ratio": 2, "work_mttis": 3},
            ],
            "seeds": [0, 1, 2],
        }
        res = client.sweep(body)
        assert (res["n_cells"], res["n_seeds"]) == (2, 3)
        for cell_body, cell in zip(body["configs"], res["cells"]):
            cfg = config_from_json(cell_body)
            effs = [
                simulate(dataclasses.replace(cfg, seed=s)).efficiency
                for s in body["seeds"]
            ]
            assert cell["efficiencies"] == effs
            assert cell["mean_efficiency"] == pytest.approx(sum(effs) / len(effs))
            assert "results" not in cell  # detail defaults off

    def test_detail_returns_full_results(self, client):
        res = client.sweep(
            {"configs": [dict(BODY)], "seeds": [0], "detail": True}
        )
        assert len(res["cells"][0]["results"]) == 1


class TestFusedDispatch:
    def test_two_sweeps_in_one_dispatch_are_one_pool_chunk(self):
        """A fused batch runs as one ``simulate_batch`` pass per pool
        worker: at ``jobs=1`` two 64-row sweeps in one window are one
        dispatch and one pool chunk."""
        cells = [dict(BODY, strategy=s) for s in ("ndp", "host", "io-only", "local-only")]
        sweeps = [
            {"configs": cells, "seeds": list(range(lo, lo + 16))} for lo in (100, 200)
        ]
        chunks = REGISTRY.counter("pool_chunks_total")
        config = ServiceConfig(port=0, jobs=1, batch_window=0.5)
        with BackgroundServer(config) as srv:

            def fire(body):
                with ServiceClient("127.0.0.1", srv.port) as c:
                    return c.sweep(body)

            before = chunks.value()
            with ThreadPoolExecutor(max_workers=2) as pool:
                answers = list(pool.map(fire, sweeps))
            after = chunks.value()
            with ServiceClient("127.0.0.1", srv.port) as c:
                batch = c.stats()["batch"]
        assert [a["n_cells"] * a["n_seeds"] for a in answers] == [64, 64]
        assert (batch["batches"]["fast"], batch["max_batch_seen"]) == (1, 128)
        assert after - before == 1


class TestOptimize:
    def test_returns_model_optimum_deterministically(self, client):
        body = {"params": {"mtti": 600.0}, "compression": "none"}
        first = client.post_raw("/v1/optimize", body)
        again = client.post_raw("/v1/optimize", body)
        assert first == again
        optimal = json.loads(first)["optimal"]
        assert {"config", "efficiency", "ratio", "tau"} <= set(optimal)

    def test_concurrent_identical_requests_get_identical_bodies(self, server):
        """Optimize requests are not coalesced: eight concurrent
        identical requests each run the optimizer (the process-wide
        memo is the dedup layer) and get the same bytes."""
        body = {"params": {"mtti": 650.0}, "compression": "none"}

        def fire(_):
            with ServiceClient("127.0.0.1", server.port) as c:
                return c.post_raw("/v1/optimize", body)

        with ThreadPoolExecutor(max_workers=8) as pool:
            blobs = list(pool.map(fire, range(8)))
        assert len(blobs) == 8
        assert all(blob == blobs[0] for blob in blobs)
        assert "optimal" in json.loads(blobs[0])

    def test_bad_accounting_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            client.optimize({"rerun_accounting": "optimism"})
        assert err.value.status == 400


class TestHttpEdges:
    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.post_raw("/v1/teleport", {})
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as err:
            client.get_raw("/v1/simulate")
        assert err.value.status == 405
        with pytest.raises(ServiceError) as err:
            client.post_raw("/healthz", {})
        assert err.value.status == 405

    def test_unknown_key_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.simulate({"warp_factor": 9})
        assert err.value.status == 400
        assert "warp_factor" in err.value.message

    def test_engine_key_400(self, client):
        """The service runs only the production engine; pinning one is an
        unknown key like any other."""
        with pytest.raises(ServiceError) as err:
            client.simulate(dict(BODY, engine="des"))
        assert err.value.status == 400
        assert "engine" in err.value.message

    def test_invalid_json_body_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request(
                "POST",
                "/v1/simulate",
                body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert "invalid JSON" in payload["error"]
        finally:
            conn.close()

    @pytest.mark.parametrize("path", ["/v1/simulate", "/v1/sweep", "/v1/optimize"])
    def test_too_deeply_nested_json_body_400(self, server, path):
        """JSON nested past the decoder's recursion limit is a bad
        request, answered like any other, on a connection that stays
        usable."""
        with ServiceClient("127.0.0.1", server.port) as c:
            c._conn.request("POST", path, body=b"[" * 100_000)
            resp = c._conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert payload["error"].startswith("invalid JSON body: maximum recursion")
            assert c.healthz() == {"status": "ok"}


class TestSharedCache:
    def test_repeat_requests_hit_the_process_wide_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "simcache")
        config = ServiceConfig(port=0, jobs=1, cache=cache)
        body = dict(BODY, seed=11)
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                first = c.post_raw("/v1/simulate", body)
                second = c.post_raw("/v1/simulate", body)
                stats = c.stats()
        assert first == second == expected_bytes(body)
        assert stats["cache"]["enabled"] is True
        assert stats["cache"]["hits"] >= 1

    def test_sweep_with_warm_partial_cache_byte_identical(self, tmp_path):
        """ISSUE 8 acceptance: miss-only slicing through ``/v1/sweep`` —
        a warm partial cache changes which rows reach the engine, never
        a byte of the response."""
        from repro.simulation.pool import config_key

        body = {
            "configs": [
                {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3},
                {
                    "params": {"mtti": 600.0},
                    "strategy": "ndp",
                    "nvm_capacity": 2,
                    "work_mttis": 3,
                },
            ],
            "seeds": [0, 1, 2],
        }
        # Reference bytes from a cache-less server (every row simulated).
        with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                want = c.post_raw("/v1/sweep", body)
        # Warm a strict subset of the sweep's rows, then serve again.
        cache = ResultCache(tmp_path / "simcache")
        for cell in body["configs"]:
            base = config_from_json(cell)
            for seed in (0, 2):
                row = dataclasses.replace(base, seed=seed)
                cache.put(config_key(row), simulate(row))
        with BackgroundServer(ServiceConfig(port=0, jobs=1, cache=cache)) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                got = c.post_raw("/v1/sweep", body)
                stats = c.stats()
        assert got == want
        assert stats["batch"]["cache_hits"] >= 4  # the warm rows never dispatched


class SpyCache(ResultCache):
    def __init__(self, root):
        super().__init__(root)
        self.gets = self.puts = 0

    def get(self, key):
        self.gets += 1
        return super().get(key)

    def put(self, key, result):
        self.puts += 1
        super().put(key, result)


class TestOnePath:
    """Every row is probed once and written once, by the batcher alone."""

    @pytest.mark.parametrize("coalesce", [True, False])
    def test_stats_coalesce_counts_every_simulate_row_once(self, tmp_path, coalesce):
        """``/stats`` ``coalesce.primary + coalesced`` is the number of
        simulate rows (single simulates and sweep rows, warm or cold);
        optimize requests are not in it."""
        cache = ResultCache(tmp_path / "simcache")
        config = ServiceConfig(port=0, jobs=1, cache=cache, coalesce=coalesce)
        bodies = [dict(BODY, seed=s) for s in (80, 80, 80, 81)]
        sweep = {"configs": [dict(BODY, seed=80)], "seeds": [80, 82]}
        with BackgroundServer(config) as srv:

            def fire(body):
                with ServiceClient("127.0.0.1", srv.port) as c:
                    return c.post_raw("/v1/simulate", body)

            with ThreadPoolExecutor(max_workers=4) as pool:
                blobs = list(pool.map(fire, bodies))
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.sweep(sweep)
                c.optimize({"params": {"mtti": 600.0}})
                stats = c.stats()
        assert blobs == [expected_bytes(b) for b in bodies]
        counted = stats["coalesce"]
        assert counted["primary"] + counted["coalesced"] == len(bodies) + 2
        assert counted["inflight"] == 0
        if not coalesce:
            assert counted["coalesced"] == 0

    def test_sweep_rows_probe_and_write_once(self, tmp_path):
        cells = [dict(BODY), dict(BODY, strategy="host", ratio=2)]
        sweep = {"configs": cells, "seeds": [0, 1, 2]}
        cache = SpyCache(tmp_path / "simcache")
        runner_rows = []
        with BackgroundServer(ServiceConfig(port=0, jobs=1, cache=cache)) as srv:
            real = srv.server.batcher._runner
            srv.server.batcher._runner = lambda cfgs: runner_rows.extend(cfgs) or real(cfgs)
            with ServiceClient("127.0.0.1", srv.port) as c:
                first = c.post_raw("/v1/sweep", sweep)
                assert (cache.gets, cache.puts, len(runner_rows)) == (6, 6, 6)
                assert c.stats()["cache"]["misses"] == 6  # one lookup a row
                cache.gets = cache.puts = 0
                runner_rows.clear()
                assert c.post_raw("/v1/sweep", sweep) == first
                assert (cache.gets, cache.puts, len(runner_rows)) == (6, 0, 0)

    def test_unwritable_cache_still_answers_serial_bytes(self, tmp_path):
        from repro.obs.metrics import REGISTRY

        errors = REGISTRY.counter("cache_put_errors_total")
        (tmp_path / "file").write_text("")  # every mkdir under it fails
        before = errors.value()
        config = ServiceConfig(port=0, jobs=1, cache=ResultCache(tmp_path / "file"))
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                assert c.post_raw("/v1/simulate", BODY) == expected_bytes(BODY)
        assert errors.value() - before == 1

    def test_each_row_is_hashed_once(self, tmp_path, monkeypatch):
        """The server's key serves the probe, the dedup and the
        write-back, and the parse memo keeps it for the body: the cold
        request hashes once, the warm repeat of its bytes not at all."""
        import repro.service.batcher as batcher_mod
        import repro.service.server as server_mod
        import repro.simulation.pool as pool_mod

        body = dict(BODY, seed=70)
        want = expected_bytes(body)
        hashed = []
        real = pool_mod.config_key

        def spy(config):
            hashed.append(config.seed)
            return real(config)

        for mod in (batcher_mod, server_mod, pool_mod):
            monkeypatch.setattr(mod, "config_key", spy)
        for coalesce in (True, False):
            hashed.clear()
            cache = ResultCache(tmp_path / f"simcache-{coalesce}")
            config = ServiceConfig(port=0, jobs=1, cache=cache, coalesce=coalesce)
            with BackgroundServer(config) as srv:
                with ServiceClient("127.0.0.1", srv.port) as c:
                    assert c.post_raw("/v1/simulate", body) == want  # cold
                    assert hashed == [70]
                    assert c.post_raw("/v1/simulate", body) == want  # warm
                    assert hashed == [70]
            assert (cache.hits, cache.misses) == (1, 1)


class TestWarmHitRobustness:
    """Answering hits at submit must never fail or alter a correct
    answer: every case gives the serial bytes or an explicit status."""

    def test_warm_row_answered_while_cold_rows_are_shed(self, tmp_path):
        # Every batch holds the single dispatch slot for 0.25 s (a sleep
        # around the real runner) while a sibling queues behind it.
        config = ServiceConfig(
            port=0,
            jobs=1,
            cache=ResultCache(tmp_path / "simcache"),
            batch_window=0.01,
            max_batch=1,
            max_inflight=1,
            queue_budget=0.05,
        )
        warm = dict(BODY, seed=10)
        with BackgroundServer(config) as srv:
            real = srv.server.batcher._runner

            def slow(configs):
                time.sleep(0.25)
                return real(configs)

            srv.server.batcher._runner = slow
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.simulate(warm)  # caches seed 10, warms the EWMA (~0.25 s)

                def fire(seed):
                    with ServiceClient("127.0.0.1", srv.port) as c2:
                        return c2.post_raw("/v1/simulate", dict(BODY, seed=seed))

                with ThreadPoolExecutor(max_workers=2) as pool:
                    futs = [pool.submit(fire, 11)]
                    time.sleep(0.05)  # 11 takes the slot (computes ~0.25 s)
                    futs.append(pool.submit(fire, 12))  # queued behind 11
                    time.sleep(0.05)
                    with pytest.raises(ServiceError) as exc:
                        c.simulate(dict(BODY, seed=13))
                    assert exc.value.status == 503
                    assert exc.value.retry_after is not None
                    assert c.post_raw("/v1/simulate", warm) == expected_bytes(warm)
                    for seed, fut in zip((11, 12), futs):
                        assert fut.result() == expected_bytes(dict(BODY, seed=seed))
                stats = c.stats()
        assert stats["batch"]["shed"] >= 1
        assert stats["batch"]["cache_hits"] == 1

    def test_tightest_deadline_on_a_warm_row_gets_serial_bytes(self, tmp_path):
        """A hit never waits, so no deadline can expire it; the same
        deadline on a cold row is a 504.  ``deadline_ms=0`` is refused
        by the protocol (400) before any lookup."""
        config = ServiceConfig(
            port=0, jobs=1, cache=ResultCache(tmp_path / "simcache"), batch_window=0.1
        )
        warm = dict(BODY, seed=40)
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.simulate(warm)
                got = c.post_raw("/v1/simulate", dict(warm, deadline_ms=1))
                with pytest.raises(ServiceError) as cold:
                    c.simulate(dict(BODY, seed=41, deadline_ms=1))
                with pytest.raises(ServiceError) as zero:
                    c.simulate(dict(warm, deadline_ms=0))
        assert got == expected_bytes(warm)
        assert cold.value.status == 504
        assert zero.value.status == 400

    def test_torn_entry_is_one_miss_and_is_repaired(self, tmp_path):
        from repro.simulation.pool import config_key

        body = dict(BODY, seed=50)
        row = config_from_json(body)
        cache = ResultCache(tmp_path / "simcache")
        cache.put(config_key(row), simulate(row))
        path = cache._path(config_key(row))
        path.write_bytes(path.read_bytes()[:40])  # a truncated JSON document
        with BackgroundServer(ServiceConfig(port=0, jobs=1, cache=cache)) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                assert c.post_raw("/v1/simulate", body) == expected_bytes(body)
                assert c.stats()["cache"] == {"enabled": True, "hits": 0, "misses": 1}
        assert cache.get(config_key(row)) == simulate(row)  # the write-back fixed it

    def test_cache_get_error_fails_only_its_row(self, tmp_path):
        from repro.simulation.pool import config_key

        poisoned = dict(BODY, seed=62)
        bad_key = config_key(config_from_json(poisoned))

        class BrokenIndexCache(ResultCache):
            def get(self, key):
                if key == bad_key:
                    raise RuntimeError("cache index corrupt")
                return super().get(key)

        config = ServiceConfig(
            port=0, jobs=1, cache=BrokenIndexCache(tmp_path / "simcache"), batch_window=0.5
        )
        queued = [dict(BODY, seed=60), dict(BODY, seed=61)]
        with BackgroundServer(config) as srv:

            def fire(body):
                with ServiceClient("127.0.0.1", srv.port) as c2:
                    return c2.post_raw("/v1/simulate", body)

            with ThreadPoolExecutor(max_workers=2) as pool:
                futs = [pool.submit(fire, body) for body in queued]
                deadline = time.monotonic() + 5.0
                while srv.server.batcher.queue_depth < 2 and time.monotonic() < deadline:
                    time.sleep(0.005)
                with ServiceClient("127.0.0.1", srv.port) as c:
                    with pytest.raises(ServiceError) as exc:
                        c.simulate(poisoned)
                assert exc.value.status == 500
                assert [f.result() for f in futs] == [expected_bytes(b) for b in queued]


def metric_values(text: str) -> dict[str, float]:
    """Unlabelled sample lines of a Prometheus text body, by name."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


class TestOneCountPerEvent:
    def test_stats_and_metrics_read_one_number_per_quantity(self, tmp_path):
        """Each batcher series in ``/metrics`` is the same number as its
        ``/stats`` field, for the server answering, even after another
        server ran in the same process."""
        with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.simulate(dict(BODY, seed=70))
                c.sweep({"configs": [BODY] * 2, "seeds": [71]})
        config = ServiceConfig(
            port=0,
            jobs=1,
            cache=ResultCache(tmp_path / "simcache"),
            batch_window=0.02,
            queue_budget=0.05,
        )
        warm = dict(BODY, seed=72)
        with BackgroundServer(config) as srv:
            batcher = srv.server.batcher
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.simulate(warm)  # the miss that warms the cache
                for _ in range(2):
                    assert c.post_raw("/v1/simulate", warm) == expected_bytes(warm)
                # Two identical rows in one sweep: the second attaches
                # to the first's pending job.
                c.sweep({"configs": [BODY] * 2, "seeds": [73]})
                with pytest.raises(ServiceError) as expired:
                    c.simulate(dict(BODY, seed=74, deadline_ms=1))
                # A batch now "costs" 10 s: the sweep's first cold row is
                # admitted, and its second, queued behind it, is shed.
                batcher._batch_ewma = 10.0
                with pytest.raises(ServiceError) as shed:
                    c.sweep({"configs": [BODY], "seeds": [75, 76]})
                deadline = time.monotonic() + 10.0
                while (batcher.queue_depth or batcher.inflight) and time.monotonic() < deadline:
                    time.sleep(0.01)
                stats = c.stats()
                text = c.metrics_text()
        assert (expired.value.status, shed.value.status) == (504, 503)
        batch, coalesce = stats["batch"], stats["coalesce"]
        assert batch["cache_hits"] == stats["cache"]["hits"] == 2
        assert batch["shed"] == batch["expired"] == coalesce["coalesced"] == 1
        want = {
            "service_batches_total": batch["batches"]["fast"],
            "service_batched_requests_total": batch["batched_jobs"]["fast"],
            "service_batch_cache_hits_total": batch["cache_hits"],
            "service_shed_total": batch["shed"],
            "service_expired_total": batch["expired"],
            "service_coalesced_total": coalesce["coalesced"],
            "service_coalesce_primary_total": coalesce["primary"],
            "service_queue_depth": batch["queue_depth"],
        }
        values = metric_values(text)
        assert {name: values[name] for name in want} == want
        for name in want:
            kind = "gauge" if name == "service_queue_depth" else "counter"
            assert f"# TYPE {name} {kind}" in text
