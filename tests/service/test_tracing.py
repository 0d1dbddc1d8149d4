"""End-to-end request tracing: connected trees, timing, SLOs, debug API."""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import trace
from repro.obs.slo import parse_slo
from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    canonical_dumps,
    config_from_json,
    result_to_json,
)
from repro.service.batcher import Batcher
from repro.simulation import SimConfig, simulate
from repro.simulation.pool import ResultCache

BODY = {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3, "seed": 1}


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("trace-cache"))
    config = ServiceConfig(
        port=0,
        jobs=1,
        cache=cache,
        slo=(parse_slo("simulate=10s:0.99"), parse_slo("sweep=10s:0.95")),
    )
    with BackgroundServer(config) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient("127.0.0.1", server.port) as c:
        yield c


def records_for(tracer, trace_id):
    return [r for r in tracer.records if r.get("trace_id") == trace_id]


STAGES = {"parse", "coalesce_wait", "batch_window", "cache_probe", "compute", "serialize"}


def assert_stages_cover_wall(st, wall):
    assert set(st) == STAGES
    assert all(v >= 0.0 for v in st.values())
    assert sum(st.values()) <= wall * 1.05
    assert sum(st.values()) >= wall * 0.5  # the stages cover the bulk


def _timed(port, tid, path, body):
    with ServiceClient("127.0.0.1", port, trace_id=tid, timing=True) as c:
        return json.loads(c.post_raw(path, body))


def _warm_simulate(port, tid):
    body = dict(BODY, seed=201)
    with ServiceClient("127.0.0.1", port) as c:
        c.simulate(body)  # populate the shared result cache
    return _timed(port, tid, "/v1/simulate", body)


def _coalesced_duplicate(port, tid):
    # ~0.2 s of engine work: the duplicate arrives while it runs and
    # waits on the primary's computation.
    body = dict(BODY, seed=202, work_mttis=200)
    with ThreadPoolExecutor(max_workers=1) as pool:
        primary = pool.submit(_timed, port, "cafe2000", "/v1/simulate", body)
        time.sleep(0.05)
        out = _timed(port, tid, "/v1/simulate", body)
        primary.result()
    return out


def _buffered_sweep(port, tid):
    body = {"configs": [dict(BODY, work_mttis=2)], "seeds": [203, 204, 205]}
    return _timed(port, tid, "/v1/sweep", body)


def _streamed_sweep(port, tid):
    body = {"configs": [dict(BODY, work_mttis=2)], "seeds": [206, 207, 208]}
    with ServiceClient("127.0.0.1", port, trace_id=tid) as c:
        assert len(list(c.sweep_stream(body))) == 1
    return None  # NDJSON carries no server_timing; the recorder does


def _optimize(port, tid):
    return _timed(port, tid, "/v1/optimize", {"params": {"mtti": 700.0}})


TIMING_CASES = {
    "warm-simulate": _warm_simulate,
    "coalesced-duplicate": _coalesced_duplicate,
    "buffered-sweep": _buffered_sweep,
    "streamed-sweep": _streamed_sweep,
    "optimize": _optimize,
}


class TestTraceHeader:
    def test_client_supplied_id_is_adopted_and_echoed(self, server):
        with ServiceClient("127.0.0.1", server.port, trace_id="feedc0de00112233") as c:
            c.simulate(BODY)
            assert c.last_trace_id == "feedc0de00112233"

    def test_minted_id_when_absent(self, client):
        client.simulate(BODY)
        assert client.last_trace_id
        assert len(client.last_trace_id) == 16
        assert set(client.last_trace_id) <= set("0123456789abcdef")

    def test_malformed_inbound_id_is_replaced(self, server):
        with ServiceClient("127.0.0.1", server.port, trace_id="NOT HEX!!") as c:
            c.healthz()
            assert c.last_trace_id != "NOT HEX!!"
            assert set(c.last_trace_id) <= set("0123456789abcdef-")

    def test_uppercase_hex_is_normalized(self, server):
        with ServiceClient("127.0.0.1", server.port, trace_id="ABCDEF01") as c:
            c.healthz()
            assert c.last_trace_id == "abcdef01"

    def test_reused_id_records_every_request(self):
        """Two concurrent requests under one client-chosen trace id are
        two flight records, each with its own ``server_timing``."""
        # One job per runner call; neither call returns before both
        # requests are computing, so the two are in flight together.
        with BackgroundServer(ServiceConfig(port=0, jobs=1, max_batch=1)) as srv:
            real = srv.server.batcher._runner
            both = threading.Barrier(2, timeout=30)

            def together(configs):
                both.wait()
                return real(configs)

            srv.server.batcher._runner = together

            def fire(seed):
                with ServiceClient("127.0.0.1", srv.port, trace_id="abc123") as c:
                    return c.simulate(dict(BODY, seed=seed))

            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(fire, [300, 301]))
            with ServiceClient("127.0.0.1", srv.port) as c:
                listed = json.loads(c.get_raw("/debug/requests?n=50"))["requests"]
        mine = [e for e in listed if e["trace_id"] == "abc123"]
        assert len(mine) == 2
        assert all(set(e["server_timing"]) == STAGES for e in mine)
        assert mine[0]["server_timing"] != mine[1]["server_timing"]

    def test_responses_stay_byte_identical_under_tracing(self, client):
        trace.configure()
        body = dict(BODY, seed=31)
        raw = client.post_raw("/v1/simulate", body)
        want = canonical_dumps(
            {"result": result_to_json(simulate(config_from_json(body)))}
        )
        assert raw == want


class TestRequestTrees:
    def test_concurrent_sweeps_yield_connected_single_root_trees(self, server):
        """ISSUE acceptance: a traced /v1/sweep under concurrent load
        produces one connected span tree per request — ingress →
        batcher → pool chunks → fastpath groups."""
        tracer = trace.configure()
        ids = [f"aaaa{i:012x}" for i in range(4)]

        def fire(tid, seed_base):
            body = {
                "configs": [
                    dict(BODY, seed=seed_base + k, work_mttis=2) for k in range(3)
                ],
                "seeds": [seed_base],
            }
            with ServiceClient("127.0.0.1", server.port, trace_id=tid) as c:
                return c.sweep(body)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(fire, ids, range(40, 80, 10)))

        report = trace.validate_request_trees(tracer.records)
        assert report["orphans"] == []
        leaders = 0
        for tid in ids:
            recs = records_for(tracer, tid)
            kinds = {r["kind"] for r in recs}
            # Every tree reaches the compute: the batch leader holds the
            # real compute span with the pool/fastpath subtree, riders
            # carry a shared-compute interval linking the leader's span.
            assert {"request", "window", "compute"} <= kinds
            if "chunk" in kinds:
                assert "batch" in kinds  # fastpath groups under the chunks
                leaders += 1
            else:
                shared = [r for r in recs if r["kind"] == "compute"]
                assert any(r.get("links") for r in shared)
            roots = [r for r in recs if "ctx_parent" not in r and not r.get("links")]
            assert len(roots) == 1, [r["kind"] for r in roots]
            assert roots[0]["kind"] == "request"
            assert roots[0]["lane"] == "server"
        assert leaders >= 1  # somebody actually ran the engines

    def test_simulate_tree_nests_ingress_to_fastpath(self, client):
        tracer = trace.configure()
        client.post_raw("/v1/simulate", dict(BODY, seed=91), trace_id="beef0001")
        recs = records_for(tracer, "beef0001")
        by_ctx = {r["ctx"]: r for r in recs}

        def depth(rec):
            d = 0
            while rec.get("ctx_parent"):
                rec = by_ctx[rec["ctx_parent"]]
                d += 1
            return d

        batch = next(r for r in recs if r["kind"] == "batch")
        root = next(r for r in recs if r["kind"] == "request")
        assert depth(root) == 0
        # fastpath group sits several layers below the ingress span.
        assert depth(batch) >= 3


class TestServerTiming:
    def test_stages_sum_to_wall_within_5_percent(self, server):
        trace.configure()
        with ServiceClient(
            "127.0.0.1", server.port, trace_id="cafe0002", timing=True
        ) as c:
            out = c.simulate(dict(BODY, seed=92, work_mttis=5))
            entry = json.loads(c.get_raw("/debug/trace/cafe0002"))
        st = out["server_timing"]
        assert entry["server_timing"] == st
        assert_stages_cover_wall(st, entry["duration"])

    @pytest.mark.parametrize("case", sorted(TIMING_CASES))
    def test_stages_sum_to_wall_per_request_kind(self, server, case):
        """The test above (a cold simulate) for every other kind of request:
        the six stages, none negative, summing to the flight recorder's
        wall time within 5%, with the stage that dominates each kind."""
        tid = f"cafe1{sorted(TIMING_CASES).index(case):03x}"
        response = TIMING_CASES[case](server.port, tid)
        with ServiceClient("127.0.0.1", server.port) as c:
            entry = json.loads(c.get_raw(f"/debug/trace/{tid}"))
        st = entry["server_timing"]
        if response is not None:
            assert response["server_timing"] == st
        if case == "streamed-sweep":
            # The handler segment only submits the rows; every line is
            # serialized on the wire, after attribution.
            assert st["serialize"] == 0.0
            assert sum(st.values()) <= entry["duration"] * 1.05
        else:
            assert_stages_cover_wall(st, entry["duration"])
        if case == "warm-simulate":
            assert st["compute"] == 0.0 and st["cache_probe"] > 0.0
        elif case == "coalesced-duplicate":
            assert max(st, key=st.get) == "coalesce_wait"
        elif case == "optimize":
            assert st["batch_window"] == st["cache_probe"] == 0.0
            assert st["compute"] > 0.0
        elif case == "buffered-sweep":
            assert st["compute"] > 0.0

    def test_timing_absent_without_header(self, client):
        out = client.simulate(dict(BODY, seed=93))
        assert "server_timing" not in out

    def test_flight_recorder_keeps_stages_even_without_header(self, client):
        client.post_raw("/v1/simulate", dict(BODY, seed=94), trace_id="cafe0003")
        entry = json.loads(client.get_raw("/debug/trace/cafe0003"))
        assert entry["server_timing"]["compute"] >= 0.0


class TestCoalescedTraces:
    """A duplicate attached to a pending job records its own batcher
    ``wait`` stage, linked to the request that owns the computation."""

    def _run(self, coro):
        return asyncio.run(coro)

    @staticmethod
    def _gated_batcher():
        gate = threading.Event()

        def runner(configs):
            assert gate.wait(timeout=10)
            return [42 for _ in configs]

        return Batcher(runner, window=0.0), gate

    @staticmethod
    def _config(params):
        return SimConfig(params=params, strategy="ndp", work=params.mtti, seed=1)

    def test_duplicate_waiter_links_primary_wait_span(self, params):
        tracer = trace.configure()
        c = self._config(params)

        async def scenario():
            batcher, gate = self._gated_batcher()

            async def primary():
                with trace.use_context(trace.TraceContext("t-primary")):
                    with trace.span("server", "request") as sp:
                        return await batcher.submit(c), sp.ctx_id

            async def duplicate():
                await asyncio.sleep(0.01)  # let the primary register
                with trace.use_context(trace.TraceContext("t-dup")):
                    with trace.span("server", "request"):
                        return await batcher.submit(c)

            p = asyncio.ensure_future(primary())
            d = asyncio.ensure_future(duplicate())
            await asyncio.sleep(0.05)
            gate.set()
            try:
                return await asyncio.gather(p, d)
            finally:
                batcher.close()

        (out, primary_ctx), dup_out = self._run(scenario())
        assert out == dup_out == 42
        dup_wait = next(
            r for r in tracer.records
            if r["kind"] == "wait" and r["label"] == "coalesced"
        )
        assert dup_wait["lane"] == "batcher"
        assert dup_wait["trace_id"] == "t-dup"
        assert dup_wait["links"] == [primary_ctx]
        # The primary's own tree holds the window and the compute.
        primary_kinds = {
            r["kind"] for r in tracer.records if r["trace_id"] == "t-primary"
        }
        assert {"request", "window", "compute"} <= primary_kinds
        assert trace.validate_request_trees(tracer.records)["orphans"] == []

    def test_cancelled_duplicate_still_records_and_compute_survives(self, params):
        tracer = trace.configure()
        c = self._config(params)

        async def scenario():
            batcher, gate = self._gated_batcher()

            async def waiter(tid):
                with trace.use_context(trace.TraceContext(tid)):
                    return await batcher.submit(c)

            p = asyncio.ensure_future(waiter("t-a"))
            await asyncio.sleep(0.01)
            d = asyncio.ensure_future(waiter("t-b"))
            await asyncio.sleep(0.01)
            d.cancel()
            await asyncio.sleep(0.01)
            gate.set()
            try:
                result = await p
            finally:
                batcher.close()
            assert d.cancelled()
            return result

        assert self._run(scenario()) == 42
        dup_wait = next(
            r for r in tracer.records
            if r["kind"] == "wait" and r["label"] == "coalesced"
        )
        assert dup_wait["trace_id"] == "t-b"  # recorded despite cancellation
        assert next(
            r for r in tracer.records if r["kind"] == "compute"
        )["trace_id"] == "t-a"


class TestWarmCacheRequests:
    def test_fully_warm_request_has_no_compute_span(self, server):
        body = dict(BODY, seed=95)
        with ServiceClient("127.0.0.1", server.port) as c:
            c.simulate(body)  # populate the shared result cache
            tracer = trace.configure()
            c.post_raw("/v1/simulate", body, trace_id="feed0004")
        recs = records_for(tracer, "feed0004")
        kinds = [r["kind"] for r in recs]
        assert "cache_probe" in kinds
        assert "compute" not in kinds
        assert "chunk" not in kinds
        assert trace.validate_request_trees(recs)["orphans"] == []


class TestDebugEndpoints:
    def test_requests_lists_recent_with_status_and_duration(self, client):
        client.post_raw("/v1/simulate", dict(BODY, seed=96), trace_id="dead0005")
        out = json.loads(client.get_raw("/debug/requests?n=50"))
        entry = next(
            e for e in out["requests"] if e["trace_id"] == "dead0005"
        )
        assert entry["status"] == 200
        assert entry["duration"] > 0.0
        assert entry["path"] == "/v1/simulate"

    def test_slowest_sort_and_n_param(self, client):
        out = json.loads(client.get_raw("/debug/requests?n=2&sort=slowest"))
        durations = [e["duration"] for e in out["requests"]]
        assert len(durations) <= 2
        assert durations == sorted(durations, reverse=True)

    def test_bad_n_is_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get_raw("/debug/requests?n=bogus")
        assert exc.value.status == 400

    def test_trace_lookup_returns_span_tree(self, server):
        trace.configure()
        with ServiceClient("127.0.0.1", server.port, trace_id="dead0006") as c:
            c.simulate(dict(BODY, seed=97))
            entry = json.loads(c.get_raw("/debug/trace/dead0006"))
        assert entry["trace_id"] == "dead0006"
        assert entry["spans"]
        (root,) = entry["tree"]
        assert root["span"]["kind"] == "request"
        assert root["children"]

    def test_unknown_trace_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get_raw("/debug/trace/ffffffffffffffff")
        assert exc.value.status == 404

    def test_unknown_debug_path_is_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.get_raw("/debug/nope")
        assert exc.value.status == 404


class TestSLOAndLatencyExport:
    def test_stats_carries_percentiles_and_slo(self, client):
        client.simulate(dict(BODY, seed=98))
        stats = client.stats()
        lat = stats["latency"]["/v1/simulate"]
        assert lat["count"] >= 1
        assert 0.0 <= lat["p50"] <= lat["p99"]
        slo = stats["slo"]["simulate"]
        assert slo["objective"] == "10000ms:0.99"
        assert slo["good"] >= 1
        assert set(slo["windows"]) == {"5m", "1h"}

    def test_metrics_export_slo_gauges(self, client):
        client.simulate(dict(BODY, seed=99))
        text = client.metrics_text()
        assert 'repro_slo_target{route="simulate"} 0.99' in text
        assert 'repro_slo_burn_rate{route="simulate",window="5m"}' in text

    def test_metrics_histogram_carries_exemplars_when_traced(self, server):
        trace.configure()
        with ServiceClient("127.0.0.1", server.port, trace_id="ace00007") as c:
            c.simulate(dict(BODY, seed=100))
            text = c.metrics_text()
        lines = [
            l for l in text.splitlines()
            if l.startswith("service_request_seconds_bucket") and "trace_id=" in l
        ]
        assert lines, "no exemplar on any request-latency bucket"
        assert any('# {trace_id="' in l for l in lines)


class TestWorkerProcessTraces:
    def test_pool_workers_append_to_shared_sink(self, tmp_path, monkeypatch):
        """Spans from forked pool workers land in the same JSONL sink and
        resolve into the request's tree (ctx hand-off across pids)."""
        sink = tmp_path / "svc.jsonl"
        monkeypatch.setenv(trace.ENV_VAR, str(sink))
        trace.configure(str(sink), keep_records=False)
        config = ServiceConfig(port=0, jobs=2, cache=None)
        body = {
            "configs": [dict(BODY, seed=200 + k, work_mttis=2) for k in range(6)],
            "seeds": [0, 1],
        }
        with BackgroundServer(config) as srv:
            with ServiceClient(
                "127.0.0.1", srv.port, trace_id="abba000000000001"
            ) as c:
                c.sweep(body)
        trace.disable()
        records = [
            json.loads(line)
            for line in sink.read_text().splitlines()
            if line.strip()
        ]
        mine = [r for r in records if r.get("trace_id") == "abba000000000001"]
        assert {r["kind"] for r in mine} >= {"request", "compute", "chunk", "batch"}
        assert trace.validate_request_trees(records)["orphans"] == []
        pids = {r["pid"] for r in mine if "pid" in r}
        assert len(pids) >= 2, "expected spans from the server and worker pids"
