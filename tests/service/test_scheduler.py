"""Deadline/priority scheduling: EDF, fast 504, shedding, starvation."""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import trace
from repro.service import (
    BackgroundServer,
    DeadlineExceeded,
    Overloaded,
    ProtocolError,
    QoS,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    qos_from_json,
)
from repro.service.batcher import Batcher
from repro.simulation import SimConfig

BODY = {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3, "seed": 1}


def cfg(params, **kw):
    defaults = dict(
        params=params, strategy="ndp", work=params.mtti * 3, seed=0, engine="fast"
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class SpyRunner:
    """Records every dispatched group; returns stub results instantly."""

    def __init__(self, delay: float = 0.0):
        self.groups = []
        self.delay = delay
        self.lock = threading.Lock()

    def __call__(self, configs):
        with self.lock:
            self.groups.append(list(configs))
        if self.delay:
            time.sleep(self.delay)
        from repro.simulation import simulate

        return [simulate(c) for c in configs]


class TestQoSParsing:
    def test_defaults(self):
        qos, rest = qos_from_json({"seed": 3})
        assert qos == QoS()
        assert qos.deadline_s is None and qos.priority == 4
        assert rest == {"seed": 3}

    def test_fields_are_split_off(self):
        qos, rest = qos_from_json({"deadline_ms": 250, "priority": 1, "seed": 3})
        assert qos.deadline_s == 0.25
        assert qos.priority == 1
        assert rest == {"seed": 3}

    def test_non_mapping_passes_through(self):
        qos, rest = qos_from_json([1, 2])
        assert qos == QoS() and rest == [1, 2]

    @pytest.mark.parametrize("bad", ["fast", True, 0, -5])
    def test_bad_deadline_rejected(self, bad):
        with pytest.raises(ProtocolError):
            qos_from_json({"deadline_ms": bad})

    @pytest.mark.parametrize("bad", ["high", True, 2.5, -1, 10])
    def test_bad_priority_rejected(self, bad):
        with pytest.raises(ProtocolError):
            qos_from_json({"priority": bad})


class TestEDFOrdering:
    def test_dispatch_order_is_earliest_deadline_first(self, params):
        """Jobs submitted in one window dispatch by deadline, not FIFO."""
        runner = SpyRunner()
        deadlines_ms = [10_000, 4_000, 7_000, 2_000]  # submit order

        async def main():
            b = Batcher(runner, window=0.05, max_batch=1, max_inflight=1)
            jobs = [
                b.submit(cfg(params, seed=i), QoS(deadline_s=d / 1e3))
                for i, d in enumerate(deadlines_ms)
            ]
            await asyncio.gather(*jobs)
            b.close()

        asyncio.run(main())
        order = [g[0].seed for g in runner.groups]
        assert order == [3, 1, 2, 0]  # ascending deadline

    def test_priority_class_dominates_deadline(self, params):
        """An urgent-class job with a late deadline still beats a relaxed
        class with an early one; inside a class, EDF applies."""
        runner = SpyRunner()

        async def main():
            b = Batcher(runner, window=0.05, max_batch=1, max_inflight=1)
            jobs = [
                b.submit(cfg(params, seed=0), QoS(deadline_s=5.0, priority=9)),
                b.submit(cfg(params, seed=1), QoS(deadline_s=60.0, priority=0)),
                b.submit(cfg(params, seed=2), QoS(deadline_s=30.0, priority=0)),
            ]
            await asyncio.gather(*jobs)
            b.close()

        asyncio.run(main())
        assert [g[0].seed for g in runner.groups] == [2, 1, 0]

    def test_equal_qos_stays_fifo(self, params):
        runner = SpyRunner()

        async def main():
            b = Batcher(runner, window=0.05, max_batch=1, max_inflight=1)
            jobs = [b.submit(cfg(params, seed=i)) for i in range(4)]
            await asyncio.gather(*jobs)
            b.close()

        asyncio.run(main())
        assert [g[0].seed for g in runner.groups] == [0, 1, 2, 3]


class TestExpiry:
    def test_expired_job_fails_without_touching_runner(self, params):
        """The fast 504: a job whose deadline passes inside the batch
        window is failed at drain time and never dispatches."""
        runner = SpyRunner()

        async def main():
            b = Batcher(runner, window=0.05, max_batch=8)
            with pytest.raises(DeadlineExceeded):
                await b.submit(cfg(params, seed=0), QoS(deadline_s=0.001))
            b.close()

        asyncio.run(main())
        assert runner.groups == []

    def test_expired_rider_frees_slots_for_live_jobs(self, params):
        """A mixed window dispatches only the jobs still inside their
        deadlines; the expired one fails out of band."""
        runner = SpyRunner()

        async def main():
            b = Batcher(runner, window=0.05, max_batch=8)
            dead = asyncio.ensure_future(
                b.submit(cfg(params, seed=0), QoS(deadline_s=0.001))
            )
            live = asyncio.ensure_future(
                b.submit(cfg(params, seed=1), QoS(deadline_s=30.0))
            )
            results = await asyncio.gather(dead, live, return_exceptions=True)
            b.close()
            return results

        dead_res, live_res = asyncio.run(main())
        assert isinstance(dead_res, DeadlineExceeded)
        assert not isinstance(live_res, Exception)
        assert [c.seed for g in runner.groups for c in g] == [1]

    def test_stats_count_expiries(self, params):
        runner = SpyRunner()

        async def main():
            b = Batcher(runner, window=0.05, max_batch=8)
            with pytest.raises(DeadlineExceeded):
                await b.submit(cfg(params, seed=0), QoS(deadline_s=0.001))
            stats = b.stats
            b.close()
            return stats

        stats = asyncio.run(main())
        assert stats.expired == 1
        assert stats.shed == 0


class TestShedding:
    def test_overloaded_raised_once_budget_exceeded(self, params):
        """With a warmed service-time estimate and a queued backlog, a
        new submission is refused at admission — before enqueue."""
        runner = SpyRunner(delay=0.05)

        async def main():
            b = Batcher(
                runner, window=0.05, max_batch=1, max_inflight=1,
                queue_budget=0.001,
            )
            await b.submit(cfg(params, seed=0))  # warms the EWMA (~50 ms)
            queued = asyncio.ensure_future(b.submit(cfg(params, seed=1)))
            await asyncio.sleep(0)  # seed 1 enqueued, drain not yet run
            with pytest.raises(Overloaded) as exc:
                await b.submit(cfg(params, seed=2))
            await queued
            stats = b.stats
            b.close()
            return exc.value, stats

        overloaded, stats = asyncio.run(main())
        assert overloaded.retry_after >= 1.0
        assert stats.shed == 1
        # The shed submission never entered the queue or the runner.
        assert stats.submitted == 2
        assert sum(len(g) for g in runner.groups) == 2

    def test_never_sheds_before_first_batch_observed(self, params):
        """Admission control without a service-time observation is
        blind; it must admit rather than guess."""
        runner = SpyRunner()

        async def main():
            b = Batcher(
                runner, window=0.05, max_batch=1, max_inflight=1,
                queue_budget=1e-9,
            )
            jobs = [b.submit(cfg(params, seed=i)) for i in range(3)]
            # The first submissions queue up before any batch finishes:
            # none may be shed, tiny budget or not.
            await asyncio.gather(*jobs)
            b.close()

        asyncio.run(main())
        assert sum(len(g) for g in runner.groups) == 3


class TestAging:
    def test_low_priority_job_is_never_starved(self, params):
        """A priority-9 job survives a continuous stream of fresh
        priority-0 arrivals: waiting promotes it one class per ``aging``
        seconds until it outranks anything fresh."""
        runner = SpyRunner()

        async def main():
            b = Batcher(
                runner, window=0.01, max_batch=1, max_inflight=1, aging=0.005
            )
            feeders: list[asyncio.Task] = []
            stop = [False]

            async def feed():
                i = 0
                while not stop[0]:
                    feeders.append(
                        asyncio.ensure_future(
                            b.submit(cfg(params, seed=100 + i), QoS(priority=0))
                        )
                    )
                    i += 1
                    await asyncio.sleep(0.008)

            feeder = asyncio.ensure_future(feed())
            try:
                await asyncio.wait_for(
                    b.submit(cfg(params, seed=1), QoS(priority=9)), timeout=5.0
                )
            finally:
                stop[0] = True
                await feeder
                await asyncio.gather(*feeders, return_exceptions=True)
                b.close()

        asyncio.run(main())  # wait_for raising == starvation == failure
        assert any(g[0].seed == 1 for g in runner.groups)


class TestHTTPMapping:
    """The server's QoS surface: 504/503 statuses, headers, SLO split."""

    def test_expired_request_is_504_with_no_compute_span(self):
        trace.disable()
        config = ServiceConfig(port=0, jobs=1, batch_window=0.1)
        with BackgroundServer(config) as srv:
            trace.configure()
            try:
                with ServiceClient(
                    "127.0.0.1", srv.port, trace_id="dead0504aaaa"
                ) as c:
                    with pytest.raises(ServiceError) as exc:
                        c.simulate(dict(BODY, deadline_ms=1))
                    assert exc.value.status == 504
                    import json as _json

                    entry = _json.loads(c.get_raw("/debug/trace/dead0504aaaa"))
                kinds = [s["kind"] for s in entry["spans"]]
                assert "expired" in kinds
                assert "compute" not in kinds
            finally:
                trace.disable()

    def test_shed_request_is_503_with_retry_after(self):
        # Every batch holds the single dispatch slot for 0.25 s (a sleep
        # around the real runner) while a sibling queues behind it.
        config = ServiceConfig(
            port=0,
            jobs=1,
            batch_window=0.01,
            max_batch=1,
            max_inflight=1,
            queue_budget=0.05,
        )
        with BackgroundServer(config) as srv:
            real = srv.server.batcher._runner

            def slow(configs):
                time.sleep(0.25)
                return real(configs)

            srv.server.batcher._runner = slow
            with ServiceClient("127.0.0.1", srv.port) as c:
                c.simulate(dict(BODY, seed=10))  # warm the EWMA (~0.25 s)

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
                    assert exc.value.retry_after >= 1.0
                    for fut in futs:
                        fut.result()  # the accepted requests still complete
                stats = c.stats()
            assert stats["batch"]["shed"] >= 1
            assert stats["slo"] == {}  # no SLOs configured -> empty

    def test_rejections_split_in_slo_snapshot(self):
        from repro.obs.slo import parse_slo

        config = ServiceConfig(
            port=0,
            jobs=1,
            batch_window=0.1,
            slo=(parse_slo("simulate=10s:0.99"),),
        )
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                with pytest.raises(ServiceError):
                    c.simulate(dict(BODY, deadline_ms=1, seed=20))
                stats = c.stats()
            slo = stats["slo"]["simulate"]
            assert slo["expired"] >= 1
            assert slo["bad"] >= 1  # rejections burn error budget too

    def test_qos_fields_do_not_change_response_bytes(self):
        """QoS is scheduling-only: a met deadline returns exactly the
        serial bytes (deadline_ms/priority stay out of the payload)."""
        from repro.service import canonical_dumps, config_from_json, result_to_json
        from repro.simulation import simulate

        body = dict(BODY, seed=30)
        config = ServiceConfig(port=0, jobs=1)
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                got = c.post_raw(
                    "/v1/simulate",
                    dict(body, deadline_ms=60_000, priority=0),
                )
        want = canonical_dumps(
            {"result": result_to_json(simulate(config_from_json(body)))}
        )
        assert got == want
