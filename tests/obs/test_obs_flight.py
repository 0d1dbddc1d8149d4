"""Flight recorder: bounded rings, tap capture, span-tree nesting."""

import pytest

from repro.obs import trace
from repro.obs.flight import FlightRecorder, RequestRecord, current_request, span_tree


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    trace.disable()
    yield
    trace.disable()


def _span(ctx, parent=None, start=0.0, kind="k", trace_id="t1"):
    rec = {
        "lane": "l",
        "start": start,
        "end": start + 1.0,
        "kind": kind,
        "label": "",
        "trace_id": trace_id,
        "ctx": ctx,
    }
    if parent:
        rec["ctx_parent"] = parent
    return rec


class TestSpanTree:
    def test_nests_by_ctx_parent(self):
        spans = [
            _span("root", start=0.0),
            _span("b", parent="root", start=2.0),
            _span("a", parent="root", start=1.0),
            _span("a1", parent="a", start=1.5),
        ]
        (tree,) = span_tree(spans)
        assert tree["span"]["ctx"] == "root"
        assert [n["span"]["ctx"] for n in tree["children"]] == ["a", "b"]  # by start
        assert tree["children"][0]["children"][0]["span"]["ctx"] == "a1"

    def test_absent_parent_becomes_root(self):
        roots = span_tree([_span("x", parent="gone")])
        assert [n["span"]["ctx"] for n in roots] == ["x"]

    def test_self_parent_does_not_recurse(self):
        roots = span_tree([_span("x", parent="x")])
        assert len(roots) == 1 and roots[0]["children"] == []

    def test_spans_without_ctx_are_skipped(self):
        assert span_tree([{"lane": "l", "start": 0, "end": 1, "kind": "k", "label": ""}]) == []


class TestLifecycle:
    def test_finish_moves_to_ring(self):
        fr = FlightRecorder(capacity=4)
        rec = fr.begin("t1", "POST", "/v1/simulate")
        assert len(fr) == 0
        fr.finish(rec, 200, 0.05)
        assert len(fr) == 1
        (summary,) = fr.requests()
        assert summary["trace_id"] == "t1"
        assert summary["status"] == 200
        assert summary["duration"] == 0.05
        assert summary["spans"] == 0

    def test_ring_capacity_evicts_oldest(self):
        fr = FlightRecorder(capacity=2)
        for i in range(5):
            fr.finish(fr.begin(f"t{i}", "GET", "/healthz"), 200, float(i))
        assert len(fr) == 2
        assert [e["trace_id"] for e in fr.requests()] == ["t4", "t3"]

    def test_finish_unknown_trace_is_noop(self):
        fr = FlightRecorder()
        fr.finish(RequestRecord("never-begun", "GET", "/x"), 200, 0.1)
        assert len(fr) == 0

    def test_finish_twice_records_once(self):
        fr = FlightRecorder()
        rec = fr.begin("t1", "POST", "/v1/simulate")
        fr.finish(rec, 200, 0.1)
        fr.finish(rec, 500, 0.2)
        assert [(e["status"], e["duration"]) for e in fr.requests()] == [(200, 0.1)]

    def test_pending_backstop_evicts_oldest_orphan(self):
        fr = FlightRecorder(max_pending=2)
        r1 = fr.begin("t1", "GET", "/a")
        fr.begin("t2", "GET", "/b")
        r3 = fr.begin("t3", "GET", "/c")  # evicts t1
        fr.finish(r1, 200, 0.1)
        fr.finish(r3, 200, 0.1)
        assert [e["trace_id"] for e in fr.requests()] == ["t3"]

    def test_reused_trace_id_gets_a_record_per_request(self):
        fr = FlightRecorder()
        a = fr.begin("abc123", "POST", "/v1/simulate")
        b = fr.begin("abc123", "POST", "/v1/simulate")
        assert a is not b
        fr.finish(b, 200, 0.2)
        fr.finish(a, 200, 0.1)
        assert [e["duration"] for e in fr.requests()] == [0.1, 0.2]

    def test_server_timing_copied_into_summary(self):
        fr = FlightRecorder()
        rec = fr.begin("t1", "POST", "/v1/simulate")
        stages = rec.finalize(parse=0.001, handle=0.09, serialize=0.002)
        fr.finish(rec, 200, 0.1)
        assert fr.requests()[0]["server_timing"] == stages
        assert stages["coalesce_wait"] == 0.09  # no job: all of it waited

    def test_slowest_sorts_by_duration(self):
        fr = FlightRecorder()
        for i, dur in enumerate([0.3, 0.9, 0.1]):
            fr.finish(fr.begin(f"t{i}", "GET", "/x"), 200, dur)
        slowest = fr.requests(n=2, slowest=True)
        assert [e["trace_id"] for e in slowest] == ["t1", "t0"]


class TestRequestRecord:
    def test_current_only_inside_its_scope(self):
        rec = RequestRecord("t", "POST", "/v1/simulate")
        assert current_request() is None
        with rec:
            assert current_request() is rec
            with RequestRecord("u", "GET", "/x") as inner:
                assert current_request() is inner
            assert current_request() is rec
        assert current_request() is None

    def test_critical_path_is_the_last_resolved_job(self):
        rec = RequestRecord("t", "POST", "/v1/sweep")
        rec.new_job().update(window=0.01, cache_probe=0.002, compute=0.05, resolved=5.0)
        rec.new_job().update(window=0.03, cache_probe=0.001, compute=0.02, resolved=6.0)
        st = rec.finalize(parse=0.001, handle=0.06, serialize=0.003)
        assert st == rec.server_timing
        assert (st["batch_window"], st["cache_probe"], st["compute"]) == (0.03, 0.001, 0.02)
        assert st["coalesce_wait"] == pytest.approx(0.06 - 0.051)
        assert (st["parse"], st["serialize"]) == (0.001, 0.003)

    def test_stages_scale_down_to_the_handler_segment(self):
        rec = RequestRecord("t", "POST", "/v1/simulate")
        rec.new_job().update(window=0.02, cache_probe=0.02, compute=0.06, resolved=1.0)
        st = rec.finalize(parse=0.0, handle=0.05, serialize=0.0)
        assert st["compute"] == pytest.approx(0.03)
        assert st["batch_window"] + st["cache_probe"] + st["compute"] == pytest.approx(0.05)
        assert st["coalesce_wait"] == 0.0


class TestTapCapture:
    def test_captures_spans_for_registered_traces_only(self):
        trace.configure()
        fr = FlightRecorder().install()
        try:
            rec = fr.begin("mine", "POST", "/v1/simulate")
            with trace.span("server", "request", ctx=trace.TraceContext("mine")):
                pass
            with trace.span("server", "request", ctx=trace.TraceContext("other")):
                pass
            with trace.span("server", "untraced"):  # no ctx -> no trace_id
                pass
            fr.finish(rec, 200, 0.1)
        finally:
            fr.uninstall()
        entry = fr.lookup("mine")
        assert len(entry["spans"]) == 1
        assert entry["spans"][0]["trace_id"] == "mine"
        assert len(entry["tree"]) == 1

    def test_lookup_builds_nested_tree(self):
        trace.configure()
        fr = FlightRecorder().install()
        try:
            rec = fr.begin("t", "POST", "/v1/simulate")
            with trace.span("server", "request", ctx=trace.TraceContext("t")):
                with trace.span("coalescer", "wait"):
                    pass
                with trace.span("batcher", "window"):
                    pass
            fr.finish(rec, 200, 0.1)
        finally:
            fr.uninstall()
        (root,) = fr.lookup("t")["tree"]
        assert root["span"]["kind"] == "request"
        assert sorted(n["span"]["kind"] for n in root["children"]) == ["wait", "window"]

    def test_requests_sharing_a_trace_id_share_its_spans(self):
        trace.configure()
        fr = FlightRecorder().install()
        try:
            a = fr.begin("t", "POST", "/v1/simulate")
            b = fr.begin("t", "POST", "/v1/simulate")
            with trace.span("server", "request", ctx=trace.TraceContext("t")):
                pass
            fr.finish(a, 200, 0.1)
            fr.finish(b, 200, 0.1)
        finally:
            fr.uninstall()
        assert [e["spans"] for e in fr.requests()] == [1, 1]

    def test_max_spans_cap_counts_drops(self):
        trace.configure()
        fr = FlightRecorder(max_spans=2).install()
        try:
            rec = fr.begin("t", "POST", "/v1/simulate")
            for _ in range(5):
                with trace.span("server", "request", ctx=trace.TraceContext("t")):
                    pass
            fr.finish(rec, 200, 0.1)
        finally:
            fr.uninstall()
        entry = fr.lookup("t")
        assert len(entry["spans"]) == 2
        assert entry["spans_dropped"] == 3

    def test_tracing_disabled_still_records_summaries(self):
        fr = FlightRecorder().install()
        try:
            rec = fr.begin("t", "GET", "/stats")
            fr.finish(rec, 200, 0.01)
        finally:
            fr.uninstall()
        entry = fr.lookup("t")
        assert entry["spans"] == [] and entry["status"] == 200

    def test_install_is_idempotent(self):
        trace.configure()
        fr = FlightRecorder().install().install()
        try:
            rec = fr.begin("t", "GET", "/x")
            with trace.span("s", "k", ctx=trace.TraceContext("t")):
                pass
            fr.finish(rec, 200, 0.1)
        finally:
            fr.uninstall()
            fr.uninstall()
        assert len(fr.lookup("t")["spans"]) == 1
