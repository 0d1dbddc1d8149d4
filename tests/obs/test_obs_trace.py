"""Structured tracing: spans, schema validation, JSONL export."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Every test starts and ends with tracing disabled."""
    trace.disable()
    yield
    trace.disable()


class TestDisabled:
    def test_span_returns_shared_null(self):
        assert not trace.enabled()
        assert trace.span("a", "b") is trace.NULL_SPAN
        assert trace.span("c", "d", x=1) is trace.NULL_SPAN

    def test_null_span_is_noop_context(self):
        with trace.span("a", "b") as sp:
            assert sp.set(foo=1) is sp

    def test_emit_is_noop(self):
        trace.emit("a", 0.0, 1.0, "b")  # must not raise

    def test_get_tracer_none(self):
        assert trace.get_tracer() is None


class TestInMemory:
    def test_span_records_core_fields(self):
        tracer = trace.configure()
        with trace.span("ckpt", "commit", label="ckpt-1", bytes=42):
            pass
        (rec,) = tracer.records
        assert rec["lane"] == "ckpt"
        assert rec["kind"] == "commit"
        assert rec["label"] == "ckpt-1"
        assert rec["end"] >= rec["start"]
        assert rec["attrs"] == {"bytes": 42}
        assert rec["pid"] == os.getpid()
        trace.validate_record(rec)

    def test_set_updates_attrs(self):
        tracer = trace.configure()
        with trace.span("a", "k") as sp:
            sp.set(level="local", ckpt=3)
        assert tracer.records[0]["attrs"] == {"level": "local", "ckpt": 3}

    def test_nesting_records_parent(self):
        tracer = trace.configure()
        with trace.span("a", "outer"):
            with trace.span("a", "inner"):
                pass
        inner, outer = tracer.records  # inner closes first
        assert inner["kind"] == "inner"
        assert inner["parent"] == outer["span"]
        assert "parent" not in outer

    def test_sibling_threads_do_not_nest(self):
        tracer = trace.configure()
        done = threading.Event()

        def child():
            with trace.span("t", "child"):
                pass
            done.set()

        with trace.span("t", "parent"):
            t = threading.Thread(target=child)
            t.start()
            t.join()
        assert done.is_set()
        child_rec = next(r for r in tracer.records if r["kind"] == "child")
        assert "parent" not in child_rec

    def test_emit_pre_timed(self):
        tracer = trace.configure()
        trace.emit("pool", 1.0, 3.5, "chunk", label="chunk-0", attrs={"size": 4})
        (rec,) = tracer.records
        assert rec["start"] == 1.0 and rec["end"] == 3.5
        trace.validate_record(rec)

    def test_exception_still_records(self):
        tracer = trace.configure()
        with pytest.raises(RuntimeError):
            with trace.span("a", "boom"):
                raise RuntimeError("x")
        assert tracer.records[0]["kind"] == "boom"

    def test_counts_and_summary(self):
        tracer = trace.configure()
        for _ in range(3):
            with trace.span("a", "k"):
                pass
        assert tracer.counts == {"k": 3}
        assert tracer.total == 3
        assert "3 spans" in tracer.summary()

    def test_configure_replaces(self):
        t1 = trace.configure()
        t2 = trace.configure()
        assert trace.get_tracer() is t2 is not t1


class TestFileSink:
    def test_jsonl_lines_validate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.configure(path)
        with trace.span("ckpt", "commit", ckpt=1):
            pass
        trace.emit("pool", 0.0, 1.0, "chunk")
        trace.disable()
        assert trace.validate_file(path) == 2
        recs = list(trace.iter_file(path))
        assert [r["kind"] for r in recs] == ["commit", "chunk"]

    def test_file_sink_keeps_no_records_by_default(self, tmp_path):
        tracer = trace.configure(tmp_path / "t.jsonl")
        with trace.span("a", "k"):
            pass
        assert tracer.records == []
        assert tracer.total == 1

    def test_callable_sink(self):
        got = []
        trace.configure(got.append)
        with trace.span("a", "k"):
            pass
        assert got[0]["kind"] == "k"

    def test_env_var_autoconfigures_subprocess(self, tmp_path):
        out = tmp_path / "env.jsonl"
        env = dict(os.environ, REPRO_TRACE=str(out))
        env["PYTHONPATH"] = "src"
        subprocess.run(
            [sys.executable, "-c",
             "from repro.obs import trace\n"
             "with trace.span('x', 'envtest'):\n"
             "    pass\n"],
            check=True, env=env, cwd=os.getcwd(),
        )
        assert trace.validate_file(out) == 1
        assert next(trace.iter_file(out))["kind"] == "envtest"


class TestValidation:
    def _good(self):
        return {"lane": "a", "start": 0.0, "end": 1.0, "kind": "k", "label": ""}

    def test_good_record_passes(self):
        assert trace.validate_record(self._good()) is not None

    def test_missing_field(self):
        rec = self._good()
        del rec["kind"]
        with pytest.raises(trace.TraceSchemaError, match="kind"):
            trace.validate_record(rec)

    def test_bad_types(self):
        rec = self._good()
        rec["start"] = "0"
        with pytest.raises(trace.TraceSchemaError, match="start"):
            trace.validate_record(rec)

    def test_end_before_start(self):
        rec = self._good()
        rec["end"] = -1.0
        with pytest.raises(trace.TraceSchemaError, match="precedes"):
            trace.validate_record(rec)

    def test_empty_kind(self):
        rec = self._good()
        rec["kind"] = ""
        with pytest.raises(trace.TraceSchemaError, match="non-empty"):
            trace.validate_record(rec)

    def test_unknown_field(self):
        rec = self._good()
        rec["bogus"] = 1
        with pytest.raises(trace.TraceSchemaError, match="bogus"):
            trace.validate_record(rec)

    def test_optional_field_type_checked(self):
        rec = self._good()
        rec["attrs"] = "not a dict"
        with pytest.raises(trace.TraceSchemaError, match="attrs"):
            trace.validate_record(rec)

    def test_not_a_dict(self):
        with pytest.raises(trace.TraceSchemaError):
            trace.validate_record([1, 2])

    def test_validate_file_reports_line(self, tmp_path):
        """Both readers name the 1-based line of bad JSON and of a schema
        violation alike (the blank line 2 still counts)."""
        path = tmp_path / "bad.jsonl"
        for bad, message in (
            ("{not json", "line 3: invalid JSON"),
            ('{"lane": "x"}', "line 3: missing required field"),
        ):
            path.write_text(json.dumps(self._good()) + "\n\n" + bad + "\n")
            for read in (trace.validate_file, lambda p: list(trace.iter_file(p))):
                with pytest.raises(trace.TraceSchemaError, match=message):
                    read(path)

    def test_validate_file_skips_blank_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(self._good()) + "\n\n")
        assert trace.validate_file(path) == 1


class TestTraceContext:
    def test_span_with_ctx_records_tree_fields(self):
        tracer = trace.configure()
        with trace.span("server", "request", ctx=trace.TraceContext("tid-1")) as sp:
            assert sp.ctx_id
            assert sp.context() == trace.TraceContext("tid-1", sp.ctx_id)
        (rec,) = tracer.records
        assert rec["trace_id"] == "tid-1"
        assert rec["ctx"] == sp.ctx_id
        assert "ctx_parent" not in rec
        trace.validate_record(rec)

    def test_ambient_context_nests_child_spans(self):
        tracer = trace.configure()
        with trace.span("server", "request", ctx=trace.TraceContext("tid")) as outer:
            with trace.span("coalescer", "wait") as inner:
                assert inner.trace_id == "tid"
        inner_rec, outer_rec = tracer.records
        assert inner_rec["ctx_parent"] == outer_rec["ctx"]
        assert inner_rec["trace_id"] == "tid"

    def test_ctx_none_opts_out_of_ambient(self):
        tracer = trace.configure()
        with trace.span("server", "request", ctx=trace.TraceContext("tid")):
            with trace.span("lane", "plain", ctx=None):
                pass
        plain, _request = tracer.records
        assert "trace_id" not in plain and "ctx" not in plain

    def test_current_context_tracks_innermost_span(self):
        trace.configure()
        assert trace.current_context() is None
        with trace.span("server", "request", ctx=trace.TraceContext("tid")) as sp:
            assert trace.current_context() == trace.TraceContext("tid", sp.ctx_id)
        assert trace.current_context() is None

    def test_use_context_hands_off_across_threads(self):
        tracer = trace.configure()
        ctx_holder = {}

        with trace.span("server", "request", ctx=trace.TraceContext("tid")) as sp:
            ctx_holder["ctx"] = sp.context()

        def worker():
            with trace.use_context(ctx_holder["ctx"]):
                with trace.span("pool", "chunk"):
                    pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        chunk = next(r for r in tracer.records if r["kind"] == "chunk")
        assert chunk["trace_id"] == "tid"
        assert chunk["ctx_parent"] == ctx_holder["ctx"].span_id

    def test_run_with_context_callable(self):
        tracer = trace.configure()
        ctx = trace.root_context()

        def work():
            with trace.span("lane", "inner"):
                pass
            return 42

        assert trace.run_with_context(ctx, work) == 42
        (rec,) = [r for r in tracer.records if r["kind"] == "inner"]
        assert rec["trace_id"] == ctx.trace_id

    def test_emit_with_pinned_ctx_id(self):
        tracer = trace.configure()
        ctx = trace.root_context()
        cid = trace.new_ctx_id()
        trace.emit("pool", 0.0, 1.0, "chunk", ctx=ctx, ctx_id=cid)
        (rec,) = tracer.records
        assert rec["ctx"] == cid
        assert rec["trace_id"] == ctx.trace_id

    def test_emit_links_are_recorded_and_filtered(self):
        tracer = trace.configure()
        ctx = trace.root_context()
        trace.emit("batcher", 0.0, 1.0, "compute", ctx=ctx, links=["abc", "", None])
        (rec,) = tracer.records
        assert rec["links"] == ["abc"]

    def test_span_link_dedups(self):
        tracer = trace.configure()
        sp = trace.span("coalescer", "wait", ctx=trace.TraceContext("tid"))
        sp.link("x", "x", None, "y")
        with sp:
            pass
        assert tracer.records[0]["links"] == ["x", "y"]

    def test_new_ctx_id_none_when_disabled(self):
        assert trace.new_ctx_id() is None
        assert trace.current_context() is None

    def test_concurrent_requests_do_not_cross_parent(self):
        """Two interleaved ctx spans on one thread (as on an event loop)
        must each parent their own children."""
        tracer = trace.configure()
        a = trace.span("server", "request", label="a", ctx=trace.TraceContext("ta"))
        b = trace.span("server", "request", label="b", ctx=trace.TraceContext("tb"))
        a.__enter__()
        b.__enter__()
        with trace.span("lane", "child-of-b"):
            pass
        b.__exit__(None, None, None)
        with trace.span("lane", "child-of-a"):
            pass
        a.__exit__(None, None, None)
        child_b = next(r for r in tracer.records if r["kind"] == "child-of-b")
        child_a = next(r for r in tracer.records if r["kind"] == "child-of-a")
        assert child_b["trace_id"] == "tb" and child_b["ctx_parent"] == b.ctx_id
        assert child_a["trace_id"] == "ta" and child_a["ctx_parent"] == a.ctx_id


class TestTaps:
    def test_tap_sees_records_and_uninstalls(self):
        trace.configure()
        seen = []
        trace.add_tap(seen.append)
        try:
            with trace.span("lane", "k"):
                pass
        finally:
            trace.remove_tap(seen.append)
        assert len(seen) == 1 and seen[0]["kind"] == "k"
        with trace.span("lane", "k2"):
            pass
        assert len(seen) == 1  # removed taps see nothing

    def test_tap_exceptions_are_swallowed(self):
        tracer = trace.configure()

        def bad_tap(rec):
            raise RuntimeError("boom")

        trace.add_tap(bad_tap)
        try:
            with trace.span("lane", "k"):
                pass
        finally:
            trace.remove_tap(bad_tap)
        assert tracer.total == 1

    def test_remove_unknown_tap_is_noop(self):
        trace.remove_tap(lambda rec: None)


class TestRequestTrees:
    def _tree(self):
        return [
            {"lane": "s", "start": 0, "end": 9, "kind": "request", "label": "",
             "trace_id": "t", "ctx": "r"},
            {"lane": "c", "start": 1, "end": 8, "kind": "wait", "label": "",
             "trace_id": "t", "ctx": "w", "ctx_parent": "r"},
        ]

    def test_connected_tree_has_no_orphans(self):
        report = trace.validate_request_trees(self._tree())
        assert report == {"traces": 1, "spans": 2, "roots": 1, "orphans": []}

    def test_parent_resolves_across_pids_not_order(self):
        recs = self._tree()[::-1]  # child emitted before parent
        assert trace.validate_request_trees(recs)["orphans"] == []

    def test_missing_trace_id_is_orphan(self):
        recs = self._tree()
        del recs[1]["trace_id"]
        ((idx, reason),) = trace.validate_request_trees(recs)["orphans"]
        assert idx == 1 and "trace_id" in reason

    def test_unresolvable_parent_is_orphan(self):
        recs = self._tree()
        recs[1]["ctx_parent"] = "nope"
        ((idx, reason),) = trace.validate_request_trees(recs)["orphans"]
        assert idx == 1 and "nope" in reason

    def test_parent_in_wrong_trace_is_orphan(self):
        recs = self._tree()
        recs[1]["trace_id"] = "other"
        assert len(trace.validate_request_trees(recs)["orphans"]) == 1

    def test_links_resolve_across_traces(self):
        recs = self._tree()
        recs.append(
            {"lane": "c", "start": 2, "end": 7, "kind": "wait", "label": "coalesced",
             "trace_id": "t2", "ctx": "d", "links": ["w"]}
        )
        report = trace.validate_request_trees(recs)
        assert report["traces"] == 2 and report["orphans"] == []
        recs[-1]["links"] = ["gone"]
        assert len(trace.validate_request_trees(recs)["orphans"]) == 1

    def test_plain_records_are_ignored(self):
        report = trace.validate_request_trees(
            [{"lane": "a", "start": 0, "end": 1, "kind": "k", "label": ""}]
        )
        assert report == {"traces": 0, "spans": 0, "roots": 0, "orphans": []}
