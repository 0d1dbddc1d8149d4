"""The per-server simulate parse memo: body bytes -> (qos, config, key).

``config_key`` is the spec: a memoized parse must answer exactly what the
plain chain ``json.loads`` -> ``qos_from_json`` -> ``config_from_json``
-> ``config_key`` answers for the same bytes, errors included.
"""

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    BackgroundServer,
    ServiceClient,
    ServiceConfig,
    canonical_dumps,
    result_to_json,
)
from repro.service.protocol import ProtocolError, config_from_json, qos_from_json
from repro.service.server import MEMO_BODY_BYTES, ServiceServer
from repro.simulation import simulate
from repro.simulation.pool import MEMO_ENTRIES, ResultCache, config_key

BODY = {"params": {"mtti": 600.0}, "strategy": "ndp", "work_mttis": 3, "seed": 1}

#: Stated per-entry bound of the memo (``docs/SERVICE.md``): its worst
#: case is ``MEMO_ENTRIES`` entries of this size.
ENTRY_BYTES = 20 * 1024


def fresh_parse(body: bytes):
    """The spec: the un-memoized parse chain, with its 400 for bad JSON."""
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc
    qos, rest = qos_from_json(payload)
    cfg = config_from_json(rest)
    return qos, cfg, config_key(cfg)


def expected_bytes(body: dict) -> bytes:
    """What a serial, single-request evaluation would answer, exactly."""
    return canonical_dumps({"result": result_to_json(simulate(config_from_json(body)))})


def outcome(parse, body: bytes):
    try:
        return "ok", parse(body)
    except Exception as exc:
        return "error", type(exc), str(exc)


@pytest.fixture(scope="module")
def server():
    return ServiceServer(ServiceConfig(port=0))


def worst_body(seed: int) -> bytes:
    """A valid body of at most ``MEMO_BODY_BYTES`` that parses to the
    most memory: the longest ``failure_times`` list the cap allows."""
    head = '{"seed":%d,"failure_times":[' % seed
    n = (MEMO_BODY_BYTES - len(head) - 1) // 2
    return (head + ",".join(["1"] * n) + "]}").encode()


_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 2**40),
    st.floats(allow_nan=False, min_value=-1e3, max_value=1e12),
    st.text(max_size=4),
    st.lists(st.integers(0, 9), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_params = st.fixed_dictionaries({}, optional={
    "mtti": st.floats(60.0, 1e4),
    "checkpoint_size": st.one_of(st.integers(10**8, 10**11), st.floats(1e8, 1e11)),
    "local_interval": st.one_of(st.none(), st.floats(10.0, 1e3)),
    "p_local_recovery": st.floats(0.0, 1.0),
})
#: Valid values for every field a simulate body may carry.
_fields = {
    "seed": st.integers(0, 2**40),
    "strategy": st.sampled_from(["ndp", "host", "io-only", "local-only"]),
    "ratio": st.integers(1, 4),
    "work_mttis": st.one_of(st.integers(1, 5), st.floats(0.5, 5.0)),
    "params": _params,
    "compression": st.sampled_from([None, "none", "host-gzip1", "ndp-gzip1"]),
    "failure_times": st.lists(st.floats(1.0, 1e6), max_size=4).map(sorted),
    "deadline_ms": st.integers(1, 10_000),
    "priority": st.integers(0, 9),
}
_valid = st.fixed_dictionaries({}, optional=_fields)
#: A valid body with one field (known, or an unknown key) set to junk.
_invalid = st.builds(
    lambda body, key, value: {**body, key: value},
    _valid,
    st.sampled_from([*_fields, "engine", "trace", "bogus"]),
    _junk,
)
_bodies = st.one_of(
    _valid.map(lambda d: json.dumps(d).encode("utf-8")),
    _valid.map(lambda d: json.dumps(d, indent=2, sort_keys=True).encode("utf-8")),
    _invalid.map(lambda d: json.dumps(d).encode("utf-8")),
    _valid.map(lambda d: json.dumps(d).encode("utf-8")[:-1]),  # truncated
    st.sampled_from([b"", b"[]", b"null", b"3", b'"x"', b"{", b"\xff\xfe{}"]),
    st.binary(max_size=24),
)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(body=_bodies)
    def test_memoized_parse_equals_a_fresh_parse(self, server, body):
        want = outcome(fresh_parse, body)
        got = outcome(server._parse_simulate, body)
        assert got == want
        again = outcome(server._parse_simulate, body)
        assert again == want
        if want[0] == "ok":
            assert again[1] is got[1]  # a repeat is the stored object

    def test_errors_are_never_stored(self):
        server = ServiceServer(ServiceConfig(port=0))
        bad = [b"{", b'{"seed": "5"}', b'{"failure_times": "123"}', b"\xff"]
        for body in bad * 2:
            with pytest.raises(ProtocolError):
                server._parse_simulate(body)
        assert server._parse_memo.cache_info().currsize == 0

    def test_each_server_has_its_own_memo(self):
        a = ServiceServer(ServiceConfig(port=0))
        b = ServiceServer(ServiceConfig(port=0))
        body = json.dumps(BODY).encode()
        assert a._parse_simulate(body) is a._parse_simulate(body)
        assert a._parse_simulate(body) is not b._parse_simulate(body)


class TestBounds:
    def test_entries_and_body_size_are_bounded(self):
        server = ServiceServer(ServiceConfig(port=0))
        memo = server._parse_memo
        for seed in range(MEMO_ENTRIES + 40):
            server._parse_simulate(json.dumps(dict(BODY, seed=seed)).encode())
        assert memo.cache_info().currsize == MEMO_ENTRIES
        lookups = memo.cache_info().hits + memo.cache_info().misses
        times = list(range(1, 600))
        for seed in range(3):
            big = json.dumps(dict(BODY, seed=seed, failure_times=times)).encode()
            assert len(big) > MEMO_BODY_BYTES
            first = server._parse_simulate(big)
            assert server._parse_simulate(big) == first
            assert server._parse_simulate(big) is not first  # parsed, not stored
        info = memo.cache_info()
        assert (info.currsize, info.hits + info.misses) == (MEMO_ENTRIES, lookups)

    def test_worst_case_entry_memory(self):
        """The stated bound: no stored entry (body bytes included) takes
        more than ``ENTRY_BYTES``, so the memo stays under
        ``MEMO_ENTRIES * ENTRY_BYTES``."""
        server = ServiceServer(ServiceConfig(port=0))
        n = 64
        assert len(worst_body(0)) <= MEMO_BODY_BYTES
        server._parse_simulate(worst_body(n))  # warm every lazy import/cache
        server._parse_memo.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for seed in range(n):
                server._parse_simulate(worst_body(seed))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert server._parse_memo.cache_info().currsize == n
        assert held / n <= ENTRY_BYTES


class TestWarmRepeats:
    def test_repeats_are_serial_bytes_and_still_counted(self, tmp_path):
        n = 5
        body = dict(BODY, seed=81)
        want = expected_bytes(body)
        config = ServiceConfig(port=0, jobs=1, cache=ResultCache(tmp_path / "simcache"))
        with BackgroundServer(config) as srv:
            with ServiceClient("127.0.0.1", srv.port) as c:
                assert c.post_raw("/v1/simulate", body) == want  # cold
                before = c.stats()
                for _ in range(n):
                    assert c.post_raw("/v1/simulate", body) == want
                after = c.stats()
            assert after["cache"]["hits"] - before["cache"]["hits"] == n
            assert after["coalesce"]["primary"] - before["coalesce"]["primary"] == n
            with ServiceClient("127.0.0.1", srv.port, timing=True) as c:
                timed = json.loads(c.post_raw("/v1/simulate", body))
        assert set(timed["server_timing"]) == {
            "parse", "coalesce_wait", "batch_window", "cache_probe", "compute", "serialize"
        }
        assert canonical_dumps({"result": timed["result"]}) == want
