"""Differential test of ``config_key`` against its reflective reference.

``config_key`` caches each dataclass's field names and checks exact
scalar types before walking a dataclass.  A key is a cache file name, so
the hex digest must equal what the plain reflective form below produced
for every config: a changed digest orphans every stored entry.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import CompressionSpec, CRParameters
from repro.experiments import fig6, fig7, fig8, fig9
from repro.service.protocol import config_from_json
from repro.simulation import ENGINES, STRATEGIES, SimConfig
from repro.simulation.pool import CACHE_SCHEMA, config_key


def ref_canonical(obj: object) -> object:
    """The reflective canonical form, as keys were always computed."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = {
            f.name: ref_canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
        body["__type__"] = type(obj).__name__
        return body
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, (list, tuple)):
        return [ref_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache keying")


def ref_config_key(config: SimConfig) -> str:
    body = {
        f.name: ref_canonical(getattr(config, f.name))
        for f in dataclasses.fields(config)
        if f.name != "trace"
    }
    body["__schema__"] = 3
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Doubles whose ``repr`` is easy to get wrong: the smallest subnormal,
#: a mid-range subnormal, the largest double and infinity.
EDGE_POSITIVE = [5e-324, 1.1125369292536007e-308, 1.7976931348623157e308, math.inf]


def positive():
    """Values a positive float field accepts, ints and a float subclass included."""
    floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=True)
    return st.one_of(
        floats,
        st.sampled_from(EDGE_POSITIVE + [math.nan]),
        st.integers(min_value=1, max_value=10**12),
        floats.map(np.float64),
    )


def unit():
    """``[0, 1]``, ``-0.0`` and subnormals included."""
    return st.one_of(
        st.floats(min_value=-0.0, max_value=1.0), st.sampled_from([-0.0, 0.0, 5e-324, 1])
    )


params = st.builds(
    CRParameters,
    mtti=positive(),
    checkpoint_size=positive(),
    local_bandwidth=positive(),
    io_bandwidth=positive(),
    local_interval=st.none() | positive(),
    p_local_recovery=unit(),
    restart_overhead=st.floats(min_value=-0.0, allow_infinity=True, allow_nan=False),
)

compression = st.builds(
    CompressionSpec,
    factor=st.floats(min_value=-0.0, max_value=1.0, exclude_max=True),
    compress_rate=positive(),
    decompress_rate=positive(),
    name=st.text(max_size=12),
)

failure_times = st.none() | st.lists(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=True), max_size=6
).map(sorted).flatmap(lambda ts: st.sampled_from([tuple(ts), ts]))

configs = st.builds(
    SimConfig,
    params=params,
    strategy=st.sampled_from(STRATEGIES),
    ratio=st.integers(min_value=1, max_value=64),
    compression=compression,
    work=positive(),
    seed=st.integers(min_value=-(2**63), max_value=2**64),
    nvm_capacity=st.integers(min_value=1, max_value=16),
    pause_ndp_during_local=st.booleans(),
    failure_shape=positive(),
    partner_every=st.integers(min_value=0, max_value=8),
    partner_bandwidth=positive(),
    p_partner_recovery=unit(),
    failure_times=failure_times,
    engine=st.sampled_from(ENGINES),
)


def test_schema_is_unchanged():
    assert CACHE_SCHEMA == 3


@given(config=configs)
@settings(max_examples=400, deadline=None)
def test_key_equals_the_reflective_reference(config):
    assert config_key(config) == ref_config_key(config)


def test_special_floats_key_apart():
    """``-0.0`` and ``0.0`` (and an int) are distinct keys, as before."""
    base = CRParameters()
    keys = {
        config_key(SimConfig(params=base.with_(restart_overhead=v), work=1.0))
        for v in (0.0, -0.0, 0, 5e-324)
    }
    assert len(keys) == 4


def flatten(grid) -> list[SimConfig]:
    if isinstance(grid, SimConfig):
        return [grid]
    return [c for row in grid for c in flatten(row)]


def test_figure_grids_keep_their_keys():
    rows = [
        c
        for module in (fig6, fig7, fig8, fig9)
        for c in flatten(module.sim_configs())
    ]
    assert rows
    for fast in (False, True):
        for c in rows:
            c = dataclasses.replace(c, engine="fast") if fast else c
            assert config_key(c) == ref_config_key(c)


def test_service_corpus_shape_keeps_its_keys():
    """The end-to-end benchmark's simulate bodies, parsed as the server does."""
    strategies = ("ndp", "host", "io-only", "local-only")
    for i in range(64):
        strategy = strategies[i % 4]
        body = {
            "params": {
                "mtti": 600.0 + 60.0 * (i % 7),
                "checkpoint_size": 1e9 * (1 + i % 5),
                "local_interval": 100.0 + 10.0 * (i % 3),
            },
            "strategy": strategy,
            "ratio": 1 + (i % 4) if strategy == "host" else 1,
            "compression": ("ndp-gzip1", "host-gzip1", "none")[i % 3],
            "work_mttis": 3.0,
            "seed": 123_456_789 + i,
        }
        if i % 8 == 0:
            body["failure_times"] = [10.0 * (k + 1) for k in range(i % 5 + 1)]
            body["partner_every"] = 2
            body["p_partner_recovery"] = 0.5
        config = config_from_json(body)
        assert config_key(config) == ref_config_key(config)


def test_unkeyable_values_still_raise():
    config = SimConfig(params=CRParameters(), work=1.0, seed=np.int64(3))
    for fn in (config_key, ref_config_key):
        with pytest.raises(TypeError, match="int64"):
            fn(config)
