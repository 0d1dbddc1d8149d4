"""``result_to_json`` is the one result converter, and renders what
``dataclasses.asdict`` rendered.

Responses and cache entries are both built from it, so for any result the
response bytes and the stored bytes must equal the ``asdict`` forms they
replaced, special floats included (``nan`` and ``inf`` in the result's
own fields; the breakdown's fractions are validated into ``[0, 1]``).
"""

import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.breakdown import OverheadBreakdown
from repro.service import protocol
from repro.service.protocol import canonical_dumps, result_to_json
from repro.simulation import SimulationResult, pool, stats
from repro.simulation.pool import ResultCache


def asdict_render(result: SimulationResult) -> dict:
    """The deep-copying conversion the service used before."""
    out = dataclasses.asdict(result)
    out["breakdown"] = dataclasses.asdict(result.breakdown)
    return out


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
)
counts = st.integers(min_value=0, max_value=2**63)
#: Breakdown fractions are validated into ``[-1e-9, 1 + 1e-9]``.
fractions = st.one_of(
    st.floats(min_value=-1e-9, max_value=1.0), st.sampled_from([-0.0, 5e-324, 1.0])
)

breakdowns = st.builds(
    OverheadBreakdown,
    **{name: fractions for name in OverheadBreakdown.component_names()},
)

results = st.builds(
    SimulationResult,
    work=floats,
    wall_time=floats,
    efficiency=floats,
    breakdown=breakdowns,
    failures=counts,
    recoveries_local=counts,
    recoveries_io=counts,
    io_checkpoints=counts,
    local_checkpoints=counts,
    host_stall_time=floats,
    recoveries_partner=counts,
    partner_checkpoints=counts,
)


def test_one_converter():
    assert protocol.result_to_json is stats.result_to_json
    assert not hasattr(pool, "_result_to_dict")


@given(result=results)
@settings(max_examples=300, deadline=None)
def test_response_bytes_equal_the_asdict_render(result):
    assert canonical_dumps({"result": result_to_json(result)}) == canonical_dumps(
        {"result": asdict_render(result)}
    )


@given(result=results)
@settings(max_examples=100, deadline=None)
def test_cache_entry_bytes_equal_the_asdict_dump(result, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    key = "cd" * 32
    cache.put(key, result)
    assert cache._path(key).read_bytes() == json.dumps(
        dataclasses.asdict(result)
    ).encode()
