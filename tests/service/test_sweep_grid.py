"""Differential: a `/v1/sweep` cell is the `simulate_grid` cell, bit for bit.

Both summarise a cell's seed axis with `simulation.stats.cell_stats`, the
service one cell at a time and the grid over every cell at once; the
buffered and the streamed sweep must both give the grid's bits, the
single-seed `inf` half-width included.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import BackgroundServer, ServiceClient, ServiceConfig, config_from_json
from repro.simulation import simulate_grid

STRATEGIES = ("ndp", "host", "io-only", "local-only")


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServiceConfig(port=0, jobs=1)) as srv:
        yield srv


@st.composite
def cells(draw):
    strategy = draw(st.sampled_from(STRATEGIES))
    cell = {"strategy": strategy, "work_mttis": draw(st.sampled_from([1, 2, 3, 5]))}
    if strategy == "host":
        cell["ratio"] = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cell["params"] = {"mtti": draw(st.sampled_from([600.0, 1800.0]))}
    return cell


def grid_cells(configs, seeds):
    """The `simulate_grid` answer as sweep cells."""
    g = simulate_grid([config_from_json(c) for c in configs], seeds)
    return [
        {
            "mean_efficiency": float(g.efficiency[i]),
            "ci95": float(g.ci95[i]),
            "efficiencies": [r.efficiency for r in g.results[i]],
        }
        for i in range(len(configs))
    ]


@settings(max_examples=40, deadline=None)
@given(
    configs=st.lists(cells(), min_size=1, max_size=5),
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=9),
)
# Sums of squares gave this local-only cell's ci95 one ulp off the grid's.
@example(
    configs=[
        {"strategy": "ndp", "work_mttis": 20},
        {"strategy": "host", "ratio": 3, "work_mttis": 20},
        {"strategy": "io-only", "work_mttis": 20},
        {"strategy": "local-only", "work_mttis": 20},
    ],
    seeds=[3, 5, 8, 13, 21, 34, 55],
)
def test_sweep_cells_are_grid_cells(server, configs, seeds):
    want = grid_cells(configs, seeds)
    body = {"configs": configs, "seeds": seeds}
    with ServiceClient("127.0.0.1", server.port) as client:
        buffered = client.sweep(body)["cells"]
        streamed = list(client.sweep_stream(body))
    for got in (buffered, streamed):
        assert got == want
        if len(seeds) == 1:
            assert all(math.isinf(cell["ci95"]) for cell in got)
