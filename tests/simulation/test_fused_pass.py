"""Differential tests of the contract a fused engine pass relies on.

The pool runs a whole batch as one ``simulate_batch`` call per worker.
That is only sound if a row's result never depends on which other rows
share its pass, and if chunking is invisible.  Both are checked here over
random mixes of strategies, NVM capacities, partner levels and seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configs import NDP_GZIP1, paper_parameters
from repro.simulation import SimConfig, run_simulations, simulate_batch

PARAMS = paper_parameters()

rows = st.builds(
    lambda strategy, capacity, partner, p_partner, ratio, mttis, seed, gzip: SimConfig(
        params=PARAMS,
        strategy=strategy,
        nvm_capacity=capacity,
        partner_every=partner,
        p_partner_recovery=p_partner,
        ratio=ratio,
        work=PARAMS.mtti * mttis,
        seed=seed,
        engine="fast",
        **({"compression": NDP_GZIP1} if gzip else {}),
    ),
    strategy=st.sampled_from(["ndp", "host", "io-only", "local-only"]),
    capacity=st.integers(min_value=1, max_value=8),
    partner=st.integers(min_value=0, max_value=3),
    p_partner=st.sampled_from([0.0, 0.5, 0.9]),
    ratio=st.integers(min_value=1, max_value=20),
    mttis=st.sampled_from([1.5, 3.0, 6.0]),
    seed=st.integers(min_value=0, max_value=2**31),
    gzip=st.booleans(),
)


@given(batch=st.lists(rows, min_size=1, max_size=12), data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_pass_splits_anywhere(batch, data):
    """``simulate_batch(a + b) == simulate_batch(a) + simulate_batch(b)``."""
    cut = data.draw(st.integers(min_value=0, max_value=len(batch)), label="cut")
    a, b = batch[:cut], batch[cut:]
    assert simulate_batch(a + b) == simulate_batch(a) + simulate_batch(b)


@given(batch=st.lists(rows, min_size=1, max_size=12), data=st.data())
@settings(max_examples=30, deadline=None)
def test_chunk_size_is_invisible(batch, data):
    """Any explicit ``chunk_size`` returns the default one-pass answer."""
    k = data.draw(st.integers(min_value=1, max_value=len(batch) + 1), label="chunk_size")
    assert run_simulations(batch, jobs=1, chunk_size=k) == run_simulations(batch)

