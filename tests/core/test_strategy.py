"""The strategy table: every layer does what each entry's fields say.

Cases are taken from :data:`repro.core.strategy.TABLE`, so a new entry
is tested here without editing this file.
"""

import math
from dataclasses import replace

import pytest

from repro.ckpt.backends import IOStore, LocalStore
from repro.ckpt.multilevel import MultilevelCheckpointer
from repro.core.configs import NDP_GZIP1, CRParameters, paper_parameters
from repro.core.model import predict
from repro.core.strategy import STRATEGIES, TABLE, resolve
from repro.simulation import ENGINES, SimConfig, simulate

RATIO = 3

#: (strategy name, partner_every); a partner level copies local
#: checkpoints, so without ``local`` it must copy nothing.
CASES = [(name, pe) for name in TABLE for pe in (0, 2)]


def test_names_come_from_the_table():
    assert STRATEGIES == tuple(TABLE)
    assert all(resolve(name).name == name for name in STRATEGIES)


@pytest.mark.parametrize("name", ["quantum", "", None, ["ndp"]])
def test_unknown_name_lists_the_table(name):
    with pytest.raises(ValueError, match="must be one of") as exc:
        resolve(name)
    assert all(n in str(exc.value) for n in STRATEGIES)


@pytest.mark.parametrize("name, partner_every", CASES)
def test_failure_free_counters_follow_the_spec(name, partner_every):
    spec = TABLE[name]
    config = SimConfig(
        params=CRParameters(mtti=math.inf),
        strategy=name,
        ratio=RATIO,
        compression=NDP_GZIP1,
        work=7 * 150.0 + 33.0,
        partner_every=partner_every,
    )
    des, fast = (simulate(replace(config, engine=engine)) for engine in ENGINES)
    for res in (des, fast):
        assert (res.local_checkpoints > 0) == spec.local
        assert (res.io_checkpoints == 0) == (not spec.has_io)
        if spec.host_push:
            assert res.io_checkpoints == res.local_checkpoints // RATIO
        if spec.drains:
            assert res.breakdown.checkpoint_io == 0.0
        expected_partner = res.local_checkpoints // partner_every if partner_every else 0
        assert res.partner_checkpoints == expected_partner
    assert fast.wall_time == pytest.approx(des.wall_time, rel=1e-9)
    assert fast.breakdown.as_dict() == pytest.approx(des.breakdown.as_dict(), rel=1e-9)


@pytest.mark.parametrize("name", STRATEGIES)
def test_model_charges_follow_the_spec(name):
    spec = TABLE[name]
    res = predict(name, paper_parameters(), NDP_GZIP1, ratio=RATIO)
    assert 0.0 < res.efficiency <= 1.0
    assert (res.breakdown.checkpoint_local > 0) == spec.local
    assert (res.breakdown.checkpoint_io > 0) == (spec.has_io and not spec.drains)


@pytest.mark.parametrize("name", STRATEGIES)
def test_checkpointer_accepts_two_level_entries(name, tmp_path):
    spec = TABLE[name]
    stores = (LocalStore(tmp_path / "nvm", capacity=2), IOStore(tmp_path / "pfs"))
    if not (spec.local and spec.has_io):
        with pytest.raises(ValueError, match="mode must be one of"):
            MultilevelCheckpointer("app", *stores, mode=name)
        return
    cr = MultilevelCheckpointer("app", *stores, mode=name)
    assert (cr.daemon is not None) == spec.drains
    cr.close()
    if spec.drains:
        MultilevelCheckpointer("app", *stores, mode=name, delta_every=2).close()
    else:
        with pytest.raises(ValueError, match="drains"):
            MultilevelCheckpointer("app", *stores, mode=name, delta_every=2)
