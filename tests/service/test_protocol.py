"""Protocol layer: strict parsing, deterministic serialization."""

import math
import re

import pytest

from repro.core.configs import HOST_GZIP1, NO_COMPRESSION, CompressionSpec
from repro.service.protocol import (
    ProtocolError,
    canonical_dumps,
    compression_from_json,
    config_from_json,
    params_from_json,
    result_to_json,
    sweep_rows_from_json,
)
from repro.simulation import simulate


class TestParams:
    def test_defaults_and_overrides(self):
        assert params_from_json(None).mtti == params_from_json({}).mtti
        assert params_from_json({"mtti": 60.0}).mtti == 60.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ProtocolError, match="unknown params"):
            params_from_json({"mtty": 60.0})

    def test_dataclass_validation_surfaces_as_protocol_error(self):
        with pytest.raises(ProtocolError, match="mtti"):
            params_from_json({"mtti": -1.0})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            params_from_json([1, 2])


class TestCompression:
    def test_null_is_no_compression(self):
        assert compression_from_json(None) == NO_COMPRESSION

    def test_presets(self):
        assert compression_from_json("host-gzip1") == HOST_GZIP1
        with pytest.raises(ProtocolError, match="preset"):
            compression_from_json("zstd19")

    def test_explicit_spec(self):
        spec = compression_from_json(
            {"factor": 0.5, "compress_rate": 1e9, "decompress_rate": 2e9}
        )
        assert spec.factor == 0.5

    def test_bad_spec_rejected(self):
        with pytest.raises(ProtocolError, match="factor"):
            compression_from_json({"factor": 1.5, "compress_rate": 1, "decompress_rate": 1})


class TestConfig:
    def test_minimal_request_gets_service_defaults(self):
        cfg = config_from_json({})
        assert cfg.engine == "fast"
        assert cfg.work == pytest.approx(cfg.params.mtti * 50.0)

    def test_work_mttis_scales_with_params(self):
        cfg = config_from_json({"params": {"mtti": 600.0}, "work_mttis": 10})
        assert cfg.work == pytest.approx(6000.0)

    def test_work_and_work_mttis_conflict(self):
        with pytest.raises(ProtocolError, match="not both"):
            config_from_json({"work": 100.0, "work_mttis": 10})

    def test_trace_never_crosses_the_wire(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            config_from_json({"trace": {}})

    def test_engine_is_not_a_wire_field(self):
        with pytest.raises(ProtocolError, match="unknown request"):
            config_from_json({"engine": "des"})

    def test_simconfig_validation_surfaces(self):
        with pytest.raises(ProtocolError, match="strategy"):
            config_from_json({"strategy": "teleport"})

    def test_failure_times_coerced(self):
        cfg = config_from_json({"failure_times": [10, 20.5], "work": 100.0})
        assert cfg.failure_times == (10.0, 20.5)

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"failure_times": "123"}, "failure_times"),
            ({"failure_times": {"5": 1}}, "failure_times"),
            ({"failure_times": [10, True]}, "failure_times"),
            ({"failure_times": ["10"]}, "failure_times"),
            ({"work_mttis": "3"}, "work_mttis"),
            ({"work_mttis": True}, "work_mttis"),
            ({"seed": "5"}, "seed"),
            ({"seed": 5.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": None}, "seed"),
            ({"ratio": 2.0, "strategy": "host"}, "ratio"),
            ({"work": "100"}, "work"),
            ({"pause_ndp_during_local": 1}, "pause_ndp_during_local"),
            ({"params": {"mtti": True}}, "params.mtti"),
            ({"params": {"checkpoint_size": "1e9"}}, "params.checkpoint_size"),
            ({"compression": {"factor": True, "compress_rate": 1, "decompress_rate": 1}},
             "compression.factor"),
            ({"compression": {"factor": 0.5, "compress_rate": 1e9,
                              "decompress_rate": 2e9, "name": 7}},
             "compression.name"),
            ({"strategy": 5}, "strategy"),
            # Sweep bodies: the seed axis and the server's flags.
            ({"configs": [{}], "seeds": [5.9]}, "seeds"),
            ({"configs": [{}], "seeds": [True]}, "seeds"),
            ({"configs": [{}], "seeds": [0, "7"]}, "seeds"),
            ({"configs": [{}], "detail": "true"}, "detail"),
            ({"configs": [{}], "detail": 1}, "detail"),
            ({"configs": [{}], "stream": "false"}, "stream"),
            ({"configs": [{}], "stream": None}, "stream"),
        ],
    )
    def test_scalar_types_are_strict(self, body, field):
        parse = sweep_rows_from_json if "configs" in body else config_from_json
        with pytest.raises(ProtocolError, match=rf"^{re.escape(field)} must be"):
            parse(body)

    def test_explicit_compression_keeps_its_name(self):
        cfg = config_from_json(
            {"compression": {"factor": 0.5, "compress_rate": 1e9,
                             "decompress_rate": 2e9, "name": "mine"}}
        )
        assert cfg.compression == CompressionSpec(0.5, 1e9, 2e9, name="mine")

    def test_null_means_unset_where_it_did(self):
        cfg = config_from_json(
            {"params": {"local_interval": None}, "work_mttis": None, "failure_times": None}
        )
        assert cfg == config_from_json({"params": {"local_interval": None}})


class TestSweep:
    def test_rows_cell_major_with_seed_axis(self):
        rows, n_cells, n_seeds = sweep_rows_from_json(
            {"configs": [{"seed": 99}, {"strategy": "host"}], "seeds": [0, 1, 2]}
        )
        assert (n_cells, n_seeds) == (2, 3)
        assert [r.seed for r in rows] == [0, 1, 2, 0, 1, 2]
        assert rows[3].strategy == "host"

    def test_empty_configs_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            sweep_rows_from_json({"configs": [], "seeds": [0]})
        with pytest.raises(ProtocolError, match="seeds"):
            sweep_rows_from_json({"configs": [{}], "seeds": []})


class TestCanonicalDumps:
    def test_deterministic_and_key_sorted(self):
        a = canonical_dumps({"b": 1.0, "a": [2.5, {"z": 0, "c": 1}]})
        b = canonical_dumps({"a": [2.5, {"c": 1, "z": 0}], "b": 1.0})
        assert a == b
        assert a.index(b'"a"') < a.index(b'"b"')

    def test_result_round_trip_bytes_stable(self, params):
        from repro.simulation import SimConfig

        cfg = SimConfig(params=params, strategy="ndp", work=params.mtti * 3, seed=1)
        blob1 = canonical_dumps(result_to_json(simulate(cfg)))
        blob2 = canonical_dumps(result_to_json(simulate(cfg)))
        assert blob1 == blob2

    def test_infinity_survives(self):
        assert canonical_dumps({"x": math.inf}) == b'{"x":Infinity}'
