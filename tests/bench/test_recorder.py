"""The shared BENCH recorder: hard limits in both directions, ``--check``
against the recording, and the write that happens only when every gate
passed."""

import importlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import recorder  # noqa: E402
from recorder import Gate  # noqa: E402


def record(path: Path, measured: dict, gates, *flags: str) -> int:
    args = recorder.parser("test recording", str(path)).parse_args(list(flags))
    return recorder.run(args, lambda: measured, gates)


@pytest.mark.parametrize(
    "gate, got",
    [
        (Gate("speedup", "leg.speedup", limit=2.0), 1.99),
        (Gate("overhead", "leg.overhead", limit=0.02, lower=True), 0.021),
    ],
    ids=["higher-is-better", "lower-is-better"],
)
def test_hard_limit_failure_exits_1_and_writes_nothing(tmp_path, gate, got):
    path = tmp_path / "bench.json"
    measured = {"leg": {gate.key.split(".")[1]: got}}
    assert record(path, measured, [gate]) == 1
    assert not path.exists()


def test_passing_record_writes_the_host_stamp(tmp_path):
    path = tmp_path / "bench.json"
    gates = [Gate("speedup", "speedup", limit=2.0),
             Gate("orphans", "orphans", limit=0, lower=True)]
    assert record(path, {"speedup": 2.0, "orphans": 0}, gates) == 0
    written = json.loads(path.read_text())
    assert written["speedup"] == 2.0
    assert {"nproc", "cpu", "python", "git_sha", "date"} <= set(written["fingerprint"])


def test_check_gates_on_a_factor_of_the_recording(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"grid": {"speedup": 10.0}}))
    gates = [Gate("grid speedup", "grid.speedup", limit=2.0, factor=0.6)]
    assert record(path, {"grid": {"speedup": 5.9}}, gates, "--check") == 1
    assert record(path, {"grid": {"speedup": 6.0}}, gates, "--check") == 0
    # --check never rewrites the recording.
    assert json.loads(path.read_text()) == {"grid": {"speedup": 10.0}}


def test_lower_is_better_compares_with_le(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"null_span_ns": 100.0}))
    gates = [Gate("null span ns", "null_span_ns", factor=3.0, lower=True)]
    assert record(path, {"null_span_ns": 300.0}, gates, "--check") == 0
    assert record(path, {"null_span_ns": 300.1}, gates, "--check") == 1
    # The factor gate only applies under --check.
    assert record(path, {"null_span_ns": 1e6}, gates) == 0


def test_check_without_recording_exits_1_before_measuring(tmp_path):
    def measure():
        raise AssertionError("measured although the recording is missing")

    args = recorder.parser("t", str(tmp_path / "none.json")).parse_args(["--check"])
    assert recorder.run(args, measure, [Gate("s", "s", factor=0.6)]) == 1


@pytest.mark.parametrize(
    "script", ["record_runtime", "record_fastpath", "record_obs", "record_service"])
def test_every_script_check_without_recording_exits_1(tmp_path, script):
    main = importlib.import_module(script).main
    assert main(["--check", "-o", str(tmp_path / "none.json")]) == 1


def test_parallel_recorder_has_no_check():
    main = importlib.import_module("record_parallel").main
    with pytest.raises(SystemExit) as exc:
        main(["--check"])
    assert exc.value.code == 2
