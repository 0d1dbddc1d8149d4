"""Self-tests of the end-to-end benchmark harness.

Run with ``python -m pytest benchmarks/e2e/test_harness.py -q`` (about
20 s; the smoke run dominates).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, load_spec, percentile, supported  # noqa: E402
from compare import verdict  # noqa: E402
from loadgen import closed_loop, open_loop  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TestPercentiles:
    def test_p99_needs_ten_samples_beyond_it(self):
        assert supported(1000, 0.99)
        assert not supported(999, 0.99)
        assert supported(200, 0.95)
        assert not supported(199, 0.95)
        assert not supported(19, 0.5)

    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert percentile(values, 0.5) == 500
        assert percentile(values, 0.99) == 990
        assert percentile([7.0], 0.99) == 7.0


class TestLoadGenerator:
    def test_stall_shows_in_due_time_latency_and_lateness(self):
        """A stub server that stalls once for 200 ms with both workers
        blocked: requests due during the stall must carry the wait in
        their latency, and the generator must report running late."""
        server = threading.Lock()
        stall_at, stall_s, rate = 20, 0.2, 200.0

        def send(worker: int, i: int) -> int:
            with server:
                time.sleep(stall_s if i == stall_at else 0.001)
            return i

        res = open_loop(send, 80, rate, workers=2)
        assert res.outcomes == list(range(80))
        # Before the stall the stub keeps up.
        assert max(res.latency[:stall_at]) < 0.05
        # The request due right after the stalled one waits for it.
        assert res.latency[stall_at + 1] > 0.15
        # Requests due while both workers were blocked went out late.
        assert max(res.late) > 0.1
        assert sorted(res.late)[int(0.99 * len(res.late))] > 0.1

    def test_closed_loop_sends_one_at_a_time_per_worker(self):
        inflight = [0]
        peak = [0]
        lock = threading.Lock()

        def send(worker: int, i: int) -> int:
            with lock:
                inflight[0] += 1
                peak[0] = max(peak[0], inflight[0])
            time.sleep(0.002)
            with lock:
                inflight[0] -= 1
            return i

        res = closed_loop(send, 0.2, workers=2)
        assert peak[0] <= 2
        assert res.outcomes == list(range(len(res.outcomes)))
        assert len(res.latency) == len(res.outcomes)


class TestMetricDictionary:
    spec = load_spec()

    def test_names_and_units(self):
        seen = set()
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                assert NAME.fullmatch(m["name"]), m
                assert UNIT.fullmatch(m["unit"]), m
                assert m["better"] in ("higher", "lower"), m
                assert m["name"] not in seen, m
                seen.add(m["name"])
        assert len(self.spec["per_layer"]) <= 128

    def test_bounds_and_setup(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        assert all(0 < b <= 0.25 for b in bounds.values())
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(bounds.values())

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        assert 2 <= len(names) <= 8 and len(set(names)) == len(names)
        assert all(NAME.fullmatch(n) for n in names)
        assert all("\n" not in w["why"] and len(w["why"]) <= 200 for w in self.spec["workloads"])


class TestCompare:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_improved_needs_pairs_wins_and_a_gap_beyond_the_iqr(self):
        change = [v * 1.05 for v in self.parent]
        assert verdict(self.parent, change, "higher", 0.1, True, False) == "improved"
        assert verdict(self.parent, change, "higher", 0.1, False, False) == "unchanged"
        assert verdict(self.parent[:9], change[:9], "higher", 0.1, True, False) == "unchanged"
        assert verdict(self.parent, change, "higher", 0.1, True, True) == "unchanged"

    def test_regressed_and_unresolved(self):
        worse = [v * 0.85 for v in self.parent]
        assert verdict(self.parent, worse, "higher", 0.1, True, False) == "regressed"
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        assert verdict(noisy, noisy, "lower", 0.1, True, False) == "unresolved"


def _run(args: list[str], cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def test_smoke_run_emits_every_metric(tmp_path):
    spec = load_spec()
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    proc = _run(["--smoke", "--trace", "1", "--out", str(out)], ROOT, timeout=120)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert elapsed < 30, f"smoke run took {elapsed:.1f} s"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = {r["workload"]: r for r in json.loads(out.read_text())["results"]}
    assert set(results) == {w["name"] for w in spec["workloads"]} == set(last["workloads"])
    for res in results.values():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
        assert set(res["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        assert all(v > 0 for v in res["end_to_end"].values())
        layers = res["per_layer"]
        assert layers["fastpath.fallbacks"] == 0
        assert layers["batcher.shed"] == layers["batcher.expired"] == 0
    zipf, sweep = results["svc-zipf"]["per_layer"], results["svc-sweep"]["per_layer"]
    assert zipf["cache.hit_ratio"] > 0.99 and sweep["cache.hit_ratio"] == 0
    assert zipf["server.compute_p50_ms"] < 0.05
    assert results["ckpt-ndp"]["per_layer"]["lz4.compress_mbps"] > 0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "svc-zipf", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("flag", ["--workload=nope", "--seconds=0"])
def test_bad_arguments_are_refused(flag):
    assert _run([flag], ROOT, timeout=60).returncode != 0
