"""The offline workloads, each round in its own child process.

``grid-fig6-9`` and ``ckpt-ndp`` run here rather than in the harness so
that ``peak_rss_mb`` (the child's ``VmHWM``) measures the program alone.
The harness starts ``python offline.py <kind> ...``; the child sets up,
warms up, prints ``ready``, runs its timed slice, checks its outputs and
prints one JSON line of raw samples and sums.  The harness-side classes
below turn those into metrics.

Traced children wrap the layers' public entry points from this file:
``fastpath.simulate_batch``, an lz4 ``Codec``, ``zero_rle``,
``lz4.decompress`` and ``LocalStore``/``IOStore`` subclasses.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import (
    ROOT,
    child_env,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    rng,
    stop,
)

HERE = Path(__file__).resolve().parent

#: grid-fig6-9: the fig6-fig9 config set x 8 seeds at 50 MTTIs, one worker.
GRID_MTTIS = 50.0
GRID_MTTIS_SMOKE = 10.0
GRID_SEEDS = 8
GRID_VERIFY_CELLS = 16

#: ckpt-ndp: two calibrated ranks, lz4 + XOR deltas, a 4-slot local ring.
CKPT_APPS = ("HPCCG", "miniFE")
CKPT_STEPS = 2
CKPT_DELTA_EVERY = 4
CKPT_CAPACITY = 4
CKPT_RESTARTS = 4
#: Share of each ckpt slice spent in the checkpoint loop; flush and the
#: restarts take the rest.
CKPT_LOOP_SHARE = 0.75
APP_ID = "e2e"


# -- harness side ------------------------------------------------------------------


class _Offline:
    kind = ""
    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def run_round(self, r: int, slice_s: float, traced: bool, workdir: Path) -> dict:
        cmd = [
            sys.executable, str(HERE / "offline.py"), self.kind,
            "--seed", str(self.seed), "--round", str(r), "--slice", repr(slice_s),
            "--trace", "1" if traced else "0", "--workdir", str(workdir),
        ] + (["--smoke"] if self.smoke else [])
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            setup = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(f"{self.name} child failed during set-up: {line!r}")
            rest, _ = proc.communicate(timeout=4 * slice_s + 120)
        finally:
            stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{self.name} child exited with {proc.returncode}")
        out = json.loads(rest.strip().splitlines()[-1])
        out["setup_s"] = setup
        return out

    @staticmethod
    def _sum(rounds: list[dict], key: str) -> float:
        return sum(r["sums"][key] for r in rounds)


class Grid(_Offline):
    """grid-fig6-9: the offline figure workload, engine only."""

    kind = "grid"
    name = "grid-fig6-9"
    labels = {
        "throughput_per_s": "rows (cells) simulated per s of simulate_grid",
        "p50_ms": "one simulate_grid pass over 141 configs x 8 seeds",
    }

    def per_layer(self, rounds: list[dict], workdir: Path) -> dict[str, float]:
        s = lambda k: self._sum(rounds, k)  # noqa: E731
        return {
            "fastpath.us_per_row": ratio(s("batch_seconds"), s("batch_rows")) * 1e6,
            "fastpath.rows_per_call": ratio(s("batch_rows"), s("batch_calls")),
            "fastpath.fallbacks": s("fallbacks"),
        }

    def ledger(self, rounds: list[dict]) -> dict[str, float]:
        fast = ratio(self._sum(rounds, "batch_seconds"), self._sum(rounds, "pass_seconds"))
        return {"fastpath.simulate_batch": fast, "pool_and_grid_assembly": 1.0 - fast}

    def extras(self, rounds: list[dict]) -> dict[str, float]:
        return {}


class Ckpt(_Offline):
    """ckpt-ndp: the paper's system, an app checkpointing through NDP drain."""

    kind = "ckpt"
    name = "ckpt-ndp"
    labels = {
        "throughput_per_s": "app iterations per s (compute + serialize + checkpoint)",
        "p50_ms": "time the app blocks in checkpoint()",
    }

    def extras(self, rounds: list[dict]) -> dict[str, float]:
        s = lambda k: self._sum(rounds, k)  # noqa: E731
        return {
            "ckpt.app_efficiency": ratio(s("compute"), s("loop_wall")),
            "drain.io_ckpt_interval_s": ratio(s("loop_wall"), s("io_during")),
            "restart.p50_ms": percentile([x for r in rounds for x in r["restart"]], 0.5) * 1e3,
        }

    def per_layer(self, rounds: list[dict], workdir: Path) -> dict[str, float]:
        s = lambda k: self._sum(rounds, k)  # noqa: E731
        per_round = len(rounds)
        reads = [x for r in rounds for x in r["restart_read"]]
        decodes = [t - rd for r in rounds for t, rd in zip(r["restart"], r["restart_read"])]
        return {
            **self.extras(rounds),
            "lz4.compress_mbps": ratio(s("lz4_in"), s("lz4_s")) / 1e6,
            "lz4.decompress_mbps": ratio(s("dec_out"), s("dec_s")) / 1e6,
            "lz4.factor": 1.0 - ratio(s("lz4_out"), s("lz4_in")),
            "delta.zero_rle_mbps": ratio(s("rle_in"), s("rle_s")) / 1e6,
            "drain.delta_share": ratio(s("delta_drains"), s("drained")),
            "local.write_mbps": ratio(s("local_bytes"), s("local_s")) / 1e6,
            "io.write_mbps": ratio(s("io_w_bytes"), s("io_w_s")) / 1e6,
            "io.read_mbps": ratio(s("io_r_bytes"), s("io_r_s")) / 1e6,
            "drain.mbps": ratio(s("drain_bytes"), s("drain_seconds")) / 1e6,
            "drain.drained_ratio": ratio(s("io_during"), s("checkpoints")),
            "drain.compress_busy_s": s("compress_busy") / per_round,
            "drain.write_busy_s": s("write_busy") / per_round,
            "drain.stall_s": s("stall") / per_round,
            "restart.read_ms": median(reads) * 1e3,
            "restart.decode_ms": median(decodes) * 1e3,
        }

    def ledger(self, rounds: list[dict]) -> dict[str, float]:
        s = lambda k: self._sum(rounds, k)  # noqa: E731
        wall = s("loop_wall")
        restart = sum(sum(r["restart"]) for r in rounds)
        read = sum(sum(r["restart_read"]) for r in rounds)
        return {
            "host.compute": s("compute") / wall,
            "host.serialize": s("serialize") / wall,
            "host.checkpoint_block": s("block_total") / wall,
            "host.other": 1.0 - (s("compute") + s("serialize") + s("block_total")) / wall,
            "drain_thread.compress": s("compress_busy") / wall,
            "drain_thread.write": s("write_busy") / wall,
            "restart.read": ratio(read, restart),
            "restart.decode": 1.0 - ratio(read, restart),
        }


# -- child side --------------------------------------------------------------------


class Meter:
    """Bytes in/out and busy seconds of one wrapped call site."""

    def __init__(self) -> None:
        self.bytes_in = self.bytes_out = 0
        self.seconds = 0.0
        self._lock = threading.Lock()

    def add(self, n_in: int, n_out: int, seconds: float) -> None:
        with self._lock:
            self.bytes_in += n_in
            self.bytes_out += n_out
            self.seconds += seconds

    def wrap(self, fn):
        def timed(data, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(data, *args, **kwargs)
            self.add(len(data), len(out), time.perf_counter() - t0)
            return out

        return timed


def _ready() -> None:
    print("ready", flush=True)


def grid_child(a: argparse.Namespace) -> dict:
    from repro.experiments import fig6, fig7, fig8, fig9
    from repro.simulation import fastpath, simulate_grid
    from repro.simulation.fastpath import fallback_total

    mttis = GRID_MTTIS_SMOKE if a.smoke else GRID_MTTIS
    configs: list = []

    def walk(item) -> None:
        if isinstance(item, list):
            for sub in item:
                walk(sub)
        else:
            configs.append(item)

    for fig in (fig6, fig7, fig8, fig9):
        walk(fig.sim_configs(mttis=mttis))
    seeds = tuple(rng(a.seed, "grid").sample(range(1 << 30), GRID_SEEDS))
    reference = fastpath.simulate_batch
    calls: list[tuple[int, float]] = []
    if a.trace:
        def timed_batch(cfgs):
            t0 = time.perf_counter()
            out = reference(cfgs)
            calls.append((len(cfgs), time.perf_counter() - t0))
            return out

        fastpath.simulate_batch = timed_batch
    fallbacks0 = fallback_total()
    first = simulate_grid(configs, seeds=seeds, jobs=1)
    _ready()

    calls.clear()
    latency: list[float] = []
    failures: list[str] = []
    deadline = time.perf_counter() + a.slice
    while not latency or time.perf_counter() + latency[-1] <= deadline:
        t0 = time.perf_counter()
        grid = simulate_grid(configs, seeds=seeds, jobs=1)
        latency.append(time.perf_counter() - t0)
        if list(grid.results.flat) != list(first.results.flat):
            failures.append(f"pass {len(latency)} differs from the warm-up pass")
    fastpath.simulate_batch = reference

    # Seeded sample of cells, each bit-equal to a single-config batch.
    from dataclasses import replace

    cells = rng(a.seed, f"grid-verify:{a.round}").sample(
        range(len(configs) * len(seeds)), GRID_VERIFY_CELLS
    )
    for i in cells:
        cfg = replace(configs[i // len(seeds)], engine="fast", seed=seeds[i % len(seeds)])
        if reference([cfg])[0] != first.results.flat[i]:
            failures.append(f"cell {i} differs from simulate_batch([cfg])")
    rows = len(configs) * len(seeds)
    return {
        "throughput": rows * len(latency) / sum(latency),
        "latency": latency,
        "attempted": len(latency) + len(cells),
        "failures": failures,
        "sums": {
            "batch_calls": len(calls),
            "batch_rows": sum(n for n, _ in calls),
            "batch_seconds": sum(t for _, t in calls),
            "pass_seconds": sum(latency),
            "fallbacks": fallback_total() - fallbacks0,
        },
    }


def ckpt_child(a: argparse.Namespace) -> dict:
    import repro.ckpt.ndp_daemon as ndp_daemon
    from repro.ckpt.backends import IOStore, LocalStore
    from repro.ckpt.multilevel import MultilevelCheckpointer
    from repro.ckpt.restart import recover
    from repro.compression import lz4
    from repro.compression.codecs import Codec, fast_lz4_codec
    from repro.compression.delta import xor_delta, zero_rle
    from repro.workloads import calibrated_app

    m = {k: Meter() for k in ("lz4", "rle", "dec", "local", "io_w", "io_r")}

    class TimedLocal(LocalStore):
        def write_checkpoint(self, app_id, ckpt_id, files):
            t0 = time.perf_counter()
            super().write_checkpoint(app_id, ckpt_id, files)
            n = sum(len(p) for _, p in files.values())
            m["local"].add(n, n, time.perf_counter() - t0)

    class TimedIO(IOStore):
        def stage_rank_frames(self, app_id, ckpt_id, rank, frames, **kwargs):
            waited = [0.0]

            def pulled():
                # Time blocked on the compressor is not write time.
                it = iter(frames)
                while True:
                    t0 = time.perf_counter()
                    frame = next(it, None)
                    waited[0] += time.perf_counter() - t0
                    if frame is None:
                        return
                    yield frame

            t0 = time.perf_counter()
            header = super().stage_rank_frames(app_id, ckpt_id, rank, pulled(), **kwargs)
            busy = time.perf_counter() - t0 - waited[0]
            m["io_w"].add(header.payload_size, header.payload_size, busy)
            return header

        def read_rank_file(self, *args, **kwargs):
            t0 = time.perf_counter()
            header, payload = super().read_rank_file(*args, **kwargs)
            m["io_r"].add(len(payload), len(payload), time.perf_counter() - t0)
            return header, payload

        def iter_rank_files(self, *args, **kwargs):
            files = super().iter_rank_files(*args, **kwargs)

            def timed():
                while True:
                    t0 = time.perf_counter()
                    item = next(files, None)
                    if item is None:
                        return
                    m["io_r"].add(len(item[1]), len(item[1]), time.perf_counter() - t0)
                    yield item

            return timed()

    app_seed = rng(a.seed, "ckpt").randrange(1 << 30)
    apps = [calibrated_app(name, seed=app_seed) for name in CKPT_APPS]
    # Warm-up: first calls of the app kernels and every data-path codec.
    for app in apps:
        app.run(CKPT_STEPS)
    payload = apps[0].checkpoint_bytes()
    lz4.decompress(fast_lz4_codec().compress(payload))
    zero_rle(xor_delta(payload, payload))

    if a.trace:
        codec = Codec("lz4", 1, m["lz4"].wrap(lz4.compress_dense), lz4.decompress)
        ndp_daemon.zero_rle = m["rle"].wrap(ndp_daemon.zero_rle)
        lz4.decompress = m["dec"].wrap(lz4.decompress)
        local_cls, io_cls = TimedLocal, TimedIO
    else:
        codec = fast_lz4_codec()
        local_cls, io_cls = LocalStore, IOStore
    workdir = Path(a.workdir)
    local = local_cls(workdir / "local", capacity=CKPT_CAPACITY)
    io = io_cls(workdir / "io")
    cr = MultilevelCheckpointer(
        APP_ID, local, io, mode="ndp", codec=codec, delta_every=CKPT_DELTA_EVERY
    ).start()
    _ready()

    compute = serialize = 0.0
    block: list[float] = []
    failures: list[str] = []
    last_id = 0
    loop_start = time.perf_counter()
    deadline = loop_start + a.slice * CKPT_LOOP_SHARE
    while not block or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for app in apps:
            app.run(CKPT_STEPS)
        t1 = time.perf_counter()
        payloads = {rank: app.checkpoint_bytes() for rank, app in enumerate(apps)}
        t2 = time.perf_counter()
        last_id = cr.checkpoint(payloads, position=float(len(block)))
        block.append(time.perf_counter() - t2)
        compute += t1 - t0
        serialize += t2 - t1
    loop_wall = time.perf_counter() - loop_start
    io_during = len(io.committed(APP_ID))
    if not cr.flush_to_io(timeout=120):
        failures.append("drain did not flush to the I/O level")

    restart: list[float] = []
    restart_read: list[float] = []
    for _ in range(CKPT_RESTARTS):
        read0 = m["io_r"].seconds
        t0 = time.perf_counter()
        res = recover(APP_ID, [io])
        restart.append(time.perf_counter() - t0)
        restart_read.append(m["io_r"].seconds - read0)
        if res.ckpt_id != last_id or res.payloads != payloads:
            failures.append(f"restore of checkpoint {res.ckpt_id} is not byte-identical "
                            f"to checkpoint {last_id}")
    cr.close()
    st = cr.daemon.stats
    return {
        "throughput": len(block) / loop_wall,
        "latency": block,
        "restart": restart,
        "restart_read": restart_read,
        "attempted": len(block) + len(restart),
        "failures": failures,
        "sums": {
            "loop_wall": loop_wall,
            "compute": compute,
            "serialize": serialize,
            "block_total": sum(block),
            "checkpoints": len(block),
            "io_during": io_during,
            "drained": st.checkpoints_drained,
            "delta_drains": st.delta_drains,
            "drain_bytes": st.drain.bytes,
            "drain_seconds": st.drain.seconds,
            "compress_busy": st.compress.seconds,
            "write_busy": st.write.seconds,
            "stall": st.stall_seconds,
            "lz4_in": m["lz4"].bytes_in,
            "lz4_out": m["lz4"].bytes_out,
            "lz4_s": m["lz4"].seconds,
            "rle_in": m["rle"].bytes_in,
            "rle_s": m["rle"].seconds,
            "dec_out": m["dec"].bytes_out,
            "dec_s": m["dec"].seconds,
            "local_bytes": m["local"].bytes_in,
            "local_s": m["local"].seconds,
            "io_w_bytes": m["io_w"].bytes_in,
            "io_w_s": m["io_w"].seconds,
            "io_r_bytes": m["io_r"].bytes_in,
            "io_r_s": m["io_r"].seconds,
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="one round of an offline workload")
    ap.add_argument("kind", choices=("grid", "ckpt"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--slice", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args(argv)
    out = (grid_child if a.kind == "grid" else ckpt_child)(a)
    out["rss_mb"] = peak_rss_mb()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
