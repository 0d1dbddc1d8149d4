"""The service workloads: ``svc-zipf`` and ``svc-sweep``.

Each round starts a fresh ``python -m repro serve`` child with default
knobs and a fresh ``REPRO_CACHE_DIR``, drives it from this process over
``CONNECTIONS`` keep-alive connections, reads its ``/stats`` and
``/metrics`` counters around the timed slice, and checks every response
against serial evaluation after the slice.
"""

from __future__ import annotations

import http.client
import json
import subprocess
import sys
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
from loadgen import closed_loop, open_loop

#: Connections (and load-generator threads): the host's 2 vCPUs.
CONNECTIONS = 2
#: The simulate corpus: 64 configs at 10 MTTIs of work each.
CORPUS_SIZE = 64
WORK_MTTIS = 10.0
ZIPF_S = 1.1
#: svc-zipf's open loop: a fixed rate, about 45% of the two-connection
#: capacity (550 req/s on a 2-vCPU Xeon VM), and its share of each slice
#: (the rest is the closed-loop capacity probe).
OPEN_RATE = 250.0
OPEN_SHARE = 2 / 3
#: svc-sweep request shape: cells x fresh seeds, so every row misses.
SWEEP_CELLS = 8
SWEEP_SEEDS = 8
#: The ``server_timing`` stages (``repro.service.timing.STAGES``).
STAGES = ("parse", "coalesce_wait", "batch_window", "cache_probe", "compute", "serialize")
#: Prometheus series read around each slice.
PROM_SERIES = (
    "pool_runs_total",
    "pool_chunks_total",
    "service_batch_seconds_sum",
    "fastpath_fallbacks_total",
)


def build_corpus(seed: int) -> list[dict]:
    """64 distinct simulate bodies: the ``record_service.py`` corpus shape
    (short MTTIs, small checkpoints) with seeds drawn from the run seed."""
    strategies = ("ndp", "host", "io-only", "local-only")
    base = rng(seed, "corpus").randrange(1 << 30)
    corpus = []
    for i in range(CORPUS_SIZE):
        strategy = strategies[i % len(strategies)]
        corpus.append({
            "params": {
                "mtti": 600.0 + 60.0 * (i % 7),
                "checkpoint_size": 1e9 * (1 + i % 5),
                "local_interval": 100.0 + 10.0 * (i % 3),
            },
            "strategy": strategy,
            "ratio": 1 + (i % 4) if strategy == "host" else 1,
            "compression": ("ndp-gzip1", "host-gzip1", "none")[i % 3],
            "work_mttis": WORK_MTTIS,
            "seed": base + i,
        })
    return corpus


def zipf_draws(seed: int, label: str, n: int) -> list[int]:
    """``n`` corpus indices, zipfian (exponent ``ZIPF_S``) over a
    seed-dependent popularity order."""
    g = rng(seed, label)
    order = list(range(CORPUS_SIZE))
    g.shuffle(order)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(CORPUS_SIZE)]
    return [order[k] for k in g.choices(range(CORPUS_SIZE), weights=weights, k=n)]


def prom_totals(text: str) -> dict[str, float]:
    """Sum of every sample of each ``PROM_SERIES`` name, across labels."""
    out = dict.fromkeys(PROM_SERIES, 0.0)
    for line in text.splitlines():
        if not line or line[0] == "#":
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in out:
            out[name] += float(line.split()[-1])
    return out


class Conn:
    """One keep-alive HTTP connection; errors become status -1."""

    def __init__(self, port: int) -> None:
        self._c = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(
        self, method: str, path: str, body: bytes | None = None, timing: bool = False
    ) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        if timing:
            headers["X-Repro-Timing"] = "1"
        try:
            self._c.request(method, path, body=body, headers=headers)
            resp = self._c.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self._c.close()  # the next request reconnects
            return -1, f"{type(exc).__name__}: {exc}".encode()

    def get_json(self, path: str) -> dict:
        status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return json.loads(data)

    def close(self) -> None:
        self._c.close()


class Server:
    """A ``python -m repro serve`` child on a free port."""

    def __init__(self, workdir: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT,
            env=child_env(REPRO_CACHE_DIR=str(workdir / "cache")),
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            stop(self.proc)
            raise RuntimeError(f"service did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def counters(self, conn: Conn) -> dict[str, float]:
        s = conn.get_json("/stats")
        status, text = conn.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics: HTTP {status}")
        prom = prom_totals(text.decode("utf-8"))
        batch, cache = s["batch"], s["cache"]
        return {
            "primary": s["coalesce"]["primary"],
            "coalesced": s["coalesce"]["coalesced"],
            "submitted": batch["submitted"],
            "batches": sum(batch["batches"].values()),
            "batched_jobs": sum(batch["batched_jobs"].values()),
            "shed": batch["shed"],
            "expired": batch["expired"],
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "pool_runs": prom["pool_runs_total"],
            "pool_chunks": prom["pool_chunks_total"],
            "batch_seconds": prom["service_batch_seconds_sum"],
            "fallbacks": prom["fastpath_fallbacks_total"],
        }

    def stop(self) -> None:
        stop(self.proc)


class _Service:
    """Round mechanics shared by both service workloads."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.service.protocol import canonical_dumps, config_from_json, result_to_json
        from repro.simulation import simulate

        self.seed = seed
        self.corpus = build_corpus(seed)
        self._dumps = canonical_dumps
        self._parse = config_from_json
        self._to_json = result_to_json
        self._simulate = simulate
        #: (request body, SimConfig, SimulationResult) seen while verifying:
        #: the workload's own inputs for the traced direct-call probes.
        self.samples: list[tuple[dict, object, object]] = []

    def serial_render(self, body: dict) -> bytes:
        """The response serial evaluation gives for one simulate body."""
        cfg = self._parse(body)
        result = self._simulate(cfg)
        self.samples.append((body, cfg, result))
        return self._dumps({"result": self._to_json(result)})

    def strip_timing(self, data: bytes, traced: bool) -> tuple[bytes, dict | None]:
        """Response bytes without the opt-in ``server_timing`` member."""
        if not traced:
            return data, None
        obj = json.loads(data)
        stages = obj.pop("server_timing")
        return self._dumps(obj), stages

    def run_round(self, r: int, slice_s: float, traced: bool, workdir: Path) -> dict:
        t0 = time.perf_counter()
        server = Server(workdir)
        conns = [Conn(server.port) for _ in range(CONNECTIONS)]
        try:
            out = {"failures": [], "attempted": 0, "walls": [], "unattributed": [],
                   "stages": {s: [] for s in STAGES}}
            self.warm(conns[0], r, out)
            out["setup_s"] = time.perf_counter() - t0
            before = server.counters(conns[0])
            self.load(conns, r, slice_s, traced, out)
            after = server.counters(conns[0])
            out["counters"] = {k: after[k] - before[k] for k in after}
            out["rss_mb"] = peak_rss_mb(server.proc.pid)
        finally:
            for c in conns:
                c.close()
            server.stop()
        return out

    @staticmethod
    def record_stages(out: dict, stages: dict, wall: float) -> None:
        """One traced request: its server stages and client-observed wall."""
        for s in STAGES:
            out["stages"][s].append(stages[s])
        out["unattributed"].append(wall - sum(stages[s] for s in STAGES))
        out["walls"].append(wall)

    # -- traced summaries ---------------------------------------------------------

    def per_layer(self, rounds: list[dict], workdir: Path) -> dict[str, float]:
        from repro.simulation.pool import ResultCache, config_key

        stages = {s: [x for r in rounds for x in r["stages"][s]] for s in STAGES}
        unattributed = [x for r in rounds for x in r["unattributed"]]
        c = {k: sum(r["counters"][k] for r in rounds) for k in rounds[0]["counters"]}

        def p(values: list[float], q: float, scale: float) -> float:
            return percentile(values, q) * scale if values else 0.0

        bodies = [b for b, _, _ in self.samples]
        configs = [cfg for _, cfg, _ in self.samples]
        results = [res for _, _, res in self.samples]
        cache = ResultCache(workdir / "probe-cache")
        keys = [config_key(cfg) for cfg in configs]
        out = {
            "server.parse_p50_us": p(stages["parse"], 0.5, 1e6),
            "server.serialize_p50_us": p(stages["serialize"], 0.5, 1e6),
            "server.unattributed_p50_us": p(unattributed, 0.5, 1e6),
            "server.compute_p50_ms": p(stages["compute"], 0.5, 1e3),
            "protocol.parse_us": _per_call_us(self._parse, bodies),
            "protocol.render_us": _per_call_us(
                lambda res: self._dumps({"result": self._to_json(res)}), results
            ),
            "coalescer.coalesced_ratio": ratio(c["coalesced"], c["primary"] + c["coalesced"]),
            "coalescer.wait_p50_us": p(stages["coalesce_wait"], 0.5, 1e6),
            "batcher.window_p50_us": p(stages["batch_window"], 0.5, 1e6),
            "batcher.window_p99_us": p(stages["batch_window"], 0.99, 1e6),
            "batcher.rows_per_batch": ratio(c["batched_jobs"], c["batches"]),
            "batcher.batches": c["batches"],
            "batcher.shed": c["shed"],
            "batcher.expired": c["expired"],
            "cache.probe_p50_us": p(stages["cache_probe"], 0.5, 1e6),
            "cache.hit_ratio": ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]),
            "cache.lookups_per_row": ratio(c["cache_hits"] + c["cache_misses"], c["submitted"]),
            "cache.put_us_per_key": _per_call_us(lambda kr: cache.put(*kr), list(zip(keys, results))),
            "cache.get_us_per_key": _per_call_us(cache.get, keys),
            "fastpath.us_per_row": ratio(c["batch_seconds"], c["pool_runs"]) * 1e6,
            "fastpath.rows_per_call": ratio(c["pool_runs"], c["pool_chunks"]),
            "fastpath.fallbacks": c["fallbacks"],
        }
        late = [x for r in rounds for x in r.get("late", [])]
        out["loadgen.late_p99_ms"] = p(late, 0.99, 1e3)
        return out

    def ledger(self, rounds: list[dict]) -> dict[str, float]:
        """Each server stage's share of the client-observed request wall."""
        total = sum(sum(r["walls"]) for r in rounds)
        shares = {
            f"server.{s}": sum(sum(r["stages"][s]) for r in rounds) / total for s in STAGES
        }
        shares["http_and_client"] = sum(sum(r["unattributed"]) for r in rounds) / total
        return shares

    def extras(self, rounds: list[dict]) -> dict[str, float]:
        return {}


def _per_call_us(fn, items: list) -> float:
    """Median over 3 passes of the mean microseconds per ``fn(item)``."""
    if not items:
        return 0.0
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        for item in items:
            fn(item)
        runs.append((time.perf_counter() - t0) / len(items) * 1e6)
    return median(runs)


class Zipf(_Service):
    """svc-zipf: independent users on a warm cache (open loop), plus a
    closed-loop capacity probe on the same warm server."""

    name = "svc-zipf"
    labels = {
        "throughput_per_s": "requests/s, closed loop on 2 connections",
        "p50_ms": f"open loop at {OPEN_RATE:g} req/s, timed from each request's due time",
    }

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed, smoke)
        self.bodies = [json.dumps(b).encode() for b in self.corpus]
        self.expected = [self.serial_render(b) for b in self.corpus]

    def warm(self, conn: Conn, r: int, out: dict) -> None:
        for idx, body in enumerate(self.bodies):
            self._check(idx, *conn.request("POST", "/v1/simulate", body), False, out)

    def _check(self, idx: int, status: int, data: bytes, traced: bool, out: dict):
        out["attempted"] += 1
        if status != 200:
            out["failures"].append(f"config {idx}: HTTP {status} {data[:200]!r}")
            return None
        data, stages = self.strip_timing(data, traced)
        if data != self.expected[idx]:
            out["failures"].append(f"config {idx}: response differs from serial simulate()")
        return stages

    def load(self, conns: list[Conn], r: int, slice_s: float, traced: bool, out: dict) -> None:
        n_open = max(1, round(OPEN_RATE * slice_s * OPEN_SHARE))
        seq = zipf_draws(self.seed, f"zipf:{r}", n_open + 10_000)

        def send(w: int, i: int):
            idx = seq[i % len(seq)]
            return idx, *conns[w].request("POST", "/v1/simulate", self.bodies[idx], traced)

        opened = open_loop(send, n_open, OPEN_RATE, CONNECTIONS)
        closed = closed_loop(
            lambda w, i: send(w, n_open + i), slice_s * (1 - OPEN_SHARE), CONNECTIONS
        )
        out["latency"] = opened.latency
        out["late"] = opened.late
        out["throughput"] = len(closed.outcomes) / closed.wall
        walls = [lat - late for lat, late in zip(opened.latency, opened.late)] + closed.latency
        for outcome, wall in zip(opened.outcomes + closed.outcomes, walls):
            stages = self._check(*outcome, traced, out)
            if stages is not None:
                self.record_stages(out, stages, wall)


class Sweep(_Service):
    """svc-sweep: callers that wait for 8x8-row sweeps whose rows all miss
    the cache, on a closed loop."""

    name = "svc-sweep"
    labels = {
        "throughput_per_s": "rows (cells) simulated per s, closed loop on 2 connections",
        "p50_ms": f"sweep request latency ({SWEEP_CELLS}x{SWEEP_SEEDS} rows)",
    }

    def body(self, r: int, k: int) -> dict:
        """Request ``k`` of round ``r``: 8 corpus cells x 8 fresh seeds."""
        g = rng(self.seed, f"sweep:{r}:{k}")
        cells = [self.corpus[i] for i in g.sample(range(CORPUS_SIZE), SWEEP_CELLS)]
        block = ((self.seed % 4096) * 64 + r) * 65536 + k
        seeds = [block * SWEEP_SEEDS + j for j in range(SWEEP_SEEDS)]
        return {"configs": cells, "seeds": seeds, "detail": True}

    def warm(self, conn: Conn, r: int, out: dict) -> None:
        body = self.body(r, 65535)  # a block no timed request uses
        self._check(body, *conn.request("POST", "/v1/sweep", json.dumps(body).encode()),
                    False, out, verify=False)

    def _check(self, body: dict, status: int, data: bytes, traced: bool, out: dict,
               verify: bool):
        out["attempted"] += 1
        if status != 200:
            out["failures"].append(f"sweep: HTTP {status} {data[:200]!r}")
            return None
        data, stages = self.strip_timing(data, traced)
        reply = json.loads(data)
        cells = reply.get("cells", [])
        if (reply.get("n_cells"), reply.get("n_seeds"), len(cells)) != (
            SWEEP_CELLS, SWEEP_SEEDS, SWEEP_CELLS
        ):
            out["failures"].append("sweep: reply shape differs from the request")
            return stages
        if verify:
            # Every row's detail result must be the serial render of that row.
            for c, cell in enumerate(cells):
                for s, seed in enumerate(body["seeds"]):
                    want = self.serial_render(dict(body["configs"][c], seed=seed))
                    got = self._dumps({"result": cell["results"][s]})
                    if got != want or cell["efficiencies"][s] != cell["results"][s]["efficiency"]:
                        out["failures"].append(f"sweep cell {c} seed {seed}: differs from serial")
        return stages

    def load(self, conns: list[Conn], r: int, slice_s: float, traced: bool, out: dict) -> None:
        def send(w: int, k: int):
            body = self.body(r, k)
            return body, *conns[w].request("POST", "/v1/sweep", json.dumps(body).encode(), traced)

        closed = closed_loop(send, slice_s, CONNECTIONS)
        out["latency"] = closed.latency
        out["throughput"] = len(closed.outcomes) * SWEEP_CELLS * SWEEP_SEEDS / closed.wall
        # One seeded response per round is checked row by row; the rest
        # for status and shape (serial evaluation costs ~5 ms a row).
        chosen = rng(self.seed, f"verify:{r}").randrange(len(closed.outcomes))
        for k, (outcome, wall) in enumerate(zip(closed.outcomes, closed.latency)):
            stages = self._check(*outcome, traced, out, verify=k == chosen)
            if stages is not None:
                self.record_stages(out, stages, wall)
