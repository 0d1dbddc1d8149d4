#!/usr/bin/env python3
"""The end-to-end benchmark: four workloads, from the service to the NDP drain.

::

    python3 benchmarks/e2e/run.py                          # every workload
    python3 benchmarks/e2e/run.py --workload svc-zipf --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --trace 1                # per-layer ledger
    python3 benchmarks/e2e/run.py --smoke --trace 1 --out results.json

A run is ``ROUNDS`` rounds.  Each round gives every selected workload a
fresh process (server or child) and a slice of ``--seconds / ROUNDS``
seconds, rotating the start order between rounds.  Throughputs, set-up
times and peak memory are medians over rounds; latency percentiles pool
the samples of every round.  With ``--trace 1`` each slice is split into
an untraced and a traced half (alternating which goes first); the traced
half feeds the per-layer metrics and the untraced half the tracing
overhead.

Every output is checked against serial evaluation after its slice.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace 1``.  Any
failed check exits 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SPEC,
    SRC,
    WORK,
    beyond,
    fingerprint,
    load_spec,
    median,
    metric_units,
    percentile,
    quartiles,
    supported,
)

ROUNDS = 5
SMOKE_SECONDS = 2.0
TAIL_QUANTILES = (0.99, 0.95, 0.9, 0.75)
#: A svc-zipf run is invalid if the generator's own p99 lateness exceeds
#: this: the open loop then no longer offers its nominal rate.
MAX_LATE_P99_MS = 5.0


def _program_error() -> str | None:
    """Why this checkout cannot be benchmarked, or None."""
    if not SPEC.is_file():
        return f"{SPEC.name} not found next to benchmarks/"
    if not (SRC / "repro" / "__init__.py").is_file():
        return "no src/repro package in this checkout"
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        return f"imported repro from {repro.__file__}, not from this checkout"
    return None


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def obs_primitive_costs(iters: int) -> dict[str, float]:
    """``obs.metrics`` primitive costs on a private registry: median over
    3 loops of ``iters`` calls, nanoseconds per call."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    counter = reg.counter("e2e_ops_total", "benchmark counter")
    hist = reg.histogram("e2e_seconds", "benchmark histogram")
    values = [0.9 * hist.buckets[i % (len(hist.buckets) - 1)] for i in range(64)]
    it = iter(values * (3 * iters // len(values) + 1))

    def ns_per_call(fn) -> float:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(iters):
                fn()
            runs.append((time.perf_counter() - t0) / iters * 1e9)
        return median(runs)

    return {
        "obs.counter_inc_ns": ns_per_call(lambda: counter.inc(route="e2e")),
        "obs.histogram_observe_ns": ns_per_call(lambda: hist.observe(next(it))),
    }


def _workloads() -> dict:
    import offline
    import svc

    return {w.name: w for w in (svc.Zipf, svc.Sweep, offline.Grid, offline.Ckpt)}


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median([r["setup_s"] for r in rounds]),
        "throughput_per_s": median([r["throughput"] for r in rounds]),
        "p50_ms": percentile([x for r in rounds for x in r["latency"]], 0.5) * 1e3,
        "peak_rss_mb": median([r["rss_mb"] for r in rounds]),
    }


def tail(latency: list[float]) -> dict:
    """The highest of ``TAIL_QUANTILES`` the samples support, with its
    sample count.  Reported, not gated: on a 2-vCPU VM tail percentiles
    varied 20-32% between runs, beyond any allowed bound (README.md)."""
    n = len(latency)
    q = next((q for q in TAIL_QUANTILES if supported(n, q)), None)
    if q is None:
        return {"q": None, "ms": None, "n": n, "beyond": 0}
    return {"q": q, "ms": percentile(latency, q) * 1e3, "n": n, "beyond": beyond(n, q)}


def assemble(w, plain: list[dict], traced: list[dict], spec: dict, meta: dict,
             workdir: Path) -> dict:
    """One workload's result record (what ``--out`` writes)."""
    e2e = end_to_end(plain)
    per_round = [end_to_end([r]) for r in plain]
    result = {
        "workload": w.name,
        **meta,
        "fingerprint": fingerprint(),
        "end_to_end": e2e,
        "per_round": {m: [pr[m] for pr in per_round] for m in e2e},
        "quartiles": {m: quartiles([pr[m] for pr in per_round]) for m in e2e},
        "tail": tail([x for r in plain for x in r["latency"]]),
        "labels": w.labels,
        "extras": w.extras(plain),
        "valid": True,
    }
    late = [x for r in plain for x in r.get("late", [])]
    if late:
        result["loadgen_late_p99_ms"] = percentile(late, 0.99) * 1e3
        result["valid"] = result["loadgen_late_p99_ms"] <= MAX_LATE_P99_MS
    if traced:
        names = metric_units(spec, "per_layer")
        layers = dict.fromkeys(names, 0.0)  # a bypassed layer reads 0
        layers.update(w.per_layer(traced, workdir))
        layers.update(obs_primitive_costs(2_000 if meta["smoke"] else 20_000))
        layers["obs.trace_overhead"] = (
            median([r["throughput"] for r in plain])
            / median([r["throughput"] for r in traced]) - 1.0
        )
        unknown = set(layers) - set(names)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from {SPEC.name}: {sorted(unknown)}")
        result["per_layer"] = layers
        result["ledger"] = w.ledger(traced)
    failures = [f for r in plain + traced for f in r["failures"]]
    result["attempted"] = sum(r["attempted"] for r in plain + traced)
    result["failed"] = len(failures)
    result["failures"] = failures[:20]
    result["correct"] = not failures
    return result


def contract_line(result: dict, spec: dict, trace: bool) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    values = result[kind]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in metric_units(spec, kind).items()
        },
    }


def report(result: dict, spec: dict) -> None:
    """Human-readable summary of one workload (standard output)."""
    fp = result["fingerprint"]
    print(f"== {result['workload']}  seed {result['seed']}  {result['rounds']} rounds x "
          f"{result['slice_s']:.2f} s  [{fp['nproc']} cpu, {fp['cpu']}, python {fp['python']}, "
          f"numpy {fp['numpy']}, {fp['git_sha'][:12]}]")
    units = metric_units(spec, "end_to_end")
    for name, value in result["end_to_end"].items():
        rounds = " ".join(f"{v:.4g}" for v in result["per_round"][name])
        label = result["labels"].get(name, "")
        print(f"  {name:18s} {value:12.4f} {units[name]:6s} rounds [{rounds}]  {label}")
    t = result["tail"]
    if t["q"] is None:
        print(f"  tail: n={t['n']} samples support no percentile above the median")
    else:
        print(f"  tail: p{t['q'] * 100:g} = {t['ms']:.4f} ms (n={t['n']}, {t['beyond']} beyond; "
              "reported, not gated)")
    for name, value in result["extras"].items():
        print(f"  {name:26s} {value:12.4f}")
    if "loadgen_late_p99_ms" in result:
        print(f"  loadgen late p99 {result['loadgen_late_p99_ms']:.3f} ms"
              f"{'' if result['valid'] else ' -- INVALID RUN (over 5 ms)'}")
    if "per_layer" in result:
        layer_units = metric_units(spec, "per_layer")
        print("  per-layer (traced half):")
        for name, value in result["per_layer"].items():
            if value:
                print(f"    {name:28s} {value:14.4f} {layer_units[name]}")
        zeros = [name for name, value in result["per_layer"].items() if not value]
        print(f"    read 0 (layer bypassed or event absent): {', '.join(zeros)}")
        print("  ledger (share of wall time):")
        for stage, share in result["ledger"].items():
            print(f"    {stage:28s} {share:8.2%}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for msg in result["failures"]:
        print(f"  FAILED: {msg}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1, help="seed every input is made from")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured seconds per workload (split over the rounds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: also run traced halves and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help=f"1 round of {SMOKE_SECONDS:g} s per workload, small grid")
    ap.add_argument("--out", type=Path, help="write the full result records (JSON) here")
    args = ap.parse_args(argv)

    problem = _program_error()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    classes = _workloads()
    names = [w["name"] for w in spec["workloads"]]
    if set(names) != set(classes):
        print(f"error: {SPEC.name} workloads {names} != harness {sorted(classes)}",
              file=sys.stderr)
        return 2
    if args.workload != "all" and args.workload not in classes:
        ap.error(f"unknown workload {args.workload!r}; one of {names} or 'all'")
    selected = names if args.workload == "all" else [args.workload]
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    rounds = 1 if args.smoke else ROUNDS
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    halves = 2 if args.trace else 1
    slice_s = seconds / rounds / halves

    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads = [classes[n](args.seed, args.smoke) for n in selected]
        plain: dict[str, list] = {w.name: [] for w in workloads}
        traced: dict[str, list] = {w.name: [] for w in workloads}
        started = time.time()
        for r in range(rounds):
            k = r % len(workloads)
            for w in workloads[k:] + workloads[:k]:
                modes = [False, True] if args.trace else [False]
                for mode in modes if r % 2 == 0 else modes[::-1]:
                    d = workdir / f"{w.name}-{r}-{int(mode)}"
                    d.mkdir()
                    try:
                        res = w.run_round(r, slice_s, mode, d)
                    finally:
                        shutil.rmtree(d, ignore_errors=True)
                    (traced if mode else plain)[w.name].append(res)
                    log(f"[{time.time() - started:6.1f}s] {w.name} round {r + 1}/{rounds}"
                        f"{' traced' if mode else ''}: setup {res['setup_s']:.2f} s, "
                        f"throughput {res['throughput']:.1f}/s, "
                        f"{len(res['failures'])} failures")
        meta = {"seed": args.seed, "seconds": seconds, "rounds": rounds, "slice_s": slice_s,
                "trace": args.trace, "smoke": args.smoke}
        results = [
            assemble(w, plain[w.name], traced[w.name], spec, meta, workdir / "probe")
            for w in workloads
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it

    for res in results:
        report(res, spec)
    if args.out is not None:
        args.out.write_text(json.dumps({"results": results}, indent=1) + "\n")
    lines = {res["workload"]: contract_line(res, spec, bool(args.trace)) for res in results}
    print(json.dumps(lines[selected[0]] if len(selected) == 1 else {"workloads": lines}))
    return 0 if all(res["correct"] for res in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
