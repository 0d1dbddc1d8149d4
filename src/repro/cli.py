"""Command-line interface: regenerate any paper table/figure.

Usage::

    python -m repro list
    python -m repro experiment figure6
    python -m repro experiment table2 -o source=paper
    python -m repro experiment figure8 --json fig8.json
    python -m repro experiment validation --jobs 4 --no-cache
    python -m repro experiment validation --engine des
    python -m repro all --skip-slow
    python -m repro report -o report.md --skip-slow
    python -m repro calibrate
    python -m repro trace --out run.jsonl experiment figure7
    python -m repro metrics --json drift.json
    python -m repro serve --port 8077 --batch-window 0.002
    python -m repro serve --slo simulate=50ms:0.99 --slo sweep=250ms:0.95
    python -m repro top --port 8077 --interval 1

Options after ``-o``/``--override`` are ``key=value`` pairs forwarded to
the experiment's ``run()`` (values parsed as Python literals when
possible).
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from .experiments.common import ExperimentResult

__all__ = ["main"]

#: Experiments that take minutes (live compression study / simulations).
SLOW_EXPERIMENTS = (
    "table2",
    "validation",
    "figure3",
    "ablation-methods",
    "ablation-cluster",
    "ablation-failure-dist",
    "ablation-delta",
    "ablation-partner",
    "ablation-interval",
)


def _runtime_kwargs(name: str, args: argparse.Namespace) -> dict[str, object]:
    """Batch-runtime options (``--jobs``/``--no-cache``/``--engine``) an
    experiment accepts.

    Experiments opt in by taking ``jobs``/``cache``/``engine`` keyword
    parameters (the Monte-Carlo ones do); everything else runs untouched,
    so the flags are safe to pass globally.
    """
    import inspect

    from .experiments import REGISTRY

    accepted = inspect.signature(REGISTRY[name]).parameters
    out: dict[str, object] = {}
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        if jobs < 0:
            raise SystemExit(f"--jobs must be >= 0 (0 = one per core): {jobs}")
        if "jobs" in accepted:
            out["jobs"] = jobs if jobs > 0 else None  # --jobs 0 => auto-detect
    if "cache" in accepted and not getattr(args, "no_cache", False):
        from .simulation.pool import ResultCache

        out["cache"] = ResultCache.default()
    engine = getattr(args, "engine", None)
    if engine is not None and "engine" in accepted:
        out["engine"] = engine
    return out


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="worker processes for Monte-Carlo experiments (0 = one per core)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk simulation result cache",
    )
    parser.add_argument(
        "--engine",
        choices=["des", "fast"],
        help="simulation engine for Monte-Carlo experiments: the vectorized "
        "batch fastpath (default where supported) or the event-level DES",
    )


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    out: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"override must be key=value: {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            out[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            out[key] = raw
    return out


def _cmd_list(_: argparse.Namespace) -> int:
    from .experiments import REGISTRY

    for name in REGISTRY:
        slow = "  (slow)" if name in SLOW_EXPERIMENTS else ""
        print(f"{name}{slow}")
    return 0


def _result_to_json(result: ExperimentResult) -> dict:
    return {
        "experiment": result.experiment,
        "title": result.title,
        "headline": result.headline,
        "rows": result.rows,
        "text": result.text,
    }


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_experiment

    kwargs = _runtime_kwargs(args.name, args)
    kwargs.update(_parse_overrides(args.override))
    result = run_experiment(args.name, **kwargs)
    print(result)
    if args.json:
        Path(args.json).write_text(
            json.dumps(_result_to_json(result), indent=1, default=str)
        )
        print(f"(wrote {args.json})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments import REGISTRY, run_experiment

    sections = []
    for name in REGISTRY:
        if args.skip_slow and name in SLOW_EXPERIMENTS:
            continue
        result = run_experiment(name, **_runtime_kwargs(name, args))
        sections.append(f"## {result.title}\n\n```\n{result.text}\n```\n")
        print(f"ran {name}", file=sys.stderr)
    body = "# repro — regenerated experiments\n\n" + "\n".join(sections)
    if args.output:
        Path(args.output).write_text(body)
        print(f"wrote {args.output}")
    else:
        print(body)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import REGISTRY, run_experiment

    failures = 0
    for name in REGISTRY:
        if args.skip_slow and name in SLOW_EXPERIMENTS:
            print(f"-- skipping {name} (slow)")
            continue
        try:
            print(run_experiment(name, **_runtime_kwargs(name, args)))
            print()
        except Exception as exc:  # pragma: no cover - defensive CLI surface
            failures += 1
            print(f"!! {name} failed: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_ckpt(args: argparse.Namespace) -> int:
    from .ckpt.backends import DirectoryStore
    from .ckpt.tools import deep_verify, discover_apps, inventory, verify_store

    stores = [DirectoryStore(root) for root in args.roots]
    for store, root in zip(stores, args.roots):
        store.level = str(root)
    apps = args.app and [args.app] or sorted(
        {a for root in args.roots for a in discover_apps(root)}
    )
    if not apps:
        print("no checkpointed applications found", file=sys.stderr)
        return 1
    status = 0
    for app in apps:
        print(f"== {app} ==")
        if args.action == "ls":
            for store in stores:
                for info in inventory(app, store):
                    delta = f" delta-of={info.delta_base}" if info.delta_base else ""
                    codec = f" codec={info.codec}" if info.codec else ""
                    print(
                        f"  [{store.level}] ckpt {info.ckpt_id:6d}  "
                        f"ranks={info.ranks}  pos={info.position:g}  "
                        f"{info.stored_bytes / 1e6:.2f} MB"
                        f" ({info.stored_factor:.0%} reduced){codec}{delta}"
                    )
        else:  # verify
            for store in stores:
                report = verify_store(app, store)
                print(f"  {report.summary()}")
                if not report.healthy:
                    status = 1
            recoverable = deep_verify(app, stores)
            print(f"  end-to-end recoverable: {recoverable}")
            if not recoverable:
                status = 1
    return status


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from .obs import trace as obs_trace

    if not args.rest or args.rest[0] == "trace":
        raise SystemExit("usage: repro trace [--out PATH] <command> [args...]")
    out = args.out
    # Spawned/forked workers read REPRO_TRACE at import and append to the
    # same file (O_APPEND keeps lines whole across processes).
    os.environ[obs_trace.ENV_VAR] = out
    tracer = obs_trace.configure(out)
    try:
        return main(list(args.rest))
    finally:
        print(f"trace: {tracer.summary()}", file=sys.stderr)
        obs_trace.disable()
        os.environ.pop(obs_trace.ENV_VAR, None)


def _cmd_metrics(args: argparse.Namespace) -> int:
    # Lazy import: obs.demo pulls in the checkpoint runtime + simulator.
    from .obs.demo import run_demo

    result = run_demo(
        steps=args.steps,
        include_breakdown=not args.no_breakdown,
    )
    print(result.render())
    if args.prometheus:
        from .obs import metrics as obs_metrics

        print()
        print(obs_metrics.REGISTRY.render_prometheus())
    if args.json:
        Path(args.json).write_text(json.dumps(result.as_dict(), indent=1, default=str))
        print(f"(wrote {args.json})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs.slo import SLOError, parse_slo
    from .service import ServiceConfig, serve, serve_prefork
    from .simulation.pool import ResultCache

    if args.jobs is not None and args.jobs < 0:
        raise SystemExit(f"--jobs must be >= 0 (0 = one per core): {args.jobs}")
    if args.procs < 1:
        raise SystemExit(f"--procs must be >= 1: {args.procs}")
    if args.queue_budget is not None and args.queue_budget <= 0:
        raise SystemExit(f"--queue-budget must be > 0 seconds: {args.queue_budget}")
    if args.aging <= 0:
        raise SystemExit(f"--aging must be > 0 seconds: {args.aging}")
    try:
        slo = tuple(parse_slo(spec) for spec in args.slo)
    except SLOError as exc:
        raise SystemExit(f"--slo: {exc}")
    cache = None if args.no_cache else ResultCache.default()
    jobs = None if args.jobs == 0 else (args.jobs if args.jobs else 1)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=jobs,
        cache=cache,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        coalesce=not args.no_coalesce,
        slo=slo,
        queue_budget=args.queue_budget,
        aging=args.aging,
    )
    if args.procs > 1:
        serve_prefork(config, procs=args.procs)
    else:
        serve(config)
    return 0


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:8.2f}ms"


def render_top(stats: dict) -> str:
    """One frame of the ``repro top`` dashboard from a ``/stats`` payload."""
    lines = [
        f"repro top — uptime {stats.get('uptime_seconds', 0.0):.0f}s, "
        f"requests {stats.get('requests', 0)}"
    ]
    latency = stats.get("latency") or {}
    if latency:
        lines.append("")
        lines.append("  latency            count        p50        p90        p99")
        for endpoint in sorted(latency):
            row = latency[endpoint]
            lines.append(
                f"  {endpoint:<16s} {row.get('count', 0):8d} "
                f"{_fmt_ms(row.get('p50', 0.0))} {_fmt_ms(row.get('p90', 0.0))} "
                f"{_fmt_ms(row.get('p99', 0.0))}"
            )
    slo = stats.get("slo") or {}
    if slo:
        lines.append("")
        lines.append("  slo                objective     good     bad   burn 5m   burn 1h")
        for route in sorted(slo):
            row = slo[route]
            windows = row.get("windows", {})
            b5 = windows.get("5m", {}).get("burn_rate", 0.0)
            b1 = windows.get("1h", {}).get("burn_rate", 0.0)
            flag = "  !!" if max(b5, b1) > 1.0 else ""
            lines.append(
                f"  {route:<16s} {row.get('objective', ''):>10s} "
                f"{row.get('good', 0):8d} {row.get('bad', 0):7d} "
                f"{b5:9.2f} {b1:9.2f}{flag}"
            )
    batch = stats.get("batch") or {}
    coalesce = stats.get("coalesce") or {}
    cache = stats.get("cache") or {}
    lines.append("")
    batch_line = (
        f"  batch: submitted={batch.get('submitted', 0)} "
        f"mean_fast={batch.get('mean_fast_batch', 0.0):.1f} "
        f"max={batch.get('max_batch_seen', 0)} "
        f"queue={batch.get('queue_depth', 0)} "
        f"cache_hits={batch.get('cache_hits', 0)}"
    )
    if batch.get("shed") or batch.get("expired"):
        batch_line += f" shed={batch.get('shed', 0)} expired={batch.get('expired', 0)}"
    lines.append(batch_line)
    lines.append(
        f"  coalesce: primary={coalesce.get('primary', 0)} "
        f"coalesced={coalesce.get('coalesced', 0)} "
        f"inflight={coalesce.get('inflight', 0)}"
    )
    lines.append(
        f"  cache: enabled={cache.get('enabled', False)} "
        f"hits={cache.get('hits', 0)} misses={cache.get('misses', 0)}"
    )
    workers = stats.get("workers") or []
    if workers:
        # Prefork group: the scraped worker merged every sibling's
        # published snapshot; show one row per worker.
        lines.append("")
        lines.append(
            "  worker   requests        p99   queue    shed  expired"
        )
        for w in workers:
            wbatch = w.get("batch") or {}
            wlat = w.get("latency") or {}
            p99 = max(
                (row.get("p99", 0.0) for row in wlat.values()), default=0.0
            )
            lines.append(
                f"  {w.get('worker', '?'):>6}   {w.get('requests', 0):8d} "
                f"{_fmt_ms(p99)} {wbatch.get('queue_depth', 0):7d} "
                f"{wbatch.get('shed', 0):7d} {wbatch.get('expired', 0):8d}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .service.client import ServiceClient, ServiceError

    frames = 0
    try:
        with ServiceClient(args.host, args.port, timeout=5.0) as client:
            while True:
                try:
                    stats = client.stats()
                except (ServiceError, OSError) as exc:
                    print(
                        f"repro top: {args.host}:{args.port} unreachable: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                if not args.once and frames:
                    # ANSI home + clear-below: redraw in place like top(1).
                    print("\x1b[H\x1b[J", end="")
                print(render_top(stats))
                frames += 1
                if args.once or (args.count and frames >= args.count):
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_calibrate(_: argparse.Namespace) -> int:
    from .compression.study import paper_factor
    from .workloads.calibration import calibrate_precision, gzip1_factor
    from .workloads.miniapps import APP_REGISTRY, make_app

    print("Recalibrating proxy precision knobs against Table 2 gzip(1) factors:")
    for name in APP_REGISTRY:
        target = paper_factor(name, "gzip(1)")
        bits = calibrate_precision(
            lambda b, n=name: make_app(n, seed=0, precision_bits=b), target
        )
        app = make_app(name, seed=0, precision_bits=bits)
        app.run(5)
        achieved = gzip1_factor(app.checkpoint_bytes())
        print(f"  {name:11s} target={target:.3f} bits={bits:6.2f} achieved={achieved:.3f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Leveraging NDP for High-Performance "
        "Checkpoint/Restart' (SC'17): regenerate paper tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(
        func=_cmd_list
    )

    p_exp = sub.add_parser("experiment", help="run one experiment")
    p_exp.add_argument("name", help="experiment name (see `repro list`)")
    p_exp.add_argument(
        "-o",
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="keyword override forwarded to the experiment's run()",
    )
    p_exp.add_argument("--json", metavar="PATH", help="also write the result as JSON")
    _add_runtime_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--skip-slow", action="store_true", help="skip slow experiments")
    _add_runtime_flags(p_all)
    p_all.set_defaults(func=_cmd_all)

    p_rep = sub.add_parser("report", help="write a markdown report of all experiments")
    p_rep.add_argument("-o", "--output", metavar="PATH", help="output file (default stdout)")
    p_rep.add_argument("--skip-slow", action="store_true", help="skip slow experiments")
    _add_runtime_flags(p_rep)
    p_rep.set_defaults(func=_cmd_report)

    p_ck = sub.add_parser("ckpt", help="inspect / verify checkpoint stores")
    p_ck.add_argument("action", choices=["ls", "verify"])
    p_ck.add_argument("roots", nargs="+", help="store root directories (fastest first)")
    p_ck.add_argument("--app", help="restrict to one application id")
    p_ck.set_defaults(func=_cmd_ckpt)

    p_tr = sub.add_parser(
        "trace",
        help="run any repro command with structured tracing to a JSONL file",
    )
    p_tr.add_argument(
        "--out",
        metavar="PATH",
        default="trace.jsonl",
        help="JSON-lines output path (default: trace.jsonl)",
    )
    p_tr.add_argument(
        "rest",
        nargs=argparse.REMAINDER,
        metavar="command",
        help="the repro command to run under tracing",
    )
    p_tr.set_defaults(func=_cmd_trace)

    p_me = sub.add_parser(
        "metrics",
        help="run the calibrated C/R demo and print measured-vs-model drift tables",
    )
    p_me.add_argument(
        "--steps", type=int, default=6, help="checkpoints per mode (default 6)"
    )
    p_me.add_argument(
        "--no-breakdown",
        action="store_true",
        help="skip the simulator-vs-model overhead breakdown report",
    )
    p_me.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the metrics registry in Prometheus text format",
    )
    p_me.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p_me.set_defaults(func=_cmd_metrics)

    p_sv = sub.add_parser(
        "serve",
        help="run the capacity-planning HTTP service (simulate/sweep/optimize "
        "with request coalescing and micro-batching; see docs/SERVICE.md)",
    )
    p_sv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_sv.add_argument("--port", type=int, default=8077, help="bind port (0 = any free)")
    p_sv.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        help="pool workers per dispatched batch (0 = one per core; default 1, "
        "inline in the dispatch thread)",
    )
    p_sv.add_argument(
        "--batch-window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="bounded micro-batching delay (default 2 ms)",
    )
    p_sv.add_argument(
        "--max-batch",
        type=int,
        default=256,
        metavar="N",
        help="max simulate jobs fused per batch (1 disables fusion)",
    )
    p_sv.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        metavar="N",
        help="concurrent batch dispatches (default 2)",
    )
    p_sv.add_argument(
        "--no-cache", action="store_true", help="skip the shared on-disk result cache"
    )
    p_sv.add_argument(
        "--no-coalesce",
        action="store_true",
        help="compute every duplicate simulate row instead of attaching it to "
        "the pending identical row (benchmark baseline)",
    )
    p_sv.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="ROUTE=THRESHOLD:TARGET",
        help="latency SLO per /v1 route, e.g. simulate=50ms:0.99 (repeatable); "
        "tracked as rolling good/bad counters and 5m/1h burn rates in "
        "/stats and /metrics",
    )
    p_sv.add_argument(
        "--procs",
        type=int,
        default=1,
        metavar="N",
        help="prefork N worker processes sharing the port via SO_REUSEPORT "
        "(falls back to an inherited listener where unavailable); each "
        "worker runs the full server stack, shares the on-disk cache, and "
        "drains gracefully on SIGTERM",
    )
    p_sv.add_argument(
        "--queue-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="admission-control budget: shed new work with 503 + Retry-After "
        "once the batch queue's estimated drain time exceeds this "
        "(default: never shed)",
    )
    p_sv.add_argument(
        "--aging",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="queue seconds that promote a waiting request one priority "
        "class (starvation control; default 1 s)",
    )
    p_sv.set_defaults(func=_cmd_serve)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard polling a running service's /stats "
        "(latency percentiles, SLO burn rates, batching/coalescing counters)",
    )
    p_top.add_argument("--host", default="127.0.0.1", help="service address")
    p_top.add_argument("--port", type=int, default=8077, help="service port")
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2 s)",
    )
    p_top.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="exit after N frames (0 = run until interrupted)",
    )
    p_top.add_argument(
        "--once", action="store_true", help="print a single frame and exit"
    )
    p_top.set_defaults(func=_cmd_top)

    sub.add_parser(
        "calibrate", help="recompute proxy-app precision calibration"
    ).set_defaults(func=_cmd_calibrate)

    args = parser.parse_args(argv)
    if args.command == "experiment":
        # Checked here, not by argparse ``choices``, so commands that run
        # no experiment (``serve``) never import the experiment modules.
        from .experiments import REGISTRY

        if args.name not in REGISTRY:
            p_exp.error(
                f"argument name: invalid choice: {args.name!r} "
                f"(choose from {', '.join(sorted(REGISTRY))})"
            )
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: normal CLI etiquette is
        # to exit quietly rather than traceback.
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
