#!/usr/bin/env python3
"""Compare end-to-end benchmark results.

::

    # a parent and a change: >= 10 runs each, alternating which side runs first
    python3 benchmarks/e2e/compare.py --parent parent/*.json --change change/*.json
    # one run against the recorded baseline and the BENCHMARK.json bounds
    python3 benchmarks/e2e/compare.py --check result.json
    # record the baseline from a set of runs on this host
    python3 benchmarks/e2e/compare.py --write-baseline runs/*.json

Inputs are the files ``run.py --out`` writes.  Each workload x end-to-end
metric gets its own row with both sides' median and quartiles and one
verdict:

* **unresolved** -- the parent's own spread (IQR / median) exceeds the
  metric's bound, unless every change run beats every parent run;
* **regressed** -- the change's median is worse than the parent's by
  more than the bound;
* **improved** -- at least 10 pairs, run alternately, the change wins at
  least 9 in 10 of them (ties count for neither side), and the medians
  differ by more than the parent's IQR; no more failed operations than
  the parent;
* **unchanged** -- none of the above.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import fingerprint, load_spec, median, quartiles, same_host  # noqa: E402

BASELINE = Path(__file__).resolve().parent / "baseline.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """Result records grouped by workload, in the order the runs ended."""
    by_workload: dict[str, list[dict]] = {}
    for path in paths:
        for rec in json.loads(path.read_text())["results"]:
            by_workload.setdefault(rec["workload"], []).append(rec)
    for recs in by_workload.values():
        recs.sort(key=lambda rec: rec["fingerprint"]["date"])
    return by_workload


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            alternating: bool, more_failures: bool) -> str:
    """One row's label (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (cmed - pmed) / pmed
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p3 - p1) / pmed > bound and not all_better:
        return "unresolved"
    if gain < -bound:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        gain > 0
        and len(pairs) >= MIN_PAIRS
        and alternating
        and wins >= WIN_SHARE * len(pairs)
        and abs(cmed - pmed) > p3 - p1
        and not more_failures
    ):
        return "improved"
    return "unchanged"


def _alternating(parent: list[dict], change: list[dict]) -> bool:
    """Whether the pairs alternate which side ran first."""
    firsts = [p["fingerprint"]["date"] < c["fingerprint"]["date"]
              for p, c in zip(parent, change)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.4f} [{q1:.4g}, {q3:.4g}]"


def _split(recs: list[dict]) -> tuple[list[dict], list[dict]]:
    """(untraced, traced) valid full-size runs: end-to-end numbers come
    from the first, per-layer numbers from the second.  A svc-zipf run
    whose generator fell behind its schedule is not valid."""
    full = [r for r in recs if not r["smoke"] and r["valid"]]
    return [r for r in full if not r["trace"]], [r for r in full if r["trace"]]


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> int:
    rows = 0
    regressed = 0
    print(f"{'workload':12s} {'metric':26s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'delta':>8s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        (ps, pt), (cs, ct) = _split(parent[workload]), _split(change[workload])
        n = min(len(ps), len(cs))
        ps, cs = ps[:n], cs[:n]
        if n:
            alternating = _alternating(ps, cs)
            more_failures = sum(r["failed"] for r in cs) > sum(r["failed"] for r in ps)
            for m in spec["end_to_end"]:
                pv = [r["end_to_end"][m["name"]] for r in ps]
                cv = [r["end_to_end"][m["name"]] for r in cs]
                label = verdict(pv, cv, m["better"], m["bound"], alternating, more_failures)
                delta = (median(cv) - median(pv)) / median(pv)
                print(f"{workload:12s} {m['name']:26s} {_fmt(pv):>32s} {_fmt(cv):>32s} "
                      f"{delta:+8.2%}  {label}")
                rows += 1
                regressed += label == "regressed"
            print(f"{workload:12s} {n} pairs, {'alternating' if alternating else 'NOT alternating'}, "
                  f"failed ops parent {sum(r['failed'] for r in ps)} / "
                  f"change {sum(r['failed'] for r in cs)}")
        if pt and ct:
            for m in spec["per_layer"]:
                pv = [r["per_layer"][m["name"]] for r in pt]
                cv = [r["per_layer"][m["name"]] for r in ct]
                print(f"{workload:12s} {m['name']:26s} {_fmt(pv):>32s} {_fmt(cv):>32s} "
                      f"{'':8s}  (per-layer, no bound)")
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    return 1 if regressed else 0


def check(result: dict[str, list[dict]], spec: dict) -> int:
    """One run against the recorded baseline: 1 if any metric is worse
    than the baseline median by more than its bound."""
    base = json.loads(BASELINE.read_text())
    if not same_host(base["fingerprint"], fingerprint()):
        print("the baseline was recorded on another host or software stack; record "
              "one here with --write-baseline", file=sys.stderr)
        return 2
    status = 0
    checked = 0
    for workload, recs in sorted(result.items()):
        entry = base["workloads"].get(workload)
        for rec in _split(recs)[0]:
            if entry is None or rec["seconds"] != entry["seconds"]:
                print(f"{workload}: no baseline recorded at --seconds {rec['seconds']:g}",
                      file=sys.stderr)
                return 2
            checked += 1
            if not rec["correct"]:
                print(f"{workload}: {rec['failed']} failed operations")
                status = 1
            for m in spec["end_to_end"]:
                ref = entry["end_to_end"][m["name"]]["median"]
                got = rec["end_to_end"][m["name"]]
                sign = 1.0 if m["better"] == "higher" else -1.0
                worse = -sign * (got - ref) / ref
                bad = worse > m["bound"]
                status = status or int(bad)
                print(f"{workload:12s} {m['name']:18s} {got:12.4f} vs baseline {ref:12.4f} "
                      f"({(got - ref) / ref:+.2%}, {m['better']} is better, "
                      f"bound {m['bound']:.0%}) {'REGRESSED' if bad else 'ok'}")
    if not checked:
        print("no untraced full-size run to check", file=sys.stderr)
        return 2
    return status


def write_baseline(runs: dict[str, list[dict]], spec: dict, out: Path) -> int:
    hosts = [r["fingerprint"] for recs in runs.values() for r in recs]
    if not all(same_host(hosts[0], h) for h in hosts):
        print("runs come from different hosts; a baseline needs one", file=sys.stderr)
        return 2
    workloads = {}
    for workload, recs in sorted(runs.items()):
        plain, traced = _split(recs)
        if not plain:
            continue
        entry = {"runs": len(plain), "seconds": plain[0]["seconds"], "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["end_to_end"][m["name"]] for r in plain]
            q1, med, q3 = quartiles(values)
            entry["end_to_end"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "unit": m["unit"], "bound": m["bound"], "values": values,
            }
        if traced:
            entry["trace_overhead"] = median(
                [r["per_layer"]["obs.trace_overhead"] for r in traced]
            )
        workloads[workload] = entry
    out.write_text(json.dumps({"fingerprint": hosts[0], "workloads": workloads}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", type=Path, help="parent result files")
    ap.add_argument("--change", nargs="+", type=Path, help="change result files")
    ap.add_argument("--check", type=Path, help="one result file to gate against the baseline")
    ap.add_argument("--write-baseline", nargs="+", type=Path, metavar="RESULT",
                    help=f"record {BASELINE.name} from these result files")
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.check:
        return check(load([args.check]), spec)
    if args.write_baseline:
        return write_baseline(load(args.write_baseline), spec, BASELINE)
    if args.parent and args.change:
        return compare(load(args.parent), load(args.change), spec)
    ap.error("give --parent and --change, --check, or --write-baseline")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
