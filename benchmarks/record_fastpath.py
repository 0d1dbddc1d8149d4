"""Record the vectorized fastpath engine's speedup to BENCH_sim_fastpath.json.

Three measurements, all verified before timing is trusted:

* **batch**: one validation-sized Monte-Carlo batch (host + NDP
  strategies, gzip compression, many seeds) twice on a single worker —
  once through the event-driven reference simulator, once as a single
  :func:`repro.simulation.fastpath.simulate_batch` call.  The engines
  must agree (host failure counts bit-identical, ndp within one failure
  at the run boundary, mean efficiency within tolerance).
* **grid**: the fig6-fig9 experiment config set (the standard figure
  grids) once as a per-config loop (one ``simulate_batch`` call per
  config — the pre-``simulate_grid`` pattern) and once as a single
  :func:`repro.simulation.simulate_grid` pass.  Results must be
  bit-identical, and the whole set must run without a single DES
  fallback (``fastpath_fallbacks_total`` stays flat).
* **hetero**: a straggler-heavy heterogeneous batch (mixed work targets
  x MTTI scales x ``nvm_capacity``, >= 256 trajectories at full size)
  once through the pre-ISSUE-8 walker (per-capacity groups, compaction
  disabled) and once through the fused, actively-compacted engine.
  Results must be bit-identical — the speedup comes purely from group
  fusion and active-set compaction, never from changed trajectories.

::

    PYTHONPATH=src python benchmarks/record_fastpath.py                # record
    PYTHONPATH=src python benchmarks/record_fastpath.py --quick \\
        -o /tmp/smoke.json                                            # smoke
    PYTHONPATH=src python benchmarks/record_fastpath.py --check       # CI gate

Every run fails (exit 1) on a DES fallback or below the speedup floors
of ``gates``: at full size 8x for the batch (the exact ring walker
trades a little of the old approximate engine's top-end speed for
bit-exactness), 10x for the grid and 1.5x for the hetero leg;
1.5x/2x/1.1x with ``--quick`` (fixed per-batch costs amortize with
batch size, so the smoke floors are deliberately loose).  ``--check``
also fails if any speedup fell below 60% of its recorded value (the
DES leg's timing is load-noisy).
"""

from __future__ import annotations

import math
from dataclasses import replace

from recorder import Gate, log, parser, run, timed
from repro.core import HOST_GZIP1, NDP_GZIP1, paper_parameters
from repro.simulation import SimConfig, simulate, simulate_grid
from repro.simulation import fastpath
from repro.simulation.fastpath import fallback_total, simulate_batch

#: (strategy, compression, ratio) legs of the batch — the two multilevel
#: configurations the validation experiment exercises hardest.
LEGS = (("host", HOST_GZIP1, 8), ("ndp", NDP_GZIP1, 1))

#: Engines must agree on mean efficiency to this absolute tolerance.  The
#: fast engine models the NVM ring per-slot and is matched-seed exact;
#: only sub-ulp drain-clock association on rare ndp seeds remains, so the
#: mean difference over a batch is rounding noise.
EFFICIENCY_TOL = 1e-6


def _batch(seeds: int, mttis: float) -> list[SimConfig]:
    p = paper_parameters()
    return [
        SimConfig(params=p, strategy=strat, ratio=ratio, compression=comp,
                  work=p.mtti * mttis, seed=seed, engine="fast")
        for seed in range(seeds)
        for strat, comp, ratio in LEGS
    ]


#: The heterogeneous leg's axes: every trajectory gets a work target, an
#: MTTI scale and an NVM capacity off these cycles, so rows finish at
#: wildly different iteration counts and per-capacity grouping would
#: split the batch four ways.
_HETERO_CAPS = (1, 2, 3, 5)
_HETERO_SCALES = (0.7, 1.0, 1.4)
_HETERO_WORKS_FULL = (15.3, 40.3, 90.3, 150.3)
_HETERO_WORKS_QUICK = (5.3, 10.3, 20.3, 30.3)


def _hetero_configs(n: int, works: tuple[float, ...]) -> list[SimConfig]:
    p = paper_parameters()
    out = []
    for i in range(n):
        params = replace(p, mtti=p.mtti * _HETERO_SCALES[i % len(_HETERO_SCALES)])
        out.append(SimConfig(
            params=params, strategy="ndp", compression=NDP_GZIP1,
            work=p.mtti * works[(i // 3) % len(works)],
            seed=1000 + i,
            nvm_capacity=_HETERO_CAPS[(i // 12) % len(_HETERO_CAPS)],
            engine="fast"))
    return out


def _hetero_baseline(configs: list[SimConfig]) -> list:
    """The pre-ISSUE-8 walker: per-capacity groups, no compaction.

    Reproduces the old engine's execution shape exactly — each capacity
    runs as its own full-width batch to the last straggler — while the
    trajectories themselves are unchanged (bit-identity is asserted by
    the caller).
    """
    saved = fastpath.COMPACT_THRESHOLD
    fastpath.COMPACT_THRESHOLD = 0.0
    try:
        results: list = [None] * len(configs)
        groups: dict[int, list[int]] = {}
        for i, c in enumerate(configs):
            groups.setdefault(c.nvm_capacity, []).append(i)
        for cap in sorted(groups):
            idxs = groups[cap]
            for i, r in zip(idxs, simulate_batch([configs[i] for i in idxs])):
                results[i] = r
        return results
    finally:
        fastpath.COMPACT_THRESHOLD = saved


def _grid_configs(mttis: float) -> list[SimConfig]:
    """The fig6-fig9 experiment grids, flattened to one config list."""
    from repro.experiments import fig6, fig7, fig8, fig9

    flat: list[SimConfig] = []

    def walk(item) -> None:
        if isinstance(item, list):
            for sub in item:
                walk(sub)
        else:
            flat.append(item)

    for grid in (
        fig6.sim_configs(mttis=mttis),
        fig7.sim_configs(mttis=mttis),
        fig8.sim_configs(mttis=mttis),
        fig9.sim_configs(mttis=mttis),
    ):
        walk(grid)
    return flat


def _verify(configs: list[SimConfig], des, fast) -> dict[str, dict[str, float]]:
    """Cross-engine agreement; returns per-strategy divergence stats.

    Host/io-only/local-only trajectories are bit-exact, so their failure
    counts must match exactly.  The ndp segment walker carries sub-ulp
    drain-clock residuals that can move the end of the run across a
    failure time on rare seeds — allow that count to shift by one.
    """
    eff_diffs: dict[str, list[float]] = {}
    fail_diffs: dict[str, int] = {}
    for cfg, d, f in zip(configs, des, fast):
        slack = 1 if cfg.strategy == "ndp" else 0
        if abs(f.failures - d.failures) > slack:
            raise SystemExit(
                f"FATAL: engines disagree on failure count for seed {cfg.seed} "
                f"{cfg.strategy}: des={d.failures} fast={f.failures}")
        eff_diffs.setdefault(cfg.strategy, []).append(f.efficiency - d.efficiency)
        fail_diffs[cfg.strategy] = max(
            fail_diffs.get(cfg.strategy, 0), abs(f.failures - d.failures))
    out = {}
    for strat, ds in eff_diffs.items():
        mean = abs(math.fsum(ds) / len(ds))
        if mean > EFFICIENCY_TOL:
            raise SystemExit(
                f"FATAL: mean efficiency diverges for {strat}: |diff|={mean:.2e}")
        out[strat] = {
            "mean_efficiency_abs_diff": mean,
            "max_failure_count_diff": fail_diffs[strat],
        }
    return out


def gates(quick: bool) -> tuple[Gate, ...]:
    return (
        Gate("batch speedup", "speedup", limit=1.5 if quick else 8.0, factor=0.6),
        Gate("grid speedup", "grid.speedup", limit=2.0 if quick else 10.0, factor=0.6),
        Gate("hetero speedup", "hetero.speedup",
             limit=1.1 if quick else 1.5, factor=0.6),
        Gate("DES fallbacks", "fallbacks", limit=0, lower=True),
    )


def measure(quick: bool) -> dict:
    # Non-multiples of the 150 s local interval avoid the
    # work-on-checkpoint-boundary float trap.
    seeds, mttis, grid_mttis = (16, 30.3, 10.0) if quick else (128, 150.3, 50.0)
    hetero_n = 64 if quick else 256
    hetero_works = _HETERO_WORKS_QUICK if quick else _HETERO_WORKS_FULL

    fallbacks_before = fallback_total()

    # -- batch measurement: DES vs one simulate_batch call -------------------
    configs = _batch(seeds, mttis)
    log(f"batch: {len(configs)} runs ({seeds} seeds x {len(LEGS)} strategies "
        f"x {mttis:g} MTTIs), single worker")
    des, t_des = timed(lambda: [simulate(replace(c, engine="des")) for c in configs])
    fast, t_fast = timed(simulate_batch, configs)
    speedup = t_des / t_fast if t_fast > 0 else float("inf")
    diffs = _verify(configs, des, fast)
    log(f"  des  (event-driven)   {t_des:8.2f} s")
    log(f"  fast (one batch)      {t_fast:8.2f} s   ({speedup:.1f}x)")
    for strat, d in sorted(diffs.items()):
        log(f"  agreement {strat:10s} |mean eff diff| = "
            f"{d['mean_efficiency_abs_diff']:.2e}  "
            f"max |failure diff| = {d['max_failure_count_diff']}")

    # -- grid measurement: per-config loop vs one simulate_grid pass ---------
    grid_cfgs = _grid_configs(grid_mttis)
    log(f"grid: fig6-fig9 config set, {len(grid_cfgs)} configs x "
        f"{grid_mttis:g} MTTIs, single worker")
    looped, t_loop = timed(lambda: [simulate_batch([c])[0] for c in grid_cfgs])
    grid, t_grid = timed(lambda: simulate_grid(grid_cfgs, seeds=(0,), jobs=1))
    grid_speedup = t_loop / t_grid if t_grid > 0 else float("inf")
    for i, (a, b) in enumerate(zip(looped, grid.results.reshape(-1))):
        if a != b:
            raise SystemExit(
                f"FATAL: grid pass diverges from per-config loop at index {i}")
    log(f"  loop (per config)     {t_loop:8.2f} s")
    log(f"  grid (one pass)       {t_grid:8.2f} s   ({grid_speedup:.1f}x)")

    # -- hetero measurement: pre-PR walker vs fused + compacted --------------
    hetero_cfgs = _hetero_configs(hetero_n, hetero_works)
    log(f"hetero: {len(hetero_cfgs)} trajectories "
        f"({len(hetero_works)} work targets x {len(_HETERO_SCALES)} MTTI "
        f"scales x {len(_HETERO_CAPS)} capacities), single worker")
    hetero_base, t_hbase = timed(_hetero_baseline, hetero_cfgs)
    hetero_fast, t_hfast = timed(simulate_batch, hetero_cfgs)
    hetero_speedup = t_hbase / t_hfast if t_hfast > 0 else float("inf")
    for i, (a, b) in enumerate(zip(hetero_base, hetero_fast)):
        if a != b:
            raise SystemExit(
                "FATAL: fused/compacted walker diverges from the "
                f"per-capacity uncompacted baseline at index {i}")
    log(f"  base (split, no compaction) {t_hbase:8.2f} s")
    log(f"  fast (fused + compacted)    {t_hfast:8.2f} s   "
        f"({hetero_speedup:.1f}x, bit-identical)")

    # The speedups stay unrounded: the gates compare them at full precision.
    return {
        "benchmark": "Monte-Carlo batch: event-driven simulator vs vectorized fastpath",
        "seeds": seeds,
        "mttis_per_run": mttis,
        "strategies": [strat for strat, _, _ in LEGS],
        "runs": len(configs),
        "quick": quick,
        "jobs": 1,
        "des_seconds": round(t_des, 4),
        "fast_seconds": round(t_fast, 4),
        "speedup": speedup,
        "fallbacks": fallback_total() - fallbacks_before,
        "agreement": {
            strat: {k: (round(v, 8) if isinstance(v, float) else v)
                    for k, v in d.items()}
            for strat, d in sorted(diffs.items())
        },
        "grid": {
            "benchmark": "fig6-fig9 config set: per-config loop vs simulate_grid",
            "configs": len(grid_cfgs),
            "mttis_per_cell": grid_mttis,
            "loop_seconds": round(t_loop, 4),
            "grid_seconds": round(t_grid, 4),
            "speedup": grid_speedup,
        },
        "hetero": {
            "benchmark": ("heterogeneous work x MTTI x capacity batch: "
                          "per-capacity uncompacted walker vs fused + compacted"),
            "trajectories": len(hetero_cfgs),
            "work_targets_mttis": list(hetero_works),
            "mtti_scales": list(_HETERO_SCALES),
            "capacities": list(_HETERO_CAPS),
            "baseline_seconds": round(t_hbase, 4),
            "fused_seconds": round(t_hfast, 4),
            "speedup": hetero_speedup,
            "bit_identical": True,
        },
    }


def main(argv: list[str] | None = None) -> int:
    ap = parser(__doc__, "BENCH_sim_fastpath.json")
    ap.add_argument("--quick", action="store_true",
                    help="tiny batch + loose floors for smoke runs")
    args = ap.parse_args(argv)
    return run(args, lambda: measure(args.quick), gates(args.quick))


if __name__ == "__main__":
    raise SystemExit(main())
