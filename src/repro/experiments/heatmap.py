"""Extension: the NDP advantage over the full (size x MTTI) plane.

Figures 8 and 9 are two 1-D slices through the same design space.  With
the vectorized sweep engine the whole plane is one numpy pass, so this
experiment maps NDP+compression's efficiency advantage over
host+compression everywhere — showing that the paper's slices are
representative and where the advantage peaks (large checkpoints, short
MTTI).
"""

from __future__ import annotations

import numpy as np

from ..core.configs import HOST_GZIP1, NDP_GZIP1, paper_parameters
from ..core.sweeps import SweepGrid, ndp_efficiency_grid, optimal_host_grid
from ..core.units import gb, minutes
from ..simulation import ResultCache, SimConfig, default_work, simulate_grid
from .common import ExperimentResult

__all__ = ["run"]

_SHADES = " .:-=+*#%@"


def _ascii_heat(values: np.ndarray, lo: float, hi: float) -> list[str]:
    idx = np.clip(
        ((values - lo) / max(hi - lo, 1e-12) * (len(_SHADES) - 1)).astype(int),
        0,
        len(_SHADES) - 1,
    )
    return ["".join(_SHADES[i] for i in row) for row in idx]


def run(
    size_gb_range: tuple[float, float] = (14.0, 140.0),
    mtti_min_range: tuple[float, float] = (10.0, 150.0),
    resolution: int = 24,
    p_local: float = 0.85,
    simulate_seeds: int = 0,
    simulate_mttis: float = 20.0,
    jobs: int | None = None,
    cache: ResultCache | None = None,
) -> ExperimentResult:
    """Compute NDP-vs-host advantage over the (size, MTTI) plane.

    ``simulate_seeds > 0`` cross-checks the whole analytic plane against
    the fast simulation engine: both strategies at every grid cell go
    through one :func:`~repro.simulation.simulate_grid` pass (the host
    cells at their per-cell optimal ratio).
    """
    sizes = gb(np.linspace(*size_gb_range, resolution))
    mttis = minutes(np.linspace(*mtti_min_range, resolution))
    grid = SweepGrid(
        mtti=mttis[:, None],
        checkpoint_size=sizes[None, :],
        local_bandwidth=15e9,
        io_bandwidth=100e6,
        p_local=p_local,
    )
    ndp = ndp_efficiency_grid(grid, NDP_GZIP1)
    ratios, host = optimal_host_grid(grid, HOST_GZIP1, max_ratio=256)
    advantage = ndp - host

    sim_ndp = sim_host = None
    sim_note = ""
    if simulate_seeds:
        base = paper_parameters().with_(
            local_bandwidth=15e9,
            io_bandwidth=100e6,
            p_local_recovery=p_local,
            local_interval=None,
        )
        cells = []
        for strategy, compression, plane_ratios in (
            ("ndp", NDP_GZIP1, np.ones_like(ratios)),
            ("host", HOST_GZIP1, ratios),
        ):
            plane = []
            for i in range(resolution):
                row_cfgs = []
                for j in range(resolution):
                    p = base.with_(mtti=float(mttis[i]), checkpoint_size=float(sizes[j]))
                    row_cfgs.append(
                        SimConfig(
                            params=p,
                            strategy=strategy,
                            ratio=int(plane_ratios[i, j]),
                            compression=compression,
                            work=default_work(p, simulate_mttis),
                        )
                    )
                plane.append(row_cfgs)
            cells.append(plane)
        sim = simulate_grid(
            cells, seeds=range(simulate_seeds), jobs=jobs, cache=cache
        )
        sim_ndp, sim_host = sim.efficiency[0], sim.efficiency[1]
        gap = np.abs((sim_ndp - sim_host) - advantage)
        sim_note = (
            f"\nsimulated cross-check ({simulate_seeds} seeds x "
            f"{simulate_mttis:.0f} MTTIs per cell): mean |sim - model| "
            f"advantage gap {gap.mean():.3f}, max {gap.max():.3f}."
        )

    peak = np.unravel_index(np.argmax(advantage), advantage.shape)
    rows = []
    for i in range(0, resolution, max(resolution // 6, 1)):
        for j in range(0, resolution, max(resolution // 6, 1)):
            row = {
                "mtti_s": float(mttis[i]),
                "size_bytes": float(sizes[j]),
                "ndp": float(ndp[i, j]),
                "host": float(host[i, j]),
                "advantage": float(advantage[i, j]),
            }
            if sim_ndp is not None:
                row["sim_ndp"] = float(sim_ndp[i, j])
                row["sim_host"] = float(sim_host[i, j])
                row["sim_advantage"] = float(sim_ndp[i, j] - sim_host[i, j])
            rows.append(row)

    heat = _ascii_heat(advantage, 0.0, float(advantage.max()))
    header = (
        f"NDP+comp minus host+comp efficiency, p_local={p_local:.0%}\n"
        f"x: checkpoint size {size_gb_range[0]:.0f}..{size_gb_range[1]:.0f} GB; "
        f"y: MTTI {mtti_min_range[0]:.0f}..{mtti_min_range[1]:.0f} min (top=short)\n"
    )
    legend = f"\nshade scale: ' '=0 .. '@'={advantage.max():.2f}"
    peak_note = (
        f"\npeak advantage {advantage[peak]:.1%} at MTTI "
        f"{mttis[peak[0]] / 60:.0f} min, size {sizes[peak[1]] / 1e9:.0f} GB — "
        "largest where failures are frequent and checkpoints large, exactly "
        "the exascale corner the paper targets."
    )
    headline = {
        "peak_advantage": float(advantage.max()),
        "min_advantage": float(advantage.min()),
    }
    if sim_ndp is not None:
        headline["sim_mean_abs_gap"] = float(
            np.abs((sim_ndp - sim_host) - advantage).mean()
        )
    return ExperimentResult(
        experiment="figure89-heatmap",
        title="Extension: NDP advantage over the (size x MTTI) plane",
        rows=rows,
        text=header + "\n".join(heat) + legend + peak_note + sim_note,
        headline=headline,
    )
