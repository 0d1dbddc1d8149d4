"""Whole experiment grids through one vectorized simulation pass.

The figure experiments sweep a strategy x parameter plane: five
sensitivity configurations x eight checkpoint sizes, four strategies x
four compression factors x four recovery probabilities, a (size x MTTI)
heatmap.  Run one config at a time and every cell pays the fast engine's
batch setup (stream seeding, array allocation, a private driver loop) by
itself — the Python driver iterations scale with the *sum* of segment
counts instead of the max.

:func:`simulate_grid` broadcasts the whole grid instead: every
(cell, seed) pair becomes one row of a single :func:`~.fastpath.simulate_batch`
call (per worker chunk), so compatible configs advance together and the
driver-loop cost is shared across the grid.  The grid's nesting
structure is preserved — results come back as numpy arrays shaped like
the input — and per-cell statistics (mean efficiency, Student-t 95%
half-width, mean breakdown components) are precomputed over the seed
axis.

The pass routes through :func:`~.pool.run_simulations`, so ``jobs`` and
an on-disk :class:`~.pool.ResultCache` compose with it; results are
bit-identical at any worker count because each row owns its seed's RNG
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any, Callable, Sequence

import numpy as np

from .pool import ChunkTiming, ResultCache, run_simulations
from .simulator import SimConfig, SimulationResult
from .stats import cell_stats

__all__ = ["GridResult", "simulate_grid"]


def _flatten(grid: Any) -> tuple[tuple[int, ...], list[SimConfig]]:
    """Infer the (rectangular) shape of a nested config structure.

    A bare :class:`SimConfig` is a scalar cell (shape ``()``); sequences
    nest to arbitrary depth but must be rectangular — ragged rows would
    make the result arrays meaningless.
    """
    if isinstance(grid, SimConfig):
        return (), [grid]
    items = list(grid)
    if not items:
        raise ValueError("simulate_grid: empty grid axis")
    shapes_flats = [_flatten(item) for item in items]
    shape0 = shapes_flats[0][0]
    if any(shape != shape0 for shape, _ in shapes_flats):
        raise ValueError("simulate_grid: ragged grid (axes must be rectangular)")
    flat = [cfg for _, cell in shapes_flats for cfg in cell]
    return (len(items),) + shape0, flat


@dataclass(frozen=True)
class GridResult:
    """One simulated grid: per-cell statistics plus the raw results.

    Attributes
    ----------
    shape:
        The grid's shape (the nesting structure of the input configs).
    seeds:
        The seed axis every cell was replicated over.
    efficiency, ci95:
        Mean efficiency per cell and its 95% Student-t half-width over
        the seed axis, each shaped ``shape``.  With a single seed the
        half-width is ``inf`` (one draw carries no variance information).
    breakdown:
        Component name -> mean breakdown fraction per cell (``shape``).
    results:
        Object array of :class:`SimulationResult`, shaped
        ``shape + (len(seeds),)`` — the full per-seed detail.
    """

    shape: tuple[int, ...]
    seeds: tuple[int, ...]
    efficiency: np.ndarray
    ci95: np.ndarray
    breakdown: dict[str, np.ndarray]
    results: np.ndarray

    @property
    def n_cells(self) -> int:
        """Number of grid cells."""
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    def map(self, fn: Callable[[SimulationResult], float]) -> np.ndarray:
        """Apply ``fn`` to every result: a float array ``shape + (seeds,)``."""
        return _per_seed(self.results, fn)

    def mean_of(self, fn: Callable[[SimulationResult], float]) -> np.ndarray:
        """Per-cell mean of ``fn`` over the seed axis (shaped ``shape``)."""
        return cell_stats(self.map(fn))[0]


def _per_seed(results: np.ndarray, fn: Callable) -> np.ndarray:
    """``fn`` of every result, as a float array shaped like ``results``."""
    out = np.fromiter((fn(r) for r in results.flat), np.float64, count=results.size)
    return out.reshape(results.shape)


def simulate_grid(
    configs: Any,
    seeds: Sequence[int] = (0,),
    *,
    engine: str | None = "fast",
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    timings: list[ChunkTiming] | None = None,
) -> GridResult:
    """Simulate a whole config grid in one vectorized pass.

    ``configs`` is a :class:`SimConfig` or an arbitrarily nested
    rectangular sequence of them; each cell is replicated once per seed
    in ``seeds`` (``replace(config, seed=s)``), and all (cell, seed)
    rows go through one :func:`~.pool.run_simulations` fan-out.  Any
    ``seed`` already on a grid config is overwritten — the seed axis is
    the grid's, not the cell's.

    ``engine`` overrides every config's engine (default ``"fast"``:
    the vectorized path is the point; pass ``None`` to keep per-config
    choices, or ``"des"`` to force the oracle).  ``jobs``/``cache``
    compose with the pool runtime as usual; by default each worker runs
    one chunk, so the whole grid is one ``simulate_batch`` pass per
    worker.
    """
    shape, flat = _flatten(configs)
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("simulate_grid: need at least one seed")
    if engine is not None:
        flat = [replace(cfg, engine=engine) for cfg in flat]
    rows = [replace(cfg, seed=s) for cfg in flat for s in seeds]
    results = run_simulations(
        rows,
        jobs=jobs,
        cache=cache,
        chunk_size=chunk_size,
        progress=progress,
        timings=timings,
    )

    res_arr = np.empty(len(results), dtype=object)
    res_arr[:] = results
    res_arr = res_arr.reshape(shape + (len(seeds),))

    mean, ci = cell_stats(_per_seed(res_arr, attrgetter("efficiency")))
    breakdown = {
        name: cell_stats(_per_seed(res_arr, attrgetter(f"breakdown.{name}")))[0]
        for name in results[0].breakdown.component_names()
    }
    return GridResult(
        shape=shape,
        seeds=seeds,
        efficiency=mean,
        ci95=np.asarray(ci, dtype=np.float64),
        breakdown=breakdown,
        results=res_arr,
    )
