"""Monte-Carlo batch execution and paired statistical comparison.

One simulation run is one sample; claims like "NDP beats host multilevel"
deserve confidence intervals.  This module provides

* :func:`mc_run` — run a scenario over many seeds, returning mean
  efficiency with a Student-t confidence interval, and
* :func:`compare_strategies` — a *paired* comparison under common random
  numbers: both configurations see the identical failure sequence per
  seed, so the difference estimate cancels the dominant noise source and
  tight conclusions need far fewer runs (classic variance reduction).

Both are one :func:`~repro.simulation.grid.simulate_grid` pass on their
configs' own engines, summarised by the grid's
:func:`~repro.simulation.stats.cell_stats`, so they fan out over the
:mod:`repro.simulation.pool` runtime (``jobs`` workers, optional on-disk
result cache) and are bit-identical at every worker count.

Used by the simulation-study example and the pool benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .grid import simulate_grid
from .pool import ChunkTiming, ResultCache
from .simulator import SimConfig, SimulationResult
from .stats import cell_stats

__all__ = ["MCResult", "PairedComparison", "mc_run", "compare_strategies"]


@dataclass(frozen=True)
class MCResult:
    """Summary of a Monte-Carlo batch.

    Attributes
    ----------
    mean, ci95:
        Mean efficiency and the 95% confidence half-width.
    samples:
        Per-seed efficiencies, in seed order.
    results:
        Full per-seed :class:`SimulationResult` objects.
    """

    mean: float
    ci95: float
    samples: tuple[float, ...]
    results: tuple[SimulationResult, ...]

    @property
    def n(self) -> int:
        """Number of runs."""
        return len(self.samples)


def mc_run(
    config: SimConfig,
    seeds: Sequence[int],
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    timings: list[ChunkTiming] | None = None,
) -> MCResult:
    """Run ``config`` once per seed; summarize efficiency.

    ``seeds`` must be non-empty (an empty sequence raises ``ValueError``
    — there is nothing to estimate).  With exactly **one** seed the mean
    is that single sample and ``ci95`` is ``inf``: a single draw carries
    no variance information, and an infinite half-width is the honest
    statement of that (any finite value would fabricate certainty).

    The runs are a one-cell :func:`~repro.simulation.grid.simulate_grid`
    pass on ``config.engine``; ``mean``/``ci95`` are that cell's.  The
    other arguments go to the grid's pool run (``jobs=None`` = one worker
    per core).
    """
    if not seeds:
        raise ValueError("need at least one seed")
    g = simulate_grid(
        config,
        seeds,
        engine=None,
        jobs=jobs,
        cache=cache,
        chunk_size=chunk_size,
        progress=progress,
        timings=timings,
    )
    results = tuple(g.results)
    samples = tuple(r.efficiency for r in results)
    return MCResult(float(g.efficiency), float(g.ci95), samples, results)


@dataclass(frozen=True)
class PairedComparison:
    """Paired (common-random-numbers) comparison of two scenarios.

    Attributes
    ----------
    mean_a, mean_b:
        Mean efficiencies.
    mean_diff, ci95_diff:
        Mean of the per-seed difference ``b - a`` and its 95% half-width.
    significant:
        Whether the 95% CI of the difference excludes zero.
    """

    mean_a: float
    mean_b: float
    mean_diff: float
    ci95_diff: float

    @property
    def significant(self) -> bool:
        """95%-level significance of the difference."""
        return abs(self.mean_diff) > self.ci95_diff


def compare_strategies(
    config_a: SimConfig,
    config_b: SimConfig,
    seeds: Sequence[int],
    transform: Callable[[SimulationResult], float] | None = None,
    *,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> PairedComparison:
    """Paired comparison: same seed => same failure sequence for both.

    ``transform`` selects the metric (default: efficiency).  Reports the
    mean per-seed difference ``metric(b) - metric(a)`` with its CI — under
    common random numbers the shared failure-timing noise cancels, so the
    difference CI is never worse (and often much tighter) than the
    unpaired difference's.

    The 2N runs are one two-cell
    :func:`~repro.simulation.grid.simulate_grid` pass on each config's
    engine (pairing holds on both: the fast engine draws the DES's named
    RNG streams); ``jobs``/``cache``/``progress`` go to its pool run.
    """
    if len(seeds) < 2:
        raise ValueError("a paired comparison needs at least 2 seeds")
    g = simulate_grid(
        [config_a, config_b],
        seeds,
        engine=None,
        jobs=jobs,
        cache=cache,
        progress=progress,
    )
    vals = g.map(transform or (lambda r: r.efficiency))
    (mean_a, mean_b), _ = cell_stats(vals)
    mean_diff, ci_diff = cell_stats(vals[1] - vals[0])
    return PairedComparison(
        float(mean_a), float(mean_b), float(mean_diff), float(ci_diff)
    )
