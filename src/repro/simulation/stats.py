"""Wall-time accounting and seed-axis statistics for the C/R simulation.

The simulator classifies every interval of simulated time into one of the
paper's Section 6.2 components (compute / checkpoint / restore / rerun,
each split by level) via :class:`TimeAccounting`, which converts to the
same :class:`~repro.core.breakdown.OverheadBreakdown` the analytic model
produces — making model-vs-simulation comparison a one-liner.

:func:`cell_stats` is the one summary of a seed axis: grids, Monte-Carlo
batches and the service's sweep cells agree bit for bit through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from ..core.breakdown import OverheadBreakdown

__all__ = ["TimeAccounting", "SimulationResult", "cell_stats", "result_to_json"]

_CATEGORIES = OverheadBreakdown.component_names()


@dataclass
class TimeAccounting:
    """Accumulates seconds per activity category.

    Categories are the seven :class:`OverheadBreakdown` components.  The
    simulator calls :meth:`add` with whatever partial durations it
    completes (including work cut short by failures).
    """

    seconds: dict[str, float] = field(default_factory=lambda: {c: 0.0 for c in _CATEGORIES})

    def add(self, category: str, duration: float) -> None:
        """Charge ``duration`` seconds to ``category``."""
        if category not in self.seconds:
            raise KeyError(f"unknown category {category!r}; one of {_CATEGORIES}")
        if duration < 0:
            raise ValueError(f"negative duration: {duration}")
        self.seconds[category] += duration

    @property
    def total(self) -> float:
        """Total accounted wall time."""
        return sum(self.seconds.values())

    def breakdown(self) -> OverheadBreakdown:
        """Fractions-of-total view, comparable with the analytic model."""
        total = self.total
        if total <= 0:
            raise ValueError("no time accounted yet")
        return OverheadBreakdown(**{c: self.seconds[c] / total for c in _CATEGORIES})


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of one simulated run.

    Attributes
    ----------
    work:
        Useful work completed (seconds of progress) — the run target.
    wall_time:
        Total simulated wall-clock time.
    efficiency:
        ``work / wall_time`` (the progress rate).
    breakdown:
        Seven-way wall-time decomposition.
    failures:
        Total failures injected.
    recoveries_local, recoveries_partner, recoveries_io:
        Recoveries served from the node's own NVM, from a partner copy,
        and from global I/O.  (The paper's ``p_local_recovery`` lumps the
        first two; the simulator can model them separately.)
    io_checkpoints:
        Checkpoints whose I/O-level copy completed.
    local_checkpoints:
        Checkpoints committed to local NVM.
    host_stall_time:
        Time the host was blocked waiting for NVM buffer space
        (nonzero only with aggressively undersized buffers).
    """

    work: float
    wall_time: float
    efficiency: float
    breakdown: OverheadBreakdown
    failures: int
    recoveries_local: int
    recoveries_io: int
    io_checkpoints: int
    local_checkpoints: int
    host_stall_time: float
    recoveries_partner: int = 0
    partner_checkpoints: int = 0


_RESULT_FIELDS = tuple(f.name for f in fields(SimulationResult))
_BREAKDOWN_FIELDS = tuple(f.name for f in fields(OverheadBreakdown))


def result_to_json(result: SimulationResult) -> dict:
    """A :class:`SimulationResult` as a plain JSON-able dict.

    The one converter: the service renders responses from it and the
    result cache writes its entries from it.  The dict equals
    ``dataclasses.asdict(result)`` key for key and in the same order, but
    is built field by field: every field is a scalar except ``breakdown``
    (itself all scalars), so ``asdict``'s deep copy has nothing to copy.
    """
    out = {name: getattr(result, name) for name in _RESULT_FIELDS}
    breakdown = result.breakdown
    out["breakdown"] = {name: getattr(breakdown, name) for name in _BREAKDOWN_FIELDS}
    return out


#: two-sided 95% Student-t critical values by degrees of freedom.  Sparse
#: above 20: :func:`_t95` uses the nearest lower entry inside the table's
#: gaps and the normal 1.96 beyond dof 30.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
    20: 2.086, 25: 2.060, 30: 2.042,
}

_T95_MAX_DOF = max(_T95)


def _t95(dof: int) -> float:
    """Two-sided 95% Student-t critical value for ``dof`` degrees of freedom.

    Exact table entries where available; inside the table's gaps (e.g.
    dof 21..24) the nearest *lower* tabulated value (conservative: its
    critical value is larger); the normal-limit 1.96 beyond dof 30.
    """
    if dof <= 0:
        return float("inf")
    if dof in _T95:
        return _T95[dof]
    if dof > _T95_MAX_DOF:
        return 1.96
    return _T95[max(k for k in _T95 if k <= dof)]


def cell_stats(samples) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 95% Student-t half-width over the last (seed) axis.

    ``samples`` is shaped ``cells + (n_seeds,)``, both outputs ``cells``.
    One seed gives an ``inf`` half-width (no variance information).  A
    cell summarised alone has the bits of the same cell of a whole grid.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[-1]
    mean = samples.mean(axis=-1)
    if n > 1:
        ci = samples.std(axis=-1, ddof=1) * (_t95(n - 1) / math.sqrt(n))
    else:
        ci = np.full(mean.shape, np.inf)
    return mean, ci
