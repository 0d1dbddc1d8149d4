"""Wall-time accounting for the C/R simulation.

The simulator classifies every interval of simulated time into one of the
paper's Section 6.2 components (compute / checkpoint / restore / rerun,
each split by level) via :class:`TimeAccounting`, which converts to the
same :class:`~repro.core.breakdown.OverheadBreakdown` the analytic model
produces — making model-vs-simulation comparison a one-liner.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..core.breakdown import OverheadBreakdown

__all__ = ["TimeAccounting", "SimulationResult", "result_to_json"]

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
