"""Discrete-event simulation of multilevel C/R with NDP (validation layer).

The simulator implements Section 4.2's operational rules event-by-event and
is used to (a) validate the analytic model of :mod:`repro.core.model` and
(b) regenerate the paper's Figure-3 operational timelines from real
simulated schedules.
"""

from .bandwidth import SharedBandwidth, Transfer
from .batch import MCResult, PairedComparison, compare_strategies, mc_run
from .cluster import ClusterConfig, ClusterResult, ClusterSimulation, simulate_cluster
from .engine import AllOf, AnyOf, Environment, Event, Interrupt, Process, Timeout
from .fastpath import simulate_batch, simulate_fast, unsupported_reason
from .grid import GridResult, simulate_grid
from .pool import (
    ChunkTiming,
    ResultCache,
    chunk_indices,
    config_key,
    parallel_map,
    resolve_jobs,
    run_simulations,
)
from .rng import StreamFactory, exponential_interarrivals
from .simulator import ENGINES, STRATEGIES, CRSimulation, SimConfig, default_work, simulate
from .stats import SimulationResult, TimeAccounting
from .storage import CheckpointRecord, NVMBuffer
from .trace import Span, TimelineRecorder, render_ascii

__all__ = [
    "SharedBandwidth",
    "Transfer",
    "MCResult",
    "PairedComparison",
    "mc_run",
    "compare_strategies",
    "ChunkTiming",
    "ResultCache",
    "chunk_indices",
    "config_key",
    "parallel_map",
    "resolve_jobs",
    "run_simulations",
    "ClusterConfig",
    "ClusterResult",
    "ClusterSimulation",
    "simulate_cluster",
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "StreamFactory",
    "exponential_interarrivals",
    "SimConfig",
    "CRSimulation",
    "simulate",
    "simulate_batch",
    "simulate_fast",
    "unsupported_reason",
    "GridResult",
    "simulate_grid",
    "default_work",
    "STRATEGIES",
    "ENGINES",
    "SimulationResult",
    "TimeAccounting",
    "CheckpointRecord",
    "NVMBuffer",
    "Span",
    "TimelineRecorder",
    "render_ascii",
]
