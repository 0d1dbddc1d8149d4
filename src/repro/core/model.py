"""The multilevel checkpoint/restart performance model (Section 6.1.1).

This is the paper's primary contribution rendered as code: an expected-value
model of application execution under C/R that

* models *distinct* bandwidths and frequencies for node-local and global-I/O
  checkpoints (unlike the single-effective-bandwidth model of Ibtesham et
  al. that the paper improves on),
* makes the probability of recovering from locally-saved checkpoints a
  parameter,
* supports checkpoint compression on the I/O leg (host- or NDP-driven), and
* models the NDP configuration, where compressing and writing checkpoints to
  global I/O happens in the background and never blocks the host.

Model structure
---------------
Failures are exponentially distributed with mean ``M``; to first order a
failure therefore strikes at a position uniformly distributed over wall
time.  Execution is periodic with *super-period* ``P``: ``n`` local cycles
(compute ``tau`` + local commit ``delta_L``) followed, in host
configurations, by a blocking I/O commit ``delta_IO``.  Expected
per-failure costs (restore + rerun) are computed exactly over that layout,
and the total expected wall time ``E`` for ``W`` seconds of useful work
solves the fixed point::

    E = W * (1 + delta_L/tau + delta_IO/(n*tau))  +  (E/M) * cost_per_failure

which is linear in ``E``.  When ``cost_per_failure >= M`` the application
makes no forward progress in expectation and the configuration is reported
as infeasible (efficiency 0).

Rerun accounting
----------------
Two accountings for the I/O-level rerun cost are provided (Section 4 of
DESIGN.md):

* ``"paper"`` (default) — rerun after an I/O-level recovery is half the
  spacing between I/O snapshots.  This reproduces the paper's reported
  Rerun-I/O components (e.g. 1.2% / 0.6% in Figure 7).
* ``"staleness"`` — additionally charges the commit/drain lag of the last
  completed I/O checkpoint (its contents are ``delta_IO + delta_L`` old by
  the time it is usable).  This matches the discrete-event simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .breakdown import OverheadBreakdown
from .configs import NO_COMPRESSION, CompressionSpec, CRParameters
from .strategy import resolve

__all__ = [
    "ModelResult",
    "single_level",
    "io_only",
    "multilevel_host",
    "multilevel_ndp",
    "ndp_io_interval",
    "predict",
    "RERUN_ACCOUNTINGS",
]

RERUN_ACCOUNTINGS = ("paper", "staleness")


@dataclass(frozen=True)
class ModelResult:
    """Outcome of evaluating one C/R configuration.

    Attributes
    ----------
    config:
        Human-readable configuration label, e.g. ``"Local + I/O-NDP"``.
    efficiency:
        Progress rate = useful work / expected wall time; 0 if infeasible.
    slowdown:
        Expected wall time per unit of useful work (``inf`` if infeasible).
    breakdown:
        Seven-way :class:`OverheadBreakdown` of wall time.
    tau:
        Compute interval between (local) checkpoints used, seconds.
    ratio:
        Locally-saved : I/O-saved checkpoint ratio ``n`` (0 when no
        I/O-level checkpoints are taken).
    io_interval:
        Wall time between consecutive I/O-level checkpoint snapshots,
        seconds (``inf`` when none are taken).
    params, compression:
        Echo of the inputs for report generation.
    """

    config: str
    efficiency: float
    slowdown: float
    breakdown: OverheadBreakdown
    tau: float
    ratio: int
    io_interval: float
    params: CRParameters
    compression: CompressionSpec

    @property
    def feasible(self) -> bool:
        """Whether the configuration makes forward progress in expectation."""
        return self.efficiency > 0.0

    def describe(self) -> str:
        """Multi-line human-readable summary of the result.

        >>> from repro.core import paper_parameters, multilevel_ndp, NDP_GZIP1
        >>> print(multilevel_ndp(paper_parameters(), NDP_GZIP1).describe())
        ... # doctest: +SKIP
        """
        b = self.breakdown
        lines = [
            f"{self.config}",
            f"  progress rate      {self.efficiency:7.1%}"
            + ("" if self.feasible else "  (INFEASIBLE)"),
            f"  local interval     {self.tau:7.1f} s"
            f"  (commit {self.params.local_commit_time:.1f} s)",
        ]
        if self.io_interval != math.inf:
            lines.append(
                f"  I/O checkpoint     every {self.ratio} local "
                f"({self.io_interval:,.0f} s apart)"
            )
        if self.compression.factor > 0:
            lines.append(
                f"  compression        {self.compression.factor:.0%} at "
                f"{self.compression.compress_rate / 1e6:,.0f} MB/s ({self.compression.name})"
            )
        lines.append(
            "  overheads          "
            f"ckpt {b.checkpoint:5.1%} | restore {b.restore:5.1%} | rerun {b.rerun:5.1%}"
        )
        return "\n".join(lines)


def _assemble(
    config: str,
    params: CRParameters,
    compression: CompressionSpec,
    tau: float,
    ratio: int,
    io_interval: float,
    k: float,
    ckpt_local_per_work: float,
    ckpt_io_per_work: float,
    restore_local: float,
    restore_io: float,
    rerun_local: float,
    rerun_io: float,
) -> ModelResult:
    """Solve the fixed point and package the breakdown.

    ``k`` is failure-free wall time per unit work; the ``*_per_work`` terms
    are its checkpoint components; the remaining four are expected
    *per-failure* costs in seconds.
    """
    m = params.mtti
    cost_per_failure = restore_local + restore_io + rerun_local + rerun_io
    f = cost_per_failure / m
    if f >= 1.0:
        zero = OverheadBreakdown(
            compute=0.0,
            restore_local=restore_local / cost_per_failure,
            restore_io=restore_io / cost_per_failure,
            rerun_local=rerun_local / cost_per_failure,
            rerun_io=rerun_io / cost_per_failure,
        )
        return ModelResult(
            config=config,
            efficiency=0.0,
            slowdown=math.inf,
            breakdown=zero,
            tau=tau,
            ratio=ratio,
            io_interval=io_interval,
            params=params,
            compression=compression,
        )
    slowdown = k / (1.0 - f)
    compute = 1.0 / slowdown
    breakdown = OverheadBreakdown(
        compute=compute,
        checkpoint_local=ckpt_local_per_work * compute,
        checkpoint_io=ckpt_io_per_work * compute,
        restore_local=restore_local / m,
        restore_io=restore_io / m,
        rerun_local=rerun_local / m,
        rerun_io=rerun_io / m,
    )
    return ModelResult(
        config=config,
        efficiency=compute,
        slowdown=slowdown,
        breakdown=breakdown,
        tau=tau,
        ratio=ratio,
        io_interval=io_interval,
        params=params,
        compression=compression,
    )


def single_level(
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    level: str = "io",
    tau: float | None = None,
) -> ModelResult:
    """Single-level C/R: every checkpoint goes to one storage level.

    ``level="io"`` is the paper's *I/O Only* baseline (all checkpoints to
    the parallel file system, optionally compressed by the host);
    ``level="local"`` checkpoints only to node-local NVM (the idealized
    configuration the 90% progress-rate target is calibrated against).

    Unlike the multilevel configurations, the single-level case is exactly
    Daly's setting, so we use his complete exponential wall-time model
    rather than the linear fixed point — the exponential compounding
    matters in the interrupt-dominated regime (``delta`` comparable to
    ``M``) that the I/O-Only baseline lives in.  The breakdown attributes
    checkpoint time as ``(delta/tau) * efficiency``, restore time as one
    restore per failure (``R/M``), and the remainder of the overhead to
    rerun.

    ``tau`` defaults to Daly's higher-order optimum for the level's commit
    time.
    """
    from . import daly  # local import to avoid cycle at package init

    if level == "io":
        delta = params.io_commit_time(compression)
        restore = params.io_restore_time(compression)
    elif level == "local":
        delta = params.local_commit_time
        restore = params.local_restore_time
    else:
        raise ValueError(f"unknown level: {level!r}")

    if tau is None:
        tau = max(float(daly.daly_interval(delta, params.mtti)), 1e-9)
    restore += params.restart_overhead
    eff = float(daly.efficiency(tau, delta, params.mtti, restore))
    is_io = level == "io"
    name = "I/O Only" if is_io else "Local Only"
    if is_io and compression.factor > 0:  # the local level never compresses
        name += f" + compression({compression.factor:.0%})"

    ckpt_frac = (delta / tau) * eff
    restore_frac = min(restore / params.mtti, 1.0 - eff - ckpt_frac)
    rerun_frac = max(1.0 - eff - ckpt_frac - restore_frac, 0.0)
    breakdown = OverheadBreakdown(
        compute=eff,
        checkpoint_local=0.0 if is_io else ckpt_frac,
        checkpoint_io=ckpt_frac if is_io else 0.0,
        restore_local=0.0 if is_io else restore_frac,
        restore_io=restore_frac if is_io else 0.0,
        rerun_local=0.0 if is_io else rerun_frac,
        rerun_io=rerun_frac if is_io else 0.0,
    )
    return ModelResult(
        config=name,
        efficiency=eff,
        slowdown=1.0 / eff if eff > 0 else math.inf,
        breakdown=breakdown,
        tau=tau,
        ratio=0 if is_io else 1,
        io_interval=tau + delta if is_io else math.inf,
        params=params,
        compression=compression,
    )


def io_only(
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    tau: float | None = None,
) -> ModelResult:
    """Alias for :func:`single_level` with ``level="io"``."""
    return single_level(params, compression, level="io", tau=tau)


def multilevel_host(
    params: CRParameters,
    ratio: int,
    compression: CompressionSpec = NO_COMPRESSION,
    rerun_accounting: str = "paper",
) -> ModelResult:
    """Conventional multilevel checkpointing (*Local + I/O-Host*).

    Every checkpoint is committed to local NVM; every ``ratio``-th one is
    additionally pushed to global I/O *by the host*, blocking the
    application for the full (compression-overlapped) I/O commit time.

    Recovery: with probability ``p_local_recovery`` the failure restores
    from the most recent local checkpoint, otherwise from the most recent
    *completed* I/O checkpoint.
    """
    _check_accounting(rerun_accounting)
    if ratio < 1:
        raise ValueError("ratio must be >= 1 (local saves per I/O save)")
    tau = params.tau
    delta_l = params.local_commit_time
    delta_io = params.io_commit_time(compression)
    cycle = tau + delta_l
    period = ratio * cycle + delta_io

    # Expected elapsed time since the last *completed* local checkpoint at
    # a wall-time-uniform failure position.  Within each local cycle the
    # elapsed time ramps 0..cycle; within the blocking I/O write it ramps
    # 0..delta_io (the local copy of the same snapshot completed just
    # before the I/O push began).
    rerun_local = (ratio * cycle * (cycle / 2.0) + delta_io * (delta_io / 2.0)) / period

    # Expected rerun after an I/O-level recovery: half the spacing between
    # I/O snapshots ("paper"), plus the snapshot's commit lag
    # ("staleness": the newest completed I/O checkpoint is already
    # delta_io + delta_l stale the moment it completes).
    rerun_io = period / 2.0
    if rerun_accounting == "staleness":
        rerun_io += delta_io + delta_l

    p = params.p_local_recovery
    name = "Local + I/O-Host"
    if compression.factor > 0:
        name += f" + compression({compression.factor:.0%})"
    return _assemble(
        config=name,
        params=params,
        compression=compression,
        tau=tau,
        ratio=ratio,
        io_interval=period,
        k=1.0 + delta_l / tau + delta_io / (ratio * tau),
        ckpt_local_per_work=delta_l / tau,
        ckpt_io_per_work=delta_io / (ratio * tau),
        restore_local=p * (params.local_restore_time + params.restart_overhead),
        restore_io=(1.0 - p) * (params.io_restore_time(compression) + params.restart_overhead),
        rerun_local=p * rerun_local,
        rerun_io=(1.0 - p) * rerun_io,
    )


def ndp_io_interval(
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    pause_during_local: bool = True,
) -> tuple[int, float, float]:
    """The NDP drain cadence: how often I/O-level snapshots are produced.

    The NDP streams (optionally compressed) checkpoints to global I/O in
    the background.  One checkpoint takes
    ``T_raw = max(csize/io_bw, size/compress_rate)`` of drain work
    (compression and network write overlap, Section 4.2.2).  Because the
    NDP pauses whenever the host is writing to the NVM (Section 4.2.1),
    only ``tau`` out of each ``tau + delta_L`` cycle is available, so one
    drain occupies ``T_raw * cycle/tau`` of wall time.  The NDP therefore
    saves every ``n``-th checkpoint with ``n = ceil(T_drain / cycle)`` —
    as frequently as bandwidth allows, since draining is free for the host.

    Returns ``(n, io_interval, T_raw)``.
    """
    tau = params.tau
    cycle = params.cycle_time
    t_raw = params.io_commit_time(compression)
    t_drain = t_raw * (cycle / tau) if pause_during_local else t_raw
    n = max(1, math.ceil(t_drain / cycle - 1e-12))
    return n, n * cycle, t_raw


def multilevel_ndp(
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    rerun_accounting: str = "paper",
    pause_during_local: bool = True,
) -> ModelResult:
    """The paper's proposal (*Local + I/O-NDP*).

    All checkpoints are committed to local NVM on the critical path; the
    NDP compresses and drains them to global I/O in the background, so the
    host never pays ``delta_IO``.  I/O-level snapshots are produced as
    frequently as the drain pipeline allows (:func:`ndp_io_interval`);
    unlike the host configuration, increasing that frequency costs nothing,
    so there is no ratio to optimize (Section 6.2).
    """
    _check_accounting(rerun_accounting)
    tau = params.tau
    delta_l = params.local_commit_time
    cycle = tau + delta_l
    n, io_interval, t_raw = ndp_io_interval(params, compression, pause_during_local)

    rerun_local = cycle / 2.0
    rerun_io = io_interval / 2.0
    if rerun_accounting == "staleness":
        rerun_io += t_raw + delta_l

    p = params.p_local_recovery
    name = "Local + I/O-NDP"
    if compression.factor > 0:
        name += f" + compression({compression.factor:.0%})"
    return _assemble(
        config=name,
        params=params,
        compression=compression,
        tau=tau,
        ratio=n,
        io_interval=io_interval,
        k=1.0 + delta_l / tau,
        ckpt_local_per_work=delta_l / tau,
        ckpt_io_per_work=0.0,
        restore_local=p * (params.local_restore_time + params.restart_overhead),
        restore_io=(1.0 - p) * (params.io_restore_time(compression) + params.restart_overhead),
        rerun_local=p * rerun_local,
        rerun_io=(1.0 - p) * rerun_io,
    )


def predict(
    strategy: str,
    params: CRParameters,
    compression: CompressionSpec = NO_COMPRESSION,
    *,
    ratio: int = 1,
    rerun_accounting: str = "paper",
) -> ModelResult:
    """The model of the :data:`~repro.core.strategy.TABLE` entry named
    ``strategy``.  ``ratio`` applies under ``host_push``; neither it nor
    ``rerun_accounting`` applies to a single level (Daly's model)."""
    spec = resolve(strategy)
    _check_accounting(rerun_accounting)
    if spec.drains:
        return multilevel_ndp(params, compression, rerun_accounting)
    if spec.host_push:
        return multilevel_host(params, ratio, compression, rerun_accounting)
    return single_level(params, compression, level="local" if spec.local else "io")


def _check_accounting(rerun_accounting: str) -> None:
    if rerun_accounting not in RERUN_ACCOUNTINGS:
        raise ValueError(
            f"rerun_accounting must be one of {RERUN_ACCOUNTINGS}: {rerun_accounting!r}"
        )
