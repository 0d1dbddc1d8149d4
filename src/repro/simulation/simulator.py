"""Discrete-event simulation of multilevel checkpoint/restart with NDP.

Implements the operational rules of Section 4.2 literally, for one
representative compute node (the per-node share of global I/O bandwidth is
taken from :class:`~repro.core.configs.CRParameters`, exactly as in the
analytic model):

* the host alternates compute intervals and blocking local-NVM checkpoint
  writes (coordinated checkpointing — the application pauses);
* in the **host** strategy every ``ratio``-th checkpoint is additionally
  pushed to global I/O *by the host*, blocking for the full
  compression-overlapped commit;
* in the **ndp** strategy a background NDP process locks the newest
  undrained checkpoint in the NVM circular buffer, compresses and streams
  it to I/O (overlapped, so the drain rate is
  ``min(io_bw / (1 - factor), compress_rate)`` in uncompressed bytes/s),
  pausing whenever the host is writing to the NVM (Section 4.2.1) and
  whenever a recovery is reading from global I/O (Section 4.2.3);
* failures arrive as a Poisson process with mean ``mtti`` and interrupt
  whatever the host is doing; recovery restores from the newest completed
  local checkpoint with probability ``p_local_recovery`` (else from the
  newest completed I/O-level checkpoint, losing the NVM contents and
  aborting any in-flight drain), then re-executes lost work.

Every second of simulated time is charged to one of the paper's overhead
components, so :class:`SimulationResult.breakdown` is directly comparable
with the analytic model's output — that comparison (they agree within
Monte-Carlo noise under the ``"staleness"`` rerun accounting) is the
evidence that the analytic model is faithful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

from ..core.configs import NO_COMPRESSION, CompressionSpec, CRParameters
from ..core.strategy import STRATEGIES, resolve
from .engine import Environment, Event, Interrupt
from .rng import StreamFactory
from .stats import SimulationResult, TimeAccounting
from .storage import CheckpointRecord, NVMBuffer
from .trace import TimelineRecorder

__all__ = ["SimConfig", "CRSimulation", "simulate", "STRATEGIES", "ENGINES"]

#: Simulation engines: the event-level DES (reference oracle) and the
#: vectorized renewal-segment fast path (:mod:`repro.simulation.fastpath`).
ENGINES = ("des", "fast")

_PAUSE = "pause"
_ABORT = "abort"


@dataclass(frozen=True)
class SimConfig:
    """Scenario knobs for one simulated run.

    Attributes
    ----------
    params:
        The C/R parameter bundle shared with the analytic model.
    strategy:
        A name in :data:`~repro.core.strategy.TABLE`, which says what the
        strategy does.
    ratio:
        Locally-saved : I/O-saved ratio where the strategy's ``host_push``
        holds.
    compression:
        Compression engine applied to I/O-level traffic.
    work:
        Useful work to complete, seconds.  Longer runs average over more
        failures; ~200 MTTIs gives <2% Monte-Carlo noise.
    seed:
        Root RNG seed (failures and recovery draws derive from it).
    nvm_capacity:
        NVM circular-buffer capacity in checkpoints.
    pause_ndp_during_local:
        Whether the NDP drain pauses while the host writes to NVM
        (Section 4.2.1; on by default).
    failure_shape:
        Weibull shape of the failure interarrival distribution.  1.0
        (default) is the paper's exponential assumption; ``< 1`` models
        bursty/infant-mortality failure processes observed on production
        machines, ``> 1`` wear-out-like regularity.  The scale is set so
        the mean interarrival equals ``params.mtti`` in every case.
    partner_every:
        Explicit partner level (the paper lumps local+partner into
        ``p_local_recovery``; this unbundles them): every
        ``partner_every``-th checkpoint is additionally copied to a
        partner node over the interconnect, blocking the host for
        ``size/partner_bandwidth``.  0 disables the partner level.
    partner_bandwidth:
        Interconnect bandwidth for partner copies, B/s (the projected
        50 GB/s by default).
    p_partner_recovery:
        Probability the partner copy is usable when the local one is not
        (conditional).  Recovery cascade: local -> partner -> I/O.
    failure_times:
        Optional explicit failure timestamps (absolute simulation
        seconds, ascending).  When set, the stochastic injector is
        replaced by an exact replay — for reproducing recorded failure
        logs or constructing adversarial schedules.  ``failure_shape`` is
        ignored.
    engine:
        ``"des"`` (default) walks the event-level simulator; ``"fast"``
        advances the trajectory failure-to-failure on the vectorized
        :mod:`~repro.simulation.fastpath` engine, drawing from the same
        named RNG streams.  The fast engine models the NVM ring
        per-slot and charges partner copies in closed form, so every
        strategy, capacity, and partner cadence is supported; only
        timeline tracing (which records individual events) transparently
        falls back to the DES.
    trace:
        Optional :class:`TimelineRecorder` for Figure-3-style timelines.
    """

    params: CRParameters
    strategy: str = "ndp"
    ratio: int = 1
    compression: CompressionSpec = NO_COMPRESSION
    work: float = 0.0
    seed: int = 0
    nvm_capacity: int = 8
    pause_ndp_during_local: bool = True
    failure_shape: float = 1.0
    partner_every: int = 0
    partner_bandwidth: float = 50e9
    p_partner_recovery: float = 0.0
    failure_times: Optional[tuple[float, ...]] = None
    engine: str = "des"
    trace: Optional[TimelineRecorder] = None

    def __post_init__(self) -> None:
        resolve(self.strategy)  # a ValueError naming the table if unknown
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}: {self.engine!r}")
        if self.ratio < 1:
            raise ValueError("ratio must be >= 1")
        if self.work <= 0:
            raise ValueError("work must be positive (seconds of useful progress)")
        if self.failure_shape <= 0:
            raise ValueError("failure_shape must be positive")
        if self.partner_every < 0:
            raise ValueError("partner_every must be >= 0")
        if self.partner_bandwidth <= 0:
            raise ValueError("partner_bandwidth must be positive")
        if not 0.0 <= self.p_partner_recovery <= 1.0:
            raise ValueError("p_partner_recovery must be in [0, 1]")
        if self.failure_times is not None:
            if any(t <= 0 for t in self.failure_times):
                raise ValueError("failure_times must be positive")
            if list(self.failure_times) != sorted(self.failure_times):
                raise ValueError("failure_times must be ascending")


@dataclass
class _Failure:
    """Cause object carried by failure interrupts."""

    index: int
    time: float


class CRSimulation:
    """One simulated application run under a C/R strategy.

    Construct with a :class:`SimConfig`, call :meth:`run`.
    """

    def __init__(self, config: SimConfig):
        self.cfg = config
        self.spec = resolve(config.strategy)
        self.p = config.params
        self.env = Environment()
        self.acct = TimeAccounting()
        self.nvm = NVMBuffer(config.nvm_capacity)
        self._streams = StreamFactory(config.seed)
        self._rng_fail = self._streams.get("failures")
        self._rng_recover = self._streams.get("recovery")

        # Host progress state.
        self.position = 0.0  # committed useful progress, seconds
        self._rerun_until = 0.0  # positions below this are re-execution
        self._rerun_attr = "rerun_local"  # level of most recent recovery
        self._pending_failure: Optional[_Failure] = None

        # Checkpoint bookkeeping.
        self._ckpt_counter = 0
        self._io_snapshots: list[tuple[float, float]] = []  # (position, done_time)

        # Counters.
        self.failures = 0
        self.recoveries_local = 0
        self.recoveries_partner = 0
        self.recoveries_io = 0
        self.io_checkpoints = 0
        self.local_checkpoints = 0
        self.partner_checkpoints = 0
        self.host_stall_time = 0.0

        # Partner level: newest snapshot copied to the partner node.
        self._partner_snapshot: Optional[float] = None
        self._delta_partner = self.p.checkpoint_size / config.partner_bandwidth

        # NDP coordination.
        self._host_proc = None
        self._ndp_proc = None
        self._ndp_wake: Optional[Event] = None
        self._ndp_pause_depth = 0
        self._drain_done_evt: Optional[Event] = None

        # Derived times.
        self._delta_l = self.p.local_commit_time
        self._delta_io = self.p.io_commit_time(config.compression)
        self._restore_l = self.p.local_restore_time + self.p.restart_overhead
        self._restore_io = self.p.io_restore_time(config.compression) + self.p.restart_overhead
        self._tau = self.p.tau

    # -- public entry point --------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the scenario to completion and return statistics."""
        self._host_proc = self.env.process(self._host(), name="host")
        self.env.process(self._failure_injector(), name="failures")
        if self.spec.drains:
            self._ndp_proc = self.env.process(self._ndp(), name="ndp")
        self.env.run(self._host_proc)
        wall = self.env.now
        return SimulationResult(
            work=self.cfg.work,
            wall_time=wall,
            efficiency=self.cfg.work / wall,
            breakdown=self.acct.breakdown(),
            failures=self.failures,
            recoveries_local=self.recoveries_local,
            recoveries_io=self.recoveries_io,
            recoveries_partner=self.recoveries_partner,
            io_checkpoints=self.io_checkpoints,
            local_checkpoints=self.local_checkpoints,
            partner_checkpoints=self.partner_checkpoints,
            host_stall_time=self.host_stall_time,
        )

    # -- failure injection -----------------------------------------------------

    def _failure_interarrival(self) -> float:
        """One interarrival draw: exponential or Weibull with mean MTTI."""
        shape = self.cfg.failure_shape
        if shape == 1.0:
            return float(self._rng_fail.exponential(self.p.mtti))
        scale = self.p.mtti / math.gamma(1.0 + 1.0 / shape)
        return float(self._rng_fail.weibull(shape)) * scale

    def _failure_injector(self) -> Generator[Event, None, None]:
        """Renewal failure process (or exact trace replay); each failure
        interrupts the host wherever it is."""
        if self.cfg.failure_times is not None:
            for t in self.cfg.failure_times:
                delay = t - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                if self._host_proc is None or not self._host_proc.is_alive:
                    return
                self.failures += 1
                self._host_proc.interrupt(_Failure(self.failures, self.env.now))
            return
        while True:
            yield self.env.timeout(self._failure_interarrival())
            if self._host_proc is None or not self._host_proc.is_alive:
                return
            self.failures += 1
            self._host_proc.interrupt(_Failure(self.failures, self.env.now))

    # -- host process ----------------------------------------------------------

    def _host(self) -> Generator[Event, None, None]:
        """Main application loop: recover if needed, compute, checkpoint."""
        while self.position < self.cfg.work:
            try:
                if self._pending_failure is not None:
                    yield from self._recover()
                    continue
                yield from self._compute_interval()
                if self.position >= self.cfg.work:
                    break
                yield from self._checkpoint_local()
                if (
                    self.cfg.partner_every
                    and self.spec.local
                    and self._ckpt_counter % self.cfg.partner_every == 0
                ):
                    yield from self._checkpoint_partner()
                if self.spec.host_push and self._ckpt_counter % self.cfg.ratio == 0:
                    yield from self._checkpoint_io_host()
            except Interrupt as intr:
                self._pending_failure = intr.cause

    def _compute_interval(self) -> Generator[Event, None, None]:
        """Advance useful work by up to ``tau``, classifying rerun vs fresh.

        Work below ``_rerun_until`` is re-execution of lost progress and is
        charged to the rerun component of the most recent recovery's level;
        the rest is fresh compute.  A failure mid-interval still banks the
        progress made — re-execution is identical to first execution.
        """
        remaining = min(self._tau, self.cfg.work - self.position)
        while remaining > 1e-12:
            in_rerun = self.position < self._rerun_until
            chunk = min(remaining, self._rerun_until - self.position) if in_rerun else remaining
            category = self._rerun_attr if in_rerun else "compute"
            kind = "rerun" if in_rerun else "compute"
            start = self.env.now
            try:
                yield self.env.timeout(chunk)
            except Interrupt:
                elapsed = self.env.now - start
                self.position += elapsed
                self.acct.add(category, elapsed)
                self._emit("HOST", start, self.env.now, kind)
                raise
            self.position += chunk
            remaining -= chunk
            self.acct.add(category, chunk)
            self._emit("HOST", start, self.env.now, kind)

    def _checkpoint_local(self) -> Generator[Event, None, None]:
        """Blocking write of the current state to local NVM.

        Without a local level it is instead a blocking write to global
        I/O.  The NDP pauses for the duration (all NVM bandwidth goes to
        the host write).
        """
        if not self.spec.local:
            yield from self._checkpoint_io_host()
            return

        # Wait for buffer space; time spent here is a host stall.
        while not self.nvm.can_accept():
            start = self.env.now
            evt = self._drain_done_evt = self.env.event()
            try:
                yield evt
            except Interrupt:
                stalled = self.env.now - start
                self.host_stall_time += stalled
                self.acct.add("checkpoint_local", stalled)
                raise
            self.host_stall_time += self.env.now - start
            self.acct.add("checkpoint_local", self.env.now - start)

        rec = CheckpointRecord(ckpt_id=self._ckpt_counter + 1, position=self.position)
        self.nvm.admit(rec)
        if self.cfg.pause_ndp_during_local:
            self._ndp_pause()
        start = self.env.now
        try:
            yield self.env.timeout(self._delta_l)
        except Interrupt:
            self.acct.add("checkpoint_local", self.env.now - start)
            self._emit("HOST", start, self.env.now, "ckpt-local")
            # The in-flight checkpoint is incomplete and unusable.
            raise
        finally:
            if self.cfg.pause_ndp_during_local:
                self._ndp_resume()
        rec.local_done = self.env.now
        self._ckpt_counter += 1
        self.local_checkpoints += 1
        self.acct.add("checkpoint_local", self._delta_l)
        self._emit("HOST", start, self.env.now, "ckpt-local", f"c{rec.ckpt_id}")
        self._ndp_notify()

    def _checkpoint_partner(self) -> Generator[Event, None, None]:
        """Blocking copy of the newest checkpoint to a partner node.

        Goes over the interconnect at ``partner_bandwidth``; the paper
        counts partner alongside local ("locally-saved"), so the cost is
        charged to ``checkpoint_local``.
        """
        snapshot = self.position
        yield from self._hold(self._delta_partner, "checkpoint_local", "ckpt-local", "P")
        self._partner_snapshot = snapshot
        self.partner_checkpoints += 1

    def _checkpoint_io_host(self) -> Generator[Event, None, None]:
        """Host-blocking (compression-overlapped) write to global I/O."""
        snapshot = self.position
        yield from self._hold(self._delta_io, "checkpoint_io", "ckpt-io")
        self._io_snapshots.append((snapshot, self.env.now))
        self.io_checkpoints += 1

    def _hold(
        self, seconds: float, category: str, kind: str, label: str = ""
    ) -> Generator[Event, None, None]:
        """Block the host for ``seconds``, charged to ``category``; a
        failure charges the time spent and propagates its interrupt."""
        start = self.env.now
        try:
            yield self.env.timeout(seconds)
        except Interrupt:
            self.acct.add(category, self.env.now - start)
            self._emit("HOST", start, self.env.now, kind, label)
            raise
        self.acct.add(category, seconds)
        self._emit("HOST", start, self.env.now, kind, label)

    # -- recovery ---------------------------------------------------------------

    def _recover(self) -> Generator[Event, None, None]:
        """Restore from the appropriate level and set up re-execution.

        With probability ``p_local_recovery`` the newest completed local
        checkpoint is usable; otherwise the node's NVM contents are lost
        and recovery reads the newest completed I/O-level checkpoint
        (pausing any NDP drain for the duration, Section 4.2.3).  A
        further failure during restore abandons it and re-enters recovery.
        """
        failure = self._pending_failure
        assert failure is not None
        self._pending_failure = None
        fail_position = self.position

        # Without a local level the NVM never holds a record.
        local_rec = self.nvm.latest_completed(self.env.now)
        use_local = local_rec is not None and (
            not self.spec.has_io
            or float(self._rng_recover.random()) < self.p.p_local_recovery
        )

        use_partner = False
        if not use_local and self.cfg.partner_every and self._partner_snapshot is not None:
            use_partner = (
                float(self._rng_recover.random()) < self.cfg.p_partner_recovery
            )

        try:
            if use_local:
                assert local_rec is not None
                yield from self._hold(self._restore_l, "restore_local", "restore")
                self.recoveries_local += 1
                self.position = local_rec.position
                self._rerun_attr = "rerun_local"
            elif use_partner:
                # Local level unusable but the partner copy survives: the
                # node's NVM contents are gone, the restore streams from the
                # partner over the interconnect.
                self._nvm_lost()
                snapshot = self._partner_snapshot
                assert snapshot is not None
                yield from self._hold(self._delta_partner, "restore_local", "restore")
                self.recoveries_partner += 1
                self.position = snapshot
                self._rerun_attr = "rerun_local"
            else:
                # Local level unusable: NVM contents lost, drain aborted.
                self._nvm_lost()
                snapshot = self._io_snapshots[-1][0] if self._io_snapshots else 0.0
                restore_time = self._restore_io if self._io_snapshots else 0.0
                self._ndp_pause()  # drain pauses while recovery reads from I/O
                try:
                    yield from self._hold(restore_time, "restore_io", "restore")
                finally:
                    self._ndp_resume()
                self.recoveries_io += 1
                self.position = snapshot
                self._rerun_attr = "rerun_io"
        except Interrupt as intr:
            self._pending_failure = intr.cause
            return

        # A partner snapshot "ahead" of the rollback point captures state
        # the re-execution has not reached yet; discard it (real systems
        # invalidate rather than fast-forward).
        if self._partner_snapshot is not None and self._partner_snapshot > self.position:
            self._partner_snapshot = None
        self._rerun_until = max(self._rerun_until, fail_position)

    def _nvm_lost(self) -> None:
        """Drop NVM contents and abort any in-flight drain."""
        self.nvm.clear()
        if self._ndp_proc is not None and self._ndp_proc.is_alive:
            self._ndp_proc.interrupt(_ABORT)

    # -- NDP drain process --------------------------------------------------------

    def _ndp(self) -> Generator[Event, None, None]:
        """Background drain: newest undrained checkpoint -> global I/O.

        Interrupt causes: ``"pause"`` re-checks the pause gate; ``"abort"``
        abandons the current drain (NVM lost).  Progress made before a
        pause is kept — the drain resumes where it stopped.
        """
        while True:
            rec = self.nvm.newest_undrained()
            if rec is None:
                self._ndp_wake = self.env.event()
                try:
                    yield self._ndp_wake
                except Interrupt:
                    pass
                continue
            self.nvm.lock(rec)
            # One I/O write costs the same whoever makes it; the drain
            # pays it in unpaused wall seconds.
            remaining = self._delta_io
            aborted = False
            while remaining > 1e-12:
                if self._ndp_pause_depth > 0:
                    gate = self._ndp_gate = self.env.event()
                    try:
                        yield gate
                    except Interrupt as intr:
                        if intr.cause == _ABORT:
                            aborted = True
                            break
                    continue
                start = self.env.now
                try:
                    yield self.env.timeout(remaining)
                    self._emit("NDP", start, self.env.now, "drain", f"c{rec.ckpt_id}")
                    remaining = 0.0
                except Interrupt as intr:
                    self._emit("NDP", start, self.env.now, "drain", f"c{rec.ckpt_id}")
                    remaining -= self.env.now - start
                    if intr.cause == _ABORT:
                        aborted = True
                        break
                    # pause: loop re-checks the gate
            if aborted:
                # Record may already be gone from the cleared buffer.
                if rec.locked:
                    rec.locked = False
                continue
            rec.io_done = self.env.now
            self.nvm.unlock(rec)
            self._io_snapshots.append((rec.position, self.env.now))
            self.io_checkpoints += 1
            if self._drain_done_evt is not None and not self._drain_done_evt.triggered:
                self._drain_done_evt.succeed()

    def _ndp_notify(self) -> None:
        """Host -> NDP doorbell: a new checkpoint is available."""
        if self._ndp_wake is not None and not self._ndp_wake.triggered:
            self._ndp_wake.succeed()

    def _ndp_pause(self) -> None:
        """Suspend the drain (host NVM write or I/O-level restore)."""
        self._ndp_pause_depth += 1
        if (
            self._ndp_pause_depth == 1
            and self._ndp_proc is not None
            and self._ndp_proc.is_alive
        ):
            self._ndp_proc.interrupt(_PAUSE)

    def _ndp_resume(self) -> None:
        """Release one pause level; reopen the gate at zero."""
        if self._ndp_pause_depth == 0:
            return
        self._ndp_pause_depth -= 1
        if self._ndp_pause_depth == 0:
            gate = getattr(self, "_ndp_gate", None)
            if gate is not None and not gate.triggered:
                gate.succeed()

    # -- tracing ---------------------------------------------------------------

    def _emit(self, lane: str, start: float, end: float, kind: str, label: str = "") -> None:
        if self.cfg.trace is not None:
            self.cfg.trace.emit(lane, start, end, kind, label)


def simulate(config: SimConfig) -> SimulationResult:
    """Run one simulation to completion on the config's engine."""
    if config.engine == "fast":
        from .fastpath import simulate_fast  # local import: avoids a cycle

        return simulate_fast(config)
    return CRSimulation(config).run()


def default_work(params: CRParameters, mttis: float = 200.0) -> float:
    """A work target spanning ``mttis`` mean-times-to-interrupt.

    Monte-Carlo noise on the efficiency estimate scales like
    ``1/sqrt(failures)``; 200 MTTIs keeps it under ~2% for the paper's
    scenarios.
    """
    if math.isinf(params.mtti):
        raise ValueError("mtti must be finite")
    return params.mtti * mttis
