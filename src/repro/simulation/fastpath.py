"""Vectorized renewal-segment Monte-Carlo engine for the C/R simulator.

The discrete-event simulator (:mod:`repro.simulation.simulator`) walks one
event at a time through a schedule that is *deterministic between
failures*: compute intervals, local commits, partner copies and I/O pushes
repeat with a fixed super-period, and the NDP drain advances at a fixed
rate whenever it is unpaused.  This module exploits that renewal
structure: instead of yielding through every event, it advances **a whole
batch of trajectories failure-to-failure** with numpy.

Two vectorized paths share the batch state:

* a **closed form** for ``host``, ``io-only`` and ``local-only`` without a
  partner level: the piecewise-periodic timeline is inverted
  arithmetically to find each trajectory's position, accounting charges
  and checkpoint state at its next failure instant.  Dead NVM slots left
  by interrupted writes are tracked with a per-trajectory counter so the
  FIFO eviction of the newest completed checkpoint (the small-buffer
  corner) reproduces the DES at every ``nvm_capacity`` >= 1.
* an **exact segment walker** for ``ndp`` and for any strategy with an
  explicit partner level: the NVM circular buffer is modeled per slot
  (in-flight / completed / drain-locked / on-I/O), mirroring
  :class:`~repro.simulation.storage.NVMBuffer` — admission evicts the
  oldest unlocked slot, the drain always locks the newest undrained
  record (so *stale drains* of older records, and the resulting
  regressing I/O snapshots, happen exactly as in the DES), and a full
  buffer of locked slots stalls the host, charging real
  ``host_stall_time``.  Partner copies consume the ``"recovery"`` stream
  in DES order (the local draw first, the conditional partner draw
  second).  Segments are still advanced for the whole batch at once; the
  walker is vectorized over trajectories, not over events.

Exactness contract (the DES stays the reference oracle): ``host``,
``io-only``, ``local-only`` and every partner-level config are reproduced
*exactly* — every failure lands on the same schedule, consumes the same
RNG draws and produces the same seven-way accounting, up to
float-association noise (closed-form ``p0 + k*tau`` versus the DES's
sequential adds).  ``ndp`` follows the same op-for-op schedule and
returns the DES's exact result at every ``nvm_capacity`` but 1.  At
capacity 1 the sub-ulp association in the drain-progress arithmetic
(the walker subtracts per segment where the DES subtracts per contiguous
unpaused span) leaves last-ulp differences in the stall and breakdown
floats, with every counter equal — the matched-seed suite in
``tests/simulation/test_fastpath.py`` pins both.

RNG stream compatibility: each trajectory draws from the same named
:class:`~repro.simulation.rng.StreamFactory` streams as the DES
(``"failures"`` for interarrivals, ``"recovery"`` for level draws), in
blocks — numpy ``Generator`` draws of size ``n`` consume the stream
identically to ``n`` scalar draws, so a fast-engine run sees *the same
failure times and the same recovery decisions* as the DES run with the
same seed.

Cost is proportional to **live** trajectories, not batch width:

* **Active-set compaction** — heterogeneous work targets and MTTIs make
  trajectories finish at very different iteration counts; once the live
  fraction of a batch drops below :data:`COMPACT_THRESHOLD`, finished
  rows are scattered onto an input-order result store and every
  per-trajectory array (parameters, accounting, ring slots, RNG buffers
  and stream cursors) is gathered onto the survivors.  Every array
  operation in the driver is elementwise across rows, so compaction is
  bit-identical by construction — each trajectory owns its named
  streams and its row of state, wherever that row lives.
* **Cross-capacity group fusion** — exact-walker batches share one ring
  slot dimension sized to the *group maximum* ``nvm_capacity``; rows
  with smaller buffers carry inert ``_S_PAD`` slots that admission,
  drain and recovery all ignore, so one walker advances mixed-capacity
  sweeps (fig6–fig9 grids, zipfian service traffic) in a single pass.

The only configuration that still needs the event-level DES is timeline
tracing (``config.trace``), which by definition records individual
events; those fall back per config and are counted on the
``fastpath_fallbacks_total{reason=...}`` metric.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from ..core.breakdown import OverheadBreakdown
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .rng import StreamFactory
from .simulator import CRSimulation, SimConfig
from .stats import SimulationResult

__all__ = ["fallback_total", "simulate_fast", "simulate_batch", "unsupported_reason"]

_COMPONENTS = OverheadBreakdown.component_names()
_I_COMPUTE = _COMPONENTS.index("compute")
_I_CKPT_L = _COMPONENTS.index("checkpoint_local")
_I_CKPT_IO = _COMPONENTS.index("checkpoint_io")
_I_REST_L = _COMPONENTS.index("restore_local")
_I_REST_IO = _COMPONENTS.index("restore_io")
_I_RERUN_L = _COMPONENTS.index("rerun_local")
_I_RERUN_IO = _COMPONENTS.index("rerun_io")

_RUNNING, _RESTORING, _DONE = 0, 1, 2

# Restore categories (mirrors CRSimulation._recover's three paths).
_R_LOCAL, _R_PARTNER, _R_IO = 0, 1, 2

# NVM slot states in the exact walker's per-slot ring model.  _S_PAD
# marks the inert columns a smaller-capacity row carries when fused into
# a group padded to the group-max capacity: never admitted into, never
# drained, never a recovery source, and never evictable.
_S_EMPTY, _S_INFLIGHT, _S_COMPLETED, _S_LOCKED, _S_ONIO, _S_PAD = 0, 1, 2, 3, 4, 5

# Walker phases: the host's position inside one checkpoint cycle.
_P_COMPUTE, _P_STALL, _P_WRITE, _P_PARTNER, _P_PUSH = 0, 1, 2, 3, 4

#: RNG draws buffered per trajectory per refill (a refill consumes the
#: underlying stream exactly like that many scalar draws would).
_BLOCK = 128

#: Hard ceiling on outer iterations.  Closed-form batches advance one
#: failure-or-completion window per iteration (roughly ``2.2 * failures``
#: needed); exact-walker batches advance one cycle micro-segment per
#: iteration (a few tens per window).
_MAX_ITER = 2_000_000

#: Compact the active set when the live fraction of a batch drops below
#: this.  0.5 keeps total compaction work geometric (each compaction at
#: least halves the width); 0.0 disables compaction outright (every row
#: rides full-width arrays to the end — the pre-compaction behavior, and
#: what the equivalence tests compare against).
COMPACT_THRESHOLD = 0.5

_BATCHES = obs_metrics.REGISTRY.counter(
    "fastpath_batches_total", "vectorized trajectory batches executed"
)
_TRAJECTORIES = obs_metrics.REGISTRY.counter(
    "fastpath_trajectories_total", "trajectories simulated by the fast engine"
)
_FALLBACKS = obs_metrics.REGISTRY.counter(
    "fastpath_fallbacks_total",
    "configs the fast engine handed back to the DES, by reason",
)
_LIVE_FRACTION = obs_metrics.REGISTRY.histogram(
    "fastpath_live_fraction",
    "live-trajectory fraction of a batch at each compaction point",
    buckets=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)
_OCCUPANCY = obs_metrics.REGISTRY.gauge(
    "fastpath_batch_occupancy",
    "row-iterations / (width x iterations) of the last executed batch",
)

#: Human-readable fallback reasons -> the short ``reason`` label value.
_FALLBACK_LABELS = {"timeline tracing records individual events": "trace"}


def fallback_total() -> float:
    """Total DES fallbacks summed across every ``reason`` label."""
    return float(sum(value for _, value in _FALLBACKS.samples()))


def unsupported_reason(config: SimConfig) -> str | None:
    """Why ``config`` needs the event-level DES, or ``None`` if fast-capable."""
    if config.trace is not None:
        return "timeline tracing records individual events"
    return None


def _needs_exact(config: SimConfig) -> bool:
    """Whether ``config`` takes the per-slot segment walker.

    ``ndp`` always does (drain locks, stalls and stale drains live in the
    ring); a partner level does for every strategy that has one (the
    partner copy breaks the uniform cycle the closed form inverts).
    """
    return config.strategy == "ndp" or (
        config.partner_every > 0 and config.strategy != "io-only"
    )


#: Per-trajectory outputs scattered into the input-order result store
#: when a row retires from the active set.
_FIN_FIELDS = (
    "t", "acct", "failures", "rec_l", "rec_p", "rec_io",
    "io_ck", "loc_ck", "partner_ck", "stall",
)

#: Every per-trajectory array gathered onto the survivors at a
#: compaction (exact-walker batches add their ring/phase arrays).
_ROW_ARRAYS = (
    "mtti", "W", "tau", "delta_l", "delta_io", "delta_c", "cycle",
    "restore_l", "restore_io", "p_local", "ratio", "shape", "cap_arr",
    "t_raw", "partner_every", "delta_partner", "p_partner",
    "t", "pos", "R", "attr_io", "c", "state", "acct", "L", "S",
    "partner_snap", "next_fail", "decide_mask", "n_dead",
    "failures", "rec_l", "rec_p", "rec_io", "io_ck", "loc_ck",
    "partner_ck", "stall", "rest_rem", "rest_cat", "rollback",
    "dr_busy", "dr_rho", "dr_slot",
    "_fail_buf", "_fail_ptr", "_rec_buf", "_rec_ptr", "_times_ptr",
    "orig",
)


# -- batched engine ---------------------------------------------------------------


class _FastBatch:
    """One vectorized batch: trajectories sharing strategy/pause/replay mode.

    Every per-scenario quantity (MTTI, work target, commit times, ratio,
    Weibull shape, NVM capacity, ...) is a per-trajectory array, so
    heterogeneous configs batch together as long as the *schedule shape*
    matches.  Exact-walker batches pad their ring arrays to the group's
    maximum capacity (inert ``_S_PAD`` slots), so mixed capacities fuse
    into one group.

    ``idx`` selects the batch's rows out of ``configs`` — the group
    index array built once by :func:`simulate_batch`; the constructor
    reads straight through it (one pass, no intermediate per-group
    config lists).  As trajectories finish, :meth:`_retire` scatters
    their results back to input order and compacts every per-row array
    onto the survivors.
    """

    def __init__(self, configs: Sequence[SimConfig], idx: np.ndarray | None = None):
        if idx is None:
            idx = np.arange(len(configs), dtype=np.intp)
        cfg0 = configs[int(idx[0])]
        self.strategy = cfg0.strategy
        self.pause = cfg0.pause_ndp_during_local
        self.is_ndp = self.strategy == "ndp"
        self.has_push = self.strategy == "host"
        self.io_write = self.strategy == "io-only"
        self.has_local_level = self.strategy != "io-only"
        self.exact = _needs_exact(cfg0)
        if cfg0.failure_times is not None:
            # Shared replay schedule (part of the batch group key).
            self.times: np.ndarray | None = np.append(
                np.asarray(cfg0.failure_times, dtype=float), np.inf
            )
        else:
            self.times = None

        B = self.B = int(idx.size)
        self.mtti = np.empty(B)
        self.W = np.empty(B)
        self.tau = np.empty(B)
        self.delta_l = np.empty(B)
        self.delta_io = np.empty(B)
        self.restore_l = np.empty(B)
        self.restore_io = np.empty(B)
        self.p_local = np.empty(B)
        self.ratio = np.empty(B, dtype=np.int64)
        self.shape = np.empty(B)
        self.cap_arr = np.empty(B, dtype=np.int64)
        # Drain wall time for one checkpoint while unpaused — the
        # min(io_bw/(1-f), compress_rate) bound expressed as seconds.
        self.t_raw = np.empty(B)
        # Partner level (walker-only; 0 disables per trajectory).
        self.partner_every = np.empty(B, dtype=np.int64)
        self.delta_partner = np.empty(B)
        self.p_partner = np.empty(B)
        # Named per-seed streams — identical to the DES's.
        self._rng_fail = []
        self._rng_rec = []
        for row in range(B):
            c = configs[int(idx[row])]
            x = c.params
            self.mtti[row] = x.mtti
            self.W[row] = c.work
            self.tau[row] = x.tau
            self.delta_l[row] = x.local_commit_time
            self.delta_io[row] = x.io_commit_time(c.compression)
            self.restore_l[row] = x.local_restore_time + x.restart_overhead
            self.restore_io[row] = x.io_restore_time(c.compression) + x.restart_overhead
            self.p_local[row] = x.p_local_recovery
            self.ratio[row] = c.ratio
            self.shape[row] = c.failure_shape
            self.cap_arr[row] = c.nvm_capacity
            self.t_raw[row] = max(
                c.compression.compressed_size(x.checkpoint_size) / x.io_bandwidth,
                x.checkpoint_size / c.compression.compress_rate,
            )
            self.partner_every[row] = c.partner_every
            self.delta_partner[row] = x.checkpoint_size / c.partner_bandwidth
            self.p_partner[row] = c.p_partner_recovery
            streams = StreamFactory(c.seed)
            self._rng_fail.append(streams.get("failures"))
            self._rng_rec.append(streams.get("recovery"))
        self.has_partner = bool((self.partner_every > 0).any())
        # Per-cycle commit charge: io-only commits straight to I/O.
        self.delta_c = self.delta_io if self.io_write else self.delta_l
        self.cycle = self.tau + self.delta_c
        self.commit_cat = _I_CKPT_IO if self.io_write else _I_CKPT_L

        # Trajectory state.
        self.t = np.zeros(B)
        self.pos = np.zeros(B)
        self.R = np.zeros(B)  # positions below this are re-execution
        self.attr_io = np.zeros(B, dtype=bool)  # rerun attributed to I/O level?
        self.c = np.zeros(B, dtype=np.int64)  # checkpoint counter
        self.state = np.zeros(B, dtype=np.int8)
        self.acct = np.zeros((B, len(_COMPONENTS)))
        self.L = np.full(B, -1.0)  # newest completed local ckpt position
        self.S = np.full(B, -1.0)  # newest completed I/O snapshot position
        self.partner_snap = np.full(B, -1.0)  # newest partner copy position
        self.next_fail = np.zeros(B)
        self.decide_mask = np.zeros(B, dtype=bool)
        # Dead NVM slots newer than the newest completed checkpoint
        # (closed form only): an interrupted write leaves its record in
        # the buffer forever, so ``cap - 1`` consecutive dead writes push
        # the newest completed record out of the FIFO at the next admit.
        self.n_dead = np.zeros(B, dtype=np.int64)

        # Counters mirrored onto SimulationResult.
        self.failures = np.zeros(B, dtype=np.int64)
        self.rec_l = np.zeros(B, dtype=np.int64)
        self.rec_p = np.zeros(B, dtype=np.int64)
        self.rec_io = np.zeros(B, dtype=np.int64)
        self.io_ck = np.zeros(B, dtype=np.int64)
        self.loc_ck = np.zeros(B, dtype=np.int64)
        self.partner_ck = np.zeros(B, dtype=np.int64)
        self.stall = np.zeros(B)

        # In-flight restore (state == _RESTORING).
        self.rest_rem = np.zeros(B)
        self.rest_cat = np.zeros(B, dtype=np.int8)
        self.rollback = np.zeros(B)

        # Exact walker: the NVM ring, one row of slots per trajectory
        # (oldest first, slots >= ring_n empty), padded to the group-max
        # capacity with inert _S_PAD columns, plus the drain's target
        # slot and its remaining unpaused wall seconds.  The walker's
        # cycle phase persists across driver iterations so every row
        # advances one micro-segment per step (no stragglers).
        if self.exact:
            self.cap = int(self.cap_arr.max())
            self._pad = np.arange(self.cap)[None, :] >= self.cap_arr[:, None]
            self._uniform_multi = bool((self.cap_arr > 1).all())
            self.ring_pos = np.zeros((B, self.cap))
            self.ring_state = np.where(self._pad, _S_PAD, _S_EMPTY).astype(np.int8)
            self.ring_n = np.zeros(B, dtype=np.int64)
            self.ph = np.zeros(B, dtype=np.int8)
            self.comp_rem = np.minimum(self.tau, self.W)
            self.seg_rem = np.zeros(B)
        self.dr_busy = np.zeros(B, dtype=bool)
        self.dr_rho = np.zeros(B)
        self.dr_slot = np.full(B, -1, dtype=np.int64)

        # Blocked draws off the named streams (refills consume the
        # underlying stream exactly like that many scalar draws would).
        self._fail_buf = np.zeros((B, _BLOCK))
        self._fail_ptr = np.full(B, _BLOCK, dtype=np.int64)
        self._rec_buf = np.zeros((B, _BLOCK))
        self._rec_ptr = np.full(B, _BLOCK, dtype=np.int64)
        self._times_ptr = np.zeros(B, dtype=np.int64)

        # Active-set compaction: ``orig`` maps the current row to its
        # input position; finished rows scatter their outputs into the
        # full-width ``_fin`` store and every array below is gathered
        # onto the survivors.  ``_W0`` keeps the input-order work targets
        # for the final result assembly.
        self.orig = np.arange(B, dtype=np.intp)
        self._W0 = self.W.copy()
        self._fin = {name: np.zeros_like(getattr(self, name)) for name in _FIN_FIELDS}
        self._row_arrays = list(_ROW_ARRAYS)
        if self.exact:
            self._row_arrays += ["ring_pos", "ring_state", "ring_n", "ph",
                                 "comp_rem", "seg_rem", "_pad"]
        self.occupancy = 1.0

    # -- RNG plumbing ------------------------------------------------------------

    def _fail_draws(self, idx: np.ndarray) -> np.ndarray:
        """One failure-interarrival draw per trajectory in ``idx``."""
        need = idx[self._fail_ptr[idx] >= _BLOCK]
        for i in need:
            rng = self._rng_fail[i]
            shape = self.shape[i]
            if shape == 1.0:
                self._fail_buf[i] = rng.exponential(self.mtti[i], size=_BLOCK)
            else:
                scale = self.mtti[i] / math.gamma(1.0 + 1.0 / shape)
                self._fail_buf[i] = rng.weibull(shape, size=_BLOCK) * scale
            self._fail_ptr[i] = 0
        out = self._fail_buf[idx, self._fail_ptr[idx]]
        self._fail_ptr[idx] += 1
        return out

    def _rec_draws(self, idx: np.ndarray) -> np.ndarray:
        """One recovery-level uniform per trajectory in ``idx``."""
        need = idx[self._rec_ptr[idx] >= _BLOCK]
        for i in need:
            self._rec_buf[i] = self._rng_rec[i].random(_BLOCK)
            self._rec_ptr[i] = 0
        out = self._rec_buf[idx, self._rec_ptr[idx]]
        self._rec_ptr[idx] += 1
        return out

    def _set_next_fail(self, idx: np.ndarray) -> None:
        if self.times is not None:
            ptr = np.minimum(self._times_ptr[idx], len(self.times) - 1)
            self.next_fail[idx] = np.maximum(self.t[idx], self.times[ptr])
            self._times_ptr[idx] += 1
        else:
            self.next_fail[idx] = self.t[idx] + self._fail_draws(idx)

    # -- the per-slot NVM ring (exact walker) --------------------------------------

    def _ring_admit(self, g: np.ndarray) -> None:
        """Admit a new in-flight record at the current position.

        Mirrors :meth:`NVMBuffer.admit`: a full buffer (per-row capacity
        ``cap_arr``) evicts the oldest unlocked record (callers have
        already checked ``can_accept``).  The eviction shift is over the
        padded group-max slot axis; a pad column transiently shifted
        into a real slot is overwritten by the admission below, and the
        columns past a row's capacity stay inert pads.
        """
        C = self.cap
        full = self.ring_n[g] >= self.cap_arr[g]
        f = g[full]
        if f.size:
            # argmax finds the oldest unlocked REAL slot: the gate
            # guaranteed one exists, and real columns precede the pads.
            j = np.argmax(self.ring_state[f] != _S_LOCKED, axis=1)
            cols = np.arange(C)[None, :]
            src = np.minimum(cols + (cols >= j[:, None]), C - 1)
            self.ring_pos[f] = np.take_along_axis(self.ring_pos[f], src, axis=1)
            self.ring_state[f] = np.take_along_axis(self.ring_state[f], src, axis=1)
            self.dr_slot[f] = self.dr_slot[f] - (self.dr_slot[f] > j)
            self.ring_n[f] = self.cap_arr[f] - 1
        slot = self.ring_n[g]
        self.ring_pos[g, slot] = self.pos[g]
        self.ring_state[g, slot] = _S_INFLIGHT
        self.ring_n[g] = slot + 1

    def _drain_pick(self, g: np.ndarray) -> None:
        """Lock the newest undrained completed record, or go idle.

        Mirrors :meth:`NVMBuffer.newest_undrained` — when only *older*
        completed records remain, the drain locks one of those (a stale
        drain) and the eventual I/O snapshot regresses, exactly as in the
        DES.
        """
        if g.size == 0:
            return
        mask = self.ring_state[g] == _S_COMPLETED
        has = mask.any(axis=1)
        j = self.cap - 1 - np.argmax(mask[:, ::-1], axis=1)
        h = g[has]
        jh = j[has]
        self.dr_slot[h] = jh
        self.ring_state[h, jh] = _S_LOCKED
        self.dr_rho[h] = self.t_raw[h]
        self.dr_busy[h] = True
        nh = g[~has]
        self.dr_busy[nh] = False
        self.dr_rho[nh] = 0.0
        self.dr_slot[nh] = -1

    def _drain_advance(self, g: np.ndarray, dur: np.ndarray) -> None:
        """Advance the drain by ``dur`` unpaused wall seconds per row.

        Completions land first (a drain finishing exactly at a window end
        is processed before the host resumes — the stall path relies on
        it), record the I/O snapshot, and re-pick from the ring.
        """
        if not self.is_ndp or g.size == 0:
            return
        rem = np.asarray(dur, dtype=float).copy()
        while True:
            fin = self.dr_busy[g] & (self.dr_rho[g] <= rem)
            if not fin.any():
                break
            f = g[fin]
            rem[fin] -= self.dr_rho[f]
            slots = self.dr_slot[f]
            self.ring_state[f, slots] = _S_ONIO
            self.S[f] = self.ring_pos[f, slots]
            self.io_ck[f] += 1
            self._drain_pick(f)
        busy = self.dr_busy[g]
        gb = g[busy]
        self.dr_rho[gb] = self.dr_rho[gb] - rem[busy]

    def _nvm_lost(self, g: np.ndarray) -> None:
        """Drop NVM contents and abort any in-flight drain (DES `_nvm_lost`)."""
        if self.has_local_level:
            self.L[g] = -1.0
            self.n_dead[g] = 0
        if self.exact:
            self.ring_n[g] = 0
            self.ring_state[g] = np.where(
                self._pad[g], _S_PAD, _S_EMPTY
            ).astype(np.int8)
        self.dr_busy[g] = False
        self.dr_rho[g] = 0.0
        self.dr_slot[g] = -1

    # -- one restore window --------------------------------------------------------

    def _step_restoring(self) -> None:
        idx = np.nonzero(self.state == _RESTORING)[0]
        if idx.size == 0:
            return
        rem = self.rest_rem[idx]
        nf = self.next_fail[idx]
        interrupted = nf < self.t[idx] + rem
        dur = np.where(interrupted, nf - self.t[idx], rem)
        # Partner restores are charged to restore_local like the DES
        # (the paper lumps partner with the locally-saved level).
        cat = np.where(self.rest_cat[idx] == _R_IO, _I_REST_IO, _I_REST_L)
        self.acct[idx, cat] += dur
        # The drain runs unpaused during local restores; partner and I/O
        # recoveries aborted it at decision time, so advancing is a no-op.
        self._drain_advance(idx, dur)
        self.t[idx] = np.where(interrupted, nf, self.t[idx] + rem)
        comp = idx[~interrupted]
        if comp.size:
            # Mirrors the tail of CRSimulation._recover: the failure
            # position (unchanged through interrupted restores) extends
            # the rerun region, then the rollback lands, then a partner
            # snapshot ahead of the new position is invalidated.
            self.R[comp] = np.maximum(self.R[comp], self.pos[comp])
            cat_c = self.rest_cat[comp]
            self.pos[comp] = self.rollback[comp]
            self.attr_io[comp] = cat_c == _R_IO
            self.rec_l[comp[cat_c == _R_LOCAL]] += 1
            self.rec_p[comp[cat_c == _R_PARTNER]] += 1
            self.rec_io[comp[cat_c == _R_IO]] += 1
            if self.has_partner:
                stale = comp[self.partner_snap[comp] > self.pos[comp]]
                self.partner_snap[stale] = -1.0
            self.state[comp] = _RUNNING
            if self.exact:
                # the host loop restarts at a fresh compute interval
                self.ph[comp] = _P_COMPUTE
                self.comp_rem[comp] = np.minimum(
                    self.tau[comp], self.W[comp] - self.pos[comp]
                )
        self.decide_mask[idx[interrupted]] = True

    # -- one running window: closed form -------------------------------------------

    def _layout(
        self, dt: np.ndarray, sub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Invert the running timeline at offset ``dt`` from segment start.

        Returns ``(k, in_write, in_push, off, off_push)``: completed local
        writes, whether the instant lands inside a write / an I/O push,
        the offset into the current cycle and into the current push.
        """
        cyc = self.cycle[sub]
        if not self.has_push:
            jj = np.floor(dt / cyc)
            off = np.maximum(dt - jj * cyc, 0.0)
            k = jj.astype(np.int64)
            zero = np.zeros(len(sub))
            return k, off >= self.tau[sub], np.zeros(len(sub), dtype=bool), off, zero
        r = self.ratio[sub]
        d_io = self.delta_io[sub]
        b = r - self.c[sub] % r  # checkpoints until (and including) first push
        head_cycles = b * cyc
        period = r * cyc + d_io
        lt_head_c = dt < head_cycles
        lt_head = dt < head_cycles + d_io
        dt2 = np.maximum(dt - (head_cycles + d_io), 0.0)
        qper = np.floor(dt2 / period)
        rem = dt2 - qper * period
        in_per_c = rem < r * cyc
        j_head = np.floor(dt / cyc)
        j_rem = np.floor(rem / cyc)
        jj = np.where(
            lt_head_c,
            j_head,
            np.where(lt_head, b, b + qper * r + np.where(in_per_c, j_rem, r)),
        )
        in_push = (~lt_head_c & lt_head) | (~lt_head & ~in_per_c)
        off = np.maximum(
            np.where(lt_head_c, dt - j_head * cyc, rem - j_rem * cyc), 0.0
        )
        off_push = np.maximum(
            np.where(lt_head & ~lt_head_c, dt - head_cycles, rem - r * cyc), 0.0
        )
        in_write = ~in_push & (off >= self.tau[sub])
        return jj.astype(np.int64), in_write, in_push, off, np.where(in_push, off_push, 0.0)

    def _charge_running(
        self,
        sub: np.ndarray,
        compute_adv: np.ndarray,
        commit: np.ndarray,
        push: np.ndarray,
    ) -> None:
        """Charge one running window's compute/rerun/commit/push seconds."""
        p0 = self.pos[sub]
        rerun = np.clip(np.minimum(self.R[sub], p0 + compute_adv) - p0, 0.0, None)
        cat = np.where(self.attr_io[sub], _I_RERUN_IO, _I_RERUN_L)
        np.add.at(self.acct, (sub, cat), rerun)
        self.acct[sub, _I_COMPUTE] += compute_adv - rerun
        self.acct[sub, self.commit_cat] += commit
        if self.has_push:
            self.acct[sub, _I_CKPT_IO] += push

    def _step_running(self) -> None:
        idx = np.nonzero(self.state == _RUNNING)[0]
        if idx.size == 0:
            return
        tau = self.tau[idx]
        d_c = self.delta_c[idx]
        p0 = self.pos[idx].copy()
        w_rem = self.W[idx] - p0
        # Intervals to finish the work; the epsilon guards exact multiples
        # of tau against one-ulp float drift.
        n_int = np.maximum(np.ceil(w_rem / tau - 1e-9).astype(np.int64), 1)
        n_ck = n_int - 1
        c0 = self.c[idx]
        if self.has_push:
            n_push = (c0 + n_ck) // self.ratio[idx] - c0 // self.ratio[idx]
            T_done = w_rem + n_ck * d_c + n_push * self.delta_io[idx]
        else:
            n_push = np.zeros(idx.size, dtype=np.int64)
            T_done = w_rem + n_ck * d_c
        dt_f = self.next_fail[idx] - self.t[idx]
        done = dt_f >= T_done

        dsub = idx[done]
        if dsub.size:
            sel = done
            self._charge_running(
                dsub,
                w_rem[sel],
                n_ck[sel] * d_c[sel],
                n_push[sel] * self.delta_io[idx][sel] if self.has_push else n_push[sel],
            )
            if self.io_write:
                self.io_ck[dsub] += n_ck[sel]
            else:
                self.loc_ck[dsub] += n_ck[sel]
                self.io_ck[dsub] += n_push[sel]
            self.c[dsub] += n_ck[sel]
            self.t[dsub] += T_done[sel]
            self.pos[dsub] = self.W[dsub]
            self.state[dsub] = _DONE

        fsub = idx[~done]
        if fsub.size:
            sel = ~done
            dt = dt_f[sel]
            k, in_write, in_push, off, off_push = self._layout(dt, fsub)
            tau_f = tau[sel]
            compute_adv = k * tau_f + np.where(
                in_write, tau_f, np.where(in_push, 0.0, np.minimum(off, tau_f))
            )
            commit = k * d_c[sel] + np.where(in_write, off - tau_f, 0.0)
            if self.has_push:
                r_f = self.ratio[fsub]
                c0_f = c0[sel]
                n_push_done = (c0_f + k) // r_f - c0_f // r_f - in_push
                push = n_push_done * self.delta_io[fsub] + off_push
            else:
                n_push_done = np.zeros(fsub.size, dtype=np.int64)
                push = np.zeros(fsub.size)
            self._charge_running(fsub, compute_adv, commit, push)
            p0_f = p0[sel]
            if self.io_write:
                self.io_ck[fsub] += k
                got = k >= 1
                self.S[fsub[got]] = (p0_f + k * tau_f)[got]
            else:
                self.loc_ck[fsub] += k
                got = k >= 1
                self.L[fsub[got]] = (p0_f + k * tau_f)[got]
                if self.has_push:
                    r_f = self.ratio[fsub]
                    c0_f = c0[sel]
                    self.io_ck[fsub] += n_push_done
                    pushed = n_push_done >= 1
                    last_mult = (c0_f // r_f + n_push_done) * r_f
                    self.S[fsub[pushed]] = (p0_f + (last_mult - c0_f) * tau_f)[pushed]
                # Dead-slot bookkeeping: an interrupted write's record
                # occupies a slot forever; once ``cap - 1`` dead records
                # sit above the newest completed one, this admit evicted
                # it, so local recovery has nothing to land on.
                nd = np.where(got, 0, self.n_dead[fsub])
                evict = in_write & (nd >= self.cap_arr[fsub] - 1) & (self.L[fsub] >= 0.0)
                self.L[fsub[evict]] = -1.0
                self.n_dead[fsub] = nd + in_write
            self.c[fsub] += k
            self.pos[fsub] = p0_f + compute_adv
            self.t[fsub] = self.next_fail[fsub]
            self.decide_mask[fsub] = True

    # -- one running window: exact segment walker ------------------------------------

    def _to_next(self, g: np.ndarray, *, partner: bool, push: bool) -> None:
        """Route rows leaving a completed segment to their next phase."""
        if partner and self.has_partner and g.size:
            due = (self.partner_every[g] > 0) & (
                self.c[g] % np.maximum(self.partner_every[g], 1) == 0
            )
            pg = g[due]
            self.ph[pg] = _P_PARTNER
            self.seg_rem[pg] = self.delta_partner[pg]
            g = g[~due]
        if push and self.has_push and g.size:
            due = self.c[g] % self.ratio[g] == 0
            hg = g[due]
            self.ph[hg] = _P_PUSH
            self.seg_rem[hg] = self.delta_io[hg]
            g = g[~due]
        self.ph[g] = _P_COMPUTE
        self.comp_rem[g] = np.minimum(self.tau[g], self.W[g] - self.pos[g])

    def _live(self, phase: int) -> np.ndarray:
        """Running rows in ``phase`` that have not failed this step."""
        return np.nonzero(
            (self.state == _RUNNING) & ~self.decide_mask & (self.ph == phase)
        )[0]

    def _step_running_exact(self) -> None:
        """Advance every running trajectory by one cycle micro-segment.

        Mirrors ``CRSimulation._host`` op for op: compute chunks split at
        the rerun boundary, the stall-admit-write sequence against the
        per-slot ring, then the partner copy and the host I/O push when
        due.  Phase state persists on the batch, so each driver iteration
        moves all rows one segment — a failed row is retired to
        ``_decide`` the same iteration, a finished one to ``_DONE``.
        """
        # -- compute chunks (CRSimulation._compute_interval) --------
        g = self._live(_P_COMPUTE)
        if g.size:
            run = g[self.comp_rem[g] > 1e-12]
            if run.size:
                pos = self.pos[run]
                in_rerun = pos < self.R[run]
                chunk = np.where(
                    in_rerun,
                    np.minimum(self.comp_rem[run], self.R[run] - pos),
                    self.comp_rem[run],
                )
                failed = self.next_fail[run] < self.t[run] + chunk
                adv = np.where(failed, self.next_fail[run] - self.t[run], chunk)
                cat = np.where(
                    in_rerun,
                    np.where(self.attr_io[run], _I_RERUN_IO, _I_RERUN_L),
                    _I_COMPUTE,
                )
                self.acct[run, cat] += adv
                self._drain_advance(run, adv)
                self.pos[run] = pos + adv
                self.t[run] = self.t[run] + adv
                self.comp_rem[run] -= adv
                self.decide_mask[run[failed]] = True
            # Interval exhausted (including just now): finish the run or
            # enter the local write — same pass, so a full compute/write
            # cycle costs one driver iteration.
            g = self._live(_P_COMPUTE)
            over = g[self.comp_rem[g] <= 1e-12]
            if over.size:
                fin = self.pos[over] >= self.W[over]
                self.state[over[fin]] = _DONE
                self.ph[over[~fin]] = _P_STALL

        # -- admission gate (CRSimulation._checkpoint_local head) ----
        g = self._live(_P_STALL)
        if g.size:
            if self._uniform_multi:
                # at most one slot is ever drain-locked, so a buffer with
                # two or more real slots always has a free or evictable one
                can = np.ones(g.size, dtype=bool)
            else:
                st = self.ring_state[g]
                can = (self.ring_n[g] < self.cap_arr[g]) | (
                    (st != _S_LOCKED) & (st != _S_PAD)
                ).any(axis=1)
            gc = g[can]
            if gc.size:
                self._ring_admit(gc)
                self.ph[gc] = _P_WRITE
                self.seg_rem[gc] = self.delta_l[gc]
            gs = g[~can]
            if gs.size:
                # Every slot is drain-locked: the host blocks until the
                # in-flight drain finishes (its completion is processed
                # first), charging a stall; survivors re-check the gate.
                rho = self.dr_rho[gs]
                failed = self.next_fail[gs] < self.t[gs] + rho
                dur = np.where(failed, self.next_fail[gs] - self.t[gs], rho)
                self.stall[gs] += dur
                self.acct[gs, _I_CKPT_L] += dur
                self._drain_advance(gs, dur)
                self.t[gs] = self.t[gs] + dur
                self.decide_mask[gs[failed]] = True

        # -- the local write (or its death by interrupt) -------------
        g = self._live(_P_WRITE)
        if g.size:
            d = self.seg_rem[g]
            failed = self.next_fail[g] < self.t[g] + d
            dur = np.where(failed, self.next_fail[g] - self.t[g], d)
            self.acct[g, _I_CKPT_L] += dur
            if not self.pause:
                self._drain_advance(g, dur)
            self.t[g] = self.t[g] + dur
            # an interrupted write's record stays in-flight (dead)
            self.decide_mask[g[failed]] = True
            go = g[~failed]
            if go.size:
                self.ring_state[go, self.ring_n[go] - 1] = _S_COMPLETED
                self.c[go] += 1
                self.loc_ck[go] += 1
                if self.is_ndp:
                    # doorbell: an idle drain locks the new record
                    self._drain_pick(go[~self.dr_busy[go]])
                self._to_next(go, partner=True, push=True)

        # -- the partner copy (CRSimulation._checkpoint_partner) -----
        g = self._live(_P_PARTNER) if self.has_partner else np.empty(0, dtype=np.int64)
        if g.size:
            d = self.seg_rem[g]
            failed = self.next_fail[g] < self.t[g] + d
            dur = np.where(failed, self.next_fail[g] - self.t[g], d)
            self.acct[g, _I_CKPT_L] += dur
            self._drain_advance(g, dur)
            self.t[g] = self.t[g] + dur
            self.decide_mask[g[failed]] = True
            go = g[~failed]
            if go.size:
                self.partner_snap[go] = self.pos[go]
                self.partner_ck[go] += 1
                self._to_next(go, partner=False, push=True)

        # -- the host I/O push (host strategy; no drain exists) ------
        g = self._live(_P_PUSH) if self.has_push else np.empty(0, dtype=np.int64)
        if g.size:
            d = self.seg_rem[g]
            failed = self.next_fail[g] < self.t[g] + d
            dur = np.where(failed, self.next_fail[g] - self.t[g], d)
            self.acct[g, _I_CKPT_IO] += dur
            self.t[g] = self.t[g] + dur
            self.decide_mask[g[failed]] = True
            go = g[~failed]
            if go.size:
                self.S[go] = self.pos[go]
                self.io_ck[go] += 1
                self._to_next(go, partner=False, push=False)

    # -- recovery decision ---------------------------------------------------------

    def _decide(self, idx: np.ndarray) -> None:
        """Pick each failed trajectory's recovery level (same draws as DES).

        Draw order per trajectory matches ``CRSimulation._recover``: the
        local uniform only when a completed local record exists (and the
        strategy draws at all), then the partner uniform only when local
        lost out and a partner snapshot exists.
        """
        self.failures[idx] += 1
        if self.exact:
            st = self.ring_state[idx]
            mask = (st >= _S_COMPLETED) & (st != _S_PAD)
            has_local = mask.any(axis=1)
            j = self.cap - 1 - np.argmax(mask[:, ::-1], axis=1)
            lpos = np.where(has_local, self.ring_pos[idx, j], -1.0)
        else:
            lpos = self.L[idx]
            has_local = lpos >= 0.0
        use_local = np.zeros(idx.size, dtype=bool)
        if self.has_local_level:
            if self.strategy == "local-only":
                use_local = has_local
            else:
                dsub = idx[has_local]
                if dsub.size:
                    u = self._rec_draws(dsub)
                    use_local[has_local] = u < self.p_local[dsub]
        use_partner = np.zeros(idx.size, dtype=bool)
        if self.has_partner:
            elig = (
                ~use_local
                & (self.partner_every[idx] > 0)
                & (self.partner_snap[idx] >= 0.0)
            )
            esub = idx[elig]
            if esub.size:
                u2 = self._rec_draws(esub)
                use_partner[elig] = u2 < self.p_partner[esub]
        usub = idx[use_local]
        if usub.size:
            self.rollback[usub] = lpos[use_local]
            self.rest_rem[usub] = self.restore_l[usub]
            self.rest_cat[usub] = _R_LOCAL
        psub = idx[use_partner]
        if psub.size:
            # NVM contents are lost; the restore streams from the partner
            # over the interconnect (charged like a local restore).
            self._nvm_lost(psub)
            self.rollback[psub] = self.partner_snap[psub]
            self.rest_rem[psub] = self.delta_partner[psub]
            self.rest_cat[psub] = _R_PARTNER
        io = ~use_local & ~use_partner
        isub = idx[io]
        if isub.size:
            self._nvm_lost(isub)
            has_s = self.S[isub] >= 0.0
            self.rollback[isub] = np.where(has_s, self.S[isub], 0.0)
            self.rest_rem[isub] = np.where(has_s, self.restore_io[isub], 0.0)
            self.rest_cat[isub] = _R_IO
        self.state[idx] = _RESTORING
        self._set_next_fail(idx)

    # -- active-set compaction -----------------------------------------------------

    def _retire(self, done: np.ndarray) -> None:
        """Scatter finished rows to the input-order store, keep survivors.

        ``done`` is a boolean mask over the *current* rows.  Every driver
        operation is elementwise per row (each trajectory owns its named
        streams, its RNG buffers and its row of state), so the survivors'
        trajectories are bit-identical wherever their rows live.
        """
        o = self.orig[done]
        for name in _FIN_FIELDS:
            self._fin[name][o] = getattr(self, name)[done]
        keep = np.nonzero(~done)[0]
        for name in self._row_arrays:
            setattr(self, name, getattr(self, name)[keep])
        self._rng_fail = [self._rng_fail[i] for i in keep]
        self._rng_rec = [self._rng_rec[i] for i in keep]

    # -- driver --------------------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        self._set_next_fail(np.arange(self.B))
        step_running = self._step_running_exact if self.exact else self._step_running
        iters = 0
        row_iters = 0
        for _ in range(_MAX_ITER):
            live = self.state != _DONE
            n_live = int(live.sum())
            if n_live == 0:
                break
            n = live.size
            if n - n_live and n_live < COMPACT_THRESHOLD * n:
                # Finished rows pay for every vectorized op below; gather
                # the survivors once the live fraction crosses the knob.
                _LIVE_FRACTION.observe(n_live / n)
                self._retire(~live)
                n = n_live
            iters += 1
            row_iters += n
            self.decide_mask[:] = False
            self._step_restoring()
            step_running()
            pending = np.nonzero(self.decide_mask)[0]
            if pending.size:
                self._decide(pending)
        else:  # pragma: no cover - pathological configs only
            raise RuntimeError(
                "fastpath did not converge; the scenario makes essentially "
                "no forward progress (use the DES engine to inspect it)"
            )
        if self.orig.size:
            self._retire(np.ones(self.orig.size, dtype=bool))
        self.occupancy = row_iters / (self.B * iters) if iters else 1.0
        _OCCUPANCY.set(self.occupancy)
        t = self._fin["t"]
        acct = self._fin["acct"]
        totals = acct.sum(axis=1)
        out = []
        for i in range(self.B):
            # Failure behavior on degenerate state matches the DES run()
            # argument order: the efficiency division raises
            # ZeroDivisionError on a zero wall time first, then an empty
            # accounting raises like TimeAccounting.breakdown.
            efficiency = float(self._W0[i]) / float(t[i])
            if totals[i] <= 0.0:
                raise ValueError("no time accounted yet")
            frac = acct[i] / totals[i]
            out.append(
                SimulationResult(
                    work=float(self._W0[i]),
                    wall_time=float(t[i]),
                    efficiency=efficiency,
                    breakdown=OverheadBreakdown(**dict(zip(_COMPONENTS, map(float, frac)))),
                    failures=int(self._fin["failures"][i]),
                    recoveries_local=int(self._fin["rec_l"][i]),
                    recoveries_io=int(self._fin["rec_io"][i]),
                    recoveries_partner=int(self._fin["rec_p"][i]),
                    io_checkpoints=int(self._fin["io_ck"][i]),
                    local_checkpoints=int(self._fin["loc_ck"][i]),
                    partner_checkpoints=int(self._fin["partner_ck"][i]),
                    host_stall_time=float(self._fin["stall"][i]),
                )
            )
        return out


# -- public entry points ----------------------------------------------------------


def _group_key(config: SimConfig) -> tuple:
    """Schedule-shape key: configs sharing it fuse into one walker.

    ``nvm_capacity`` is deliberately absent — exact-walker rings are
    padded to the group maximum, so mixed capacities share a batch.
    """
    return (
        config.strategy,
        config.pause_ndp_during_local,
        config.failure_times,
        _needs_exact(config),
    )


def _group_sort_key(key: tuple) -> tuple:
    """Total order over group keys for deterministic trace output."""
    strategy, pause, times, exact = key
    return (strategy, bool(pause), bool(exact), times is not None, times or ())


def simulate_batch(configs: Sequence[SimConfig]) -> list[SimulationResult]:
    """Simulate every config, batching compatible ones into numpy passes.

    Configs the fast engine cannot represent (timeline tracing, see
    :func:`unsupported_reason`) run on the event-level DES individually;
    everything else is grouped by schedule shape and advanced together.
    Groups are index arrays into ``configs`` (no per-group config lists)
    and run in a deterministic sorted order.  Results come back in input
    order and are bit-for-bit independent of the batch composition (each
    trajectory owns its seed's streams).
    """
    configs = list(configs)
    results: list[SimulationResult | None] = [None] * len(configs)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        reason = unsupported_reason(cfg)
        if reason is not None:
            _FALLBACKS.inc(reason=_FALLBACK_LABELS.get(reason, "other"))
            results[i] = CRSimulation(cfg).run()
        else:
            groups.setdefault(_group_key(cfg), []).append(i)
    for key in sorted(groups, key=_group_sort_key):
        members = groups[key]
        t0 = time.monotonic()
        batch = _FastBatch(configs, np.asarray(members, dtype=np.intp))
        for i, res in zip(members, batch.run()):
            results[i] = res
        _BATCHES.inc()
        _TRAJECTORIES.inc(len(members))
        if obs_trace.enabled():
            obs_trace.emit(
                "fastpath",
                t0,
                time.monotonic(),
                "batch",
                label=f"{batch.strategy}x{len(members)}",
                attrs={
                    "size": len(members),
                    "strategy": batch.strategy,
                    "occupancy": round(batch.occupancy, 4),
                },
            )
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def simulate_fast(config: SimConfig) -> SimulationResult:
    """Run one config on the fast engine (DES fallback if unsupported)."""
    return simulate_batch([config])[0]
