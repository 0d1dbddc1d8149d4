"""Exascale system projection (Section 3 / Table 1 of the paper).

The paper projects an exascale machine by scaling the Titan Cray XK7.  This
module encodes that scaling study as executable arithmetic so Table 1 and
the derived C/R parameters of Sections 3.2–3.4 can be regenerated (and the
assumptions varied).

Three layers:

* :class:`MachineSpec` — a concrete machine description (Titan, or the
  projected exascale system).
* :func:`project_exascale` — the paper's scaling rules applied to a base
  machine.
* :func:`mtti_from_socket_mttf` — Section 3.2's MTTI projection from a
  per-socket mean time to failure.
* :class:`CheckpointRequirements` — Section 3.3's derived commit-time /
  bandwidth requirements for a target progress rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import daly
from .units import GB, MINUTE, PB, TB, YEAR, gb, gb_per_s, minutes, tb_per_s

__all__ = [
    "MachineSpec",
    "TITAN",
    "EXASCALE",
    "project_exascale",
    "mtti_from_socket_mttf",
    "CheckpointRequirements",
    "checkpoint_requirements",
    "projection_table",
]


@dataclass(frozen=True)
class MachineSpec:
    """A machine description sufficient for the paper's C/R analysis.

    Attributes
    ----------
    name:
        Human-readable machine name.
    node_count:
        Number of compute nodes.
    node_peak_flops:
        Peak floating-point rate of one node (flop/s).
    node_memory_bytes:
        Physical memory per node (bytes).
    interconnect_bw:
        Per-node injection bandwidth into the system interconnect (B/s).
    io_bandwidth:
        *Aggregate* system bandwidth to the global (parallel file system)
        I/O tier (B/s).
    system_mtti:
        System mean time to interrupt (seconds).
    """

    name: str
    node_count: int
    node_peak_flops: float
    node_memory_bytes: float
    interconnect_bw: float
    io_bandwidth: float
    system_mtti: float

    @property
    def system_peak_flops(self) -> float:
        """Aggregate peak performance (flop/s)."""
        return self.node_count * self.node_peak_flops

    @property
    def system_memory_bytes(self) -> float:
        """Aggregate physical memory (bytes)."""
        return self.node_count * self.node_memory_bytes

    @property
    def io_bandwidth_per_node(self) -> float:
        """Effective share of global I/O bandwidth per compute node (B/s).

        The paper's 10 TB/s system over 100k nodes gives 100 MB/s per node,
        the number that drives every I/O-level overhead in the model.
        """
        return self.io_bandwidth / self.node_count

    def checkpoint_size(self, memory_fraction: float = 0.8) -> float:
        """Per-node checkpoint size at a given checkpointed-memory fraction.

        The paper assumes 80% of physical memory is checkpointed
        (112 GB/node on the projected system).
        """
        if not 0.0 < memory_fraction <= 1.0:
            raise ValueError("memory_fraction must be in (0, 1]")
        return self.node_memory_bytes * memory_fraction


#: Titan Cray XK7 as described in Section 3.1 / Table 1.  18,688 nodes of
#: 16-core Opteron + K20X GPU; 32 GB CPU + 6 GB GPU memory; 1.44 Tflop/s
#: peak per node; 1000 GB/s file-system bandwidth; 9 failures/day => MTTI
#: of 160 minutes.
TITAN = MachineSpec(
    name="Titan Cray XK7",
    node_count=18_688,
    node_peak_flops=1.44e12,
    node_memory_bytes=gb(38),
    interconnect_bw=gb_per_s(20),
    io_bandwidth=gb_per_s(1000),
    system_mtti=minutes(160),
)


def mtti_from_socket_mttf(
    node_count: int,
    socket_mttf: float = 5 * YEAR,
    round_to: float | None = None,
) -> float:
    """Section 3.2: system MTTI from a per-socket MTTF.

    With independent exponential node failures, the system MTTI is the
    per-node MTTF divided by the node count.  A 5-year socket MTTF over
    100k nodes gives ~26.28 minutes; the paper then rounds optimistically
    to 30 minutes (pass ``round_to=minutes(30)`` for that behaviour —
    rounding *up* only, the paper errs optimistic).
    """
    if node_count <= 0:
        raise ValueError("node_count must be positive")
    mtti = socket_mttf / node_count
    if round_to is not None and round_to > mtti:
        mtti = round_to
    return mtti


def project_exascale(
    base: MachineSpec = TITAN,
    target_flops: float = 1e18,
    node_perf_scale: float = 10e12 / 1.44e12,
    cpu_cores: int = 64,
    memory_per_core: float = gb(2),
    gpu_memory: float = gb(12),
    interconnect_bw: float = gb_per_s(50),
    io_bandwidth: float = tb_per_s(10),
    socket_mttf: float = 5 * YEAR,
    mtti_round_to: float | None = minutes(30),
) -> MachineSpec:
    """Apply the paper's Section 3.1 scaling rules to a base machine.

    The recipe: scale per-node performance ~7x (to 10 Tflop/s), grow CPU
    memory with core count at 2 GB/core, double GPU memory, and make up the
    remaining performance with more nodes (rounding to the paper's round
    100,000).  Interconnect and I/O bandwidths are set from cited
    projections rather than scaled.  MTTI comes from
    :func:`mtti_from_socket_mttf`.
    """
    node_peak = base.node_peak_flops * node_perf_scale
    # Node count needed for the flops target, rounded to the nearest
    # 10,000 as the paper does (537 * 186.88 -> "100,000 compute nodes").
    raw_nodes = target_flops / node_peak
    node_count = int(round(raw_nodes, -4)) or int(raw_nodes)
    node_memory = cpu_cores * memory_per_core + gpu_memory
    return MachineSpec(
        name="Projected exascale (Titan-scaled)",
        node_count=node_count,
        node_peak_flops=node_peak,
        node_memory_bytes=node_memory,
        interconnect_bw=interconnect_bw,
        io_bandwidth=io_bandwidth,
        system_mtti=mtti_from_socket_mttf(node_count, socket_mttf, mtti_round_to),
    )


#: The paper's projected exascale system (Table 1, right column).
EXASCALE = project_exascale()


@dataclass(frozen=True)
class CheckpointRequirements:
    """Section 3.3's derived requirements for a target progress rate.

    Attributes
    ----------
    target_efficiency:
        The target progress rate (paper uses 0.9 throughout).
    commit_time:
        Required checkpoint commit (and restore) time, seconds.
    checkpoint_period:
        Optimal checkpoint period (interval + commit), seconds.
    node_bandwidth:
        Required per-node checkpoint commit bandwidth, B/s.
    system_bandwidth:
        Aggregate commit bandwidth over all nodes, B/s.
    checkpoint_size:
        Per-node checkpoint size used in the derivation, bytes.
    """

    target_efficiency: float
    commit_time: float
    checkpoint_period: float
    node_bandwidth: float
    system_bandwidth: float
    checkpoint_size: float


def checkpoint_requirements(
    machine: MachineSpec = EXASCALE,
    target_efficiency: float = 0.9,
    memory_fraction: float = 0.8,
) -> CheckpointRequirements:
    """Derive Section 3.3's numbers: commit time ~M/200, period ~M/10.

    For the paper's projected system (M = 30 min, 112 GB/node) this yields
    a ~9 s commit time, a ~3 min period, ~12.4 GB/s per node and ~1.24 PB/s
    aggregate — far outpacing the projected 10 TB/s global I/O, which is
    the motivation for multilevel checkpointing.
    """
    size = machine.checkpoint_size(memory_fraction)
    delta = daly.required_delta_for_efficiency(target_efficiency, machine.system_mtti)
    tau = float(daly.daly_interval(delta, machine.system_mtti))
    return CheckpointRequirements(
        target_efficiency=target_efficiency,
        commit_time=delta,
        checkpoint_period=tau + delta,
        node_bandwidth=size / delta,
        system_bandwidth=size / delta * machine.node_count,
        checkpoint_size=size,
    )


def projection_table(
    base: MachineSpec = TITAN, projected: MachineSpec = EXASCALE
) -> list[dict[str, object]]:
    """Table 1 as structured rows: parameter, base, projection, factor.

    Factors are reported the way the paper prints them (MTTI as an inverse
    factor ``(1/x)x`` is returned as the plain ratio here; the bench
    formats it).
    """

    def row(name: str, b: float, p: float, unit: float, label: str) -> dict[str, object]:
        return {
            "parameter": name,
            "base": b / unit,
            "projected": p / unit,
            "factor": p / b,
            "unit": label,
        }

    return [
        row("Node Count", base.node_count, projected.node_count, 1, "nodes"),
        row("System Peak", base.system_peak_flops, projected.system_peak_flops, 1e15, "Pflop/s"),
        row("Node Peak", base.node_peak_flops, projected.node_peak_flops, 1e12, "Tflop/s"),
        row("System Memory", base.system_memory_bytes, projected.system_memory_bytes, PB, "PB"),
        row("Node Memory", base.node_memory_bytes, projected.node_memory_bytes, GB, "GB"),
        row("Interconnect BW", base.interconnect_bw, projected.interconnect_bw, GB, "GB/s"),
        row("I/O Bandwidth", base.io_bandwidth, projected.io_bandwidth, TB, "TB/s"),
        row("System MTTI", base.system_mtti, projected.system_mtti, MINUTE, "min"),
    ]
