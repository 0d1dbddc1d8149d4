"""The reproduction scorecard: every checkable paper claim, PASS/FAIL.

One experiment that re-derives each quantitative claim the paper states in
prose or tables and grades the reproduction against it.  This is the
at-a-glance answer to "does the repo actually reproduce the paper?" — and
the bench version (`bench_scorecard.py`) turns any regression into a test
failure.

Claims use tolerance bands, not equality: the paper's own evaluation is a
model over projected hardware, so the reproduction target is the number's
neighbourhood and the direction of every comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core import daly
from ..core.configs import HOST_GZIP1, NDP_GZIP1, paper_parameters
from ..core.model import io_only, multilevel_ndp, ndp_io_interval, single_level
from ..core.ndp_sizing import sizing_table
from ..core.optimizer import optimal_host
from ..core.projection import EXASCALE, checkpoint_requirements
from ..core.strategy import resolve
from ..compression.study import PAPER_UTILITY_AVERAGES
from ..simulation.pool import parallel_map
from .common import ExperimentResult, TextTable

__all__ = ["run"]


@dataclass(frozen=True)
class Claim:
    """One paper claim: where it is stated, what it predicts, what we get."""

    source: str
    statement: str
    expected: float
    measure: Callable[[], float]
    abs_tol: float

    def evaluate(self) -> tuple[float, bool]:
        value = self.measure()
        return value, abs(value - self.expected) <= self.abs_tol


def _claims() -> list[Claim]:
    p = paper_parameters()
    p96 = p.with_(p_local_recovery=0.96)

    def headline(engine: str) -> float:
        total = 0.0
        for pl in (0.2, 0.4, 0.6, 0.8):
            pp = p.with_(p_local_recovery=pl)
            if resolve(engine).host_push:
                total += optimal_host(pp, HOST_GZIP1).efficiency
            else:
                total += multilevel_ndp(pp, NDP_GZIP1).efficiency
        return total / 4

    sizing = {
        s.utility: s for s in sizing_table(dict(PAPER_UTILITY_AVERAGES), p)
    }
    return [
        Claim("§3.2", "system MTTI 30 minutes", 30.0,
              lambda: EXASCALE.system_mtti / 60, 0.0),
        Claim("§3.3", "90% needs ~9 s commit time", 9.0,
              lambda: checkpoint_requirements().commit_time, 2.0),
        Claim("§3.3", "per-node commit bandwidth ~12.44 GB/s", 12.44,
              lambda: checkpoint_requirements().node_bandwidth / 1e9, 1.5),
        Claim("§3.4", "18.67 min to write 112 GB to I/O", 18.67,
              lambda: p.io_commit_time() / 60, 0.05),
        Claim("§5.3", "gzip(1): 112 GB compresses to ~30.5 GB, 305 s to I/O", 305.0,
              lambda: sizing["gzip(1)"].checkpoint_interval, 5.0),
        Claim("Table 3", "gzip(1) needs 4 NDP cores", 4.0,
              lambda: float(sizing["gzip(1)"].cores), 0.0),
        Claim("Table 3", "xz(6) needs 125 NDP cores", 125.0,
              lambda: float(sizing["xz(6)"].cores), 0.0),
        Claim("Fig. 1/§2", "90% progress needs M/delta ~ 200", 200.0,
              lambda: 1.0 / (daly.required_delta_for_efficiency(0.9, 1.0)), 20.0),
        Claim("§6.2 design point", "single-level local hits ~90%", 0.90,
              lambda: single_level(p, level="local").efficiency, 0.02),
        Claim("§6.3", "avg host multilevel + compression ~51%", 0.51,
              lambda: headline("host"), 0.05),
        Claim("§6.3", "avg NDP multilevel + compression ~78%", 0.78,
              lambda: headline("ndp"), 0.04),
        Claim("§6.4", "NDP Rerun-I/O ~1.2% at 4% I/O recovery", 0.012,
              lambda: multilevel_ndp(p96).breakdown.rerun_io, 0.006),
        Claim("§6.4", "NDP+comp Rerun-I/O ~0.6%", 0.006,
              lambda: multilevel_ndp(p96, NDP_GZIP1).breakdown.rerun_io, 0.004),
        Claim("§6.4", "NDP+comp approaches 90% progress", 0.90,
              lambda: multilevel_ndp(p96, NDP_GZIP1).efficiency, 0.02),
        Claim("Fig. 8 @112GB", "L-15+NC ~87%", 0.87,
              lambda: multilevel_ndp(p, NDP_GZIP1).efficiency, 0.03),
        Claim("Fig. 8 @112GB", "L-15+HC ~65%", 0.65,
              lambda: optimal_host(p, HOST_GZIP1).efficiency, 0.07),
        Claim("§6.2", "NDP drains every 8th ckpt uncompressed", 8.0,
              lambda: float(ndp_io_interval(p)[0]), 0.0),
        Claim("§6.2", "NDP+gzip(1) drains every 3rd ckpt", 3.0,
              lambda: float(ndp_io_interval(p, NDP_GZIP1)[0]), 0.0),
        Claim("Fig. 6", "I/O-Only + compression beats I/O-Only by >2x", 2.0,
              lambda: min(io_only(p, HOST_GZIP1).efficiency
                          / max(io_only(p).efficiency, 1e-9), 2.0), 0.0),
    ]


def run(jobs: int | None = 1) -> ExperimentResult:
    """Evaluate every claim and grade it.

    ``jobs`` evaluates claims concurrently (thread backend: the measures
    close over parameter bundles and are numpy-bound); the report order
    and every number are identical at any worker count.
    """
    table = TextTable(["source", "claim", "paper", "measured", "grade"])
    rows = []
    passed = 0
    claims = _claims()
    verdicts = parallel_map(
        lambda c: c.evaluate(), claims, jobs=jobs, backend="thread"
    )
    for claim, (value, ok) in zip(claims, verdicts):
        passed += ok
        table.add_row(
            [
                claim.source,
                claim.statement,
                f"{claim.expected:g}",
                f"{value:.3f}",
                "PASS" if ok else "FAIL",
            ]
        )
        rows.append(
            {
                "source": claim.source,
                "statement": claim.statement,
                "expected": claim.expected,
                "measured": value,
                "pass": ok,
            }
        )
    note = f"\n{passed}/{len(claims)} claims reproduced within tolerance."
    return ExperimentResult(
        experiment="scorecard",
        title="Reproduction scorecard: paper claims vs this implementation",
        rows=rows,
        text=table.render() + note,
        headline={"passed": float(passed), "total": float(len(claims))},
    )
