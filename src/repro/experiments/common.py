"""Shared infrastructure for the per-table / per-figure experiment modules.

Every experiment module exposes ``run(...) -> ExperimentResult``; the
result carries structured rows plus a plain-text rendering so the same
code path feeds the benchmark harness, the CLI, and EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..core.configs import (
    HOST_GZIP1,
    NDP_GZIP1,
    NO_COMPRESSION,
    CompressionSpec,
    CRParameters,
)
from ..core.model import ModelResult, multilevel_ndp
from ..core.optimizer import optimal_host
from ..core.strategy import resolve
from ..simulation import SimConfig

__all__ = [
    "TextTable",
    "ExperimentResult",
    "SENSITIVITY_CONFIGS",
    "sensitivity_result",
    "sensitivity_sim_config",
    "FIG6_APPS",
    "fig6_compression",
]


class TextTable:
    """Minimal fixed-width text-table formatter.

    >>> t = TextTable(["a", "b"])
    >>> t.add_row([1, 2.5])
    >>> print(t.render())  # doctest: +NORMALIZE_WHITESPACE
    a | b
    --+----
    1 | 2.5
    """

    def __init__(self, headers: Sequence[str]):
        self.headers = [str(h) for h in headers]
        self.rows: list[list[str]] = []

    def add_row(self, cells: Sequence[object]) -> None:
        """Append one row; cells are str()-ed (format floats yourself)."""
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, got {len(row)}")
        self.rows.append(row)

    def render(self) -> str:
        """The formatted table."""
        widths = [
            max(len(self.headers[i]), *(len(r[i]) for r in self.rows)) if self.rows else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        def fmt(cells: Sequence[str]) -> str:
            return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        sep = "-+-".join("-" * w for w in widths)
        return "\n".join([fmt(self.headers), sep] + [fmt(r) for r in self.rows])


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment:
        Identifier matching DESIGN.md's index, e.g. ``"figure6"``.
    title:
        Human-readable description.
    rows:
        Structured data, one dict per row/series point.
    text:
        Rendered text table(s), printable as-is.
    headline:
        Key scalar takeaways, e.g. ``{"avg_host_compression": 0.52}``.
    """

    experiment: str
    title: str
    rows: list[dict] = field(default_factory=list)
    text: str = ""
    headline: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.title} ==\n{self.text}"


#: The five configurations of the Figure 8/9 sensitivity studies:
#: label -> (local bandwidth GB/s, mode, compression).  Compression factor
#: is the 73% seven-app average; host compresses at 640 MB/s on 64 cores,
#: NDP at 440.4 MB/s on 4 cores.
SENSITIVITY_CONFIGS: dict[str, tuple[float, str, CompressionSpec]] = {
    "L-15GBps + I/O-HC": (15e9, "host", HOST_GZIP1),
    "L-15GBps + I/O-N": (15e9, "ndp", NO_COMPRESSION),
    "L-15GBps + I/O-NC": (15e9, "ndp", NDP_GZIP1),
    "L-2GBps + I/O-N": (2e9, "ndp", NO_COMPRESSION),
    "L-2GBps + I/O-NC": (2e9, "ndp", NDP_GZIP1),
}


def sensitivity_result(
    label: str, params: CRParameters, rerun_accounting: str = "paper"
) -> ModelResult:
    """Evaluate one of the :data:`SENSITIVITY_CONFIGS` at given parameters.

    The local checkpoint interval is re-optimized (Daly) per
    configuration, since a 2 GB/s NVM implies a very different
    ``delta_L`` than 15 GB/s.
    """
    bw, mode, compression = SENSITIVITY_CONFIGS[label]
    p = params.with_(local_bandwidth=bw, local_interval=None)
    if resolve(mode).host_push:
        return optimal_host(p, compression, rerun_accounting)
    return multilevel_ndp(p, compression, rerun_accounting)


def sensitivity_sim_config(
    label: str, params: CRParameters, work: float
) -> SimConfig:
    """The simulator config mirroring :func:`sensitivity_result`.

    Same parameter substitution (local bandwidth from the label, Daly
    interval); host modes carry the analytically optimal I/O ratio so
    the simulation validates the same operating point the model reports.
    """
    bw, mode, compression = SENSITIVITY_CONFIGS[label]
    p = params.with_(local_bandwidth=bw, local_interval=None)
    ratio = optimal_host(p, compression).ratio if resolve(mode).host_push else 1
    return SimConfig(params=p, strategy=mode, ratio=ratio, compression=compression, work=work)


#: The three mini-apps Figure 6 shows individually (plus the average).
FIG6_APPS = ("CoMD", "miniFE", "miniSMAC2D")


def fig6_compression(factor: float, engine: str) -> CompressionSpec:
    """A compression spec with a mini-app-specific factor.

    ``engine`` is the strategy whose I/O writer compresses: one that
    drains gets the NDP's 4 gzip(1) cores, else the host's 64 cores x
    10 MB/s.
    """
    base = NDP_GZIP1 if resolve(engine).drains else HOST_GZIP1
    return base.with_factor(factor)
