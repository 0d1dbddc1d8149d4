"""Cross-method comparison: expected-value model vs renewal chain vs DES.

Three independent treatments of the same operational semantics:

1. the paper-style expected-value model with a linear fixed point
   (:mod:`repro.core.model`, staleness accounting),
2. the absorbing-Markov renewal model (:mod:`repro.core.renewal`), and
3. the discrete-event simulator.

The expected-value model is conservative (it charges every failure the
full expected rerun); the renewal chain is optimistic (its I/O rollback
target is the current super-period start, ignoring drain/commit lag); the
simulator — which implements the drain pipeline literally — lands between
them.  The bracket width quantifies the modeling uncertainty behind every
figure.
"""

from __future__ import annotations

from ..core.configs import NDP_GZIP1, NO_COMPRESSION, CompressionSpec, paper_parameters
from ..core.model import predict
from ..core.strategy import resolve
from ..core.renewal import renewal_multilevel_host, renewal_multilevel_ndp
from ..simulation import SimConfig, default_work, simulate
from .common import ExperimentResult, TextTable

__all__ = ["run"]

_CASES: tuple[tuple[str, str, int, CompressionSpec, float], ...] = (
    ("NDP, no comp, p=85%", "ndp", 1, NO_COMPRESSION, 0.85),
    ("NDP + gzip(1), p=85%", "ndp", 1, NDP_GZIP1, 0.85),
    ("Host r=15 + gzip(1), p=85%", "host", 15, NDP_GZIP1, 0.85),
    ("NDP, no comp, p=50%", "ndp", 1, NO_COMPRESSION, 0.50),
)


def run(mttis: float = 150.0, seed: int = 23) -> ExperimentResult:
    """Evaluate each case with all three methods."""
    base = paper_parameters()
    table = TextTable(
        ["case", "expected-value", "simulation", "renewal chain", "bracket width"]
    )
    rows = []
    for label, strategy, ratio, comp, p_local in _CASES:
        p = base.with_(p_local_recovery=p_local)
        ev = predict(strategy, p, comp, ratio=ratio, rerun_accounting="staleness").efficiency
        if resolve(strategy).drains:
            rc = renewal_multilevel_ndp(p, comp).efficiency
        else:
            rc = renewal_multilevel_host(p, ratio, comp).efficiency
        sim = simulate(
            SimConfig(
                params=p,
                strategy=strategy,
                ratio=ratio,
                compression=comp,
                work=default_work(p, mttis),
                seed=seed,
            )
        ).efficiency
        width = rc - ev
        table.add_row(
            [label, f"{ev:7.3f}", f"{sim:7.3f}", f"{rc:7.3f}", f"{width:7.3f}"]
        )
        rows.append(
            {"case": label, "expected_value": ev, "sim": sim, "renewal": rc, "width": width}
        )
    note = (
        "\nThe expected-value model lower-bounds and the renewal chain"
        "\nupper-bounds the simulated efficiency; the bracket tightens as"
        "\nrecoveries get rarer (higher p_local, compression)."
    )
    return ExperimentResult(
        experiment="ablation-methods",
        title="Three-method comparison: expected-value vs simulation vs renewal chain",
        rows=rows,
        text=table.render() + note,
        headline={"max_bracket": max(r["width"] for r in rows)},
    )
