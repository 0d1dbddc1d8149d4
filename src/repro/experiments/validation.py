"""Model-vs-simulation cross-validation (fidelity evidence).

Runs the discrete-event simulator and the analytic model (staleness rerun
accounting — the one matching the simulator's semantics) over a matrix of
configurations and reports efficiencies side by side.  Agreement within a
few points of Monte-Carlo noise is the evidence that the analytic model —
the artifact behind every figure — faithfully captures the operational
rules of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.configs import NDP_GZIP1, NO_COMPRESSION, CompressionSpec, CRParameters, paper_parameters
from ..core.model import predict
from ..simulation import SimConfig, default_work, run_simulations
from ..simulation.pool import ResultCache
from .common import ExperimentResult, TextTable

__all__ = ["run", "ValidationCase"]


@dataclass(frozen=True)
class ValidationCase:
    """One model-vs-sim comparison point.

    ``regime`` distinguishes the paper's operating points (``"paper"`` —
    high probability of local recovery, where the expected-value model is
    accurate) from recovery-dominated stress points (``"extreme"`` —
    there the model is *conservative*: failures land during long reruns
    and the simulator's host re-checkpoints along the way, so consecutive
    failures roll back less than the model charges).
    """

    label: str
    strategy: str
    ratio: int
    compression: CompressionSpec
    p_local: float
    regime: str = "paper"


DEFAULT_CASES = (
    ValidationCase("NDP, no comp, p=85%", "ndp", 1, NO_COMPRESSION, 0.85),
    ValidationCase("NDP + gzip(1), p=85%", "ndp", 1, NDP_GZIP1, 0.85),
    ValidationCase("NDP + gzip(1), p=96%", "ndp", 1, NDP_GZIP1, 0.96),
    ValidationCase("Host r=15 + gzip(1), p=85%", "host", 15, NDP_GZIP1, 0.85),
    ValidationCase("Host r=40, no comp, p=85%", "host", 40, NO_COMPRESSION, 0.85, "extreme"),
    ValidationCase("NDP, no comp, p=50%", "ndp", 1, NO_COMPRESSION, 0.50, "extreme"),
)


def run(
    cases: tuple[ValidationCase, ...] = DEFAULT_CASES,
    mttis: float = 150.0,
    seed: int = 7,
    params: CRParameters | None = None,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    engine: str = "fast",
) -> ExperimentResult:
    """Compare simulated and modeled efficiency for each case.

    ``mttis`` controls simulation length (failure count ~ noise floor).
    ``jobs`` fans the per-case simulations out over the batch pool
    (``None`` = one worker per core) and ``cache`` consults/fills the
    on-disk result cache — neither changes any reported number.

    ``engine`` selects the simulation engine: the vectorized
    :mod:`~repro.simulation.fastpath` batch engine by default, or
    ``"des"`` for the event-level oracle.
    """
    base = paper_parameters() if params is None else params
    table = TextTable(["case", "regime", "model eff", "sim eff", "abs diff", "failures"])
    rows = []
    worst = 0.0
    case_params = [base.with_(p_local_recovery=case.p_local) for case in cases]
    sims = run_simulations(
        [
            SimConfig(
                params=p,
                strategy=case.strategy,
                ratio=case.ratio,
                compression=case.compression,
                work=default_work(p, mttis),
                seed=seed,
                engine=engine,
            )
            for case, p in zip(cases, case_params)
        ],
        jobs=jobs,
        cache=cache,
    )
    for case, p, sim in zip(cases, case_params, sims):
        model = predict(
            case.strategy, p, case.compression, ratio=case.ratio, rerun_accounting="staleness"
        )
        diff = abs(model.efficiency - sim.efficiency)
        if case.regime == "paper":
            worst = max(worst, diff)
        table.add_row(
            [
                case.label,
                case.regime,
                f"{model.efficiency:7.3f}",
                f"{sim.efficiency:7.3f}",
                f"{diff:7.3f}",
                sim.failures,
            ]
        )
        rows.append(
            {
                "case": case.label,
                "regime": case.regime,
                "model": model.efficiency,
                "sim": sim.efficiency,
                "diff": diff,
                "failures": sim.failures,
            }
        )
    note = (
        f"\nworst |model - sim| in the paper regime = {worst:.3f}"
        "\nExtreme (recovery-dominated) cases show the model's conservatism:"
        "\nthe simulated host keeps checkpointing during long reruns, so"
        "\nconsecutive failures roll back less than the expected-value model"
        "\ncharges — the model under-, never over-states efficiency there."
    )
    return ExperimentResult(
        experiment="validation",
        title="Model vs discrete-event simulation (staleness accounting)",
        rows=rows,
        text=table.render() + note,
        headline={"worst_paper_regime_diff": worst},
    )
