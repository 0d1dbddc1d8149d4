"""Checkpoint-data generation for the compression study (Section 5.1.1).

The paper checkpoints each mini-app as 16 MPI ranks, producing one BLCR
context file per rank; the study compresses those files.  The proxy
equivalent: run ``ranks`` independently-seeded instances of a mini-app
proxy and serialize each one's state — :func:`checkpoint_chunks` returns
that list of per-rank blobs, and :func:`study_datasets` assembles the full
seven-app dataset the Table-2 harness consumes.
"""

from __future__ import annotations

from .base import MiniApp
from .calibration import CALIBRATED_PRECISION
from .miniapps import APP_REGISTRY, make_app

__all__ = ["checkpoint_chunks", "study_datasets", "rank_apps"]


def rank_apps(
    name: str,
    ranks: int = 16,
    seed: int = 0,
    warmup_steps: int = 5,
    calibrated: bool = True,
) -> list[MiniApp]:
    """``ranks`` independently-seeded, warmed-up instances of a mini-app.

    Each instance models one MPI rank of the paper's 16-process runs;
    seeds derive from ``seed`` and the rank index.  ``calibrated`` applies
    the precision knob matching the paper's gzip(1) factor.
    """
    if ranks < 1:
        raise ValueError("ranks must be >= 1")
    apps: list[MiniApp] = []
    for r in range(ranks):
        rank_seed = seed * 1000 + r
        if calibrated:
            app = make_app(
                name, seed=rank_seed, precision_bits=CALIBRATED_PRECISION.get(name, 52.0)
            )
        else:
            app = make_app(name, seed=rank_seed)
        app.run(warmup_steps)
        apps.append(app)
    return apps


def checkpoint_chunks(
    name: str,
    ranks: int = 16,
    seed: int = 0,
    warmup_steps: int = 5,
    calibrated: bool = True,
) -> list[bytes]:
    """Per-rank checkpoint blobs for one mini-app (one study dataset)."""
    return [
        app.checkpoint_bytes()
        for app in rank_apps(name, ranks, seed, warmup_steps, calibrated)
    ]


def study_datasets(
    apps: list[str] | None = None,
    ranks: int = 4,
    seed: int = 0,
    warmup_steps: int = 5,
    calibrated: bool = True,
) -> dict[str, list[bytes]]:
    """Datasets for :func:`repro.compression.study.run_study`.

    Defaults to 4 ranks per app (a few MB each) so the full 7x7 study —
    including the slow xz(6) and pure-Python lz4 columns — completes in
    minutes; pass ``ranks=16`` for paper-shaped data.
    """
    names = list(APP_REGISTRY) if apps is None else apps
    return {
        name: checkpoint_chunks(name, ranks, seed, warmup_steps, calibrated)
        for name in names
    }
