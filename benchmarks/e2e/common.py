"""Helpers shared by the end-to-end benchmark's harness and its children.

Nothing here imports ``repro``: the harness must be able to tell, before
touching the program, that it sits in a checkout that has one.
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import os
import platform
import random
import statistics
import subprocess
from pathlib import Path

#: Repository root (``benchmarks/e2e/common.py`` -> ``.``).
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space (server caches, checkpoint stores); removed after each run.
WORK = ROOT / ".bench_e2e"

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 needs n >= 1000, p95 n >= 200).
MIN_BEYOND = 10


def rng(seed: int, purpose: str) -> random.Random:
    """A generator derived from the run seed and a purpose label, so each
    input stream is reproducible and independent of the others."""
    return random.Random(f"{seed}:{purpose}")


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q`` percentile (0 < q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n: int, q: float) -> int:
    """Samples that lie above the nearest-rank ``q`` percentile of ``n``."""
    return n - max(1, math.ceil(q * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q`` percentile (see MIN_BEYOND)."""
    return beyond(n, q) >= MIN_BEYOND


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def median(values: list[float]) -> float:
    return statistics.median(values)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was counted (a bypassed layer)."""
    return num / den if den else 0.0


# -- the metric dictionary -------------------------------------------------------


def load_spec() -> dict:
    """BENCHMARK.json: workload names and the metric dictionary."""
    return json.loads(SPEC.read_text())


def metric_units(spec: dict, kind: str) -> dict[str, str]:
    """``{name: unit}`` for ``kind`` in ("end_to_end", "per_layer")."""
    return {m["name"]: m["unit"] for m in spec[kind]}


# -- processes -------------------------------------------------------------------


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child that must import the checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGTERM a child, escalate to SIGKILL, and always reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()


# -- host fingerprint ------------------------------------------------------------


def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Where a result was measured; absolute numbers only compare within one."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "date": _dt.datetime.now(_dt.timezone.utc).isoformat(timespec="seconds"),
        "multi_core_scaling": "not measured here",
    }


def same_host(a: dict, b: dict) -> bool:
    """Whether two fingerprints describe the same machine and software."""
    keys = ("nproc", "cpu", "platform", "python", "numpy")
    return all(a.get(k) == b.get(k) for k in keys)
