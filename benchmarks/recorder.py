"""The shared record / ``--check`` plumbing of every ``record_*.py`` script.

A recording script measures, verifies its results (its bit- and
byte-identity checks raise ``SystemExit`` themselves) and hands
:func:`run` the record and a table of :class:`Gate` rows.  This module
owns the rest:

* the command line: ``-o`` names the recording; ``--check`` re-measures
  and gates against it instead of overwriting it;
* the hard limits, checked on every run;
* under ``--check``, each gate's limit relative to its recorded value;
* one report line per gate (``label: got vs limit ok|FAIL``) and the
  exit code;
* the host stamp (``fingerprint`` of ``benchmarks/e2e/common.py``) and
  the write, which happens only when every gate passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

from common import fingerprint  # noqa: E402


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def timed(fn, *args):
    """``(fn(*args), seconds it took)``."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


@dataclass(frozen=True)
class Gate:
    """One gated number of a record.

    ``key`` is a dotted path into the record (``"drain.bound_fraction"``).
    ``limit`` is checked on every run; ``factor`` only under ``--check``,
    where the limit is ``factor`` times the recorded value.  Higher is
    better (``>=``) unless ``lower`` is set (``<=``).
    """

    label: str
    key: str
    limit: float | None = None
    factor: float | None = None
    lower: bool = False

    def value(self, record: dict) -> float:
        for part in self.key.split("."):
            record = record[part]
        return record

    def judge(self, got: float, limit: float, note: str = "") -> bool:
        ok = got <= limit if self.lower else got >= limit
        op = "<=" if self.lower else ">="
        log(f"  {self.label}: {got:.4g} vs {op} {limit:.4g}{note} "
            f"{'ok' if ok else 'FAIL'}")
        return ok


def parser(doc: str, output: str, *, check: bool = True) -> argparse.ArgumentParser:
    """The recording CLI: ``-o`` (default ``output``) and, unless the
    script gates nothing against its recording, ``--check``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    if check:
        ap.add_argument("--check", action="store_true",
                        help="re-measure and gate against the recording "
                             "instead of overwriting it")
    ap.add_argument("-o", "--output", type=Path, default=Path(output),
                    help=f"recording path (default {output})")
    return ap


def run(args: argparse.Namespace, measure: Callable[[], dict],
        gates: Sequence[Gate] = ()) -> int:
    """Measure, judge every gate, and write the record if all passed.

    Returns the exit code: 1 when a gate failed or ``--check`` has no
    recording to compare against (checked before measuring), else 0.
    """
    check = getattr(args, "check", False)
    if check and not args.output.exists():
        log(f"FAIL: --check needs a recording at {args.output}")
        return 1
    recorded = json.loads(args.output.read_text()) if check else None

    record = measure()
    ok = True
    for gate in gates:
        got = gate.value(record)
        if gate.limit is not None:
            ok = gate.judge(got, gate.limit) and ok
        if recorded is not None and gate.factor is not None:
            ref = gate.value(recorded)
            ok = gate.judge(got, gate.factor * ref,
                            f" ({gate.factor:g} x recorded {ref:.4g})") and ok
    if not ok:
        log("FAIL: a gate above did not hold")
        return 1
    if check:
        log(f"check passed against {args.output}")
        return 0
    record["fingerprint"] = fingerprint()
    args.output.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {args.output}")
    return 0
