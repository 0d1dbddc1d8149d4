#!/usr/bin/env python
"""Validate a JSON-lines trace file against the repro span schema.

Every line must be a JSON object carrying the five core span fields
(``lane``, ``start``, ``end``, ``kind``, ``label``) with well-typed
values and ``end >= start``; the optional runtime fields (``attrs``,
``span``, ``parent``, ``pid``, ``thread``, and the request-tree fields
``trace_id``/``ctx``/``ctx_parent``/``links``) are type-checked too, and
unknown fields are rejected.  Both live-runtime traces (``repro trace``,
``REPRO_TRACE=...``) and exported simulator timelines conform.

On top of the per-record schema, the file's *request trees* are checked
as a whole: every span carrying request-tree fields must name a
``trace_id`` and a ``ctx`` id, every ``ctx_parent`` must resolve to a
span of the same trace (across process boundaries — resolution is by id,
not emission order), and every ``links`` entry must resolve to a span
somewhere in the file.  Orphans are reported with their file and line.

Usage::

    PYTHONPATH=src python tools/check_trace.py TRACE.jsonl \\
        [--min-records N] [--min-traces N]

Exit status 0 when the file validates (and holds at least
``--min-records`` records / ``--min-traces`` request trees with no
orphan spans), 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.trace import (  # noqa: E402
    TraceSchemaError,
    iter_numbered,
    validate_request_trees,
)


def load_records(path: str) -> tuple[list[dict], list[int]]:
    """Parse + schema-validate every line; returns (records, line numbers).

    Raises :class:`TraceSchemaError` with a 1-based line number on the
    first malformed line.
    """
    numbered = list(iter_numbered(path))
    return [rec for _, rec in numbered], [lineno for lineno, _ in numbered]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", help="JSON-lines trace file")
    parser.add_argument(
        "--min-records",
        type=int,
        default=0,
        metavar="N",
        help="fail unless the file holds at least N valid records",
    )
    parser.add_argument(
        "--min-traces",
        type=int,
        default=0,
        metavar="N",
        help="fail unless the file holds at least N distinct request trees",
    )
    args = parser.parse_args(argv)
    try:
        records, lines = load_records(args.path)
    except OSError as exc:
        print(f"check_trace: cannot read {args.path}: {exc}", file=sys.stderr)
        return 1
    except TraceSchemaError as exc:
        print(f"check_trace: {args.path}: {exc}", file=sys.stderr)
        return 1
    if len(records) < args.min_records:
        print(
            f"check_trace: {args.path}: only {len(records)} records "
            f"(need >= {args.min_records})",
            file=sys.stderr,
        )
        return 1
    report = validate_request_trees(records)
    for idx, reason in report["orphans"]:
        print(f"check_trace: {args.path}:{lines[idx]}: orphan span: {reason}", file=sys.stderr)
    if report["orphans"]:
        print(
            f"check_trace: {args.path}: {len(report['orphans'])} orphan span(s) "
            f"across {report['traces']} request tree(s)",
            file=sys.stderr,
        )
        return 1
    if report["traces"] < args.min_traces:
        print(
            f"check_trace: {args.path}: only {report['traces']} request trees "
            f"(need >= {args.min_traces})",
            file=sys.stderr,
        )
        return 1
    print(
        f"check_trace: {args.path}: {len(records)} records OK "
        f"({report['traces']} request trees, {report['spans']} tree spans, "
        f"{report['roots']} roots)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
