"""What each checkpoint strategy does: the one table every layer reads.

The model, both simulation engines and the C/R runtime resolve a
strategy name here once and read its fields; no other module matches a
name.  ``docs/MODELING.md`` lists the table with the paper's Fig. 6
labels.  This module imports nothing else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Strategy", "TABLE", "STRATEGIES", "resolve"]


@dataclass(frozen=True)
class Strategy:
    """``local``: checkpoints land in node-local NVM (false only for
    io-only, which writes each one to global I/O instead).  ``io_writer``:
    ``"host"`` blocks the application for each I/O write (every
    ``ratio``-th local checkpoint, or every checkpoint without a local
    level), ``"ndp"`` drains local checkpoints in the background, and
    ``None`` means there is no I/O level."""

    name: str
    local: bool
    io_writer: Optional[str]

    @property
    def drains(self) -> bool:
        return self.io_writer == "ndp"

    @property
    def host_push(self) -> bool:
        return self.local and self.io_writer == "host"

    @property
    def has_io(self) -> bool:
        return self.io_writer is not None


TABLE: dict[str, Strategy] = {
    s.name: s
    for s in (
        Strategy("host", local=True, io_writer="host"),
        Strategy("ndp", local=True, io_writer="ndp"),
        Strategy("io-only", local=False, io_writer="host"),
        Strategy("local-only", local=True, io_writer=None),
    )
}

STRATEGIES = tuple(TABLE)


def resolve(name: str) -> Strategy:
    """The entry called ``name``; a :class:`ValueError` listing the names
    if there is none."""
    try:
        return TABLE[name]
    except (KeyError, TypeError):
        raise ValueError(f"strategy must be one of {STRATEGIES}: {name!r}") from None
