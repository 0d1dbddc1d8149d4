"""A processor-sharing bandwidth resource for the cluster simulation.

Models the aggregate global-I/O pipe: concurrent transfers share the
capacity equally (processor sharing — the standard model for a parallel
file system serving symmetric streams).  When the set of active transfers
changes, every in-flight transfer's remaining bytes are settled at the old
rate and the completion schedule is recomputed.

Built on the DES engine's primitives: a manager process waits for either
the earliest completion or a membership-change signal.
"""

from __future__ import annotations

from typing import Generator, Optional

from .engine import Environment, Event

__all__ = ["SharedBandwidth", "Transfer"]


class Transfer:
    """One in-flight transfer; ``done`` fires on completion.

    ``remaining`` is settled lazily by the resource manager; it is exact
    whenever the manager has just run (completion, membership change).
    """

    __slots__ = ("nbytes", "remaining", "done", "aborted")

    def __init__(self, env: Environment, nbytes: float):
        self.nbytes = nbytes
        self.remaining = nbytes
        self.done: Event = env.event()
        self.aborted = False


class SharedBandwidth:
    """Fair-shared bandwidth of ``capacity`` bytes/second.

    Usage from a process::

        xfer = pipe.start(nbytes)
        yield xfer.done

    ``abort`` cancels an in-flight transfer (its ``done`` event fails with
    an ``InterruptedError``); use for drains abandoned on NVM loss.
    """

    def __init__(self, env: Environment, capacity: float):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._active: list[Transfer] = []
        self._wake: Optional[Event] = None
        self._settled_at = 0.0
        self.bytes_moved = 0.0
        env.process(self._manager(), name="shared-bandwidth")

    def start(self, nbytes: float) -> Transfer:
        """Begin a transfer of ``nbytes``; returns its handle."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        xfer = Transfer(self.env, nbytes)
        if nbytes == 0:
            xfer.remaining = 0.0
            xfer.done.succeed()
            return xfer
        self._settle()
        self._active.append(xfer)
        self._kick()
        return xfer

    def abort(self, xfer: Transfer) -> None:
        """Cancel an in-flight transfer; its ``done`` event fails."""
        if xfer.done.triggered:
            return
        self._settle()
        xfer.aborted = True
        if xfer in self._active:
            self._active.remove(xfer)
        xfer.done.fail(InterruptedError("transfer aborted"))
        self._kick()

    # -- internals --------------------------------------------------------------

    def _settle(self) -> None:
        """Charge progress since the last settle time at the old rate."""
        now = self.env.now
        elapsed = now - self._settled_at
        self._settled_at = now
        if elapsed <= 0 or not self._active:
            return
        rate = self.capacity / len(self._active)
        for xfer in self._active:
            step = min(elapsed * rate, xfer.remaining)
            xfer.remaining -= step
            self.bytes_moved += step

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    @staticmethod
    def _is_done(xfer: Transfer) -> bool:
        # Settling accumulates float rounding of order eps * nbytes; treat
        # that dust as completion, or a sub-ULP horizon livelocks the clock.
        return xfer.remaining <= max(1e-6, 1e-12 * xfer.nbytes)

    def _manager(self) -> Generator[Event, None, None]:
        env = self.env
        while True:
            self._settle()
            # Complete anything that finished (exactly or within dust).
            for xfer in [x for x in self._active if self._is_done(x)]:
                self._active.remove(xfer)
                xfer.remaining = 0.0
                xfer.done.succeed()
            if not self._active:
                self._wake = env.event()
                yield self._wake
                continue
            rate = self.capacity / len(self._active)
            horizon = min(x.remaining for x in self._active) / rate
            # Never schedule below the clock's resolution at the current
            # magnitude — that would re-fire at the same timestamp forever.
            min_tick = max(abs(env.now), 1.0) * 1e-12
            horizon = max(horizon, min_tick)
            self._wake = env.event()
            yield env.any_of([env.timeout(horizon), self._wake])
