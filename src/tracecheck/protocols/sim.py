"""Deterministic discrete-event simulation harness.

Callbacks run at scheduled virtual times; ties break by insertion
order, so a run is a pure function of (config, seed).  The network
draws per-message delay (and optional loss) from a seeded RNG.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from ..errors import SimDeadlock

Handler = Callable[[str, tuple], None]

# Events one run may schedule.  The largest bundled-protocol run the
# tests and benchmark corpora make schedules under 6 000, so a run that
# reaches this bound is one that would never finish, such as a resend
# period far below the message delay.
MAX_EVENTS = 100_000


class SimScheduler:
    def __init__(self):
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0

    def at(self, delay: float, fn: Callable[[], None]) -> None:
        if not delay >= 0:     # NaN fails too
            raise ValueError("delay must be >= 0")
        if self._seq >= MAX_EVENTS:
            raise SimDeadlock(
                f"event bound {MAX_EVENTS} exceeded before completion")
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def run(self, until: float, done: Callable[[], bool]) -> None:
        """Drain events until ``done()`` or the queue empties.

        Raises SimDeadlock if the queue empties (or virtual time passes
        ``until``) with ``done()`` still false, and from ``at`` once
        MAX_EVENTS events have been scheduled.
        """
        while self._heap:
            if done():
                return
            t, _, fn = heapq.heappop(self._heap)
            if t > until:
                raise SimDeadlock(
                    f"virtual time bound {until} exceeded before completion")
            self.now = t
            fn()
        if not done():
            raise SimDeadlock("event queue drained before completion")

    def clear(self) -> None:
        self._heap.clear()


class SimNetwork:
    """Point-to-point messages with random delay and optional loss."""

    def __init__(self, sched: SimScheduler, rng: random.Random,
                 delay: tuple[float, float], loss: float = 0.0):
        lo, hi = delay
        if not 0 <= lo <= hi:  # NaN fails too
            raise ValueError("delay range must satisfy 0 <= lo <= hi")
        if not 0.0 <= loss < 1.0:
            raise ValueError("loss must be in [0, 1)")
        self.sched = sched
        self.rng = rng
        self.delay = (lo, hi)
        self.loss = loss
        self._handlers: dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        if name in self._handlers:
            raise ValueError(f"duplicate process name {name!r}")
        self._handlers[name] = handler

    def send(self, src: str, dst: str, payload: tuple) -> bool:
        """Schedule delivery; False if the message was dropped."""
        handler = self._handlers[dst]
        if self.loss > 0.0 and self.rng.random() < self.loss:
            return False
        lo, hi = self.delay
        d = lo if lo == hi else self.rng.uniform(lo, hi)
        self.sched.at(d, lambda: handler(src, payload))
        return True

    def clear(self) -> None:
        self._handlers.clear()
