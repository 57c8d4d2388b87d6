"""Instrumentation: record variable updates and events from a running
program into an NDJSON trace file.

Typical use::

    clock = InMemoryClock()
    tracer = get_tracer("/tmp/rm-0.ndjson", clock)
    rm_state = tracer.get_variable_tracer("rmState")

    rm_state.get_field("rm-0").update("prepared")     # buffers an update
    tracer.get_variable_tracer("msgs").add(msg)       # buffers another
    tracer.log("RMPrepare", ["rm-0"])                 # writes one line

``notify_change`` and the VirtualField shortcuts only buffer; ``log``
drains the buffer into a single line stamped with a fresh clock value.
Lines are written atomically (one write call, then flush), so per-file
readers never see torn entries.  If the write fails the buffered
updates survive for a retry.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Sequence

from .errors import MissingClock
from .traces import RESERVED_KEYS, TraceEntry, serialize_entry
from .values import UpdateOp, mk, render_event_arg

TRACE_PATH_ENV = "TRACE_PATH"


class Clock:
    """Source of trace timestamps.  next() must be strictly increasing
    across every tracer sharing the same clock."""

    def next(self) -> int:
        raise NotImplementedError


class InMemoryClock(Clock):
    """Process-local counter; safe to share between threads."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value


class FileBasedClock(Clock):
    """Counter persisted in a file, shared by processes on one machine.

    The file holds a decimal integer terminated by a newline and is
    read-incremented-written under an exclusive advisory lock.
    Attaching creates the file if need be and writes ``0`` only into an
    empty file, under the same lock, so a process that attaches while
    another creates or ticks the clock neither fails nor resets it.
    """

    def __init__(self, path: str):
        import fcntl

        self.path = path
        with open(path, "a") as f:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            if os.fstat(f.fileno()).st_size == 0:
                f.write("0\n")

    def next(self) -> int:
        import fcntl

        with open(self.path, "r+") as f:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            raw = f.read().strip()
            value = int(raw) if raw else 0
            value += 1
            f.seek(0)
            f.truncate()
            f.write(f"{value}\n")
            f.flush()
            os.fsync(f.fileno())
        return value


class ExplicitClock(Clock):
    """The caller supplies every timestamp (e.g. a logical clock it
    already maintains).  ``Tracer.log`` must be given ``clock_value``."""

    def next(self) -> int:  # pragma: no cover - never consulted
        raise MissingClock("explicit clock has no generator; "
                           "pass clock_value to log()")


class Tracer:
    """Buffers variable updates and writes one trace entry per log call."""

    def __init__(self, trace_path: str | None = None,
                 clock: Clock | None = None):
        if trace_path is None:
            trace_path = os.environ.get(TRACE_PATH_ENV)
        if trace_path is None:
            raise ValueError(
                f"no trace path given and {TRACE_PATH_ENV} is not set")
        self.trace_path = trace_path
        self.clock = clock if clock is not None else InMemoryClock()
        self._pending: list[tuple[str, UpdateOp]] = []
        self._lock = threading.Lock()
        # Create (or truncate) the sink up front so a bad path fails
        # here, not at the first log call.
        self._file = open(trace_path, "w", encoding="utf-8")

    def notify_change(self, variable: str, op: str,
                      path: Sequence[str] = (),
                      args: Sequence[Any] = ()) -> None:
        """Buffer one update; nothing is written until log()."""
        if variable in RESERVED_KEYS:
            raise ValueError(f"variable name {variable!r} is reserved")
        update = UpdateOp(op, tuple(path), tuple(mk(a) for a in args))
        with self._lock:
            self._pending.append((variable, update))

    def get_variable_tracer(self, variable: str) -> "VirtualField":
        return VirtualField(self, variable, ())

    def log(self, event: str | None = None,
            event_args: Sequence[Any] | None = None,
            clock_value: int | None = None) -> int:
        """Drain the buffer into one NDJSON line and return its clock.

        Variables appear in first-notification order, each variable's
        updates in notification order.  An entry is written even when
        nothing is buffered and no event is given.  Event args need an
        event: without one they would name no step's parameters.
        """
        if event is None and event_args is not None:
            raise ValueError("event_args needs an event")
        explicit = isinstance(self.clock, ExplicitClock)
        if explicit and clock_value is None:
            raise MissingClock("tracer uses an explicit clock; "
                               "log() needs clock_value")
        if not explicit and clock_value is not None:
            raise ValueError("clock_value is only valid with ExplicitClock")
        with self._lock:
            stamp = clock_value if explicit else self.clock.next()
            updates: dict[str, list[UpdateOp]] = {}
            for variable, update in self._pending:
                updates.setdefault(variable, []).append(update)
            rendered_args = None
            if event_args is not None:
                rendered_args = tuple(render_event_arg(mk(a))
                                      for a in event_args)
            entry = TraceEntry(
                clock=stamp,
                updates={k: tuple(v) for k, v in updates.items()},
                event=event,
                event_args=rendered_args,
            )
            self._file.write(serialize_entry(entry, list(updates)) + "\n")
            self._file.flush()
            # Reached only on a successful write: a failed write keeps
            # the buffer so the caller may retry.
            self._pending.clear()
        return stamp

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def get_tracer(trace_path: str | None = None,
               clock: Clock | None = None) -> Tracer:
    """Tracer factory.  Without a path, $TRACE_PATH names the sink;
    without a clock, a fresh in-memory clock is used."""
    return Tracer(trace_path, clock)


class VirtualField:
    """A variable, or a record field inside one, as a handle.

    ``get_field`` descends one record key; the shortcuts buffer updates
    through the owning tracer.
    """

    def __init__(self, tracer: Tracer, variable: str,
                 prefix: tuple[str, ...] = ()):
        self._tracer = tracer
        self._variable = variable
        self._prefix = prefix

    def get_field(self, name: str) -> "VirtualField":
        return VirtualField(self._tracer, self._variable,
                            self._prefix + (name,))

    def apply(self, op: str, *args: Any) -> None:
        self._tracer.notify_change(self._variable, op, self._prefix, args)

    def update(self, value: Any) -> None:
        self.apply("Update", value)

    def init(self, value: Any) -> None:
        self.apply("Init", value)

    def add(self, element: Any) -> None:
        self.apply("Add", element)

    def remove(self, element: Any) -> None:
        self.apply("Remove", element)

    def add_to_bag(self, element: Any) -> None:
        self.apply("AddToBag", element)

    def remove_from_bag(self, element: Any) -> None:
        self.apply("RemoveFromBag", element)

    def clear(self) -> None:
        self.apply("Clear")

    def append(self, element: Any) -> None:
        self.apply("Append", element)
