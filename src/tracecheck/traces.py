"""NDJSON trace files: schema, parsing, serialization, merging.

One trace entry per line.  Reserved keys are ``clock`` (required,
integer in 0..2^63-1), ``event`` (string) and ``event_args`` (array of
strings, only beside an ``event``); every other key names a variable
and maps to a non-empty array of update objects
``{"op": str, "path": [...], "args": [...]}`` with no other keys, whose
args ``values.mk`` lifts.  Keys that merely resemble reserved ones
("Event", "Clock") are variable names.  A refused line raises a
ParseError or SchemaError that carries only its 1-based ``line``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Any, Iterator, Sequence

from .errors import ParseError, SchemaError, TracecheckError
from .values import (I64_MAX, OP_NAMES, TOO_DEEP, UpdateOp,
                     jsonable_to_value, parse_json, value_to_jsonable)

RESERVED_KEYS = ("clock", "event", "event_args")


@dataclass(slots=True)
class TraceEntry:
    """One recorded step: a clock, the variables' updates, and an
    optional event with its arguments."""

    clock: int
    updates: dict[str, tuple[UpdateOp, ...]] = field(default_factory=dict)
    event: str | None = None
    event_args: tuple[str, ...] | None = None


# Ordered entries; 1-indexed in all reporting.
Trace = list[TraceEntry]


def _check_update(item: Any, key: str) -> None:
    if not isinstance(item, dict):
        raise SchemaError(f"update for {key!r} is not an object")
    for req in ("op", "path", "args"):
        if req not in item:
            raise SchemaError(f"update for {key!r} lacks {req!r}")
    if len(item) > 3:
        extra = next(k for k in item if k not in ("op", "path", "args"))
        raise SchemaError(f"update for {key!r} has unknown key {extra!r}")
    if not isinstance(item["op"], str):
        raise SchemaError(f"update op for {key!r} must be a string")
    if item["op"] not in OP_NAMES:
        raise SchemaError(f"update op for {key!r} is not an operator: "
                          f"{item['op']!r}")
    for req in ("path", "args"):
        if not isinstance(item[req], list):
            raise SchemaError(f"update {req} for {key!r} must be an array")


def _decode_update(item: dict, key: str) -> UpdateOp:
    path = item["path"]
    for seg in path:
        if not isinstance(seg, str):
            raise SchemaError(f"path segment for {key!r} must be a string")
    try:
        args = tuple([jsonable_to_value(a) for a in item["args"]])
    except ParseError as exc:
        if str(exc) == TOO_DEEP:
            raise   # the same fault as nesting too deep for the parser
        raise SchemaError(f"bad arg for {key!r}: {exc}") from None
    # _check_update and the checks above cover what __post_init__ checks.
    return UpdateOp._of_checked(item["op"], tuple(path), args)


def _entry_from_obj(obj: Any) -> TraceEntry:
    """Check ``obj`` against the schema (module docstring) and decode
    it in one pass; a variable's updates are all checked before any is
    decoded."""
    if not isinstance(obj, dict):
        raise SchemaError("entry is not a JSON object")
    if "clock" not in obj:
        raise SchemaError("missing required key 'clock'")
    clock = obj["clock"]
    if not isinstance(clock, int) or isinstance(clock, bool) or clock < 0:
        raise SchemaError("'clock' must be an integer >= 0")
    if clock > I64_MAX:
        raise SchemaError("'clock' must be at most 2^63-1")
    event = obj.get("event")
    if "event" in obj and not isinstance(event, str):
        raise SchemaError("'event' must be a string")
    event_args = obj.get("event_args")
    if "event_args" in obj:
        if not isinstance(event_args, list) \
                or not all(isinstance(x, str) for x in event_args):
            raise SchemaError("'event_args' must be an array of strings")
        if event is None:
            # Args name an event's parameters; without the event no
            # step could be pinned by them, so they would be dropped.
            raise SchemaError("'event_args' needs an 'event'")
        event_args = tuple(event_args)
    updates: dict[str, tuple[UpdateOp, ...]] = {}
    for key, val in obj.items():
        if key in RESERVED_KEYS:
            continue
        if not isinstance(val, list) or len(val) < 1:
            raise SchemaError(
                f"variable {key!r} must map to a non-empty array")
        for item in val:
            _check_update(item, key)
        updates[key] = tuple([_decode_update(item, key) for item in val])
    return TraceEntry(clock=clock, updates=updates, event=event,
                      event_args=event_args)


def decode_line(raw: str, lineno: int) -> TraceEntry:
    """One NDJSON line as a TraceEntry.

    Raises ParseError for text ``values.parse_json`` refuses, and
    SchemaError for an entry that breaks the schema or carries an
    update it cannot decode; both carry ``lineno``.
    """
    try:
        return _entry_from_obj(parse_json(raw))
    except (ParseError, SchemaError) as exc:
        exc.line = lineno
        raise


# A line's leading clock, exactly as ``serialize_entry`` writes it:
# ASCII digits (``\d`` would take other scripts' digits), no leading
# zero, at most 19 digits, then the next key or the object's end.
_CLOCK_FIRST = re.compile(r'\{"clock":(0|[1-9][0-9]{0,18})(?=[,}])')


def read_lines(
        text: str) -> Iterator[tuple[int, TraceEntry | TracecheckError]]:
    """Each non-blank line's 1-based number with its entry, or with the
    error that refuses it.

    Lines end at "\n" only: U+2028, U+2029 and U+0085 may appear raw
    inside strings, and a trailing "\r" is JSON whitespace.  An entry
    whose clock is lower than the previous entry's is refused with a
    SchemaError on ``clock``: clocks are per-process counters and a
    merged trace is in clock order, so a file never goes backwards.

    Lines that differ only in their clock are decoded once.  A line
    that starts as ``_CLOCK_FIRST`` matches is looked up by the text
    after its clock.  Once a line with that text has decoded, a later
    one becomes a new entry with its own clock that shares the first
    one's ``updates``, ``event`` and ``event_args``.  This is sound
    because that text fixes every field but the clock, and the pattern
    admits only a clock that ``parse_json`` reads as an integer and
    that passes the clock checks (``int(...) <= I64_MAX`` is the last
    one).  Every other line, and the first line with each text, goes
    through ``decode_line``; a refused line is never kept.

    The tables live for one call.  A text seen once is filed under its
    hash with the line it came from, which the call's list of lines
    holds anyway, so a file whose lines never repeat keeps no copy of
    their text.  A later line is confirmed against that line, so a
    line whose hash only collides decodes alone.  A text seen twice is
    filed under the text itself, for the cheapest lookup.
    """
    prev = 0
    repeated: dict[str, TraceEntry] = {}
    # hash of a text seen once -> (its line, the text's length, entry)
    once: dict[int, tuple[str, int, TraceEntry]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        m = _CLOCK_FIRST.match(raw)
        first = None
        if m is not None:
            rest = raw[m.end():]
            first = repeated.get(rest)
            if first is None:
                hit = once.get(hash(rest))
                # A line ends with a text of the same length exactly
                # when the text after its clock is that text.
                if hit is not None and hit[1] == len(rest) \
                        and hit[0].endswith(rest):
                    first = repeated[rest] = hit[2]
        elif not raw.strip():
            continue
        if first is not None and (clock := int(m[1])) <= I64_MAX:
            entry = TraceEntry(clock, first.updates, first.event,
                               first.event_args)
        else:
            try:
                entry = decode_line(raw, lineno)
            except (ParseError, SchemaError) as exc:
                yield lineno, exc
                continue
            if m is not None:
                once.setdefault(hash(rest), (raw, len(rest), entry))
        if entry.clock < prev:
            yield lineno, SchemaError(
                f"'clock' {entry.clock} is lower than the previous "
                f"entry's {prev}", line=lineno)
        else:
            yield lineno, entry
        prev = entry.clock


def parse_ndjson(text: str) -> Trace:
    """Parse NDJSON text into a Trace; the first refused line raises
    its error.  Blank lines are skipped."""
    entries = []
    for _, got in read_lines(text):
        if isinstance(got, TracecheckError):
            raise got
        entries.append(got)
    return entries


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as f:
        return parse_ndjson(f.read())


def serialize_entry(entry: TraceEntry,
                    var_order: Sequence[str] | None = None) -> str:
    """One NDJSON line (no trailing newline): clock first, then
    variables (lexicographic unless ``var_order`` is given), then
    event, then event_args."""
    obj: dict[str, Any] = {"clock": entry.clock}
    names = var_order if var_order is not None else sorted(entry.updates)
    for name in names:
        obj[name] = [
            {
                "op": u.op,
                "path": list(u.path),
                "args": [value_to_jsonable(a) for a in u.args],
            }
            for u in entry.updates[name]
        ]
    if entry.event is not None:
        obj["event"] = entry.event
    if entry.event_args is not None:
        obj["event_args"] = list(entry.event_args)
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def serialize_trace(trace: Trace) -> str:
    return "".join(serialize_entry(e) + "\n" for e in trace)


def merge(traces: Sequence[Trace]) -> Trace:
    """Merge per-process traces into one, ordered by nondecreasing clock.

    Entries with equal clocks keep a fixed order: by position of their
    trace in ``traces``, then by position within that trace.  The merge
    is pure reordering: it returns the input entry objects themselves,
    each exactly once.
    """
    # list.sort is stable, so equal clocks keep the concatenation order.
    return sorted(chain.from_iterable(traces), key=attrgetter("clock"))


def write_trace_file(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_trace(trace))
