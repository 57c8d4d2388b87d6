"""NDJSON trace files: schema, parsing, serialization, merging.

One trace entry per line.  Reserved keys are ``clock`` (required,
integer in 0..2^63-1), ``event`` (string) and ``event_args`` (array of
strings); every other key names a variable and maps to a non-empty
array of update objects ``{"op": str, "path": [...], "args": [...]}``.
Keys that merely resemble reserved ones ("Event", "Clock") are
variable names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from .errors import ParseError, SchemaError
from .values import (I64_MAX, OP_NAMES, UpdateOp, jsonable_to_value,
                     value_to_jsonable)

RESERVED_KEYS = ("clock", "event", "event_args")


@dataclass(eq=False)
class TraceEntry:
    """One recorded step.  ``source``/``line`` are provenance for
    diagnostics only and never take part in equality."""

    clock: int
    updates: dict[str, tuple[UpdateOp, ...]] = field(default_factory=dict)
    event: str | None = None
    event_args: tuple[str, ...] | None = None
    source: str | None = None
    line: int | None = None

    def _key(self):
        return (self.clock, dict(self.updates), self.event, self.event_args)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEntry):
            return NotImplemented
        return self._key() == other._key()


@dataclass
class Trace:
    """Ordered entries; 1-indexed in all reporting."""

    entries: list[TraceEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> TraceEntry:
        return self.entries[i]


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def validate_entry(obj: Any, line: int = 0) -> None:
    """Raise SchemaError unless ``obj`` is a valid entry object.

    Checks exactly the wire schema: clock integer in 0..2^63-1
    required (the 64-bit signed range values live in); event
    a string; event_args an array of strings; any other key an array
    (>= 1 items) of objects carrying op (string), path (array) and
    args (array).
    """
    if not isinstance(obj, dict):
        raise SchemaError("entry is not a JSON object", line=line)
    if "clock" not in obj:
        raise SchemaError("missing required key 'clock'", line=line,
                          field="clock")
    if not _is_int(obj["clock"]) or obj["clock"] < 0:
        raise SchemaError("'clock' must be an integer >= 0", line=line,
                          field="clock")
    if obj["clock"] > I64_MAX:
        raise SchemaError("'clock' must be at most 2^63-1", line=line,
                          field="clock")
    if "event" in obj and not isinstance(obj["event"], str):
        raise SchemaError("'event' must be a string", line=line,
                          field="event")
    if "event_args" in obj:
        ea = obj["event_args"]
        if not isinstance(ea, list) or not all(isinstance(x, str) for x in ea):
            raise SchemaError("'event_args' must be an array of strings",
                              line=line, field="event_args")
    for key, val in obj.items():
        if key in RESERVED_KEYS:
            continue
        if not isinstance(val, list) or len(val) < 1:
            raise SchemaError(
                f"variable {key!r} must map to a non-empty array",
                line=line, field=key)
        for item in val:
            if not isinstance(item, dict):
                raise SchemaError(
                    f"update for {key!r} is not an object",
                    line=line, field=key)
            for req in ("op", "path", "args"):
                if req not in item:
                    raise SchemaError(
                        f"update for {key!r} lacks {req!r}",
                        line=line, field=key)
            if not isinstance(item["op"], str):
                raise SchemaError(
                    f"update op for {key!r} must be a string",
                    line=line, field=key)
            if item["op"] not in OP_NAMES:
                raise SchemaError(
                    f"update op for {key!r} is not an operator: "
                    f"{item['op']!r}", line=line, field=key)
            if not isinstance(item["path"], list):
                raise SchemaError(
                    f"update path for {key!r} must be an array",
                    line=line, field=key)
            if not isinstance(item["args"], list):
                raise SchemaError(
                    f"update args for {key!r} must be an array",
                    line=line, field=key)


def _entry_from_obj(obj: dict, line: int, source: str | None) -> TraceEntry:
    validate_entry(obj, line=line)
    updates: dict[str, tuple[UpdateOp, ...]] = {}
    for key, val in obj.items():
        if key in RESERVED_KEYS:
            continue
        ops = []
        for item in val:
            for seg in item["path"]:
                if not isinstance(seg, str):
                    raise SchemaError(
                        f"path segment for {key!r} must be a string",
                        line=line, field=key)
            try:
                args = tuple(jsonable_to_value(a) for a in item["args"])
            except ParseError as exc:
                raise SchemaError(
                    f"bad arg for {key!r}: {exc}", line=line, field=key
                ) from None
            ops.append(UpdateOp(item["op"], tuple(item["path"]), args))
        updates[key] = tuple(ops)
    event_args = obj.get("event_args")
    return TraceEntry(
        clock=obj["clock"],
        updates=updates,
        event=obj.get("event"),
        event_args=tuple(event_args) if event_args is not None else None,
        source=source,
        line=line,
    )


TOO_DEEP = "value nested too deeply"


def decode_line(raw: str, lineno: int,
                source: str | None = None) -> TraceEntry:
    """One NDJSON line as a TraceEntry.

    Raises ParseError for malformed JSON or a value nested too deeply
    for the stack (message ``TOO_DEEP``), and SchemaError for an entry
    that breaks the schema or carries an update it cannot decode; both
    carry ``lineno``.
    """
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", line=lineno) from None
    except RecursionError:
        raise ParseError(TOO_DEEP, line=lineno) from None
    return _entry_from_obj(obj, lineno, source)


def parse_ndjson(text: str, source: str | None = None) -> Trace:
    """Parse NDJSON text into a Trace.  Blank lines are skipped.

    Errors carry the 1-based line number.
    """
    return Trace([decode_line(raw, lineno, source)
                  for lineno, raw in enumerate(text.splitlines(), start=1)
                  if raw.strip()])


def read_trace_file(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as f:
        return parse_ndjson(f.read(), source=str(path))


def entry_to_jsonable(entry: TraceEntry,
                      var_order: Sequence[str] | None = None) -> dict:
    """Entry as a plain dict: clock first, then variables (lexicographic
    unless ``var_order`` is given), then event, then event_args."""
    obj: dict[str, Any] = {"clock": entry.clock}
    names = list(var_order) if var_order is not None else sorted(entry.updates)
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
    return obj


def serialize_entry(entry: TraceEntry) -> str:
    """One NDJSON line (no trailing newline), deterministic key order."""
    return json.dumps(entry_to_jsonable(entry), separators=(",", ":"),
                      ensure_ascii=False)


def serialize_trace(trace: Trace) -> str:
    return "".join(serialize_entry(e) + "\n" for e in trace.entries)


def merge(traces: Sequence[Trace],
          labels: Sequence[str] | None = None) -> Trace:
    """Merge per-process traces into one, ordered by nondecreasing clock.

    Entries with equal clocks keep a fixed order: by position of their
    trace in ``traces``, then by position within that trace.  The merge
    is pure reordering; every input entry appears exactly once.
    """
    if labels is not None and len(labels) != len(traces):
        raise ValueError("labels must match traces one to one")
    keyed = []
    for ti, trace in enumerate(traces):
        label = labels[ti] if labels is not None else None
        for li, entry in enumerate(trace.entries, start=1):
            out = TraceEntry(
                clock=entry.clock,
                updates=entry.updates,
                event=entry.event,
                event_args=entry.event_args,
                source=label if label is not None else entry.source,
                line=entry.line if entry.line is not None else li,
            )
            keyed.append(((entry.clock, ti, li), out))
    keyed.sort(key=lambda kv: kv[0])
    return Trace([e for _, e in keyed])


def write_trace_file(path: str, trace: Trace) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_trace(trace))
