"""Shared generators and checks for the property-style suites.

Everything is driven by seeded random.Random instances so failures
reproduce exactly.
"""

from __future__ import annotations

import random

import pytest

from tracecheck import (SchemaError, TraceEntry, TracecheckError, UpdateOp,
                        VBag, VBool, VInt, VRec, VSeq, VSet, VStr, mk,
                        parse_ndjson)
from tracecheck.traces import decode_line, read_lines

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1

_CHARS = "abcxyz 0/\\\"é世"


def gen_value(rng: random.Random, depth: int = 3):
    """One random Value; containers shrink with depth."""
    kinds = ["str", "int", "bool"]
    if depth > 0:
        kinds += ["seq", "set", "bag", "rec"]
    kind = rng.choice(kinds)
    if kind == "str":
        return VStr("".join(rng.choice(_CHARS)
                            for _ in range(rng.randint(0, 6))))
    if kind == "int":
        return VInt(rng.choice((
            rng.randint(-100, 100),
            rng.randint(I64_MIN, I64_MAX))))
    if kind == "bool":
        return VBool(rng.random() < 0.5)
    n = rng.randint(0, 3)
    if kind == "seq":
        return VSeq([gen_value(rng, depth - 1) for _ in range(n)])
    if kind == "set":
        return VSet([gen_value(rng, depth - 1) for _ in range(n)])
    if kind == "bag":
        return VBag([(gen_value(rng, depth - 1), rng.randint(1, 3))
                     for _ in range(n)])
    return VRec([(f"k{i}", gen_value(rng, depth - 1)) for i in range(n)])


def has_set_or_bag(v) -> bool:
    if isinstance(v, (VSet, VBag)):
        return True
    if isinstance(v, VSeq):
        return any(has_set_or_bag(x) for x in v.items)
    if isinstance(v, VBag):
        return True
    if isinstance(v, VRec):
        return any(has_set_or_bag(x) for _, x in v.fields)
    return False


_OPS = ("Update", "Init", "Add", "Remove", "AddToBag", "RemoveFromBag",
        "Clear", "Append")


def gen_update(rng: random.Random) -> UpdateOp:
    op = rng.choice(_OPS)
    path = tuple(rng.choice(("f", "g")) for _ in range(rng.randint(0, 1)))
    if op == "Clear":
        args = ()
    else:
        # Args live in the parse domain (arrays read back as Seq), so
        # normalize sets/bags the same way a wire round-trip would.
        from tracecheck import jsonable_to_value, value_to_jsonable
        raw = gen_value(rng, 1)
        args = (jsonable_to_value(value_to_jsonable(raw)),)
    return UpdateOp(op, path=path, args=args)


def gen_entry(rng: random.Random, clock: int) -> TraceEntry:
    variables = rng.sample(("x", "y", "state", "Event"),
                           k=rng.randint(0, 3))
    updates = {
        var: tuple(gen_update(rng) for _ in range(rng.randint(1, 3)))
        for var in variables
    }
    event = rng.choice((None, "Step", "Move"))
    event_args = None
    if event is not None and rng.random() < 0.7:
        event_args = tuple(rng.choice(("a", "b", "7"))
                           for _ in range(rng.randint(0, 2)))
    return TraceEntry(clock=clock, updates=updates, event=event,
                      event_args=event_args)


def mkv(obj):
    """Shorthand for building Values from plain Python data."""
    return mk(obj)


def _error(exc: TracecheckError) -> tuple:
    return type(exc), str(exc), exc.line


def assert_reads_line_by_line(text: str) -> None:
    """``read_lines`` and ``parse_ndjson`` give for ``text`` what
    decoding every line afresh with ``decode_line`` gives: equal
    entries, and the same error class, message and line."""
    want, prev = [], 0
    for n, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            entry = decode_line(raw, n)
        except TracecheckError as exc:
            want.append((n, _error(exc)))
            continue
        if entry.clock < prev:
            want.append((n, (SchemaError,
                             f"'clock' {entry.clock} is lower than the "
                             f"previous entry's {prev}", n)))
        else:
            want.append((n, entry))
        prev = entry.clock
    got = [(n, _error(x) if isinstance(x, TracecheckError) else x)
           for n, x in read_lines(text)]
    assert got == want
    refused = next((x for _, x in want if isinstance(x, tuple)), None)
    if refused is None:
        assert parse_ndjson(text) == [x for _, x in want]
    else:
        with pytest.raises(refused[0]) as err:
            parse_ndjson(text)
        assert _error(err.value) == refused
