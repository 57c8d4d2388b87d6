"""Trace format: entry schema, NDJSON parsing, serialization, merge."""

from __future__ import annotations

import json
import random

import pytest
from conftest import assert_reads_line_by_line, gen_entry

from tracecheck import (ParseError, SchemaError, Trace, TraceEntry,
                        TracecheckError, UpdateOp, VInt, VSeq, VSet, merge,
                        mk, parse_ndjson, read_trace_file, serialize_entry,
                        serialize_trace, write_trace_file)
from tracecheck.traces import decode_line, read_lines


# --- schema ------------------------------------------------------------

def ok(obj):
    decode_line(json.dumps(obj), 1)


def bad(obj, fragment):
    with pytest.raises(SchemaError) as err:
        decode_line(json.dumps(obj), 7)
    assert fragment in str(err.value)
    assert err.value.line == 7


def test_minimal_entry_is_valid():
    ok({"clock": 0})


def test_clock_is_required_and_integer():
    bad({}, "clock")
    bad({"clock": True}, "clock")
    bad({"clock": -1}, "clock")
    bad({"clock": 1.0}, "clock")
    bad({"clock": 2**63}, "clock")
    bad({"clock": 2**70}, "clock")
    ok({"clock": 2**63 - 1})
    ok({"clock": 0, "event": "E"})


def test_event_and_args_shapes():
    bad({"clock": 0, "event": 3}, "event")
    bad({"clock": 0, "event_args": "x"}, "event_args")
    bad({"clock": 0, "event_args": [1]}, "event_args")
    ok({"clock": 0, "event": "E", "event_args": ["a", "b"]})


def test_variable_updates_shape():
    upd = {"op": "Update", "path": [], "args": [1]}
    ok({"clock": 0, "x": [upd]})
    bad({"clock": 0, "x": []}, "non-empty")
    bad({"clock": 0, "x": "nope"}, "non-empty")
    bad({"clock": 0, "x": [{"path": [], "args": []}]}, "op")
    bad({"clock": 0, "x": [{"op": "Update", "args": []}]}, "path")
    bad({"clock": 0, "x": [{"op": "Update", "path": []}]}, "args")
    bad({"clock": 0, "x": [{"op": "Frob", "path": [], "args": []}]},
        "not an operator")
    bad({"clock": 0, "x": [3]}, "is not an object")
    bad({"clock": 0, "x": [{"op": 1, "path": [], "args": []}]},
        "op for 'x' must be a string")
    bad({"clock": 0, "x": [{"op": "Update", "path": "a", "args": []}]},
        "path for 'x' must be an array")
    bad({"clock": 0, "x": [{"op": "Update", "path": [], "args": 1}]},
        "args for 'x' must be an array")


def test_update_objects_refuse_unknown_keys():
    upd = {"op": "Update", "path": [], "args": [1]}
    bad({"clock": 1, "x": [upd, {**upd, "extra": 2}]},
        "update for 'x' has unknown key 'extra'")
    bad({"clock": 1, "x": [{**upd, "Op": "Add"}]},
        "update for 'x' has unknown key 'Op'")


def test_keys_resembling_reserved_names_are_variables():
    # Only the exact lowercase keys are reserved.
    ok({"clock": 0,
        "Event": [{"op": "Update", "path": [], "args": [1]}]})
    entry = parse_ndjson(
        '{"clock": 0, "Event": [{"op": "Update", "path": [], "args": [1]}]}'
    )[0]
    assert "Event" in entry.updates


# --- parsing -----------------------------------------------------------

def test_parse_reports_one_based_line_numbers():
    text = '{"clock": 0}\n\nnot json\n'
    with pytest.raises(ParseError) as err:
        parse_ndjson(text)
    assert err.value.line == 3


def test_parse_skips_blank_lines():
    text = '\n{"clock": 1}\n\n{"clock": 2}\n'
    assert len(parse_ndjson(text)) == 2
    assert [(n, e.clock) for n, e in read_lines(text)] == [(2, 1), (4, 2)]


def test_lines_end_at_newline_only():
    got = read_lines('{"clock":1,"event":"a\u2028b\x85"}\r\n'
                     '{"clock":2,"event":"\u2029"}\r\n')
    assert [(n, e.event) for n, e in got] == [(1, "a\u2028b\x85"),
                                              (2, "\u2029")]
    # A form feed no longer splits a line, so two entries on one line
    # are malformed JSON.
    with pytest.raises(ParseError) as err:
        parse_ndjson('{"clock":1}\x0c{"clock":2}\n')
    assert err.value.line == 1


def test_clock_may_repeat_but_not_go_backwards():
    t = parse_ndjson('{"clock":5}\n{"clock":5}\n{"clock":7}\n')
    assert [e.clock for e in t] == [5, 5, 7]
    with pytest.raises(SchemaError) as err:
        parse_ndjson('{"clock":5}\n\n{"clock":2}\n')
    assert "'clock' 2 is lower than the previous entry's 5" \
        in str(err.value)
    assert err.value.line == 3


def test_read_lines_reports_every_line_and_checks_order_against_the_last():
    got = list(read_lines('{"clock":5}\nnope\n{"clock":2}\n'
                          '{"clock":3}\n{"clock":1}\n'))
    assert [n for n, _ in got] == [1, 2, 3, 4, 5]
    refused = [n for n, x in got if isinstance(x, TracecheckError)]
    assert refused == [2, 3, 5]


@pytest.mark.parametrize("line, fragment", [
    ('{"clock":0,"event":"TMAbort","event":"RMPrepare",'
     '"event_args":["rm-0"]}', "duplicate key 'event'"),
    ('{"clock":0,"x":[{"op":"Update","path":[],"args":[{"a":1,"a":2}]}]}',
     "duplicate key 'a'"),
    ('{"clock":0,"event":"\\ud800"}', "lone surrogate"),
    ('{"clock":0,"event":"\\udc00\\ud83d"}', "lone surrogate"),
    ('{"clock":%s}' % ("1" * 5000), "too many digits"),
], ids=["duplicate-key", "duplicate-key-in-value", "lone-high-surrogate",
        "lone-low-surrogate", "long-number"])
def test_reader_refuses_what_the_value_model_cannot_hold(line, fragment):
    with pytest.raises(ParseError) as err:
        parse_ndjson('{"clock":0}\n' + line + "\n")
    assert fragment in str(err.value)
    assert err.value.line == 2


def test_surrogate_pairs_and_escaped_backslashes_are_accepted():
    t = parse_ndjson('{"clock":0,"event":"\\ud83d\\ude00"}\n'
                     '{"clock":1,"event":"\\\\ud800"}\n')
    assert [e.event for e in t] == ["\U0001F600", "\\ud800"]


def test_parse_requires_string_path_segments():
    with pytest.raises(SchemaError):
        parse_ndjson(
            '{"clock": 0, "x": [{"op": "Update", "path": [1], "args": []}]}')


def test_parse_rejects_float_args():
    with pytest.raises(SchemaError):
        parse_ndjson(
            '{"clock":0,"x":[{"op":"Update","path":[],"args":[1.5]}]}')


# --- reading each shape once -------------------------------------------

def test_repeated_shapes_read_as_each_line_alone():
    rng = random.Random(13)
    shapes = [gen_entry(rng, clock=0) for _ in range(8)]
    clock, entries = 0, []
    for _ in range(300):
        clock += rng.randint(0, 2)
        shape = rng.choice(shapes)
        entries.append(TraceEntry(clock, shape.updates, shape.event,
                                  shape.event_args))
    assert_reads_line_by_line(serialize_trace(entries))


def test_a_text_whose_hash_only_collides_reads_as_alone(monkeypatch):
    # Every text after a clock hashes alike, so each lookup of a new
    # text finds an earlier line with another text.
    monkeypatch.setattr("tracecheck.traces.hash", lambda text: 0,
                        raising=False)
    rng = random.Random(17)
    shapes = [gen_entry(rng, clock=0) for _ in range(6)]
    entries = [TraceEntry(clock, shape.updates, shape.event,
                          shape.event_args)
               for clock, shape in enumerate(rng.choices(shapes, k=60))]
    assert_reads_line_by_line(serialize_trace(entries))


def test_the_reader_builds_updates_as_the_public_constructor_does():
    rng = random.Random(29)
    entries = [gen_entry(rng, clock=i) for i in range(200)]
    # Record, set and nested args, and an empty path besides.
    nested = mk({"a": [1, {"b": [True, "x"]}], "c": {"d": {}}})
    entries.append(TraceEntry(200, {
        "r": (UpdateOp("Update", ("f", "g"), (nested,)),),
        "s": (UpdateOp("Init", (), (VSet([VInt(2), VInt(1)]),)),
              UpdateOp("Add", (), (VSeq([nested]),))),
        "t": (UpdateOp("Clear"),)}))
    seen = 0
    for e in parse_ndjson(serialize_trace(entries)):
        for ops in e.updates.values():
            for u in ops:
                public = UpdateOp(u.op, list(u.path), list(u.args))
                assert type(u.path) is tuple and type(u.args) is tuple
                assert u == public and hash(u) == hash(public)
                assert repr(u) == repr(public)
                seen += 1
    assert seen > 300


REPEATED = '{"clock":1,"x":[{"op":"Update","path":[],"args":[[1]]}],' \
    '"event":"E","event_args":["a"]}\n{"clock":%s,"x":[{"op":"Update",' \
    '"path":[],"args":[[1]]}],"event":"E","event_args":["a"]}\n'


@pytest.mark.parametrize("clock", [
    "01", "-0", "\u0663", "1\u0663", "1e3", "1.0", "true",
    "9223372036854775808", "1" * 20, "9223372036854775807", "0", "1",
])
def test_a_repeated_line_with_an_odd_clock_reads_as_alone(clock):
    assert_reads_line_by_line(REPEATED % clock)


@pytest.mark.parametrize("text", [
    # Not written as the tracer writes: decoded in full every time.
    '{ "clock":1,"event":"E"}\n{ "clock":2,"event":"E"}\n',
    '{"clock" :1,"event":"E"}\n{"clock" :2,"event":"E"}\n',
    # A second clock key is refused at every line, never kept.
    '{"clock":1,"event":"E","clock":2}\n{"clock":3,"event":"E","clock":2}\n',
    # The "\r" belongs to the rest, so these two lines differ.
    '{"clock":1,"event":"E"}\r\n{"clock":2,"event":"E"}\r\n'
    '{"clock":3,"event":"E"}\n',
    # A repeated refused line is refused again, at its own line.
    '{"clock":1,"x":[{"op":"Update","path":[],"args":[1.5]}]}\n'
    '{"clock":2,"x":[{"op":"Update","path":[],"args":[1.5]}]}\n',
    # A shared shape still goes through the clock-order check.
    '{"clock":5,"event":"E"}\n{"clock":3,"event":"E"}\n'
    '{"clock":5,"event":"E"}\n',
], ids=["leading-space", "space-before-colon", "second-clock",
        "trailing-cr", "refused-twice", "backwards"])
def test_lines_off_the_tracers_form_read_as_alone(text):
    assert_reads_line_by_line(text)


def test_equal_shapes_in_one_file_share_updates_and_event_args():
    a, b, c = parse_ndjson(REPEATED % "2" + '{"clock":3,"event":"E",'
                           '"x":[{"op":"Update","path":[],"args":[[1]]}],'
                           '"event_args":["a"]}\n')
    assert (a.clock, b.clock) == (1, 2)
    assert b.updates is a.updates and b.event_args is a.event_args
    # Another spelling of an equal entry is decoded on its own.
    assert c.updates == a.updates and c.updates is not a.updates


# --- serialization ------------------------------------------------------

def test_minimal_entry_roundtrips_byte_identically():
    line = '{"clock":0}'
    t = parse_ndjson(line)
    assert serialize_entry(t[0]) == line


def test_serialize_key_order():
    entry = TraceEntry(
        clock=3,
        updates={
            "zeta": (UpdateOp("Update", args=(VInt(1),)),),
            "alpha": (UpdateOp("Update", args=(VInt(2),)),),
        },
        event="E", event_args=("x",))
    line = serialize_entry(entry)
    assert line.index('"clock"') < line.index('"alpha"') \
        < line.index('"zeta"') < line.index('"event"') \
        < line.index('"event_args"')


def test_generated_entries_roundtrip():
    rng = random.Random(7)
    entries = [gen_entry(rng, clock=i) for i in range(200)]
    text = serialize_trace(Trace(entries))
    back = parse_ndjson(text)
    assert len(back) == len(entries)
    for a, b in zip(entries, back):
        assert a == b
    # serialization is a fixed point after one parse
    assert serialize_trace(back) == text


def test_file_roundtrip(tmp_path):
    rng = random.Random(8)
    trace = Trace([gen_entry(rng, clock=i) for i in range(20)])
    path = tmp_path / "t.ndjson"
    write_trace_file(path, trace)
    back = read_trace_file(path)
    assert list(back) == list(trace)


# --- merge --------------------------------------------------------------

def _clocked(rng, n, lo=0, step=3):
    entries = []
    clock = lo
    for _ in range(n):
        clock += rng.randint(0, step)
        entries.append(gen_entry(rng, clock=clock))
    return Trace(entries)


def _assert_keeps_order(merged, src):
    """``src``'s entries appear in ``merged`` as the same objects, in
    their original order."""
    ids = {id(e) for e in src}
    assert [id(e) for e in merged if id(e) in ids] == [id(e) for e in src]


def test_merge_provenance_and_determinism():
    rng = random.Random(11)
    a = _clocked(rng, 5)
    b = _clocked(rng, 5)
    m1 = merge([a, b])
    m2 = merge([a, b])
    # the merge returns the input entries themselves, not copies
    _assert_keeps_order(m1, a)
    _assert_keeps_order(m1, b)
    assert [id(e) for e in m1] == [id(e) for e in m2]
    assert serialize_trace(m1) == serialize_trace(m2)


def test_merge_five_hundred_random_pairs():
    rng = random.Random(20260818)
    for round_no in range(500):
        a = _clocked(rng, rng.randint(0, 6))
        b = _clocked(rng, rng.randint(0, 6))
        m = merge([a, b])
        # every input entry appears exactly once (multiset equality)
        assert sorted(serialize_entry(e) for e in m) == \
            sorted(serialize_entry(e) for e in list(a) + list(b))
        # clocks are non-decreasing
        clocks = [e.clock for e in m]
        assert clocks == sorted(clocks)
        # ties: first trace's entries come first, and within one trace
        # the original order is preserved
        in_b = {id(e) for e in b}
        for x, y in zip(m, m[1:]):
            if x.clock == y.clock:
                assert not (id(x) in in_b and id(y) not in in_b)
        _assert_keeps_order(m, a)
        _assert_keeps_order(m, b)


def test_merge_tie_break_prefers_earlier_trace():
    a = Trace([TraceEntry(clock=5, event="A")])
    b = Trace([TraceEntry(clock=5, event="B")])
    m = merge([a, b])
    assert [e.event for e in m] == ["A", "B"]
    assert m[0] is a[0] and m[1] is b[0]


def test_nesting_too_deep_for_the_stack_is_a_parse_error():
    deep = "[" * 3000 + "1" + "]" * 3000
    line = ('{"clock": 1, "x": [{"op": "Update", "path": [], "args": [%s]}]}'
            % deep)
    with pytest.raises(ParseError) as err:
        parse_ndjson('{"clock": 0}\n' + line + "\n")
    assert err.value.line == 2
