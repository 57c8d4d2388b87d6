"""Hypothesis property tests.

The sorted lookups and in-place updates in ``values.py`` must agree
with the linear definitions and full rebuilds they replace, and the
``SpecState`` dedup key must be equal exactly when bindings are equal.
The trace reader must read back whatever the Tracer writes, and turn
any other text into an entry or a TracecheckError, each line as
``decode_line`` alone would; the CLI must exit 0-3 on it.  Matching
pruned by frames must give the same matches as matching every step,
and the matches ``validate`` reuses from its memo the same as matching
afresh.  Only this module needs hypothesis.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile

import pytest
from conftest import assert_reads_line_by_line
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import free_names, renamings

from tracecheck import (ExplorerConfig, SpecState, Trace, TracecheckError,
                        Tracer, VBag, VBool, VInt, VRec, VSeq, VSet, VStr,
                        match_entry, read_trace_file, validate)
from tracecheck.cli import main
from tracecheck.explorer import _Compiled
from tracecheck.protocols import (TokenRingConfig, TwoPhaseConfig,
                                  rm_names, run_tokenring, run_twophase)
from tracecheck.traces import decode_line

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1

# Nested Values.  Small alphabets and ranges make equal elements, keys
# and bag entries common.
_scalar_values = st.one_of(
    st.text(alphabet="ab\"é", max_size=3).map(VStr),
    st.one_of(st.integers(-3, 3),
              st.integers(I64_MIN, I64_MAX)).map(VInt),
    st.booleans().map(VBool),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(VSeq),
        st.lists(children, max_size=4).map(VSet),
        st.lists(st.tuples(children, st.integers(1, 3)),
                 max_size=4).map(VBag),
        st.dictionaries(st.text(alphabet="ab", max_size=2), children,
                        max_size=3).map(lambda d: VRec(d.items())),
    )


values = st.recursive(_scalar_values, _containers, max_leaves=10)


def _linear_contains(s: VSet, x) -> bool:
    return any(x == y for y in s.items)


def _linear_count(b: VBag, x) -> int:
    for elem, c in b.pairs:
        if elem == x:
            return c
    return 0


def _linear_get(r: VRec, key: str):
    for k, v in r.fields:
        if k == key:
            return v
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=6), values)
def test_set_and_bag_lookups_agree_with_linear_scans(elems, probe):
    s = VSet(elems)
    bag = VBag((e, 1 + i % 3) for i, e in enumerate(elems))
    for x in (probe, *elems, *s.items):
        assert (x in s) == _linear_contains(s, x)
        assert bag.count(x) == _linear_count(bag, x)
    assert "not a value" not in s
    assert bag.count("not a value") == 0


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(alphabet="abc", max_size=3), values,
                       max_size=6),
       st.text(alphabet="abc", max_size=3))
def test_record_get_agrees_with_linear_scan(fields, probe):
    r = VRec(fields.items())
    for key in (probe, *fields):
        assert r.get(key) is _linear_get(r, key)


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=6), values)
def test_in_place_updates_match_a_full_rebuild(elems, x):
    s = VSet(elems)
    rebuilt = VSet(s.items + (x,))
    assert s.with_element(x).items == rebuilt.items
    assert s.with_element(x).canonical() == rebuilt.canonical()

    r = VRec((f"k{i}", e) for i, e in enumerate(elems))
    for k in r.keys():
        assert r.replaced(k, x).canonical() == VRec(
            (f, x if f == k else v) for f, v in r.fields).canonical()
    with pytest.raises(KeyError):
        r.replaced("missing", x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(("x", "y", "xy", "")),
                                values, max_size=3),
                min_size=2, max_size=4))
def test_spec_state_key_is_equal_exactly_when_bindings_are_equal(maps):
    # States over different variable sets, and states derived with
    # updated() (which share their parent's variable order), included.
    states = [SpecState(m) for m in maps]
    states += [states[0].updated(m) for m in maps[1:]]
    for a in states:
        for b in states:
            same = a.bindings == b.bindings
            assert (a.fingerprint() == b.fingerprint()) == same
            assert (a == b) == same


@settings(max_examples=200, deadline=None)
@given(st.text(), st.text())
def test_tracer_strings_read_back_unchanged(text, key):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ndjson")
        with Tracer(path) as t:
            t.notify_change("x", "Update", (key,), (text,))
            t.log(text, [text])
        (entry,) = read_trace_file(path)
    (update,) = entry.updates["x"]
    assert update.path == (key,)
    assert update.args == (VStr(text),)
    assert (entry.event, entry.event_args) == (text, (text,))


# Pieces of JSON, including what the reader must refuse: lone
# surrogate escapes, numbers it cannot hold, and raw line separators.
_fragments = st.sampled_from([
    "{", "}", "[", "]", ",", ":", " ", "\r", "\u2028", "\x85", "\x0c",
    '"clock"', '"event"', '"event_args"', '"x"', '"op"', '"path"',
    '"args"', '"Update"', '"Add"', '"TMAbort"', '"rm-0"', '"a\\"b"',
    '"\\ud800"', '"\\udfff"', '"\\ud83d\\ude00"', '"\\u2028"', '"é"',
    "0", "1", "-1", "1.5", "1e400", "NaN", "true", "false", "null",
    str(2 ** 63), "9" * 5000,
])
_json_ish = st.lists(_fragments, max_size=24).map("".join)
_entries = st.builds(
    '{{"clock":{},"x":[{{"op":"Update","path":[],"args":[{}]}}],'
    '"event":{}}}'.format,
    st.sampled_from(["0", "1", "7", "-1", "1.5", str(2 ** 63)]),
    _json_ish, st.sampled_from(['"TMAbort"', '"RMPrepare"', "1"]))
_lines = st.one_of(_json_ish, _entries)

# The inputs that once gave a traceback or a silent repair: a number
# past the int-string limit, nesting too deep for the stack, a lone
# surrogate, a repeated key, raw line separators in a string, and a
# clock that goes backwards.
_ODD_FILES = [
    ['{"clock":%s}' % ("1" * 5000)],
    ['{"clock":0,"x":[{"op":"Update","path":[],"args":[%s]}]}'
     % ("[" * 100_000 + "]" * 100_000)],
    ['{"clock":0,"event":"\\ud800"}'],
    ['{"clock":0,"event":"TMAbort","event":"RMPrepare",'
     '"event_args":["rm-0"]}'],
    ['{"clock":3,"event":"TMAbort\u2028\u2029\x85"}'],
    ['{"clock":5,"event":"TMAbort"}', '{"clock":2}'],
]


def _with_odd_files(test):
    for lines in _ODD_FILES:
        test = example(lines)(test)
    return test


@_with_odd_files
@settings(max_examples=300, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=4))
def test_any_line_is_an_entry_or_a_tracecheck_error(lines):
    for n, line in enumerate(lines, start=1):
        try:
            decode_line(line, n)
        except TracecheckError as exc:
            assert exc.line == n


# Lines that repeat a rest after a clock, in and off the tracer's form,
# so that ``read_lines`` reuses some shapes and must refuse others.
_repeating = st.builds(
    "{}{}{}".format,
    st.sampled_from(['{"clock":', '{ "clock":', '{"clock" :']),
    st.sampled_from(["0", "1", "7", "01", "-0", "\u0663", "1\u0663", "1e3",
                     "1.0", "true", str(I64_MAX), str(I64_MAX + 1),
                     "1" * 20]),
    st.sampled_from([
        "}", "}\r", ',"event":"E"}', ',"event":"E","clock":2}',
        ',"x":[{"op":"Update","path":[],"args":[[1]]}],"event_args":[]}',
        ',"x":[{"op":"Update","path":[],"args":[1.5]}]}',
        ',"x":[{"op":"Update","path":[],"args":[1],"extra":2}]}',
        "}}", ""]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_repeating, _lines), max_size=12))
def test_read_lines_reads_every_line_as_decode_line_does(lines):
    assert_reads_line_by_line("\n".join(lines))


def _exit_codes(text: str) -> list[int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.ndjson")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return [main(["validate", "--spec", "twophase:2",
                          "--allow-stutter", "--trace", path]),
                    main(["schema-check", path])]


@_with_odd_files
@settings(max_examples=100, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=4))
def test_cli_exits_zero_to_three_on_any_lines(lines):
    for code in _exit_codes("\n".join(lines) + "\n"):
        assert code in (0, 1, 2, 3)


# --- frame pruning ------------------------------------------------------

_PRUNE_LEVELS = ("v", "vpea", "vea", "e")


@pytest.fixture(scope="module")
def seeded_runs():
    """(spec, trace, composition) of faithful and buggy twophase and
    tokenring runs at every level that records variables, and at e.
    The faithful twophase runs log a resend as a stutter entry.  Runs
    of 4 RMs and 5 nodes at the event-less levels give key frames
    several candidates to cut."""
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for level in _PRUNE_LEVELS:
            for rms, ring in ((2, 3), (4, 5)) if level in ("v", "vpea") \
                    else ((2, 3),):
                for seed, bug in enumerate((None, "counter")):
                    res = run_twophase(TwoPhaseConfig(
                        rms=rm_names(rms), seed=seed, record=level, bug=bug,
                        force_resend=True,
                        resend_logging="silent" if bug else "stutter"),
                        os.path.join(tmp, f"2pc-{rms}-{level}-{seed}"))
                    runs.append((res.spec, res.trace, res.composition))
                for seed, bug in enumerate((None, "self-message",
                                            "eternal-token")):
                    res = run_tokenring(TokenRingConfig(
                        n=ring, seed=seed, record=level, bug=bug),
                        os.path.join(tmp, f"ring-{ring}-{level}-{seed}"))
                    runs.append((res.spec, res.trace, res.composition))
    return runs


def _match_keys(matches):
    return [(m.state.fingerprint(), m.name, m.values, m.stage_values)
            for m in matches]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pruned_matching_gives_the_same_matches(seeded_runs, data):
    spec, trace, composition = data.draw(st.sampled_from(seeded_runs))
    entries = list(trace)
    drop = data.draw(st.none() | st.integers(0, len(entries) - 1))
    if drop is not None:
        del entries[drop]
    cfg = ExplorerConfig(
        allow_stutter=data.draw(st.booleans()),
        composition=composition if data.draw(st.booleans()) else {})
    compiled = _Compiled(spec, cfg)
    # Walk the explored graph breadth first, up to a few hundred nodes,
    # matching every node both ways.
    frontier = [(s, 1) for s in dict.fromkeys(spec.init)]
    seen = set(frontier)
    dead = {True: set(), False: set()}
    for state, line in frontier:
        if line > len(entries) or len(seen) > 300:
            continue
        full, _ = match_entry(spec, state, entries[line - 1], cfg, compiled)
        pruned, attempts = match_entry(spec, state, entries[line - 1], cfg,
                                       compiled, prune=True)
        assert attempts == []
        assert _match_keys(pruned) == _match_keys(full)
        for was_pruned, matches in ((True, pruned), (False, full)):
            if not matches:
                dead[was_pruned].add((state, line))
        for m in full:
            node = (m.state, line + 1)
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    assert dead[True] == dead[False]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_memoised_matches_are_fresh_matches(seeded_runs, data):
    """``validate`` matches each (state, entry shape) once and reuses
    the result; at every node it expanded, its edges must be what a
    fresh pruned match of that node gives, in order, each target up to
    a renaming of the names the rest of the trace leaves free."""
    spec, trace, composition = data.draw(st.sampled_from(seeded_runs))
    entries = list(trace)
    drop = data.draw(st.none() | st.integers(0, len(entries) - 1))
    if drop is not None:
        del entries[drop]
    cfg = ExplorerConfig(
        search=data.draw(st.sampled_from(("bfs", "dfs"))),
        allow_stutter=data.draw(st.booleans()),
        composition=composition if data.draw(st.booleans()) else {})
    verdict = validate(spec, entries, cfg)
    edges: dict[int, list] = {}
    for src, name, vals, dst in verdict.edges:
        edges.setdefault(src, []).append((name, vals, verdict.states[dst]))
    compiled = _Compiled(spec, cfg)
    for src, (state, line) in enumerate(zip(verdict.states, verdict.lines)):
        # Without a goal the search expands every node before the end;
        # with one, only the nodes it left by an edge are sure to be.
        if line > len(entries) or (verdict.accepted and src not in edges):
            continue
        matches, _ = match_entry(spec, state, entries[line - 1], cfg,
                                 compiled, prune=True)
        # The first match at the last entry is the goal, which is never
        # merged; elsewhere an edge may lead to a node whose state is
        # the match's renamed by a permutation of the free names.
        free = free_names(spec, entries, line + 1)
        if line == len(entries):
            matches, free = matches[:1], ()
        got = edges.get(src, [])
        assert [(name, vals) for name, vals, _ in got] == [
            (m.name, m.values) for m in matches]
        for (_, _, target), m in zip(got, matches):
            assert target in renamings(m.state, free)
