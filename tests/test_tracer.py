"""Instrumentation layer: buffering, wire output, and clocks."""

import json
import os
import threading

import pytest

from tracecheck import (
    ExplicitClock,
    FileBasedClock,
    InMemoryClock,
    MissingClock,
    Tracer,
    UnknownOp,
    get_tracer,
    parse_ndjson,
    read_trace_file,
)
from tracecheck.values import VInt, VSet, VStr, mk


def test_notify_then_log_writes_one_parseable_line(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path), InMemoryClock()) as t:
        t.notify_change("rmState", "Update", ("rm-0",), ("prepared",))
        t.notify_change("msgs", "Add", (), ({"type": "Prepared", "rm": "rm-0"},))
        t.log("RMPrepare", ["rm-0"])

    lines = path.read_text().splitlines()
    assert len(lines) == 1
    trace = read_trace_file(str(path))
    e = trace[0]
    assert e.clock == 1
    assert e.event == "RMPrepare"
    assert e.event_args == ("rm-0",)
    assert set(e.updates) == {"rmState", "msgs"}
    up = e.updates["rmState"][0]
    assert up.op == "Update"
    assert up.path == ("rm-0",)
    assert up.args == (VStr("prepared"),)


def test_variables_keep_first_notification_order_on_the_wire(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.notify_change("zeta", "Update", (), (1,))
        t.notify_change("alpha", "Update", (), (2,))
        t.notify_change("zeta", "Update", (), (3,))
        t.log()

    obj = json.loads(path.read_text())
    keys = [k for k in obj if k not in ("clock", "event", "event_args")]
    assert keys == ["zeta", "alpha"]
    # repeat notifications pile onto the same variable, in order
    assert [u["args"] for u in obj["zeta"]] == [[1], [3]]


def test_reserved_variable_names_are_rejected(tmp_path):
    with Tracer(str(tmp_path / "t.ndjson")) as t:
        for name in ("clock", "event", "event_args"):
            with pytest.raises(ValueError):
                t.notify_change(name, "Update", (), (1,))


def test_unknown_operator_is_rejected_at_notify(tmp_path):
    with Tracer(str(tmp_path / "t.ndjson")) as t:
        with pytest.raises(UnknownOp):
            t.notify_change("x", "Assign", (), (1,))


def test_event_args_render_as_strings(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.log("Step", ["rm-0", 7, True])
    obj = json.loads(path.read_text())
    # bare strings stay bare; other values render as JSON text
    assert obj["event_args"] == ["rm-0", "7", "true"]


def test_bare_log_writes_minimal_entry(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.log()
    assert path.read_text() == '{"clock":1}\n'


class _FlakyFile:
    """Raises once on write, then delegates."""

    def __init__(self, inner):
        self._inner = inner
        self._failed = False

    def write(self, data):
        if not self._failed:
            self._failed = True
            raise OSError("disk hiccup")
        return self._inner.write(data)

    def flush(self):
        return self._inner.flush()

    def close(self):
        return self._inner.close()


def test_pending_updates_survive_a_failed_write(tmp_path):
    path = tmp_path / "t.ndjson"
    t = Tracer(str(path))
    t._file = _FlakyFile(t._file)
    t.notify_change("x", "Update", (), (42,))
    with pytest.raises(OSError):
        t.log("Step")
    # the buffer was not cleared, so a retry carries the same update
    t.log("Step")
    t.close()
    trace = read_trace_file(str(path))
    assert len(trace) == 1
    assert trace[0].updates["x"][0].args == (VInt(42),)


def test_event_args_need_an_event(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.notify_change("x", "Update", (), (42,))
        with pytest.raises(ValueError):
            t.log(None, ["rm-7"])
        assert path.read_text() == ""
        # the buffer was not cleared, so a retry carries the same update
        t.log("Step")
    trace = read_trace_file(str(path))
    assert len(trace) == 1
    assert trace[0].updates["x"][0].args == (VInt(42),)


def test_in_memory_clock_is_strictly_increasing_across_threads(tmp_path):
    clock = InMemoryClock()
    tracers = [Tracer(str(tmp_path / f"p{i}.ndjson"), clock) for i in range(4)]
    seen = [[] for _ in range(4)]

    def worker(i):
        for _ in range(250):
            seen[i].append(tracers[i].log())

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for t in tracers:
        t.close()

    stamps = [s for per in seen for s in per]
    assert len(set(stamps)) == 1000
    for per in seen:
        assert per == sorted(per)


def test_file_based_clock_is_shared_through_the_file(tmp_path):
    path = str(tmp_path / "clock")
    a = FileBasedClock(path)
    with open(path) as f:
        assert f.read() == "0\n"
    b = FileBasedClock(path)  # attaching again must not reset the counter
    assert a.next() == 1
    assert b.next() == 2
    assert a.next() == 3
    with open(path) as f:
        assert f.read() == "3\n"


def test_file_based_clock_attaches_to_a_file_made_after_its_check(
        tmp_path, monkeypatch):
    # Another process creates (and ticks) the clock between a check for
    # the file and its creation: attaching must neither fail nor reset.
    path = str(tmp_path / "clock")
    first = FileBasedClock(path)
    for _ in range(3):
        first.next()
    monkeypatch.setattr(os.path, "exists", lambda p: False)
    late = FileBasedClock(path)
    assert late.next() == 4


def test_explicit_clock_requires_clock_value(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path), ExplicitClock()) as t:
        with pytest.raises(MissingClock):
            t.log("Step")
        assert t.log("Step", clock_value=17) == 17
    trace = read_trace_file(str(path))
    assert trace[0].clock == 17


def test_clock_value_needs_an_explicit_clock(tmp_path):
    with Tracer(str(tmp_path / "t.ndjson")) as t:
        with pytest.raises(ValueError):
            t.log("Step", clock_value=5)


def test_get_tracer_reads_trace_path_env(tmp_path, monkeypatch):
    path = tmp_path / "env.ndjson"
    monkeypatch.setenv("TRACE_PATH", str(path))
    with get_tracer() as t:
        assert t.trace_path == str(path)
        t.log("Hello")
    assert path.exists()


def test_missing_path_and_env_raises(monkeypatch):
    monkeypatch.delenv("TRACE_PATH", raising=False)
    with pytest.raises(ValueError):
        Tracer()


def test_virtual_field_prefixes_paths(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        state = t.get_variable_tracer("state")
        state.get_field("node").get_field("inbox").append("m1")
        state.get_field("count").update(3)
        t.log()
    e = read_trace_file(str(path))[0]
    ops = e.updates["state"]
    assert ops[0].op == "Append"
    assert ops[0].path == ("node", "inbox")
    assert ops[1].op == "Update"
    assert ops[1].path == ("count",)


def test_virtual_field_shortcuts_map_to_operators(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        v = t.get_variable_tracer("v")
        v.update(1)
        v.init(2)
        v.add(3)
        v.remove(3)
        v.add_to_bag(4)
        v.remove_from_bag(4)
        v.clear()
        v.append(5)
        t.log()
    ops = [u.op for u in read_trace_file(str(path))[0].updates["v"]]
    assert ops == ["Update", "Init", "Add", "Remove", "AddToBag",
                   "RemoveFromBag", "Clear", "Append"]


def test_arguments_are_coerced_to_model_values(tmp_path):
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.notify_change("s", "Update", (), ({"a", "b"},))
        t.log()
    up = read_trace_file(str(path))[0].updates["s"][0]
    # a Python set arrives as a set value before hitting the wire
    assert mk({"a", "b"}) == VSet((VStr("a"), VStr("b")))
    # the wire flattens it to a sequence; parsing keeps that form
    assert sorted(a.text for a in up.args[0].items) == ["a", "b"]


def test_multiple_tracers_one_clock_merge_cleanly(tmp_path):
    clock = InMemoryClock()
    paths = [str(tmp_path / f"n{i}.ndjson") for i in range(3)]
    tracers = [Tracer(p, clock) for p in paths]
    for round_ in range(5):
        for t in tracers:
            t.notify_change("x", "Update", (), (round_,))
            t.log("Tick")
    for t in tracers:
        t.close()
    from tracecheck import merge
    traces = [read_trace_file(p) for p in paths]
    merged = merge(traces)
    clocks = [e.clock for e in merged]
    assert clocks == sorted(clocks)
    assert len(set(clocks)) == 15
    # each tracer's entries are the merge's own objects, in file order
    for trace in traces:
        ids = {id(e) for e in trace}
        assert [id(e) for e in merged if id(e) in ids] == \
            [id(e) for e in trace]


@pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\u0085"])
def test_unicode_line_separators_in_values_read_back(tmp_path, sep):
    # json.dumps(ensure_ascii=False) writes these raw; only "\n" ends a
    # line, so the entry reads back whole.
    path = tmp_path / "t.ndjson"
    with Tracer(str(path)) as t:
        t.notify_change("x", "Update", (f"k{sep}",), (f"a{sep}b",))
        t.log(f"E{sep}", [f"p{sep}q"])
    assert sep in path.read_text(encoding="utf-8")
    (entry,) = read_trace_file(str(path))
    assert entry.updates["x"][0].path == (f"k{sep}",)
    assert entry.updates["x"][0].args == (VStr(f"a{sep}b"),)
    assert entry.event == f"E{sep}"
    assert entry.event_args == (f"p{sep}q",)
