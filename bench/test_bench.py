"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import corpus
import run
import spans

run.import_tracecheck()

import tracecheck.cli  # noqa: E402  (importable once run put src/ first)


@pytest.fixture(scope="module")
def cli():
    return run.cli_caller(tracecheck.cli)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_corpus(tmp_path, cli, workload):
    a = corpus.build(workload, 7, tmp_path / "a", cli)
    b = corpus.build(workload, 7, tmp_path / "b", cli)
    assert a == b
    assert corpus.digest(tmp_path / "a") == corpus.digest(tmp_path / "b")
    corpus.build(workload, 8, tmp_path / "c", cli)
    assert corpus.digest(tmp_path / "c") != corpus.digest(tmp_path / "a")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_known_answer_table_covers_every_op(tmp_path, cli, workload):
    ops = corpus.build(workload, 3, tmp_path / "c", cli)
    assert ops and corpus.load_ops(tmp_path / "c") == ops
    assert len({op.name for op in ops}) == len(ops)
    for op in ops:
        assert op.expected == (0 if op.bug is None else 1), op.name
        for arg in op.resolve(tmp_path / "c", tmp_path / "out"):
            if arg.startswith(str(tmp_path / "c")):
                assert Path(arg).is_file(), (op.name, arg)
    assert {op.bug is None for op in ops} == {True, False}


def test_coarse_cases_run_under_both_search_orders(tmp_path, cli):
    ops = corpus.build("coarse", 1, tmp_path / "c", cli)
    orders: dict[str, set] = {}
    for op in ops:
        orders.setdefault(op.case, set()).add(op.search)
    assert all(v == {"bfs", "dfs"} for v in orders.values())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_span_tree():
    # a [0, 10] contains b [1, 4] and c [5, 9]; c contains b [6, 7].
    clock = FakeClock()
    rec = spans.SpanRecorder(clock)
    for t, action in [(0, "a"), (1, "b"), (4, None), (5, "c"), (6, "b"),
                      (7, None), (9, None), (10, None)]:
        clock.now = t
        rec.enter(action) if action else rec.exit()
    assert rec.calls == {"a": 1, "b": 2, "c": 1}
    assert rec.total == {"a": 10, "b": 4, "c": 4}
    assert rec.self_time == {"a": 10 - 3 - 4, "b": 3 + 1, "c": 4 - 1}


def test_wrappers_are_installed_and_restored():
    def current():
        return [vars(spans.resolve_owner(o))[a] for o, a, *_ in spans.TARGETS]

    before = current()
    rec = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.traced(rec):
            during = current()
            assert all(d is not b for d, b in zip(during, before))
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(current(), before))


def test_traced_cli_call_records_every_layer(tmp_path):
    rec = spans.SpanRecorder()
    with spans.traced(rec):
        code = run.run_op(tracecheck.cli, [
            "run", "twophase", "--rms", "3", "--seed", "1",
            "--out", str(tmp_path / "r"), "--and-validate"])
    assert code == 0
    layers = spans.layer_metrics(rec)
    for name in ("protocols.runs", "tracer.log_calls", "tracer.notify_calls",
                 "traces.parse_entries", "traces.merge_entries",
                 "values.apply_entry_updates_calls",
                 "values.canonical_calls", "machine.step_calls",
                 "machine.fingerprint_calls", "explorer.nodes",
                 "explorer.match_entry_calls"):
        assert layers[name] > 0, name
    assert rec.self_time["cli"] <= rec.total["cli"]
    assert set(layers) <= set(run.PER_LAYER)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_latency_summary_tail_has_ten_ops_beyond():
    lat = run.latency_summary([i / 1000 for i in range(1, 41)])
    assert lat["op_count"] == 40
    assert lat["op_ms_tail"] == pytest.approx(30.0)
    assert lat["tail_percentile"] == pytest.approx(75.0)


def test_tally_counts_wrong_and_crashed_ops():
    ops = [corpus._op("a", [], None), corpus._op("b", [], "counter")]
    tally = run.Tally(ops)
    tally.check([0, 0])
    tally.check([0, None])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.wrong == {"b"}
    assert tally.crashed == 1 and tally.unstable == 1
    assert not tally.correct



def test_scale_to_reference_divides_by_the_local_probe_median():
    ref = run.REFERENCE_PROBE_S
    # Speed halves after the first five ops: probes take twice as long.
    probes = [ref] * 6 + [2 * ref] * 15
    scaled = run.scale_to_reference([0.004] * 20, probes)
    assert scaled[0] == pytest.approx(0.004)
    assert scaled[-1] == pytest.approx(0.002)
    assert all(a >= b for a, b in zip(scaled, scaled[1:]))
    with pytest.raises(AssertionError):
        run.scale_to_reference([0.004], [ref])
