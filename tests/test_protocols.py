"""Protocol simulators: determinism, record levels, injected bugs."""

import gc
import json
import random

import pytest
from oracle import oracle_validate

from tracecheck import (
    ExplorerConfig,
    SimDeadlock,
    Trace,
    read_trace_file,
    serialize_entry,
    validate,
)
from tracecheck.cli import build_parser, main
from tracecheck.protocols import (
    COMPOSITION,
    Recorder,
    TokenRingConfig,
    TwoPhaseConfig,
    build_tokenring_spec,
    build_twophase_spec,
    rm_names,
    run_tokenring,
    run_twophase,
)
from tracecheck.protocols.sim import SimNetwork, SimScheduler


# --- simulation harness --------------------------------------------------


def test_scheduler_breaks_ties_by_insertion_order():
    sched = SimScheduler()
    order = []
    sched.at(1.0, lambda: order.append("a"))
    sched.at(1.0, lambda: order.append("b"))
    sched.at(0.5, lambda: order.append("c"))
    sched.run(10.0, lambda: len(order) == 3)
    assert order == ["c", "a", "b"]


def test_scheduler_rejects_negative_delay():
    with pytest.raises(ValueError):
        SimScheduler().at(-1.0, lambda: None)
    with pytest.raises(ValueError):
        SimScheduler().at(float("nan"), lambda: None)


def test_scheduler_raises_on_drained_queue():
    sched = SimScheduler()
    sched.at(1.0, lambda: None)
    with pytest.raises(SimDeadlock):
        sched.run(10.0, lambda: False)


def test_scheduler_raises_on_time_bound():
    sched = SimScheduler()
    sched.at(5.0, lambda: None)
    with pytest.raises(SimDeadlock):
        sched.run(2.0, lambda: False)


def test_network_validates_parameters():
    sched = SimScheduler()
    rng = random.Random(0)
    with pytest.raises(ValueError):
        SimNetwork(sched, rng, (2.0, 1.0))
    with pytest.raises(ValueError):
        SimNetwork(sched, rng, (-1.0, 1.0))
    for nan_end in [(float("nan"), 1.0), (1.0, float("nan"))]:
        with pytest.raises(ValueError):
            SimNetwork(sched, rng, nan_end)
    with pytest.raises(ValueError):
        SimNetwork(sched, rng, (1.0, 2.0), loss=1.0)
    net = SimNetwork(sched, rng, (1.0, 2.0))
    net.register("a", lambda src, payload: None)
    with pytest.raises(ValueError):
        net.register("a", lambda src, payload: None)


def test_network_delivers_and_reports_drops():
    sched = SimScheduler()
    rng = random.Random(1)
    net = SimNetwork(sched, rng, (1.0, 1.0), loss=0.0)
    got = []
    net.register("dst", lambda src, payload: got.append((src, payload)))
    assert net.send("src", "dst", ("hello",))
    sched.run(10.0, lambda: bool(got))
    assert got == [("src", ("hello",))]

    lossy = SimNetwork(SimScheduler(), random.Random(2), (1.0, 1.0),
                       loss=0.99)
    lossy.register("dst", lambda src, payload: None)
    sent = [lossy.send("src", "dst", ("x",)) for _ in range(50)]
    assert not all(sent)


# --- config validation ----------------------------------------------------


def test_twophase_config_validation():
    with pytest.raises(ValueError):
        TwoPhaseConfig(rms=())
    with pytest.raises(ValueError):
        TwoPhaseConfig(rms=("a", "a"))
    with pytest.raises(ValueError):
        TwoPhaseConfig(record="verbose")
    with pytest.raises(ValueError):
        TwoPhaseConfig(bug="typo")
    with pytest.raises(ValueError):
        TwoPhaseConfig(resend_logging="loud")


NAN = float("nan")
INF = float("inf")


# Each is refused before a run opens any trace file.  A zero resend
# period would reschedule the resend at one virtual time forever.
@pytest.mark.parametrize("field, value", [
    ("delay", (NAN, 2.0)), ("delay", (1.0, NAN)), ("delay", (-1.0, 2.0)),
    ("work", (NAN, NAN)), ("work", (-5.0, -1.0)), ("work", (1.0, INF)),
    ("timeout", 0.0), ("timeout", -1.0), ("timeout", NAN),
    ("abort_after", NAN), ("abort_after", -1.0),
])
def test_twophase_config_refuses_bad_timings(field, value):
    with pytest.raises(ValueError, match=field):
        TwoPhaseConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("delay", (NAN, 2.0)), ("delay", (-1.0, 2.0)),
    ("work", (1.0, NAN)), ("work", (-5.0, -1.0)), ("work", (INF, INF)),
])
def test_tokenring_config_refuses_bad_timings(field, value):
    with pytest.raises(ValueError, match=field):
        TokenRingConfig(**{field: value})


def test_tokenring_config_validation():
    with pytest.raises(ValueError):
        TokenRingConfig(n=1)
    with pytest.raises(ValueError):
        TokenRingConfig(bug="typo")
    with pytest.raises(ValueError):
        build_tokenring_spec(1)


def test_recorder_levels_gate_output():
    class FakeTracer:
        def __init__(self):
            self.notes = []
            self.logs = []

        def notify_change(self, variable, op, path=(), args=()):
            self.notes.append(variable)

        def log(self, event=None, event_args=None):
            self.logs.append((event, event_args))
            return 1

    ft = FakeTracer()
    Recorder(ft, "e").notify("x", "Update", args=(1,))
    assert ft.notes == []
    Recorder(ft, "e").log("Go", [1])
    assert ft.logs[-1] == ("Go", None)
    Recorder(ft, "v").log("Go", [1])
    assert ft.logs[-1] == (None, None)
    Recorder(ft, "vpea", privileged=False).log("Go", [1])
    assert ft.logs[-1] == (None, None)
    Recorder(ft, "vpea", privileged=True).log("Go", [1])
    assert ft.logs[-1] == ("Go", [1])
    with pytest.raises(ValueError):
        Recorder(ft, "loud")


# --- two-phase runs --------------------------------------------------------


def test_twophase_happy_path_is_accepted(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(3), seed=5)
    res = run_twophase(cfg, tmp_path / "run")
    assert res.protocol == "twophase"
    v = validate(res.spec, res.trace)
    assert v.accepted
    assert v.consumed_max == len(res.trace)
    # every RM prepares, is counted, and learns the decision
    events = [e.event for e in res.trace]
    assert events.count("RMPrepare") == 3
    assert events.count("TMRcvPrepared") == 3
    assert events.count("TMCommit") == 1
    assert events.count("RMRcvCommitMsg") == 3


def test_twophase_abort_path_is_accepted(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=5, abort_after=0.5)
    res = run_twophase(cfg, tmp_path / "run")
    events = [e.event for e in res.trace]
    assert "TMAbort" in events
    assert "TMCommit" not in events
    assert validate(res.spec, res.trace).accepted


def test_twophase_identical_seeds_give_identical_bytes(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(3), seed=9, loss=0.1, timeout=7.0)
    a = run_twophase(cfg, tmp_path / "a")
    b = run_twophase(cfg, tmp_path / "b")
    assert a.merged_file.read_bytes() == b.merged_file.read_bytes()
    for fa, fb in zip(a.trace_files, b.trace_files):
        assert fa.read_bytes() == fb.read_bytes()


def test_twophase_different_seeds_differ(tmp_path):
    a = run_twophase(TwoPhaseConfig(rms=rm_names(3), seed=1), tmp_path / "a")
    b = run_twophase(TwoPhaseConfig(rms=rm_names(3), seed=2), tmp_path / "b")
    # same events may occur, but interleaving or timing differs for
    # at least one of these seeds
    assert (a.merged_file.read_bytes() != b.merged_file.read_bytes()
            or len(a.trace) == len(b.trace))


def test_twophase_lossy_run_accepted_with_stutter(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=3, loss=0.3, timeout=5.0)
    res = run_twophase(cfg, tmp_path / "run")
    v = validate(res.spec, res.trace,
                 ExplorerConfig(allow_stutter=True))
    assert v.accepted


def test_twophase_forced_resend_produces_stutter_entries(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=0, delay=(10.0, 10.0),
                         work=(1.0, 1.0), timeout=12.0)
    res = run_twophase(cfg, tmp_path / "run")
    bare = [e for e in res.trace if e.event is None]
    assert len(bare) == 2
    rejected = validate(res.spec, res.trace)
    assert not rejected.accepted
    accepted = validate(res.spec, res.trace,
                        ExplorerConfig(allow_stutter=True))
    assert accepted.accepted
    stutters = [w for w in accepted.witness if w.name == "(stutter)"]
    assert len(stutters) == 2
    assert oracle_validate(res.spec, res.trace,
                           ExplorerConfig(allow_stutter=True))
    assert not oracle_validate(res.spec, res.trace)


def test_twophase_counter_bug_rejected_at_commit(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(3), seed=0, bug="counter",
                         force_resend=True, resend_logging="silent")
    res = run_twophase(cfg, tmp_path / "run")
    v = validate(res.spec, res.trace, ExplorerConfig(allow_stutter=True))
    assert not v.accepted
    blocked_entry = res.trace[v.failures[0].entry_index - 1]
    assert blocked_entry.event == "TMCommit"
    assert any(a.candidate == "TMCommit" for f in v.failures
               for a in f.attempts)


def test_twophase_counter_bug_harmless_without_duplicates(tmp_path):
    # without resends the tally equals the set size, so the bug hides
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=1, bug="counter")
    res = run_twophase(cfg, tmp_path / "run")
    assert validate(res.spec, res.trace).accepted


def test_twophase_record_levels_shape_entries(tmp_path):
    def run_at(level):
        cfg = TwoPhaseConfig(rms=rm_names(2), seed=4, record=level)
        return run_twophase(cfg, tmp_path / level)

    v = run_at("v").trace
    assert all(e.event is None for e in v)
    assert any(e.updates for e in v)

    ea = run_at("ea").trace
    assert all(not e.updates for e in ea)
    assert any(e.event is not None for e in ea)
    assert any(e.event_args for e in ea)

    e_only = run_at("e").trace
    assert all(not e.updates and e.event_args is None for e in e_only)
    assert any(e.event is not None for e in e_only)

    # Only the coordinator's file carries events at vpea.
    files = run_at("vpea").trace_files
    assert files[0].stem == "tm"
    tm, *others = [read_trace_file(p) for p in files]
    assert any(e.event is not None for e in tm)
    assert all(e.event is None for rm in others for e in rm)
    assert any(e.updates for rm in others for e in rm)


def test_twophase_eventless_levels_still_validate(tmp_path):
    for level in ("v", "vpea", "ea", "e"):
        cfg = TwoPhaseConfig(rms=rm_names(2), seed=6, record=level)
        res = run_twophase(cfg, tmp_path / level)
        assert validate(res.spec, res.trace).accepted, level


def test_twophase_manifest_contents(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=7)
    res = run_twophase(cfg, tmp_path / "run")
    manifest = json.loads(res.manifest_file.read_text())
    assert manifest["protocol"] == "twophase"
    assert manifest["seed"] == 7
    assert manifest["config"]["rms"] == ["rm-0", "rm-1"]
    assert manifest["files"] == ["tm.ndjson", "rm-0.ndjson", "rm-1.ndjson"]
    assert manifest["merged"] == "merged.ndjson"
    assert manifest["entries"] == len(res.trace)
    assert manifest["composition"] == {}
    for f in res.trace_files:
        assert f.exists()


def test_twophase_merged_sources_name_processes(tmp_path):
    res = run_twophase(TwoPhaseConfig(rms=rm_names(2), seed=8),
                       tmp_path / "run")
    assert [p.stem for p in res.trace_files] == ["tm", "rm-0", "rm-1"]
    # The merged trace is the clock-sorted union of the process files.
    union = [e for p in res.trace_files for e in read_trace_file(p)]
    assert sorted(map(serialize_entry, res.trace)) == \
        sorted(map(serialize_entry, union))
    clocks = [e.clock for e in res.trace]
    assert clocks == sorted(clocks)


def test_twophase_time_limit_deadlock(tmp_path):
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=0, time_limit=0.5)
    with pytest.raises(SimDeadlock):
        run_twophase(cfg, tmp_path / "run")


def test_twophase_invariants_hold_on_run_states(tmp_path):
    res = run_twophase(TwoPhaseConfig(rms=rm_names(2), seed=12),
                       tmp_path / "run")
    v = validate(res.spec, res.trace)
    assert v.accepted
    for w in v.witness:
        assert res.spec.invariants["TypeOK"](w.state)
        assert res.spec.invariants["Consistent"](w.state)


# --- token ring -------------------------------------------------------------


def test_tokenring_needs_composition(tmp_path):
    cfg = TokenRingConfig(n=3, seed=2)
    res = run_tokenring(cfg, tmp_path / "run")
    assert res.composition == COMPOSITION

    plain = validate(res.spec, res.trace)
    assert not plain.accepted
    reasons = {a.reason for f in plain.failures for a in f.attempts}
    assert "UnknownEvent" in reasons

    composed = validate(res.spec, res.trace,
                        ExplorerConfig(composition=res.composition))
    assert composed.accepted
    assert composed.consumed_max == len(res.trace)


def test_tokenring_correct_run_shape(tmp_path):
    res = run_tokenring(TokenRingConfig(n=3, seed=2), tmp_path / "run")
    events = [e.event for e in res.trace]
    assert events.count("Deactivate") == 3
    assert events.count("InitiateProbe") == 1
    assert events.count("PassToken") == 2
    assert events.count("DetectAndInit") == 1
    assert len(res.trace) == 7


def test_tokenring_determinism(tmp_path):
    cfg = TokenRingConfig(n=4, seed=9)
    a = run_tokenring(cfg, tmp_path / "a")
    b = run_tokenring(cfg, tmp_path / "b")
    assert a.merged_file.read_bytes() == b.merged_file.read_bytes()


def test_tokenring_eternal_token_bug_rejected(tmp_path):
    cfg = TokenRingConfig(n=3, seed=2, bug="eternal-token")
    res = run_tokenring(cfg, tmp_path / "run")
    v = validate(res.spec, res.trace,
                 ExplorerConfig(composition=res.composition))
    assert not v.accepted
    # the first offending entry is a PassToken after detection
    blocked = res.trace[v.failures[0].entry_index - 1]
    assert blocked.event == "PassToken"
    details = " ".join(a.detail for f in v.failures for a in f.attempts)
    assert "termination" in details


def test_tokenring_self_message_bug_rejected(tmp_path):
    cfg = TokenRingConfig(n=3, seed=2, bug="self-message")
    res = run_tokenring(cfg, tmp_path / "run")
    v = validate(res.spec, res.trace,
                 ExplorerConfig(composition=res.composition,
                                allow_stutter=True))
    assert not v.accepted
    blocked = res.trace[v.failures[0].entry_index - 1]
    # the reactivation entry is eventless: active[1] flips back to true
    assert blocked.event is None
    assert "active" in blocked.updates


def test_tokenring_manifest_advertises_composition(tmp_path):
    res = run_tokenring(TokenRingConfig(n=3, seed=0), tmp_path / "run")
    manifest = json.loads(res.manifest_file.read_text())
    assert manifest["composition"] == {
        "DetectAndInit": ["DetectTermination", "InitiateProbe"]}


def test_tokenring_invariant_holds_on_correct_run(tmp_path):
    res = run_tokenring(TokenRingConfig(n=3, seed=5), tmp_path / "run")
    v = validate(res.spec, res.trace,
                 ExplorerConfig(composition=res.composition))
    assert v.accepted
    for w in v.witness:
        assert res.spec.invariants["QuietWhenDetected"](w.state)


def cyclic_types(action) -> set[str]:
    """The types of the objects ``action`` leaves in reference cycles."""
    # With the collector paused, everything left in reference cycles is
    # kept in gc.garbage by the next collection.
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return {f"{type(o).__module__}.{type(o).__qualname__}"
                for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("run, cfg", [
    (run_twophase, TwoPhaseConfig(rms=rm_names(8), seed=3)),
    (run_tokenring, TokenRingConfig(n=8, seed=3)),
], ids=["twophase", "tokenring"])
def test_simulated_run_leaves_no_tracecheck_cycles(tmp_path, run, cfg):
    assert cyclic_types(lambda: run(cfg, tmp_path / "run")) == set()


def test_cli_call_leaves_no_tracecheck_cycles(tmp_path):
    ring = run_tokenring(TokenRingConfig(n=5, seed=2, record="v"),
                         tmp_path / "ring")
    calls = [
        ["validate", "--spec", "tokenring:5",
         "--trace", str(ring.merged_file),
         "--compose", str(ring.manifest_file), "--allow-stutter"],
        ["run", "tokenring", "--n", "5", "--seed", "2",
         "--out", str(tmp_path / "run"), "--and-validate"],
    ]
    build_parser()      # built once per process, so not a call's garbage
    for argv in calls:
        assert cyclic_types(lambda: main(argv)) == set(), argv
