"""Trace exploration: matching, search, oracle agreement, reporting."""

import ast
import dataclasses
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from oracle import oracle_validate

import tracecheck
from tracecheck import (
    ActionSchema,
    ExplorerConfig,
    GuardClause,
    Spec,
    SpecState,
    STUTTER,
    Trace,
    TraceEntry,
    UpdateOp,
    explain,
    explored_dot,
    match_entry,
    read_trace_file,
    step,
    validate,
)
from tracecheck.explorer import step_label
from tracecheck.protocols import (
    TokenRingConfig,
    TwoPhaseConfig,
    build_twophase_spec,
    rm_names,
    run_tokenring,
    run_twophase,
)
from tracecheck.values import VBool, VInt, VSet, VStr, mk


def up(op, *args, path=()):
    return UpdateOp(op, tuple(path), tuple(mk(a) for a in args))


def entry(clock, updates=None, event=None, event_args=None):
    ups = {}
    for var, ops in (updates or {}).items():
        ups[var] = tuple(ops) if isinstance(ops, (list, tuple)) else (ops,)
    args = tuple(event_args) if event_args is not None else None
    return TraceEntry(clock=clock, updates=ups, event=event, event_args=args)


def ladder_spec():
    """x climbs 0,1,2,..; Up(k) moves from k-1 to k; Down resets."""
    dom = tuple(VInt(i) for i in range(6))
    upact = ActionSchema(
        "Up", (("k", dom),),
        (GuardClause("x = k - 1",
                     lambda s, p: s["x"].n == p["k"].n - 1),),
        lambda s, p: [{"x": p["k"]}],
    )
    down = ActionSchema(
        "Down", (),
        (GuardClause("x > 0", lambda s, p: s["x"].n > 0),),
        lambda s, p: [{"x": VInt(0)}],
    )
    return Spec(variables=("x",),
                init=[SpecState({"x": VInt(0)})],
                actions=[upact, down])


def fork_spec():
    """Fork nondeterministically writes x=1 or x=2."""
    fork = ActionSchema(
        "Fork", (), (),
        lambda s, p: [{"x": VInt(1)}, {"x": VInt(2)}],
    )
    return Spec(variables=("x",),
                init=[SpecState({"x": VInt(0)})],
                actions=[fork])


def stage_spec():
    """A: x 0->1.  B: x 1->2.  C guard x=5 never fires after A."""
    a = ActionSchema("A", (),
                     (GuardClause("x = 0", lambda s, p: s["x"] == VInt(0)),),
                     lambda s, p: [{"x": VInt(1)}])
    b = ActionSchema("B", (),
                     (GuardClause("x = 1", lambda s, p: s["x"] == VInt(1)),),
                     lambda s, p: [{"x": VInt(2)}])
    c = ActionSchema("C", (),
                     (GuardClause("x = 5", lambda s, p: s["x"] == VInt(5)),),
                     lambda s, p: [{"x": VInt(9)}])
    return Spec(variables=("x",),
                init=[SpecState({"x": VInt(0)})],
                actions=[a, b, c])


# --- match_entry -------------------------------------------------------


def test_match_named_event_pins_action_and_args():
    spec = ladder_spec()
    e = entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert len(matches) == 1
    assert matches[0].name == "Up"
    assert matches[0].state["x"] == VInt(1)
    assert step_label(matches[0].name, matches[0].values) == "Up(1)"


def test_match_guard_failures_are_reported():
    spec = ladder_spec()
    e = entry(1, {"x": up("Update", 3)}, event="Up", event_args=["3"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    assert attempts[0].reason == "GuardFailed"
    assert "x = k - 1" in attempts[0].detail


def test_match_update_mismatch_reports_expected_and_actual():
    spec = ladder_spec()
    # the trace claims x becomes 7 under Up(1); the spec step gives 1
    e = entry(1, {"x": up("Update", 7)}, event="Up", event_args=["1"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    mis = [a for a in attempts if a.reason == "UpdateMismatch"]
    assert mis
    assert mis[0].variable == "x"
    assert mis[0].expected == VInt(7)
    assert mis[0].actual == VInt(1)


def test_match_unknown_event_is_an_attempt():
    spec = ladder_spec()
    e = entry(1, event="Teleport")
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    assert [(a.candidate, a.reason) for a in attempts] == [
        ("Teleport", "UnknownEvent")]


def test_match_no_valuation_for_overlong_args():
    spec = ladder_spec()
    e = entry(1, event="Up", event_args=["1", "2"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    assert attempts[0].reason == "NoCandidateAction"


def test_match_update_error_on_unknown_variable():
    spec = ladder_spec()
    e = entry(1, {"ghost": up("Update", 1)}, event="Up", event_args=["1"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    assert attempts[0].reason == "UpdateError"
    assert "ghost" in attempts[0].detail


def test_match_update_error_on_broken_update():
    spec = ladder_spec()
    # Remove on an int is not applicable
    e = entry(1, {"x": up("Remove", 0)}, event="Up", event_args=["1"])
    matches, attempts = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    assert attempts[0].reason == "UpdateError"


def test_eventless_entry_ranges_over_all_actions():
    spec = ladder_spec()
    e = entry(1, {"x": up("Update", 1)})
    matches, _ = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert [m.name for m in matches] == ["Up"]


def test_eventless_unchanged_entry_needs_stutter():
    spec = ladder_spec()
    e = entry(1, {"x": up("Update", 0)})
    matches, _ = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert matches == []
    matches2, _ = match_entry(spec, spec.init[0], e,
                              ExplorerConfig(allow_stutter=True))
    assert [m.name for m in matches2] == [STUTTER]
    assert matches2[0].state == spec.init[0]
    assert matches2[0].stage_values == ()


def test_stutter_refused_when_a_variable_changes():
    spec = ladder_spec()
    e = entry(1, {"x": up("Update", 4)})
    matches, attempts = match_entry(spec, spec.init[0], e,
                                    ExplorerConfig(allow_stutter=True))
    assert matches == []
    stutter_attempts = [a for a in attempts if a.candidate == STUTTER]
    assert stutter_attempts and stutter_attempts[0].reason == "UpdateMismatch"


def test_nondeterministic_effect_filtered_by_updates():
    spec = fork_spec()
    e = entry(1, {"x": up("Update", 2)}, event="Fork")
    matches, _ = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert len(matches) == 1
    assert matches[0].state["x"] == VInt(2)


def test_unrecorded_variables_are_unconstrained():
    spec = fork_spec()
    e = entry(1, event="Fork")
    matches, _ = match_entry(spec, spec.init[0], e, ExplorerConfig())
    assert {m.state["x"].n for m in matches} == {1, 2}


# --- composition -------------------------------------------------------


def test_composed_event_chains_stages():
    spec = stage_spec()
    cfg = ExplorerConfig(composition={"AB": ("A", "B")})
    e = entry(1, {"x": up("Update", 2)}, event="AB")
    matches, _ = match_entry(spec, spec.init[0], e, cfg)
    assert len(matches) == 1
    m = matches[0]
    assert m.name == "AB"
    assert m.state["x"] == VInt(2)
    assert m.stage_values == ((), ())
    assert step_label(m.name, m.values) == "AB"


def test_composed_stage_failure_names_the_stage():
    spec = stage_spec()
    # AC: A fires, then C is blocked (stage 1).  BA: B is blocked in
    # the initial state, so the chain dies at its first stage.
    for event, stages, stage in (("AC", ("A", "C"), 1),
                                 ("BA", ("B", "A"), 0)):
        cfg = ExplorerConfig(composition={event: stages})
        e = entry(1, {"x": up("Update", 9)}, event=event)
        matches, attempts = match_entry(spec, spec.init[0], e, cfg)
        assert matches == []
        assert attempts[0].reason == "CompositionStageFailed"
        assert attempts[0].stage == stage
        assert attempts[0].stage_name == stages[stage]
        assert f"stage {stage} ({stages[stage]})" in attempts[0].detail


def test_composed_update_mismatch():
    spec = stage_spec()
    cfg = ExplorerConfig(composition={"AB": ("A", "B")})
    e = entry(1, {"x": up("Update", 5)}, event="AB")
    matches, attempts = match_entry(spec, spec.init[0], e, cfg)
    assert matches == []
    assert attempts[0].reason == "UpdateMismatch"


def test_pruning_skips_only_steps_whose_frame_misses_a_change(
        monkeypatch):
    # Free has no frame, so it is never pruned; OnlyY and the stutter
    # cannot change x, so an entry that changes x prunes them.
    free = ActionSchema("Free", (), (), lambda s, p: [{"x": VInt(1)}])
    only_x = ActionSchema("OnlyX", (), (), lambda s, p: [{"x": VInt(2)}],
                          writes=frozenset({"x"}))
    only_y = ActionSchema("OnlyY", (), (), lambda s, p: [{"y": VInt(1)}],
                          writes=frozenset({"y"}))
    spec = Spec(variables=("x", "y"),
                init=[SpecState({"x": VInt(0), "y": VInt(0)})],
                actions=[free, only_x, only_y])
    cfg = ExplorerConfig(allow_stutter=True)
    fired = []

    def counting_step(spec, state, name, values):
        fired.append(name)
        return step(spec, state, name, values)

    monkeypatch.setattr("tracecheck.explorer.step", counting_step)
    e = entry(1, {"x": up("Update", 1)})
    full, attempts = match_entry(spec, spec.init[0], e, cfg)
    assert fired == ["Free", "OnlyX", "OnlyY"]
    assert len(attempts) == 3             # OnlyX, OnlyY and the stutter
    fired.clear()
    pruned, none = match_entry(spec, spec.init[0], e, cfg, prune=True)
    assert fired == ["Free", "OnlyX"]
    assert none == []
    assert [m.name for m in pruned] == [m.name for m in full] == ["Free"]


def test_shapes_tell_apart_entries_that_share_an_updates_dict(
        monkeypatch):
    # Every step keeps x at 0, so each entry is matched from one state,
    # and only the entry's shape tells the memo's keys apart.
    keep = ActionSchema("A", (("p", (VStr("p"), VStr("q"))),), (),
                        lambda s, p: [{"x": VInt(0)}])
    also = ActionSchema("B", (), (), lambda s, p: [{"x": VInt(0)}])
    spec = Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[keep, also])
    shared = {"x": (up("Update", 0),)}
    t = Trace([
        TraceEntry(1, shared, "A", ("p",)),
        TraceEntry(2, shared, "A", ("q",)),    # other event args
        TraceEntry(3, shared, "B"),            # other event
        # Equal to the first entry, from a dict of its own.
        TraceEntry(4, {"x": (up("Update", 0),)}, "A", ("p",)),
        TraceEntry(5, shared, "B"),
    ])
    matched = []

    def counting_match_entry(spec, state, e, *args, **kwargs):
        matched.append(e.clock)
        return match_entry(spec, state, e, *args, **kwargs)

    monkeypatch.setattr("tracecheck.explorer.match_entry",
                        counting_match_entry)
    v = validate(spec, t)
    assert v.accepted
    assert matched == [1, 2, 3]
    assert [step_label(m.name, m.values) for m in v.witness] == [
        "A(p)", "A(q)", "B", "A(p)", "B"]


@pytest.mark.parametrize("update, pinned", [
    (up("Update", "prepared", path=["rm-2"]), ["rm-2"]),
    # A whole-record update names no field, so it pins nothing.
    (up("Update", {"rm-0": "working", "rm-1": "working",
                   "rm-2": "prepared", "rm-3": "working"}),
     list(rm_names(4))),
], ids=["field", "whole-record"])
def test_key_frames_pin_the_key_to_the_fields_an_entry_writes(
        monkeypatch, update, pinned):
    spec = build_twophase_spec(rm_names(4))
    cfg = ExplorerConfig()
    fired = []

    def counting_step(spec, state, name, values):
        fired.append((name, values[0].text if values else None))
        return step(spec, state, name, values)

    def fired_rms():
        return sorted({r for name, r in fired if name.startswith("RM")})

    monkeypatch.setattr("tracecheck.explorer.step", counting_step)
    e = entry(1, {"rmState": update})
    full, _ = match_entry(spec, spec.init[0], e, cfg)
    assert fired_rms() == list(rm_names(4))
    fired.clear()
    pruned, _ = match_entry(spec, spec.init[0], e, cfg, prune=True)
    assert fired_rms() == pinned
    assert [(m.name, m.values) for m in pruned] == \
        [(m.name, m.values) for m in full] == [("RMPrepare", (VStr("rm-2"),))]


def test_eventless_entry_may_be_a_composed_action():
    # x goes 0 -> 2 in one entry: no single action does that, AB does.
    spec = stage_spec()
    cfg = ExplorerConfig(composition={"AB": ("A", "B")})
    e = entry(1, {"x": up("Update", 2)})
    matches, _ = match_entry(spec, spec.init[0], e, cfg)
    assert [(m.name, m.stage_values) for m in matches] == [("AB", ((), ()))]
    assert validate(spec, Trace([e]), cfg).accepted
    assert oracle_validate(spec, Trace([e]), cfg)


@pytest.mark.parametrize("search", ["bfs", "dfs"])
def test_faithful_eventless_tokenring_trace_is_accepted(tmp_path, search):
    # Level v leaves every entry event-less, so the entry the fused
    # DetectAndInit step recorded matches only through its composition.
    res = run_tokenring(TokenRingConfig(n=5, seed=0, record="v"),
                        tmp_path / "run")
    cfg = ExplorerConfig(search=search, composition=res.composition)
    assert validate(res.spec, res.trace, cfg).accepted
    assert oracle_validate(res.spec, res.trace, cfg)


def test_composition_validticket_checked_upfront():
    spec = stage_spec()
    with pytest.raises(ValueError):
        validate(spec, Trace([]), ExplorerConfig(composition={"AX": ("A", "X")}))
    with pytest.raises(ValueError):
        validate(spec, Trace([]), ExplorerConfig(composition={"A1": ("A",)}))


# --- validate ----------------------------------------------------------


def test_accepts_full_trace_and_reports_witness():
    spec = ladder_spec()
    t = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 2)}, event="Up", event_args=["2"]),
        entry(3, {"x": up("Update", 0)}, event="Down"),
    ])
    v = validate(spec, t)
    assert v.accepted
    assert v.status() == "accepted"
    assert v.consumed_max == 3
    assert v.trace_length == 3
    assert [w.name for w in v.witness] == ["Up", "Up", "Down"]
    assert [w["entry"] for w in v.to_jsonable()["witness"]] == [1, 2, 3]


def test_rejection_reports_deepest_entry():
    spec = ladder_spec()
    t = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 5)}, event="Up", event_args=["5"]),
    ])
    v = validate(spec, t)
    assert not v.accepted
    assert v.status() == "rejected"
    assert v.consumed_max == 1
    assert v.failures
    assert all(f.entry_index == 2 for f in v.failures)


def test_empty_trace_is_accepted():
    spec = ladder_spec()
    v = validate(spec, Trace([]))
    assert v.accepted
    assert v.consumed_max == 0
    assert v.witness == []


def test_unknown_event_rejects_with_hint_attempt():
    spec = ladder_spec()
    t = Trace([entry(1, event="Warp")])
    v = validate(spec, t)
    assert not v.accepted
    assert v.failures[0].attempts[0].reason == "UnknownEvent"
    assert "composition" in v.failures[0].attempts[0].detail


def test_bfs_and_dfs_agree_on_acceptance():
    spec = ladder_spec()
    good = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 0)}, event="Down"),
    ])
    bad = Trace([
        entry(1, {"x": up("Update", 2)}, event="Up", event_args=["2"]),
    ])
    for t, expect in ((good, True), (bad, False)):
        b = validate(spec, t, ExplorerConfig(search="bfs"))
        d = validate(spec, t, ExplorerConfig(search="dfs"))
        assert b.accepted == d.accepted == expect
        assert b.consumed_max == d.consumed_max
        assert oracle_validate(spec, t) == expect


def test_search_name_is_validated():
    with pytest.raises(ValueError):
        ExplorerConfig(search="iddfs")


@pytest.mark.parametrize("budget", [
    {"max_states": -3}, {"max_seconds": -1.0}, {"max_seconds": float("nan")},
], ids=["negative-states", "negative-seconds", "nan-seconds"])
def test_budget_that_bounds_nothing_is_refused(budget):
    with pytest.raises(ValueError, match="must be at least 0"):
        ExplorerConfig(**budget)


# The initial states are filed whatever the budget, so even a budget of
# 0 holds one node.
@pytest.mark.parametrize("max_states", [0, 1])
def test_budget_max_states_yields_inconclusive(max_states):
    spec = ladder_spec()
    t = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 2)}, event="Up", event_args=["2"]),
        entry(3, {"x": up("Update", 3)}, event="Up", event_args=["3"]),
    ])
    v = validate(spec, t, ExplorerConfig(max_states=max_states))
    assert v.distinct_states == 1
    assert not v.accepted
    assert v.inconclusive
    assert v.status() == "inconclusive"
    assert "max_states" in v.budget_reason


def test_budget_max_seconds_yields_inconclusive():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 1)}, event="Up",
                     event_args=["1"])] * 3)
    v = validate(spec, t, ExplorerConfig(max_seconds=0.0))
    assert v.inconclusive
    assert "max_seconds" in v.budget_reason


@pytest.mark.parametrize("max_states", [0, 1])
def test_goal_at_budget_edge_stays_accepted(max_states):
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 1)}, event="Up",
                     event_args=["1"])])
    v = validate(spec, t, ExplorerConfig(max_states=max_states))
    assert v.accepted
    assert not v.inconclusive


def test_prefix_of_accepted_trace_is_accepted():
    spec = build_twophase_spec(rm_names(2))
    cfg = TwoPhaseConfig(rms=rm_names(2), seed=11)
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        res = run_twophase(cfg, d)
    full = list(res.trace)
    assert validate(spec, Trace(full)).accepted
    for cut in range(len(full) + 1):
        assert validate(spec, Trace(full[:cut])).accepted


# --- witness soundness -------------------------------------------------


def replay_witness(spec, trace, verdict, composition=None):
    """Re-execute the witness independently, checking each recorded
    variable lands exactly where the entry's updates say."""
    from tracecheck.values import apply_entry_updates

    composition = composition or {}
    assert verdict.witness is not None
    for start in spec.init:
        cur = start
        ok = True
        for k, w in enumerate(verdict.witness):
            e = trace[k]
            expected = {v: apply_entry_updates(cur[v], ops)
                        for v, ops in e.updates.items()}
            if w.stage_values is not None:
                # A chain: a composed step's stages, or the stutter's none.
                stages = () if w.name == STUTTER else composition[w.name]
                assert len(stages) == len(w.stage_values)
                frontier = [cur]
                for name, vals in zip(stages, w.stage_values):
                    nxt = []
                    for m in frontier:
                        try:
                            nxt.extend(step(spec, m, name, list(vals)))
                        except Exception:
                            pass
                    frontier = nxt
                nxt_candidates = frontier
            else:
                try:
                    nxt_candidates = step(spec, cur, w.name, list(w.values))
                except Exception:
                    nxt_candidates = []
            chosen = None
            for t in nxt_candidates:
                if t == w.state and all(t[v] == want
                                        for v, want in expected.items()):
                    chosen = t
                    break
            if chosen is None:
                ok = False
                break
            cur = chosen
        if ok:
            return True
    return False


def test_witness_replays_independently():
    spec = build_twophase_spec(rm_names(2))
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        res = run_twophase(TwoPhaseConfig(rms=rm_names(2), seed=3), d)
    v = validate(spec, res.trace)
    assert v.accepted
    assert replay_witness(spec, res.trace, v)


def test_witness_with_stutter_replays():
    spec = ladder_spec()
    t = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 1)}),
        entry(3, {"x": up("Update", 2)}, event="Up", event_args=["2"]),
    ])
    v = validate(spec, t, ExplorerConfig(allow_stutter=True))
    assert v.accepted
    assert [w.name for w in v.witness] == ["Up", STUTTER, "Up"]
    assert replay_witness(spec, t, v)


def test_witness_with_composition_replays():
    spec = stage_spec()
    comp = {"AB": ("A", "B")}
    t = Trace([entry(1, {"x": up("Update", 2)}, event="AB")])
    v = validate(spec, t, ExplorerConfig(composition=comp))
    assert v.accepted
    assert v.witness[0].stage_values is not None
    assert replay_witness(spec, t, v, composition=comp)


# --- oracle agreement on randomized traces ------------------------------


def random_ladder_trace(rng, n):
    """Random entries over the ladder spec, valid or not."""
    entries = []
    x = 0
    for i in range(n):
        kind = rng.random()
        if kind < 0.6:
            nxt = x + 1 if x < 5 and rng.random() < 0.8 else 0
            ev = "Up" if nxt == x + 1 else "Down"
            args = [str(nxt)] if ev == "Up" else []
            if rng.random() < 0.3:
                ev, args = None, None
            entries.append(entry(i, {"x": up("Update", nxt)}, event=ev,
                                 event_args=args))
            x = nxt
        elif kind < 0.8:
            entries.append(entry(i, {"x": up("Update", rng.randint(0, 6))},
                                 event=rng.choice(["Up", "Down", None])))
            x = None if x is None else x
        else:
            entries.append(entry(i, {}, event=rng.choice(["Up", "Down"])))
    return Trace(entries)


def test_search_matches_oracle_on_random_traces():
    rng = random.Random(77)
    spec = ladder_spec()
    for _ in range(120):
        t = random_ladder_trace(rng, rng.randint(0, 5))
        want = oracle_validate(spec, t)
        for search in ("bfs", "dfs"):
            got = validate(spec, t, ExplorerConfig(search=search))
            assert got.accepted == want, serialize_failure(spec, t, search)


def serialize_failure(spec, t, search):
    from tracecheck import serialize_trace
    return f"disagreement under {search} on:\n{serialize_trace(t)}"


def test_search_matches_oracle_with_stutter_allowed():
    rng = random.Random(79)
    spec = ladder_spec()
    cfg = ExplorerConfig(allow_stutter=True)
    for _ in range(80):
        t = random_ladder_trace(rng, rng.randint(0, 4))
        want = oracle_validate(spec, t, cfg)
        got = validate(spec, t, cfg)
        assert got.accepted == want


def test_oracle_shares_no_matching_code_with_the_search():
    # The oracle cross-checks the search only while it decides
    # acceptance with its own code: it may take the configuration and
    # its composition check from the explorer, and nothing else.
    allowed = {"ExplorerConfig", "_check_composition"}
    source = (Path(__file__).parent / "oracle.py").read_text("utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            assert all(not a.name.startswith("tracecheck.explorer")
                       for a in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and node.module.startswith("tracecheck"):
            module = importlib.import_module(node.module)
            for a in node.names:
                home = getattr(getattr(module, a.name), "__module__", None)
                if "tracecheck.explorer" in (node.module, home):
                    assert a.name in allowed, a.name


# --- reporting ---------------------------------------------------------


def test_explain_mentions_duplicate_add_resend_hint():
    base = SpecState({"s": VSet((VStr("a"),))})
    add_again = ActionSchema(
        "Grow", (),
        (GuardClause("never", lambda s, p: False),),
        lambda s, p: [{}])
    spec = Spec(variables=("s",), init=[base], actions=[add_again])
    t = Trace([entry(1, {"s": up("Add", "a")})])
    v = validate(spec, t)
    assert not v.accepted
    text = explain(v, t)
    assert "re-adds an element already present" in text
    assert "--allow-stutter" in text


def test_explain_accepted_shows_witness():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 1)}, event="Up",
                     event_args=["1"])])
    v = validate(spec, t)
    text = explain(v, t)
    assert text.startswith("accepted: consumed 1 of 1")
    assert "entry 1: Up(1)" in text


def test_explain_rejected_lists_attempts():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 5)}, event="Up",
                     event_args=["5"])])
    v = validate(spec, t)
    text = explain(v, t)
    assert "rejected" in text
    assert "cannot be matched" in text
    assert "guard failed" in text


def test_explain_caps_the_blocked_states_it_lists():
    # Set(k) reaches 8 states; Stop is refused in each of them.
    dom = tuple(VInt(i) for i in range(8))
    spec = Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[ActionSchema("Set", (("k", dom),), (),
                                      lambda s, p: [{"x": p["k"]}]),
                         ActionSchema("Stop", (),
                                      (GuardClause("never",
                                                   lambda s, p: False),),
                                      lambda s, p: [{}])])
    t = Trace([entry(1, event="Set"), entry(2, event="Stop")])
    v = validate(spec, t)
    assert len(v.failures) == 8
    text = explain(v, t)
    assert text.count("blocked state: ") == 5
    assert text.endswith("\n  ... and 3 more blocked state(s)")


def test_verdict_jsonable_shape():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 1)}, event="Up",
                     event_args=["1"])])
    v = validate(spec, t)
    obj = v.to_jsonable()
    assert obj["status"] == "accepted"
    assert obj["accepted"] is True
    assert obj["consumed_max"] == 1
    assert obj["trace_length"] == 1
    assert obj["witness"][0]["step"] == "Up(1)"
    assert obj["witness"][0]["state"] == {"x": "1"}
    import json
    json.dumps(obj)


def test_verdict_jsonable_failure_shape():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 5)}, event="Up",
                     event_args=["5"])])
    obj = validate(spec, t).to_jsonable()
    assert obj["status"] == "rejected"
    assert obj["failures"][0]["entry"] == 1
    assert obj["failures"][0]["attempts"][0]["reason"] == "GuardFailed"


def _count_renders(monkeypatch) -> list[bytes]:
    """The canonical bytes of every value rendered to JSON from here
    on, counting only the outermost call of each rendering."""
    from tracecheck import values
    orig, depth, rendered = values.value_to_jsonable, [0], []

    def counting(v):
        if not depth[0]:
            rendered.append(v.canonical())
        depth[0] += 1
        try:
            return orig(v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(values, "value_to_jsonable", counting)
    return rendered


def test_explain_renders_a_repeated_expected_value_once(monkeypatch):
    # Each Set(k) gives another x, so every attempt reports the entry's
    # expected x, 7, against a value of its own.
    dom = tuple(VInt(i) for i in range(1, 5))
    spec = Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[ActionSchema("Set", (("k", dom),), (),
                                      lambda s, p: [{"x": p["k"]}])])
    t = Trace([entry(1, {"x": up("Update", 7)})])
    v = validate(spec, t)
    assert [a.reason for a in v.failures[0].attempts] == \
        ["UpdateMismatch"] * 4
    rendered = _count_renders(monkeypatch)
    text = explain(v, t)
    assert text.count("trace updates give 7,") == 4
    assert rendered.count(VInt(7).canonical()) == 1
    assert len(rendered) == len(set(rendered))


def test_a_long_witness_renders_each_distinct_value_once(monkeypatch,
                                                         tmp_path):
    res = run_twophase(TwoPhaseConfig(rms=rm_names(4), seed=1,
                                      timeout=0.5, work=(1, 500)),
                       tmp_path)
    v = validate(res.spec, res.trace,
                 ExplorerConfig(allow_stutter=True,
                                composition=res.composition))
    assert v.accepted and len(v.witness) > 1000
    rendered = _count_renders(monkeypatch)
    obj = v.to_jsonable()
    assert len(rendered) == len(set(rendered))
    for w, got in zip(v.witness, obj["witness"]):
        assert got["step"] == step_label(w.name, w.values)
        assert got["state"] == {k: tracecheck.value_to_json(x)
                                for k, x in w.state.bindings.items()}


def test_explored_dot_marks_blocked_nodes():
    spec = ladder_spec()
    t = Trace([
        entry(1, {"x": up("Update", 1)}, event="Up", event_args=["1"]),
        entry(2, {"x": up("Update", 5)}, event="Up", event_args=["5"]),
    ])
    v = validate(spec, t)
    dot = explored_dot(v, t)
    assert "color=red" in dot
    assert "style=dashed" in dot
    assert "blocked [shape=note" in dot
    assert dot.count("n0 ->") >= 1


def test_explored_dot_accepted_has_no_blocked_node():
    spec = ladder_spec()
    t = Trace([entry(1, {"x": up("Update", 1)}, event="Up",
                     event_args=["1"])])
    dot = explored_dot(validate(spec, t), t)
    assert "blocked" not in dot


@pytest.mark.parametrize("level", ["e", "ea", "v"])
def test_validate_agrees_with_oracle_on_seeded_protocol_runs(tmp_path,
                                                             level):
    # Faithful and bug runs of both protocols, plus a copy of each
    # trace with one middle entry dropped.  Levels e and ea pin
    # actions (and their rendered arguments); level v leaves every
    # entry event-less.
    cases = []
    for seed in range(5):
        for bug in (None, "counter"):
            extra = (dict(bug=bug, force_resend=True,
                          resend_logging="silent") if bug else {})
            cases.append(run_twophase(
                TwoPhaseConfig(rms=rm_names(3), seed=seed, record=level,
                               **extra),
                tmp_path / f"tp-{seed}-{bug}"))
        for bug in (None, "self-message", "eternal-token"):
            cases.append(run_tokenring(
                TokenRingConfig(n=4, seed=seed, record=level, bug=bug),
                tmp_path / f"tr-{seed}-{bug}"))
    verdicts = set()
    for res in cases:
        entries = list(res.trace)
        dropped = Trace(entries[:len(entries) // 2]
                        + entries[len(entries) // 2 + 1:])
        cfg = ExplorerConfig(allow_stutter=level == "v",
                             composition=res.composition)
        for trace in (res.trace, dropped):
            want = oracle_validate(res.spec, trace, cfg)
            verdicts.add(want)
            for search in ("bfs", "dfs"):
                got = validate(res.spec, trace,
                               dataclasses.replace(cfg, search=search))
                assert got.accepted == want, (res.out_dir, search)
    assert verdicts == {True, False}


# --- the per-validation match memo -------------------------------------


def test_every_node_state_is_one_shared_object(tmp_path):
    # At level e a state recurs at many lines; each distinct state must
    # be kept once, however many nodes and memo entries refer to it.
    res = run_twophase(TwoPhaseConfig(rms=rm_names(6), seed=1, record="e",
                                      work=(1.0, 1.0)), tmp_path / "run")
    verdict = validate(res.spec, res.trace)
    assert verdict.accepted
    fingerprints = {s.fingerprint() for s in verdict.states}
    assert len(fingerprints) < len(verdict.states)
    assert len({id(s) for s in verdict.states}) == len(fingerprints)


@pytest.mark.parametrize("level", ["e", "v"])
def test_equal_states_of_a_verdict_are_one_object(tmp_path, level):
    # Nodes and witness steps that hold equal states hold the same one,
    # under either search order and whether the trace is accepted.
    runs = [run_twophase(TwoPhaseConfig(rms=rm_names(3), seed=seed,
                                        record=level, bug=bug,
                                        force_resend=bug is not None,
                                        resend_logging="silent"),
                         tmp_path / f"tp-{seed}-{bug}")
            for seed, bug in ((0, None), (1, "counter"))]
    runs += [run_tokenring(TokenRingConfig(n=4, seed=seed, record=level,
                                           bug=bug),
                           tmp_path / f"tr-{seed}-{bug}")
             for seed, bug in ((0, None), (1, "self-message"))]
    shared = 0
    for res in runs:
        for search in ("bfs", "dfs"):
            verdict = validate(res.spec, res.trace, ExplorerConfig(
                search=search, allow_stutter=level == "v",
                composition=res.composition))
            states = verdict.states + [m.state
                                       for m in verdict.witness or ()]
            kept = {}
            for s in states:
                assert kept.setdefault(s.fingerprint(), s) is s
            shared += len(states) - len(kept)
    assert shared > 0


# Prints one validation's verdict and graph, in a process of its own.
_FRESH_VALIDATION = """
import json, sys
from tracecheck import ExplorerConfig, explored_dot, read_trace_file, validate
from tracecheck.protocols import (build_tokenring_spec, build_twophase_spec,
                                  rm_names)
protocol, size, path, cfg = sys.argv[1:]
spec = (build_twophase_spec(rm_names(int(size))) if protocol == "twophase"
        else build_tokenring_spec(int(size)))
trace = read_trace_file(path)
verdict = validate(spec, trace, ExplorerConfig(**json.loads(cfg)))
print(json.dumps(verdict.to_jsonable(), sort_keys=True))
print(explored_dot(verdict, trace), end="")
"""


def test_back_to_back_validations_match_fresh_processes(tmp_path):
    """Nothing one validation works out carries over to the next: the
    same trace validated again with stutter allowed, or without the
    composition map, gives what a process of its own gives."""
    stutters = run_twophase(
        TwoPhaseConfig(rms=rm_names(3), seed=7, record="v",
                       work=(1.0, 1.0), timeout=0.5), tmp_path / "tp")
    ring = run_tokenring(TokenRingConfig(n=4, seed=0, record="v"),
                         tmp_path / "ring")
    calls = [
        (stutters, ("twophase", 3), {}),
        (stutters, ("twophase", 3), {"allow_stutter": True}),
        (ring, ("tokenring", 4), {"composition": ring.composition}),
        (ring, ("tokenring", 4), {}),
    ]
    statuses = []
    for res, (protocol, size), cfg in calls:
        verdict = validate(res.spec, res.trace, ExplorerConfig(**cfg))
        statuses.append(verdict.status())
        here = (json.dumps(verdict.to_jsonable(), sort_keys=True) + "\n"
                + explored_dot(verdict, res.trace))
        alone = subprocess.run(
            [sys.executable, "-c", _FRESH_VALIDATION, protocol, str(size),
             str(res.merged_file), json.dumps(cfg)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
                str(Path(tracecheck.__file__).parents[1]),
                os.environ.get("PYTHONPATH")]))})
        assert here == alone.stdout, (protocol, cfg)
    assert statuses == ["rejected", "accepted", "accepted", "rejected"]


@pytest.mark.parametrize("bug", [None, "counter"])
def test_a_merge_in_memory_validates_as_its_file_read_back(bug, tmp_path):
    """``run``'s trace shares entry shapes only within each process file;
    reading the merged file back shares them across processes.  Either
    way ``validate`` finds and prints the same."""
    res = run_twophase(
        TwoPhaseConfig(rms=rm_names(3), seed=2, timeout=0.5,
                       work=(1.0, 20.0), bug=bug, force_resend=bool(bug)),
        tmp_path / "run")
    back = read_trace_file(str(res.merged_file))
    assert len({id(e.updates) for e in back}) < len(back)
    for search in ("bfs", "dfs"):
        cfg = ExplorerConfig(search=search, allow_stutter=True)
        merged, read = validate(res.spec, res.trace, cfg), \
            validate(res.spec, back, cfg)
        assert merged.accepted == (bug is None)
        assert explain(merged, res.trace) == explain(read, back)
        assert json.dumps(merged.to_jsonable(), indent=2, sort_keys=True) \
            == json.dumps(read.to_jsonable(), indent=2, sort_keys=True)
