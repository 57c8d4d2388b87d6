"""State-machine layer: guards, effects, composition, exploration."""

import dataclasses

import pytest
from oracle import assert_declarations_hold, explore, oracle_validate

from tracecheck import (
    ActionSchema,
    ExplorerConfig,
    GuardClause,
    Spec,
    SpecState,
    Trace,
    TraceEntry,
    UpdateOp,
    match_entry,
    step,
    validate,
)
from tracecheck.protocols import (build_tokenring_spec, build_twophase_spec,
                                  rm_names)
from tracecheck.values import VInt, VRec, VSet, VStr, mk


def counter_spec(limit=3):
    """x counts 0..limit; Inc steps by 1, Reset jumps back to 0."""
    inc = ActionSchema(
        name="Inc",
        params=(),
        guard=(GuardClause("x < limit",
                           lambda s, p: s["x"].n < limit),),
        effect=lambda s, p: [{"x": VInt(s["x"].n + 1)}],
    )
    reset = ActionSchema(
        name="Reset",
        params=(),
        guard=(GuardClause("x > 0", lambda s, p: s["x"].n > 0),),
        effect=lambda s, p: [{"x": VInt(0)}],
    )
    return Spec(
        variables=("x",),
        init=[SpecState({"x": VInt(0)})],
        actions=[inc, reset],
        invariants={"InRange": lambda s: 0 <= s["x"].n <= limit},
    )


def test_spec_state_equality_and_fingerprint_are_binding_based():
    a = SpecState({"x": VInt(1), "y": VStr("a")})
    b = SpecState({"y": VStr("a"), "x": VInt(1)})
    assert a == b
    assert a.fingerprint() == b.fingerprint()
    assert hash(a) == hash(b)
    c = SpecState({"x": VInt(2), "y": VStr("a")})
    assert a != c


def test_spec_state_rejects_non_value_bindings():
    with pytest.raises(TypeError):
        SpecState({"x": 1})


def test_spec_validates_init_against_declared_variables():
    with pytest.raises(ValueError):
        Spec(variables=("x", "y"),
             init=[SpecState({"x": VInt(0)})],
             actions=[])


def test_spec_rejects_duplicate_action_names():
    a = ActionSchema("A", (), (), lambda s, p: [{}])
    with pytest.raises(ValueError):
        Spec(variables=("x",),
             init=[SpecState({"x": VInt(0)})],
             actions=[a, a])


def test_spec_needs_an_initial_state():
    with pytest.raises(ValueError):
        Spec(variables=("x",), init=[], actions=[])


def test_step_applies_effect_and_copies_unbound_variables():
    spec = counter_spec()
    init = spec.init[0]
    outs = step(spec, init, "Inc", ())
    assert len(outs) == 1
    assert outs[0]["x"] == VInt(1)


def test_step_reports_the_failing_clause():
    spec = counter_spec(limit=0)
    assert step(spec, spec.init[0], "Inc", ()) == []
    inc = spec.action("Inc")
    clause = inc.failing_clause(spec.init[0], inc.bind(()))
    assert clause.description == "x < limit"


@pytest.mark.parametrize("spec", [build_twophase_spec(rm_names(3)),
                                  build_tokenring_spec(4)],
                         ids=["twophase-3", "tokenring-4"])
def test_a_disabled_instance_has_no_successors(spec):
    # An instance has successors exactly where no guard clause fails.
    states, _ = explore(spec)
    seen = set()
    for s in states:
        for schema in spec.actions:
            for vals in schema.valuations():
                clause = schema.failing_clause(s, schema.bind(vals))
                outs = step(spec, s, schema.name, vals)
                assert (outs == []) == (clause is not None), \
                    (s.describe(), schema.name, vals)
                seen.add(clause is None)
    assert seen == {True, False}


def test_step_rejects_unknown_action():
    spec = counter_spec()
    with pytest.raises(KeyError):
        step(spec, spec.init[0], "Nope", ())


def test_step_rejects_wrong_arity():
    spec = build_twophase_spec(rm_names(2))
    with pytest.raises(ValueError):
        step(spec, spec.init[0], "RMPrepare", ())


def test_effect_writing_undeclared_variable_is_an_error():
    bad = ActionSchema("Bad", (), (),
                       lambda s, p: [{"ghost": VInt(1)}])
    spec = Spec(variables=("x",),
                init=[SpecState({"x": VInt(0)})],
                actions=[bad])
    with pytest.raises(ValueError):
        step(spec, spec.init[0], "Bad", ())


def test_effect_writing_outside_its_frame_is_an_error():
    framed = ActionSchema("Framed", (), (),
                          lambda s, p: [{"x": VInt(1), "y": VInt(1)}],
                          writes=frozenset({"x"}))
    spec = Spec(variables=("x", "y"),
                init=[SpecState({"x": VInt(0), "y": VInt(0)})],
                actions=[framed])
    with pytest.raises(ValueError, match=r"outside its frame: \['y'\]"):
        step(spec, spec.init[0], "Framed", ())


@pytest.mark.parametrize("spec", [build_twophase_spec(rm_names(2)),
                                  build_tokenring_spec(3)],
                         ids=["twophase", "tokenring"])
def test_bundled_specs_declare_every_frame(spec):
    assert all(a.writes is not None for a in spec.actions)
    # Firing every enabled action in every reachable state would raise
    # if an effect bound a variable outside its declared frame.
    explore(spec)


def _keyed(keys, writes=None):
    return ActionSchema("Set", (("k", (VStr("a"),)),), (),
                        lambda s, p: [], writes=writes, keys=keys)


@pytest.mark.parametrize("keys, writes, message", [
    ({"rec": "j"}, None, "names no parameter: 'j'"),
    ((("rec", "k"), ("rec", "k")), None, "declared twice"),
    ({"rec": "k"}, frozenset({"other"}), "outside its frame"),
], ids=["unknown-parameter", "repeated-variable", "outside-frame"])
def test_malformed_key_frame_is_refused(keys, writes, message):
    with pytest.raises(ValueError, match=message):
        _keyed(keys, writes)


def test_key_frames_accept_a_mapping_or_pairs():
    assert _keyed({"rec": "k"}).keys == _keyed([("rec", "k")]).keys \
        == (("rec", "k"),)


@pytest.mark.parametrize("spec", [
    *(build_twophase_spec(rm_names(n)) for n in (2, 3, 4)),
    *(build_tokenring_spec(n) for n in (2, 3, 4, 5))],
    ids=[*(f"twophase-{n}" for n in (2, 3, 4)),
         *(f"tokenring-{n}" for n in (2, 3, 4, 5))])
def test_bundled_specs_keep_their_declarations(spec):
    assert_declarations_hold(spec)


def wrong_key_spec():
    """Set(k) writes the field of rec that k does not name, although it
    declares k as its key."""
    other = {"a": "b", "b": "a"}
    return Spec(
        variables=("rec",),
        init=[SpecState({"rec": VRec([("a", VInt(0)), ("b", VInt(0))])})],
        actions=[ActionSchema(
            "Set", (("k", (VStr("a"), VStr("b"))),), (),
            lambda s, p: [{"rec": s["rec"].replaced(other[p["k"].text],
                                                     VInt(1))}],
            writes=frozenset({"rec"}), keys={"rec": "k"})])


def test_audit_catches_a_wrong_key_frame():
    with pytest.raises(AssertionError, match="not only at its key field"):
        assert_declarations_hold(wrong_key_spec())


def test_a_wrong_key_frame_can_only_turn_acceptance_into_rejection():
    # Set(a) writes rec.b, so the trace is a behavior of the spec; the
    # search trusts the key and fires only Set(b), which writes rec.a.
    spec = wrong_key_spec()
    trace = Trace([TraceEntry(clock=1, updates={"rec": (
        UpdateOp("Update", ("b",), (VInt(1),)),)})])
    assert oracle_validate(spec, trace)
    assert not validate(spec, trace).accepted


def pick_fin_spec():
    """Fin tells "a" from "b", so renaming them does not map steps to
    steps, though the initial state holds neither name."""
    return Spec(
        variables=("s",),
        init=[SpecState({"s": VStr("none")})],
        actions=[
            ActionSchema("Pick", (("n", (VStr("b"), VStr("a"))),),
                         (GuardClause('s = "none"',
                                      lambda s, p: s["s"] == VStr("none")),),
                         lambda s, p: [{"s": p["n"]}]),
            ActionSchema("Fin", (),
                         (GuardClause('s = "a"',
                                      lambda s, p: s["s"] == VStr("a")),),
                         lambda s, p: [{"s": VStr("done")}])],
        symmetric=("a", "b"))


@pytest.mark.parametrize("spec", [
    pick_fin_spec(),
    # TMCommit writes the string "done", which renaming the RMs moves.
    dataclasses.replace(build_twophase_spec(("done", "rm-1")),
                        symmetric=("done", "rm-1"))],
    ids=["pick-fin", "twophase-rm-named-done"])
def test_audit_catches_a_wrong_symmetry_declaration(spec):
    with pytest.raises(AssertionError, match="does not commute"):
        assert_declarations_hold(spec)


def test_empty_effect_is_an_error():
    hollow = ActionSchema("Hollow", (), (), lambda s, p: [])
    spec = Spec(variables=("x",),
                init=[SpecState({"x": VInt(0)})],
                actions=[hollow])
    with pytest.raises(ValueError):
        step(spec, spec.init[0], "Hollow", ())


def test_explore_edges_follow_declaration_order():
    spec = build_twophase_spec(rm_names(2))
    _, edges = explore(spec)
    from_init = [(name, vals) for src, name, vals, _ in edges if src == 0]
    # initially only RMPrepare (per RM) and TMAbort can fire
    assert [name for name, _ in from_init] == [
        "RMPrepare", "RMPrepare", "TMAbort"]
    assert [vals for name, vals in from_init if name == "RMPrepare"] == [
        (VStr("rm-0"),), (VStr("rm-1"),)]


def test_explore_counts_counter_states():
    spec = counter_spec(limit=3)
    states, edges = explore(spec)
    assert len(states) == 4
    # Inc edges 0->1->2->3 and Reset edges 1->0, 2->0, 3->0
    assert len(edges) == 6


def test_explore_respects_max_states():
    spec = counter_spec(limit=100)
    with pytest.raises(ValueError):
        explore(spec, max_states=5)


def test_two_phase_single_rm_reaches_eleven_states():
    # hand-derived anchor: one RM yields 11 distinct states
    spec = build_twophase_spec(rm_names(1))
    states, _ = explore(spec)
    assert len(states) == 11


def test_two_phase_two_rms_reach_forty_nine_states():
    spec = build_twophase_spec(rm_names(2))
    states, _ = explore(spec)
    assert len(states) == 49


def test_two_phase_invariants_hold_everywhere():
    spec = build_twophase_spec(rm_names(2))
    states, _ = explore(spec)
    for s in states:
        assert spec.invariants["TypeOK"](s)
        assert spec.invariants["Consistent"](s)


def test_composed_action_needs_two_stages():
    spec = counter_spec()
    cfg = ExplorerConfig(composition={"Solo": ("Inc",)})
    e = TraceEntry(clock=1, updates={}, event="Solo")
    with pytest.raises(ValueError, match="needs at least 2 stages"):
        match_entry(spec, spec.init[0], e, cfg)


def test_step_composed_first_stage_blocked_raises():
    # B needs x = 1 but x starts at 0, so the chain BA dies at stage 0.
    a = ActionSchema("A", (),
                     (GuardClause("x = 0", lambda s, p: s["x"] == VInt(0)),),
                     lambda s, p: [{"x": VInt(1)}])
    b = ActionSchema("B", (),
                     (GuardClause("x = 1", lambda s, p: s["x"] == VInt(1)),),
                     lambda s, p: [{"x": VInt(2)}])
    spec = Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[a, b])
    cfg = ExplorerConfig(composition={"BA": ("B", "A")})
    e = TraceEntry(clock=1, updates={}, event="BA")
    matches, attempts = match_entry(spec, spec.init[0], e, cfg)
    assert matches == []
    assert attempts[0].reason == "CompositionStageFailed"
    assert attempts[0].stage == 0
    assert "stage 0" in attempts[0].detail


def test_spec_state_key_separates_variable_names():
    one = SpecState({"x": VInt(1)})
    assert one.fingerprint() != SpecState({"y": VInt(1)}).fingerprint()
    assert one.fingerprint() != SpecState(
        {"x": VInt(1), "y": VInt(1)}).fingerprint()
    assert SpecState({"ab": VStr("c")}).fingerprint() != SpecState(
        {"a": VStr("b"), "b": VStr("c")}).fingerprint()


def test_updated_checks_only_changed_bindings_and_keeps_the_order():
    s = SpecState({"y": VInt(1), "x": VInt(2)})
    t = s.updated({"y": VInt(3)})
    assert t.bindings == {"x": VInt(2), "y": VInt(3)}
    assert list(t.bindings) == ["x", "y"]
    assert s["y"] == VInt(1)
    with pytest.raises(TypeError):
        s.updated({"x": 5})
    grown = s.updated({"z": VInt(0)})
    assert grown == SpecState({"x": VInt(2), "y": VInt(1), "z": VInt(0)})
