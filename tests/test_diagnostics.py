"""Golden diagnostics: the exact ``explain`` text and ``--json``
``failures`` for every attempt reason.

Each case is a small spec and a trace whose first unmatched entry fails
for one reason (the single, composed and stutter forms of
UpdateMismatch, composition stages 0 and 1, NoCandidateAction with and
without event args), plus an event-less entry under a composition,
whose attempts list every action, then the composed action, then the
stutter.  The expected strings are the checker's output
and must not change when the matching code is refactored.
"""

import pytest

from tracecheck import (ActionSchema, ExplorerConfig, GuardClause, Spec,
                        SpecState, Trace, TraceEntry, UpdateOp, explain,
                        validate)
from tracecheck.protocols import build_twophase_spec, rm_names
from tracecheck.values import VInt, mk


def up(op, *args, path=()):
    return UpdateOp(op, tuple(path), tuple(mk(a) for a in args))


def entry(clock, updates=None, event=None, event_args=None):
    ups = {var: (ops,) for var, ops in (updates or {}).items()}
    args = tuple(event_args) if event_args is not None else None
    return TraceEntry(clock=clock, updates=ups, event=event, event_args=args)


def ladder_spec():
    """x climbs 0,1,2,..; Up(k) moves from k-1 to k; Down resets."""
    dom = tuple(VInt(i) for i in range(3))
    upact = ActionSchema(
        "Up", (("k", dom),),
        (GuardClause("x = k - 1",
                     lambda s, p: s["x"].n == p["k"].n - 1),),
        lambda s, p: [{"x": p["k"]}])
    down = ActionSchema(
        "Down", (),
        (GuardClause("x > 0", lambda s, p: s["x"].n > 0),),
        lambda s, p: [{"x": VInt(0)}])
    return Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[upact, down])


def stage_spec():
    """A: x 0->1.  B: x 1->2.  C needs x = 5."""
    def at(n):
        return (GuardClause(f"x = {n}", lambda s, p: s["x"] == VInt(n)),)
    return Spec(
        variables=("x",), init=[SpecState({"x": VInt(0)})],
        actions=[
            ActionSchema("A", (), at(0), lambda s, p: [{"x": VInt(1)}]),
            ActionSchema("B", (), at(1), lambda s, p: [{"x": VInt(2)}]),
            ActionSchema("C", (), at(5), lambda s, p: [{"x": VInt(9)}]),
        ])


def idle_spec():
    """No actions at all: an event-less entry has no candidate."""
    return Spec(variables=("x",), init=[SpecState({"x": VInt(0)})],
                actions=[])


def twophase_mismatch():
    # RMPrepare(rm-0) really sets rm-0 to "prepared"; the trace says
    # "aborted", so the mismatch renders a record value.
    spec = build_twophase_spec(rm_names(2))
    bad = entry(1, {"rmState": up("Update", "aborted", path=("rm-0",))},
                event="RMPrepare", event_args=["rm-0"])
    return spec, Trace([bad]), ExplorerConfig()


CASES = {
    "guard_failed": lambda: (
        ladder_spec(),
        Trace([entry(1, {"x": up("Update", 2)}, "Up", ["2"])]),
        ExplorerConfig()),
    "update_mismatch_single": lambda: (
        ladder_spec(),
        Trace([entry(1, {"x": up("Update", 1)}, "Up", ["1"]),
               entry(2, {"x": up("Update", 7)}, "Up", ["2"])]),
        ExplorerConfig()),
    "update_mismatch_record": twophase_mismatch,
    "update_mismatch_composed": lambda: (
        stage_spec(),
        Trace([entry(1, {"x": up("Update", 5)}, "AB")]),
        ExplorerConfig(composition={"AB": ("A", "B")})),
    "update_mismatch_stutter": lambda: (
        ladder_spec(),
        Trace([entry(1, {"x": up("Update", 4)})]),
        ExplorerConfig(allow_stutter=True)),
    "eventless_composed_and_stutter": lambda: (
        stage_spec(),
        Trace([entry(1, {"x": up("Update", 7)})]),
        ExplorerConfig(allow_stutter=True,
                       composition={"AB": ("A", "B")})),
    "update_error_unknown_variable": lambda: (
        ladder_spec(),
        Trace([entry(1, {"ghost": up("Update", 1)}, "Up", ["1"])]),
        ExplorerConfig()),
    "update_error_bad_op": lambda: (
        ladder_spec(),
        Trace([entry(1, {"x": up("Remove", 0)}, "Up", ["1"])]),
        ExplorerConfig()),
    "composition_stage_0": lambda: (
        stage_spec(),
        Trace([entry(1, {"x": up("Update", 2)}, "BA")]),
        ExplorerConfig(composition={"BA": ("B", "A")})),
    "composition_stage_1": lambda: (
        stage_spec(),
        Trace([entry(1, {"x": up("Update", 9)}, "AC")]),
        ExplorerConfig(composition={"AC": ("A", "C")})),
    "unknown_event": lambda: (
        ladder_spec(),
        Trace([entry(1, event="Warp", event_args=["1"])]),
        ExplorerConfig()),
    "no_candidate_with_args": lambda: (
        ladder_spec(),
        Trace([entry(1, event="Up", event_args=["1", "2"])]),
        ExplorerConfig()),
    "no_candidate_without_args": lambda: (
        idle_spec(),
        Trace([entry(1, {"x": up("Update", 1)})]),
        ExplorerConfig()),
}


def run_case(name):
    spec, trace, cfg = CASES[name]()
    verdict = validate(spec, trace, cfg)
    return explain(verdict, trace), verdict.to_jsonable()["failures"]


# Captured from the checker's output; see the module docstring.
EXPECTED = {
    'composition_stage_0': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"x":[{"op":"Update","path":[],"args":[2]}],"event":"BA"}\n'
         '  blocked state: x=0\n'
         '    - BA: stage 0 (B) cannot fire on any intermediate state'),
        [{'attempts': [{'candidate': 'BA',
                        'detail': 'stage 0 (B) cannot fire on any '
                                  'intermediate state',
                        'reason': 'CompositionStageFailed'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'composition_stage_1': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"x":[{"op":"Update","path":[],"args":[9]}],"event":"AC"}\n'
         '  blocked state: x=0\n'
         '    - AC: stage 1 (C) cannot fire on any intermediate state'),
        [{'attempts': [{'candidate': 'AC',
                        'detail': 'stage 1 (C) cannot fire on any '
                                  'intermediate state',
                        'reason': 'CompositionStageFailed'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'eventless_composed_and_stutter': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  {"clock":1,"x":[{"op":"Update","path":[],"args":[7]}]}\n'
         '  blocked state: x=0\n'
         "    - A: variable 'x': trace updates give 7, spec step gives 1\n"
         '    - B: guard failed: x = 1\n'
         '    - C: guard failed: x = 5\n'
         "    - AB: variable 'x': trace updates give 7, composed step gives "
         '2\n'
         "    - (stutter): variable 'x' changes, so the entry is not a "
         'stutter'),
        [{'attempts': [{'candidate': 'A',
                        'detail': "variable 'x': trace updates give 7, spec "
                                  'step gives 1',
                        'reason': 'UpdateMismatch'},
                       {'candidate': 'B',
                        'detail': 'guard failed: x = 1',
                        'reason': 'GuardFailed'},
                       {'candidate': 'C',
                        'detail': 'guard failed: x = 5',
                        'reason': 'GuardFailed'},
                       {'candidate': 'AB',
                        'detail': "variable 'x': trace updates give 7, "
                                  'composed step gives 2',
                        'reason': 'UpdateMismatch'},
                       {'candidate': '(stutter)',
                        'detail': "variable 'x' changes, so the entry is not "
                                  'a stutter',
                        'reason': 'UpdateMismatch'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'guard_failed': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"x":[{"op":"Update","path":[],"args":[2]}],"event":"Up","event_args":["2"]}\n'
         '  blocked state: x=0\n'
         '    - Up(2): guard failed: x = k - 1'),
        [{'attempts': [{'candidate': 'Up',
                        'detail': 'guard failed: x = k - 1',
                        'reason': 'GuardFailed'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'no_candidate_with_args': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  {"clock":1,"event":"Up","event_args":["1","2"]}\n'
         '  blocked state: x=0\n'
         "    - Up: no parameter valuation renders as ['1', '2']"),
        [{'attempts': [{'candidate': 'Up',
                        'detail': "no parameter valuation renders as ['1', "
                                  "'2']",
                        'reason': 'NoCandidateAction'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'no_candidate_without_args': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  {"clock":1,"x":[{"op":"Update","path":[],"args":[1]}]}\n'
         '  blocked state: x=0\n'
         '    - (none): no candidate action for this entry'),
        [{'attempts': [{'candidate': '(none)',
                        'detail': 'no candidate action for this entry',
                        'reason': 'NoCandidateAction'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'unknown_event': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  {"clock":1,"event":"Warp","event_args":["1"]}\n'
         '  blocked state: x=0\n'
         "    - Warp: event 'Warp' names no action and no composed action; "
         'if the implementation fuses several actions into this event, map '
         'it in the composition config'),
        [{'attempts': [{'candidate': 'Warp',
                        'detail': "event 'Warp' names no action and no "
                                  'composed action; if the implementation '
                                  'fuses several actions into this event, '
                                  'map it in the composition config',
                        'reason': 'UnknownEvent'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'update_error_bad_op': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"x":[{"op":"Remove","path":[],"args":[0]}],"event":"Up","event_args":["1"]}\n'
         '  blocked state: x=0\n'
         "    - (updates): variable 'x': update 1 of 1 (Remove): Remove "
         'needs a set, got VInt'),
        [{'attempts': [{'candidate': '(updates)',
                        'detail': "variable 'x': update 1 of 1 (Remove): "
                                  'Remove needs a set, got VInt',
                        'reason': 'UpdateError'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'update_error_unknown_variable': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"ghost":[{"op":"Update","path":[],"args":[1]}],"event":"Up","event_args":["1"]}\n'
         '  blocked state: x=0\n'
         "    - (updates): entry updates unknown variable 'ghost'"),
        [{'attempts': [{'candidate': '(updates)',
                        'detail': "entry updates unknown variable 'ghost'",
                        'reason': 'UpdateError'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'update_mismatch_composed': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"x":[{"op":"Update","path":[],"args":[5]}],"event":"AB"}\n'
         '  blocked state: x=0\n'
         "    - AB: variable 'x': trace updates give 5, composed step gives "
         '2'),
        [{'attempts': [{'candidate': 'AB',
                        'detail': "variable 'x': trace updates give 5, "
                                  'composed step gives 2',
                        'reason': 'UpdateMismatch'}],
          'entry': 1,
          'state': {'x': '0'}}]),
    'update_mismatch_record': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  '
         '{"clock":1,"rmState":[{"op":"Update","path":["rm-0"],"args":["aborted"]}],"event":"RMPrepare","event_args":["rm-0"]}\n'
         '  blocked state: msgs=[], '
         'rmState={"rm-0":"working","rm-1":"working"}, tmPrepared=[], '
         'tmState="init"\n'
         "    - RMPrepare(rm-0): variable 'rmState': trace updates give "
         '{"rm-0":"aborted","rm-1":"working"}, spec step gives '
         '{"rm-0":"prepared","rm-1":"working"}'),
        [{'attempts': [{'candidate': 'RMPrepare',
                        'detail': "variable 'rmState': trace updates give "
                                  '{"rm-0":"aborted","rm-1":"working"}, spec '
                                  'step gives '
                                  '{"rm-0":"prepared","rm-1":"working"}',
                        'reason': 'UpdateMismatch'}],
          'entry': 1,
          'state': {'msgs': '[]',
                    'rmState': '{"rm-0":"working","rm-1":"working"}',
                    'tmPrepared': '[]',
                    'tmState': '"init"'}}]),
    'update_mismatch_single': (
        ('rejected: consumed 1 of 2 entries (2 distinct search nodes, bfs)\n'
         'entry 2 cannot be matched from any reached state:\n'
         '  '
         '{"clock":2,"x":[{"op":"Update","path":[],"args":[7]}],"event":"Up","event_args":["2"]}\n'
         '  blocked state: x=1\n'
         "    - Up(2): variable 'x': trace updates give 7, spec step gives 2"),
        [{'attempts': [{'candidate': 'Up',
                        'detail': "variable 'x': trace updates give 7, spec "
                                  'step gives 2',
                        'reason': 'UpdateMismatch'}],
          'entry': 2,
          'state': {'x': '1'}}]),
    'update_mismatch_stutter': (
        ('rejected: consumed 0 of 1 entries (1 distinct search nodes, bfs)\n'
         'entry 1 cannot be matched from any reached state:\n'
         '  {"clock":1,"x":[{"op":"Update","path":[],"args":[4]}]}\n'
         '  blocked state: x=0\n'
         '    - Up(0): guard failed: x = k - 1\n'
         "    - Up(1): variable 'x': trace updates give 4, spec step gives "
         '1\n'
         '    - Up(2): guard failed: x = k - 1\n'
         '    - Down: guard failed: x > 0\n'
         "    - (stutter): variable 'x' changes, so the entry is not a "
         'stutter'),
        [{'attempts': [{'candidate': 'Up',
                        'detail': 'guard failed: x = k - 1',
                        'reason': 'GuardFailed'},
                       {'candidate': 'Up',
                        'detail': "variable 'x': trace updates give 4, spec "
                                  'step gives 1',
                        'reason': 'UpdateMismatch'},
                       {'candidate': 'Up',
                        'detail': 'guard failed: x = k - 1',
                        'reason': 'GuardFailed'},
                       {'candidate': 'Down',
                        'detail': 'guard failed: x > 0',
                        'reason': 'GuardFailed'},
                       {'candidate': '(stutter)',
                        'detail': "variable 'x' changes, so the entry is not "
                                  'a stutter',
                        'reason': 'UpdateMismatch'}],
          'entry': 1,
          'state': {'x': '0'}}]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_diagnostics_are_pinned(name):
    text, failures = run_case(name)
    want_text, want_failures = EXPECTED[name]
    assert text == want_text
    assert failures == want_failures


def test_cases_cover_every_attempt_reason():
    reasons = {a["reason"] for name in CASES
               for f in run_case(name)[1] for a in f["attempts"]}
    assert reasons == {"GuardFailed", "UpdateMismatch", "UpdateError",
                       "CompositionStageFailed", "UnknownEvent",
                       "NoCandidateAction"}
