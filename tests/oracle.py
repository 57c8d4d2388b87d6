"""Brute-force references the tests compare the search against.

``oracle_validate`` decides acceptance by enumerating behaviors
outright, and ``explore`` walks a spec's whole reachable state graph.
``free_names`` lists the symmetric names a trace suffix leaves
unmentioned, and ``renamings`` every renaming of a state among them,
built by ``renamed``, which builds the renamed value outright.
Neither shares matching code with ``tracecheck.explorer``: from it they
take only the configuration and its composition check.  Both ignore
action frames and key frames: where the search skips a step they rule
out, the oracle still fires it.

``assert_declarations_hold`` audits what a spec declares so that the
search may skip or merge work: frames, key frames and symmetric names.
A wrong declaration can only turn an acceptance into a rejection, and
nothing at validation time checks key frames or symmetry, so this is
where they are checked.
"""

from __future__ import annotations

import itertools
import json

from tracecheck import (Spec, SpecState, Trace, TracecheckError, Value,
                        VBag, VRec, VSeq, VSet, VStr, apply_entry_updates,
                        render_event_arg, step, value_to_json,
                        value_to_jsonable)
from tracecheck.explorer import ExplorerConfig, _check_composition


def oracle_validate(spec: Spec, trace: Trace,
                    cfg: ExplorerConfig | None = None) -> bool:
    """Definitional acceptance: enumerate behaviors outright.

    No visited set, no deduplication, no shared matching code with
    ``validate``; exists as a slow cross-check of the search.
    """
    cfg = cfg or ExplorerConfig()
    # Each step an entry may stand for, as its tuple of stage names;
    # the explorer's check only refuses a bad composition map.
    _check_composition(spec, cfg)
    composed = dict(cfg.composition)
    by_event = {a.name: (a.name,) for a in spec.actions}
    by_event.update(composed)
    eventless = [(a.name,) for a in spec.actions] + list(composed.values())
    entries = list(trace)
    length = len(entries)

    def arg_prefix_ok(vals: tuple[Value, ...], event_args) -> bool:
        if not event_args:
            return True
        if len(event_args) > len(vals):
            return False
        return all(render_event_arg(vals[i]) == event_args[i]
                   for i in range(len(event_args)))

    def replay_ok(s: SpecState, idx: int) -> bool:
        if idx == length:
            return True
        e = entries[idx]
        try:
            wanted = {v: apply_entry_updates(s[v], ops)
                      for v, ops in e.updates.items()
                      if v in s}
            if len(wanted) != len(e.updates):
                return False
        except TracecheckError:
            return False

        pinned = e.event_args if e.event is not None else None

        def agrees(t: SpecState) -> bool:
            return all(t[v] == w for v, w in wanted.items())

        def chain(s2: SpecState, stages: tuple[str, ...], k: int) -> bool:
            """Fire stages[k:] from s2; event args pin the first."""
            if k == len(stages):
                return agrees(s2) and replay_ok(s2, idx + 1)
            for vals in spec.action(stages[k]).valuations():
                if k == 0 and not arg_prefix_ok(vals, pinned):
                    continue
                if any(chain(t, stages, k + 1)
                       for t in step(spec, s2, stages[k], vals)):
                    return True
            return False

        if e.event is not None:
            stages = by_event.get(e.event)
            return stages is not None and chain(s, stages, 0)
        if any(chain(s, stages, 0) for stages in eventless):
            return True
        return cfg.allow_stutter and agrees(s) and replay_ok(s, idx + 1)

    return any(replay_ok(s0, 0) for s0 in spec.init)


def explore(spec: Spec, max_states: int = 10_000
            ) -> tuple[list[SpecState], list[tuple[int, str, tuple[Value, ...], int]]]:
    """Breadth-first reachability up to ``max_states`` states.

    Returns (states, edges); edges are (from index, action, values,
    to index) in deterministic order (actions as declared, valuations
    in domain product order), and self-loops (stuttering steps) are
    skipped.
    """
    states: list[SpecState] = []
    index: dict[tuple, int] = {}
    edges: list[tuple[int, str, tuple[Value, ...], int]] = []

    for s in spec.init:
        fp = s.fingerprint()
        if fp not in index:
            index[fp] = len(states)
            states.append(s)

    cursor = 0
    while cursor < len(states):
        s = states[cursor]
        for schema in spec.actions:
            for values in schema.valuations():
                for t in step(spec, s, schema.name, values):
                    fp = t.fingerprint()
                    if fp not in index:
                        if len(states) >= max_states:
                            raise ValueError(
                                f"state space exceeds {max_states} states")
                        index[fp] = len(states)
                        states.append(t)
                    if index[fp] != cursor:
                        edges.append((cursor, schema.name, values, index[fp]))
        cursor += 1
    return states, edges


def _strings(obj, out: set) -> None:
    """Add every string and object key in parsed JSON to ``out``."""
    if isinstance(obj, str):
        out.add(obj)
    elif isinstance(obj, dict):
        out.update(obj)
        for x in obj.values():
            _strings(x, out)
    elif isinstance(obj, list):
        for x in obj:
            _strings(x, out)


def free_names(spec: Spec, entries: Trace, line: int) -> tuple[str, ...]:
    """The spec's symmetric names that no entry from ``line`` (1-based)
    to the end mentions: not as an event arg or inside one's JSON, not
    in an update path, and not as a string or key in an update's args."""
    said: set[str] = set()
    for e in entries[line - 1:]:
        for arg in e.event_args or ():
            said.add(arg)
            try:
                _strings(json.loads(arg), said)
            except ValueError:
                pass
        for ops in e.updates.values():
            for u in ops:
                said.update(u.path)
                for a in u.args:
                    _strings(value_to_jsonable(a), said)
    return tuple(n for n in spec.symmetric if n not in said)


def renamed(v: Value, names: dict[str, str]) -> Value:
    """``v`` with every string and record key that ``names`` maps
    replaced by its image, at any depth: the renamed value whose bytes
    ``values.renamed_canonical`` renders without building it."""
    if isinstance(v, VStr):
        return VStr(names.get(v.text, v.text))
    if isinstance(v, VRec):
        return VRec((names.get(k, k), renamed(x, names)) for k, x in v.fields)
    if isinstance(v, VBag):
        return VBag((renamed(x, names), c) for x, c in v.pairs)
    if isinstance(v, VSeq):
        return VSeq(renamed(x, names) for x in v.items)
    if isinstance(v, VSet):
        return VSet(renamed(x, names) for x in v.items)
    return v


def renamed_state(state: SpecState, names: dict[str, str]) -> SpecState:
    """``state`` with each value renamed by ``names``."""
    return SpecState({k: renamed(v, names)
                      for k, v in state.bindings.items()})


def renamings(state: SpecState, names: tuple[str, ...]) -> set[SpecState]:
    """``state`` under every permutation of ``names``."""
    return {renamed_state(state, dict(zip(names, image)))
            for image in itertools.permutations(names)}


def assert_declarations_hold(spec: Spec) -> None:
    """Fire every action instance in every state ``explore`` reaches and
    check the spec's declarations against what the steps do.

    - Frames: ``step`` refuses an effect that binds a variable outside
      its action's ``writes`` with a ValueError, so a breach surfaces
      as that error (``explore`` fires every enabled instance).
    - Key frames: each successor keeps a keyed record's fields and
      changes it at most at the field its key parameter renders as.
    - Symmetry: firing on a renamed state with renamed arguments gives
      the renamed successors (none on both sides when disabled), for a
      swap of the first two ``symmetric`` names and a rotation of all
      of them, which generate every permutation.

    Raises AssertionError naming the state, the step and the check.
    """
    states, _ = explore(spec)
    names = spec.symmetric
    moves = [{names[0]: names[1], names[1]: names[0]},
             dict(zip(names, names[1:] + names[:1]))] if len(names) > 1 \
        else []

    for s in states:
        shifted = [(move, renamed_state(s, move)) for move in moves]
        for schema in spec.actions:
            positions = {p: i for i, (p, _) in enumerate(schema.params)}
            for values in schema.valuations():
                label = (f"{schema.name}("
                         f"{', '.join(map(render_event_arg, values))})")
                outs = step(spec, s, schema.name, values)
                for var, param in schema.keys:
                    key = render_event_arg(values[positions[param]])
                    for t in outs:
                        pre, post = s[var], t[var]
                        same_fields = isinstance(pre, VRec) and \
                            isinstance(post, VRec) and \
                            pre.keys() == post.keys()
                        assert same_fields and all(
                            k == key for k, x in pre.fields
                            if post[k] != x), (
                            f"{label} from {s.describe()}: {var} goes "
                            f"{value_to_json(pre)} -> {value_to_json(post)}, "
                            f"not only at its key field {key!r}")
                for move, s_moved in shifted:
                    moved = step(spec, s_moved, schema.name,
                                 tuple(renamed(v, move) for v in values))
                    want = {renamed_state(t, move) for t in outs}
                    assert set(moved) == want, (
                        f"{label} from {s.describe()} does not commute "
                        f"with renaming {move}")
