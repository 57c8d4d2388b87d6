"""Check a recorded trace against a state-machine spec.

The check is a reachability search over pairs (spec state, trace
position).  A node (s, l) means: s is reachable by replaying some
matching behavior for the first l-1 entries.  Its successors are the
spec transitions that both fire in s and agree with everything entry l
recorded: the entry's event (if any) names the action or a configured
composed action (an entry without one may be any action or composed
action, or a stutter when allowed), leading event_args pin the leading
parameters, and every recorded variable v must end up exactly at the
value obtained by replaying the entry's update list for v on s.
Unrecorded variables are unconstrained.  The trace is accepted exactly
when some node consumes the whole trace.

``validate`` runs BFS or DFS over deduplicated nodes.

A node's dedup key is (``SpecState.fingerprint()``, line).  The
fingerprint is the tuple of the state's sorted variable names followed
by each Value's canonical bytes, so two keys are equal exactly when the
states are equal and the lines are equal: no digest is taken, and no
collision can merge distinct nodes.

Every candidate step is a chain of actions: one for an action (each
valuation a candidate of its own), two or more for a composed event,
none for the stutter (either one candidate, expanded stage by stage).
A step's frame is the union of its actions' frames (``writes``), so the
stutter's is empty; one undeclared frame leaves the step's undeclared.

Work fixed for a whole validation is done once, in ``_Compiled``: the
composition map is checked, the candidate steps of each kind of entry
are listed with their frames, and each action's valuations are listed
and rendered to event-arg strings, so a node only looks them up (and
filters them by the entry's pins, which rarely recur across nodes).

A state reached at several lines is matched once per entry shape.  An
entry's shape is its event, event args and updates; ``validate``
numbers the shapes of its trace before it searches.  Matching reads
only the state, the shape and the validation's fixed work, never the
entry's clock or the node's line, so the matches of (fingerprint,
shape) are the same at every line, and ``validate`` keeps them in a
memo that lives for the one call.  Each successor state is interned
by fingerprint before its match is built: every node and memo entry
holding an equal state holds the same ``SpecState``, so the memo adds
references, not states.

A spec may declare ``symmetric`` names (TLC's ``SYMMETRY`` set).  The
names free at line l are those no entry from l to the end mentions (see
``symmetry``), and a successor whose state is a renaming of a node's
state by a permutation π of line l's free names merges into that node.
This is sound.  Say s' = π(s).  The spec's declaration makes π map each
step s -> t to a step s' -> π(t) with the action's arguments renamed.
Each remaining entry agrees with the renamed step exactly when it agrees
with the step: π fixes every string the entry holds, so its event args
pin the same valuations, and its updates replay to π of what they
replay to from s (an update commutes with renaming the value it
rewrites when its path and args hold no moved name).  So the subgraphs
below (s, l) and (s', l) are isomorphic: both reach the goal or both
fail at the same deepest entry.  The later lines' free names include
line l's, so the merges below stay within the same renamings.  A node
keeps the real state it was reached by, so witnesses, blocked states,
attempts and DOT labels are states of the unreduced search, reached
through the trace's own prefix; only a merged edge points at a node
whose state equals its step's up to π.  The goal line is never reduced.
No key is taken until a line holds a second node, and the free
names are worked out only then; the orbit table of a set of free names
is made when a line with that set first takes a key.  Orbit keys are
filed in the dedup table beside fingerprints, and no key is a
fingerprint: a key's second item is a tuple of name signatures
(``symmetry.Orbits``) where a fingerprint's is a value's bytes.  So
sharing ``ids`` is exact: a lookup by fingerprint finds only a node of
an equal state, and a lookup by key only a node of a renaming.

The search needs only each node's matches.  It skips every step whose
frame leaves out a recorded variable the entry changes (such a step
keeps that variable, so it cannot match).  An action may also declare
key frames (``ActionSchema.keys``): the record variable it changes at
most at the field its key parameter names.  Where an entry without
event args changes such a variable, the search fires only the
valuations whose key renders as a field the entry's updates of that
variable write, the first segments of their paths (none when an update
rewrites the variable whole); event args pin valuations already.
This is sound.  Say the action changes v only at field f, the entry
changes v, and the step ends at v's replayed value.  Then f is a field
where the pre-state and the replayed value differ, and an update
rewrites only the field its path starts at, so f starts one of the
entry's paths for v.  A wrong key can only drop a match, so it can only
turn an acceptance into a rejection.

The search builds no ``Attempt``: it keeps only the ids of dead nodes.
A disabled action instance has no successors (``step`` returns none),
so the search moves on without asking which guard clause is false.
The attempts that explain a rejection are built afterwards, by matching
again without pruning, for the dead nodes at the deepest entry, the
only ones a verdict reports; only then is each disabled instance's
false clause looked up.  An attempt holds plain facts; its text is
rendered only when a report reads it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import TracecheckError
from .machine import ActionSchema, Spec, SpecState, step
from .symmetry import Orbits, line_orbits
from .traces import Trace, TraceEntry, serialize_entry
from .values import (Value, VSet, apply_entry_updates, render_event_arg,
                     value_to_json)

STUTTER = "(stutter)"

# A candidate step: its name, the actions it fires in order, and its
# frame (None when some action leaves its frame undeclared).
Step = tuple[str, tuple[ActionSchema, ...], frozenset[str] | None]


@dataclass(frozen=True)
class ExplorerConfig:
    search: str = "bfs"                      # "bfs" | "dfs"
    allow_stutter: bool = False
    composition: dict[str, tuple[str, ...]] = field(default_factory=dict)
    max_states: int | None = None
    max_seconds: float | None = None

    def __post_init__(self):
        if self.search not in ("bfs", "dfs"):
            raise ValueError(f"search must be 'bfs' or 'dfs', got "
                             f"{self.search!r}")
        if self.max_states is not None and self.max_states < 0:
            raise ValueError(f"max_states must be at least 0, got "
                             f"{self.max_states}")
        # ``not >=`` refuses NaN too, which no comparison would stop at.
        if self.max_seconds is not None and not self.max_seconds >= 0:
            raise ValueError(f"max_seconds must be at least 0, got "
                             f"{self.max_seconds}")
        object.__setattr__(
            self, "composition",
            {k: tuple(v) for k, v in self.composition.items()})


def _check_composition(spec: Spec, cfg: ExplorerConfig
                       ) -> dict[str, tuple[ActionSchema, ...]]:
    """Each composed event's stages as the spec's action schemas."""
    out = {}
    for event, stages in cfg.composition.items():
        if len(stages) < 2:
            raise ValueError(
                f"composition for {event!r} needs at least 2 stages")
        for name in stages:
            if spec.action(name) is None:
                raise ValueError(
                    f"composition for {event!r} references unknown "
                    f"action {name!r}")
        out[event] = tuple(map(spec.action, stages))
    return out


def _frame(stages: tuple[ActionSchema, ...]) -> frozenset[str] | None:
    """The variables a chain of actions may bind: the union of their
    frames, or None when any of them declares none."""
    frame: frozenset[str] = frozenset()
    for schema in stages:
        if schema.writes is None:
            return None
        frame |= schema.writes
    return frame


class _Compiled:
    """What stays fixed for one validation, worked out once: the steps
    each kind of entry may stand for, with their frames (the
    composition map checked), and each action's valuations with the
    event-arg strings they render as.  It also keeps the states the
    validation reaches, interned by fingerprint (``interned``).

    An entry with an event may be only the step of that name
    (``by_event``, name -> step; a composed action wins over an action
    of the same name).  An entry without one may be any step
    (``eventless``): every action, then every composed action, then
    the stutter step when it is allowed.
    """

    def __init__(self, spec: Spec, cfg: ExplorerConfig):
        chains = [(a.name, (a,)) for a in spec.actions]
        chains.extend(_check_composition(spec, cfg).items())
        steps: list[Step] = [(name, stages, _frame(stages))
                             for name, stages in chains]
        self.by_event: dict[str, Step] = {st[0]: st for st in steps}
        if cfg.allow_stutter:
            steps.append((STUTTER, (), frozenset()))
        self.eventless = steps
        self._domains: dict[str, tuple[list[tuple[Value, ...]],
                                       list[tuple[str, ...]]]] = {}
        for schema in spec.actions:
            vals = list(schema.valuations())
            self._domains[schema.name] = (
                vals, [tuple(map(render_event_arg, v)) for v in vals])
        self.interned: dict[tuple, SpecState] = {}

    def valuations(self, schema: ActionSchema,
                   event_args: Sequence[str] | None = None,
                   keys: tuple[tuple[int, tuple[str, ...]], ...] = ()
                   ) -> list[tuple[Value, ...]]:
        """The schema's valuations in domain product order, keeping
        those whose leading parameters render as ``event_args`` and
        whose parameter at each (position, fields) in ``keys`` renders
        as one of ``fields``."""
        vals, rendered = self._domains[schema.name]
        if not event_args and not keys:
            return vals
        args = tuple(event_args or ())
        n = len(args)
        return [v for v, text in zip(vals, rendered)
                if text[:n] == args
                and all(text[i] in fields for i, fields in keys)]


def step_label(name: str, values: Sequence[Value] | None) -> str:
    """``name(arg, ...)`` with each value rendered as an event arg, or
    just ``name`` when there are no values."""
    if not values:
        return name
    return name + "(" + ", ".join(map(render_event_arg, values)) + ")"


@dataclass(frozen=True)
class Attempt:
    """One candidate that failed to match an entry, and why.

    It holds only facts; ``detail`` renders them as text when it is
    read.
    """

    candidate: str
    reason: str            # GuardFailed | UpdateMismatch | UpdateError |
                           # CompositionStageFailed | UnknownEvent |
                           # NoCandidateAction
    values: tuple[Value, ...] | None = None  # the action's valuation;
                                             # None for a composed step
    variable: str | None = None
    expected: Value | None = None
    actual: Value | None = None
    stage: int | None = None
    stage_name: str | None = None   # action of the stage that cannot fire
    cause: str | None = None        # the false guard clause's description,
                                    # or the update's error message
    event_args: tuple[str, ...] | None = None  # args no valuation renders as

    @property
    def detail(self) -> str:
        reason = self.reason
        if reason == "GuardFailed":
            return f"guard failed: {self.cause}"
        if reason == "UpdateMismatch":
            if self.candidate == STUTTER:
                return (f"variable {self.variable!r} changes, so the entry "
                        "is not a stutter")
            step_kind = "spec" if self.values is not None else "composed"
            return (f"variable {self.variable!r}: trace updates give "
                    f"{value_to_json(self.expected)}, {step_kind} step "
                    f"gives {value_to_json(self.actual)}")
        if reason == "UpdateError":
            if self.cause is None:
                return f"entry updates unknown variable {self.variable!r}"
            return f"variable {self.variable!r}: {self.cause}"
        if reason == "CompositionStageFailed":
            return (f"stage {self.stage} ({self.stage_name}) cannot fire on "
                    "any intermediate state")
        if reason == "UnknownEvent":
            return (f"event {self.candidate!r} names no action and no "
                    "composed action; if the implementation fuses several "
                    "actions into this event, map it in the composition "
                    "config")
        if self.event_args is None:
            return "no candidate action for this entry"
        return (f"no parameter valuation renders as "
                f"{list(self.event_args)}")

    def describe(self) -> str:
        return f"{step_label(self.candidate, self.values)}: {self.detail}"


# Slotted: a validation's memo keeps a Match for every step it found.
@dataclass(frozen=True, slots=True)
class Match:
    """One successful way to consume an entry: the state it leads to
    and the step that got there.  A witness is a list of Matches whose
    k-th (1-based) consumes entry k."""

    state: SpecState
    name: str                                     # action/composed/STUTTER
    values: tuple[Value, ...] = ()                # () for composed/STUTTER
    # Each stage's valuation for a composed step, () for the stutter,
    # None for an action.
    stage_values: tuple[tuple[Value, ...], ...] | None = None


@dataclass
class FailureReport:
    entry_index: int               # 1-based
    state: SpecState
    attempts: list[Attempt]
    node: int                      # the blocked node's id in the graph


@dataclass
class Verdict:
    accepted: bool
    consumed_max: int
    distinct_states: int
    trace_length: int
    witness: list[Match] | None = None
    failures: list[FailureReport] = field(default_factory=list)
    inconclusive: bool = False
    budget_reason: str | None = None
    search: str = "bfs"
    # The explored search graph, for DOT export: node i is the pair
    # (states[i], lines[i]); an edge (src, name, values, dst) is the
    # step that took node src to node dst.
    states: list[SpecState] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)
    edges: list[tuple[int, str, tuple[Value, ...], int]] = field(
        default_factory=list)

    def status(self) -> str:
        if self.accepted:
            return "accepted"
        if self.inconclusive:
            return "inconclusive"
        return "rejected"

    def to_jsonable(self) -> dict:
        out = {
            "status": self.status(),
            "accepted": self.accepted,
            "inconclusive": self.inconclusive,
            "consumed_max": self.consumed_max,
            "trace_length": self.trace_length,
            "distinct_states": self.distinct_states,
            "search": self.search,
            "failures": [
                {
                    "entry": f.entry_index,
                    "state": {k: value_to_json(v)
                              for k, v in sorted(f.state.bindings.items())},
                    "attempts": [
                        {
                            "candidate": a.candidate,
                            "reason": a.reason,
                            "detail": a.detail,
                        }
                        for a in f.attempts
                    ],
                }
                for f in self.failures
            ],
        }
        if self.budget_reason is not None:
            out["budget_reason"] = self.budget_reason
        if self.witness is not None:
            out["witness"] = [
                {
                    "entry": n,
                    "step": step_label(w.name, w.values),
                    "state": {k: value_to_json(v)
                              for k, v in sorted(w.state.bindings.items())},
                }
                for n, w in enumerate(self.witness, 1)
            ]
        return out


def _expected_values(state: SpecState, entry: TraceEntry
                     ) -> dict[str, Value] | Attempt:
    """Replay the entry's updates per variable on the pre-state: the
    value each recorded variable must end at, or the UpdateError
    attempt of the first update that cannot be replayed."""
    expected: dict[str, Value] = {}
    for var, ops in entry.updates.items():
        if var not in state:
            return Attempt("(updates)", "UpdateError", variable=var)
        try:
            expected[var] = apply_entry_updates(state[var], ops)
        except TracecheckError as exc:
            return Attempt("(updates)", "UpdateError", variable=var,
                           cause=str(exc))
    return expected


def _first_miss(state: SpecState, expected: dict[str, Value]
                ) -> tuple[str, Value, Value] | None:
    """The first recorded variable ``state`` disagrees with, as
    (variable, trace value, spec value), or None if it agrees."""
    for var, want in expected.items():
        got = state[var]
        if got != want:
            return var, want, got
    return None


def _chain_matches(spec: Spec, state: SpecState,
                   stages: tuple[ActionSchema, ...],
                   event_args: Sequence[str] | None, compiled: _Compiled
                   ) -> tuple[list[tuple[SpecState, tuple[tuple[Value, ...], ...]]], int]:
    """All outcomes of firing ``stages`` in order, as (state, each
    stage's valuation), in the order of the stages' valuations and
    successors.  No stages leave ``state`` as it is: the stutter.

    event_args pin the leading parameters of the first stage; later
    stages range over their enabled valuations.  Returns (outcomes,
    deepest stage entered), so a caller can report which stage a dead
    chain reached.
    """
    outcomes: list[tuple[SpecState, tuple[tuple[Value, ...], ...]]] = [
        (state, ())]
    for idx, schema in enumerate(stages):
        pinned = event_args if idx == 0 else None
        extended = []
        for s, used in outcomes:
            for vals in compiled.valuations(schema, pinned):
                extended.extend((t, used + (vals,))
                                for t in step(spec, s, schema.name, vals))
        if not extended:
            return [], idx
        outcomes = extended
    return outcomes, len(stages)


def _key_pins(schema: ActionSchema, entry: TraceEntry,
              changed: Sequence[str]
              ) -> tuple[tuple[int, tuple[str, ...]], ...]:
    """(parameter position, fields) for each of the schema's key frames
    on a variable in ``changed`` whose every update in ``entry`` has a
    path: the fields are the distinct first segments of those paths,
    the only fields the updates can rewrite.  See the module docstring
    for why a keyed action can match only with its key among them."""
    pins = []
    for var, i in schema.key_positions:
        if var in changed:
            heads = [u.path[0] if u.path else None
                     for u in entry.updates[var]]
            if None not in heads:
                pins.append((i, tuple(dict.fromkeys(heads))))
    return tuple(pins)


def match_entry(spec: Spec, state: SpecState, entry: TraceEntry,
                cfg: ExplorerConfig, compiled: _Compiled | None = None,
                *, prune: bool = False
                ) -> tuple[list[Match], list[Attempt]]:
    """All distinct ways to consume ``entry`` from ``state``.

    Returns (matches, attempts): matches are deduplicated successor
    states with the step that produced them; attempts explain every
    candidate that failed, an event with neither an action nor a
    composition entry among them (an UnknownEvent attempt).
    ``compiled`` is the validation's fixed work; it is built from
    ``spec`` and ``cfg`` when not given.

    With ``prune``, the matches are the same, in the same order, for
    less work: every step whose frame leaves out a recorded variable
    the entry changes is skipped, an entry without event args fires an
    action keyed on a changed variable only at valuations whose key
    names a field the entry's updates of it write, and no attempt is
    kept (``attempts`` comes back empty).
    """
    if compiled is None:
        compiled = _Compiled(spec, cfg)
    expected = _expected_values(state, entry)
    if isinstance(expected, Attempt):
        return [], [] if prune else [expected]
    if entry.event is None:
        steps, event_args = compiled.eventless, None
    else:
        named = compiled.by_event.get(entry.event)
        if named is None:
            return [], [] if prune else [Attempt(entry.event,
                                                 "UnknownEvent")]
        steps, event_args = (named,), entry.event_args
    # The recorded variables the entry changes.  A step keeps every
    # variable outside its frame, so one that leaves any of them out
    # cannot match.
    changed = [v for v, want in expected.items()
               if state[v] != want] if prune else ()

    matches: list[Match] = []
    attempts: list[Attempt] = []
    seen: set[tuple] = set()
    interned = compiled.interned

    def keep_agreeing(name: str, values: tuple[Value, ...] | None,
                      outs: Iterable[tuple[SpecState, tuple | None]]
                      ) -> None:
        """Keep each (state, stage values) that agrees with every
        recorded variable; if none does, record the first mismatch.
        ``values`` is None unless the step is a single action."""
        miss = None
        kept = False
        for t, used in outs:
            m = _first_miss(t, expected)
            if m is not None:
                if miss is None:
                    miss = m
                continue
            kept = True
            fp = t.fingerprint()
            if fp not in seen:
                seen.add(fp)
                matches.append(Match(interned.setdefault(fp, t), name,
                                     values or (), used))
        if not prune and not kept and miss is not None:
            var, want, got = miss
            attempts.append(Attempt(name, "UpdateMismatch", values,
                                    variable=var, expected=want, actual=got))

    for name, stages, writes in steps:
        if writes is not None and not writes.issuperset(changed):
            continue
        if len(stages) == 1:
            # An action: each valuation is a candidate of its own.
            # An action keyed on a changed variable can match only with
            # its key at a field the entry's updates of it write.
            keys = (_key_pins(stages[0], entry, changed)
                    if changed and not event_args and stages[0].key_positions
                    else ())
            valuations = compiled.valuations(stages[0], event_args, keys)
            for vals in valuations:
                outs = step(spec, state, name, vals)
                if outs:
                    keep_agreeing(name, vals, [(t, None) for t in outs])
                elif not prune:
                    clause = stages[0].failing_clause(state,
                                                      stages[0].bind(vals))
                    attempts.append(Attempt(name, "GuardFailed", vals,
                                            cause=clause.description))
            if not prune and not valuations and entry.event is not None:
                attempts.append(Attempt(name, "NoCandidateAction",
                                        event_args=tuple(event_args or ())))
            continue
        # A composed step or the stutter: the whole chain is one candidate.
        outcomes, deepest = _chain_matches(spec, state, stages, event_args,
                                           compiled)
        if outcomes:
            keep_agreeing(name, None, outcomes)
        elif not prune:
            attempts.append(Attempt(
                name, "CompositionStageFailed", stage=deepest,
                stage_name=stages[deepest].name))

    if not prune and not matches and not attempts:
        attempts.append(Attempt("(none)", "NoCandidateAction"))
    return matches, attempts


def validate(spec: Spec, trace: Trace, cfg: ExplorerConfig | None = None
             ) -> Verdict:
    """Search for a spec behavior matching the whole trace.

    BFS and DFS return the same accepted/consumed_max; they may differ
    in distinct_states (DFS stops at the first witness) and in the
    order of diagnostics.  Exceeding max_states/max_seconds yields an
    inconclusive verdict, never a rejection.

    The search matches with pruning; the attempts of each reported
    dead node come from matching it again in full once the search ends.
    """
    cfg = cfg or ExplorerConfig()
    compiled = _Compiled(spec, cfg)
    t0 = time.monotonic()
    length = len(trace)

    # Entry line -> shape id: entries with equal event, event args and
    # updates share an id.
    shape_ids: dict[tuple, int] = {}
    shapes = [shape_ids.setdefault(
                  (e.event, e.event_args, tuple(e.updates.items())),
                  len(shape_ids))
              for e in trace]
    # (state fingerprint, shape id) -> the pruned matches.
    memo: dict[tuple[tuple, int], list[Match]] = {}

    states: list[SpecState] = []         # node id -> state
    lines: list[int] = []                # node id -> line (1-based)
    # (fingerprint or orbit key, line) -> node: see the module docstring.
    ids: dict[tuple[tuple, int], int] = {}
    parent: list[tuple[int, Match] | None] = []
    edges: list[tuple[int, str, tuple[Value, ...], int]] = []
    dead: list[int] = []                 # nodes no step could leave
    goal: int | None = None

    # Symmetry reduction.  Orbit keys are taken only at a line's second
    # node: ``orbits`` (line -> its orbit keys, None where nothing
    # merges) is worked out then, once, and the line's first node is
    # filed under its key.  first: line -> its first node until then
    # (-1 while the line has none, None once it is keyed).
    symmetric = len(spec.symmetric) > 1
    first: list[int | None] = [-1] * (length + 2)
    orbits: Callable[[int], Orbits | None] | None = None

    def file(state: SpecState, line: int, via: tuple[int, Match] | None
             ) -> int | None:
        """The node ``state`` is filed under at ``line``: the node of an
        equal state, else of a state that renames to it, else a new node
        reached ``via`` (None for an initial state).  None when a new
        node would exceed ``max_states``; initial states and the goal
        line are exempt, since acceptance is definitive even at the
        budget edge.  A node filed past the last entry is the goal."""
        nonlocal goal, orbits
        fp = state.fingerprint()
        node = ids.get((fp, line))
        if node is not None:
            return node
        keys = key = None
        if symmetric and first[line] != -1:
            if orbits is None:
                orbits = line_orbits(spec, trace, shapes)
            keys = orbits(line)
        if keys is not None:
            at = first[line]
            if at is not None:
                first[line] = None
                ids[keys.key(states[at]), line] = at
            key = keys.key(state)
            node = ids.get((key, line))
            if node is not None:
                return node
        if via is not None and line <= length \
                and cfg.max_states is not None \
                and len(states) >= cfg.max_states:
            return None
        nid = ids[fp, line] = len(states)
        if key is not None:
            ids[key, line] = nid
        if first[line] == -1:
            first[line] = nid
        states.append(state)
        lines.append(line)
        parent.append(via)
        if line > length:
            goal = nid
        return nid

    for s in spec.init:
        file(compiled.interned.setdefault(s.fingerprint(), s), 1, None)

    # BFS expands the nodes in the order they were filed, so their ids
    # are its queue; DFS keeps a stack.
    bfs = cfg.search == "bfs"
    stack = [] if bfs else list(range(len(states)))
    nid = -1
    budget_reason: str | None = None

    while goal is None and budget_reason is None:
        if bfs:
            nid += 1
            if nid == len(states):
                break
        elif stack:
            nid = stack.pop()
        else:
            break
        if cfg.max_seconds is not None \
                and time.monotonic() - t0 > cfg.max_seconds:
            budget_reason = f"max_seconds={cfg.max_seconds} exceeded"
            break
        state, line = states[nid], lines[nid]
        memo_key = state.fingerprint(), shapes[line - 1]
        matches = memo.get(memo_key)
        if matches is None:
            matches = match_entry(spec, state, trace[line - 1], cfg,
                                  compiled, prune=True)[0]
            memo[memo_key] = matches
        if not matches:
            dead.append(nid)
            continue
        known = len(states)
        for m in matches:
            child = file(m.state, line + 1, (nid, m))
            if child is None:
                budget_reason = f"max_states={cfg.max_states} exceeded"
                break
            edges.append((nid, m.name, m.values, child))
            if goal is not None:
                break
        if not bfs:
            # The nodes this expansion filed, last first, so that the
            # first is expanded next.
            stack.extend(range(len(states) - 1, known - 1, -1))

    consumed_max = max(lines) - 1 if lines else 0
    accepted = goal is not None
    witness = None
    if accepted:
        witness = []
        at = goal
        while parent[at] is not None:
            at, m = parent[at]
            witness.append(m)
        witness.reverse()

    failures = []
    if not accepted:
        deepest = consumed_max + 1
        for nid in dead:
            if lines[nid] == deepest:
                _, attempts = match_entry(spec, states[nid],
                                          trace[deepest - 1], cfg, compiled)
                failures.append(FailureReport(
                    entry_index=deepest, state=states[nid],
                    attempts=attempts, node=nid))

    return Verdict(
        accepted=accepted,
        consumed_max=consumed_max,
        distinct_states=len(states),
        trace_length=length,
        witness=witness,
        failures=failures,
        inconclusive=budget_reason is not None,
        budget_reason=budget_reason,
        search=cfg.search,
        states=states,
        lines=lines,
        edges=edges,
    )


# --- reporting --------------------------------------------------------

MAX_REPORTS = 5


def _duplicate_add_hint(report: FailureReport, entry: TraceEntry) -> str | None:
    """Spot Add-of-present-element updates: the signature of a resent
    message logged as if it were a fresh step."""
    for var, ops in entry.updates.items():
        if var not in report.state:
            continue
        base = report.state[var]
        for u in ops:
            if u.op == "Add" and isinstance(base, VSet) and u.args \
                    and u.args[0] in base:
                return (f"note: update {u.op} on {var!r} re-adds an element "
                        "already present (a resend recorded as a fresh "
                        "step?); --allow-stutter accepts such entries when "
                        "nothing changes")
    return None


def explain(verdict: Verdict, trace: Trace) -> str:
    """Human-readable account of a verdict: at most MAX_REPORTS of its
    blocked states are listed."""
    lines = []
    lines.append(
        f"{verdict.status()}: consumed {verdict.consumed_max} of "
        f"{verdict.trace_length} entries "
        f"({verdict.distinct_states} distinct search nodes, "
        f"{verdict.search})")
    if verdict.inconclusive:
        lines.append(f"search stopped early: {verdict.budget_reason}")
        lines.append("the verdict is inconclusive; raise the budget for a "
                     "definitive answer")
    if verdict.witness is not None:
        lines.append("witness behavior:")
        for k, w in enumerate(verdict.witness, 1):
            lines.append(f"  entry {k}: {step_label(w.name, w.values)}")
    if not verdict.accepted and verdict.failures:
        k = verdict.failures[0].entry_index
        entry = trace[k - 1]
        lines.append(f"entry {k} cannot be matched from any reached state:")
        lines.append(f"  {serialize_entry(entry)}")
        for report in verdict.failures[:MAX_REPORTS]:
            lines.append(f"  blocked state: {report.state.describe()}")
            for attempt in report.attempts:
                lines.append(f"    - {attempt.describe()}")
            hint = _duplicate_add_hint(report, entry)
            if hint is not None:
                lines.append(f"    {hint}")
        extra = len(verdict.failures) - MAX_REPORTS
        if extra > 0:
            lines.append(f"  ... and {extra} more blocked state(s)")
    return "\n".join(lines)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def explored_dot(verdict: Verdict, trace: Trace) -> str:
    """The explored constrained graph in DOT form.

    Dead-end nodes get dashed edges to a pseudo-node for the entry
    that could not be matched.
    """
    out = ["digraph trace_exploration {",
           "  rankdir=LR;",
           "  node [shape=box, fontsize=10];"]
    blocked = {f.node for f in verdict.failures}
    for i, (state, line) in enumerate(zip(verdict.states, verdict.lines)):
        label = f"after {line - 1} entr" + ("y" if line == 2 else "ies")
        label += "\\n" + state.describe().replace('"', "'")
        attrs = f"label={_dot_quote(label)}"
        if i in blocked:
            attrs += ", color=red"
        out.append(f"  n{i} [{attrs}];")
    for src, name, values, dst in verdict.edges:
        out.append(f"  n{src} -> n{dst} "
                   f"[label={_dot_quote(step_label(name, values))}];")
    if blocked:
        k = verdict.failures[0].entry_index
        entry_label = serialize_entry(trace[k - 1]).replace('"', "'")
        out.append(f"  blocked [shape=note, label={_dot_quote('entry ' + str(k) + ': ' + entry_label)}];")
        for i in sorted(blocked):
            out.append(f"  n{i} -> blocked [style=dashed];")
    out.append("}")
    return "\n".join(out) + "\n"
