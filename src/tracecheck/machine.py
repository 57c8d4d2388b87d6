"""Finite state-machine specifications.

A spec declares variables, one or more initial states, guarded actions
over finite parameter domains, and named invariants.  Actions are
generators, not two-state predicates: an effect returns the variables
it changes and everything unbound is copied from the pre-state, so
"unchanged" never has to be spelled out.  An action may still declare
its frame (``writes``), the variables its effect may bind: the analogue
of TLA+'s ``UNCHANGED`` clause, read the other way round.  The trace
explorer uses frames to skip actions that cannot make an entry's
recorded changes, so ``step`` refuses an effect that binds a variable
outside its declared frame.  It may also declare key frames (``keys``):
for a record variable, the parameter that names the only field its
effect may change there, as in TLA+'s ``[rmState EXCEPT ![r] = ...]``.
The trace explorer uses them to fire only the valuations that name a
field an event-less entry writes.  ``step`` does not check key frames:
the search never fires a valuation they rule out, so a check there
could not catch a wrong one.

A spec may also declare ``symmetric`` constants, like TLC's
``SYMMETRY`` set: names that renaming among themselves maps steps to
steps.  The trace explorer then merges search nodes whose states
differ only by such a renaming.  ``Spec`` refuses a declaration whose
initial states are not closed under the renamings.

Guards are lists of named clauses.  An instance whose guard is false
is disabled and has no successors, as in TLA+, where an action is
enabled exactly when it has a successor state, so ``step`` returns
none for it.  ``ActionSchema.failing_clause`` names the first false
clause; the trace explorer asks for it only when it reports a rejection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .values import Value, renamed_canonical, value_to_json


class SpecState:
    """Immutable total assignment of variables to Values.

    Values are stored positionally, in the sorted order of the
    variable names.  That order (and the name -> position index) is
    computed once when a state is built from a mapping and is shared by
    every state derived from it with ``updated``.
    """

    __slots__ = ("_names", "_index", "_vals", "_fp")

    def __init__(self, bindings: Mapping[str, Value]):
        for k, v in bindings.items():
            if not isinstance(k, str) or not isinstance(v, Value):
                raise TypeError("bindings must map str to Value")
        self._names = tuple(sorted(bindings))
        self._index = {k: i for i, k in enumerate(self._names)}
        self._vals = tuple(bindings[k] for k in self._names)
        self._fp = None

    def _derive(self, vals: tuple[Value, ...]) -> "SpecState":
        out = object.__new__(SpecState)
        out._names = self._names
        out._index = self._index
        out._vals = vals
        out._fp = None
        return out

    @property
    def bindings(self) -> dict[str, Value]:
        """A fresh name -> Value dict, in sorted name order."""
        return dict(zip(self._names, self._vals))

    def fingerprint(self) -> tuple:
        """The exact dedup key: the sorted variable names, then each
        Value's canonical bytes in that order.

        The names tuple and the bytes are the objects the state and its
        Values already hold, so the key costs one tuple.  Keys are equal
        exactly when the states bind the same names to equal Values:
        Value equality is defined as equality of canonical bytes, and
        the names header separates states over different variables.
        There is no digest, so there is no collision to argue about.
        """
        fp = self._fp
        if fp is None:
            fp = (self._names, *[v.canonical() for v in self._vals])
            self._fp = fp
        return fp

    def __getitem__(self, name: str) -> Value:
        return self._vals[self._index[name]]

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def updated(self, changes: Mapping[str, Value]) -> "SpecState":
        """This state with ``changes`` applied.  Only the changed
        bindings are checked; a new name gets a new variable order."""
        index = self._index
        vals = list(self._vals)
        for k, v in changes.items():
            i = index.get(k)
            if i is None:
                return SpecState({**self.bindings, **changes})
            if not isinstance(v, Value):
                raise TypeError("bindings must map str to Value")
            vals[i] = v
        return self._derive(tuple(vals))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpecState):
            return NotImplemented
        return self.fingerprint() == other.fingerprint()

    def __hash__(self) -> int:
        return hash(self.fingerprint())

    def describe(self, texts: dict[bytes, str] | None = None) -> str:
        """``name=json`` per variable.  ``texts`` maps canonical bytes to
        the JSON text already rendered for them; a report that describes
        many states passes one dict to every call, so each distinct
        value is rendered once."""
        if texts is None:
            texts = {}
        parts = []
        for k, v in zip(self._names, self._vals):
            c = v.canonical()
            text = texts.get(c)
            if text is None:
                text = texts[c] = value_to_json(v)
            parts.append(f"{k}={text}")
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"SpecState({self.describe()})"


Params = dict[str, Value]


@dataclass(frozen=True)
class GuardClause:
    description: str
    holds: Callable[[SpecState, Params], bool]


# An effect maps (pre-state, params) to a list of partial updates, one
# per nondeterministic successor.  Unlisted variables stay unchanged.
Effect = Callable[[SpecState, Params], list[dict[str, Value]]]


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[tuple[str, tuple[Value, ...]], ...]
    guard: tuple[GuardClause, ...]
    effect: Effect
    # The frame: every variable the effect may bind.  None means it may
    # bind any variable.
    writes: frozenset[str] | None = None
    # Key frames, as (record variable, parameter) pairs (a dict is
    # accepted too): the effect changes that variable at most at the
    # field named by the parameter's event-arg rendering, and keeps its
    # set of fields.
    keys: tuple[tuple[str, str], ...] = ()
    # (variable, position of its key parameter) per key frame, for the
    # explorer.  Not a field: set only on an action that declares keys.
    key_positions = ()

    def __post_init__(self):
        names = tuple(n for n, _ in self.params)
        object.__setattr__(self, "_param_names", names)
        if self.writes is not None:
            object.__setattr__(self, "writes", frozenset(self.writes))
        if not self.keys:
            return
        keys = tuple(self.keys.items() if isinstance(self.keys, dict)
                     else map(tuple, self.keys))
        positions = {}
        for var, param in keys:
            if param not in names:
                raise ValueError(f"{self.name}: key frame of {var!r} "
                                 f"names no parameter: {param!r}")
            if var in positions:
                raise ValueError(f"{self.name}: key frame of {var!r} "
                                 "is declared twice")
            if self.writes is not None and var not in self.writes:
                raise ValueError(f"{self.name}: key frame of {var!r} "
                                 "is outside its frame")
            positions[var] = names.index(param)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "key_positions", tuple(positions.items()))

    def valuations(self) -> Iterable[tuple[Value, ...]]:
        """Cartesian product of the parameter domains, declared order."""
        domains = [dom for _, dom in self.params]
        return itertools.product(*domains)

    def bind(self, values: Sequence[Value]) -> Params:
        names = self._param_names
        if len(values) != len(names):
            raise ValueError(
                f"{self.name} takes {len(names)} parameter(s), "
                f"got {len(values)}")
        return dict(zip(names, values))

    def failing_clause(self, state: SpecState,
                       params: Params) -> GuardClause | None:
        for clause in self.guard:
            if not clause.holds(state, params):
                return clause
        return None


@dataclass
class Spec:
    variables: tuple[str, ...]
    init: list[SpecState]
    actions: list[ActionSchema]
    invariants: dict[str, Callable[[SpecState], bool]] = field(
        default_factory=dict)
    # Interchangeable constants (TLC's SYMMETRY set): declaring them
    # asserts that renaming them among themselves, in states and in
    # action parameters alike, maps every step to a step.
    symmetric: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.init:
            raise ValueError("a spec needs at least one initial state")
        self.symmetric = tuple(self.symmetric)
        if len(set(self.symmetric)) != len(self.symmetric):
            raise ValueError("symmetric repeats a name")
        # Built once: a spec's variables and actions are fixed after
        # construction.
        self._by_name = {a.name: a for a in self.actions}
        if len(self._by_name) != len(self.actions):
            raise ValueError("duplicate action name")
        self._declared = frozenset(self.variables)
        for s in self.init:
            if set(s.bindings) != self._declared:
                raise ValueError(
                    "initial state does not bind exactly the declared "
                    f"variables: {sorted(s.bindings)} vs "
                    f"{sorted(self._declared)}")
        names = self.symmetric
        if len(names) > 1:
            # A swap of the first two names and a rotation of all of
            # them generate every permutation, and so do the swaps of
            # adjacent names: initial states closed under the first two
            # renamings are closed under all, and otherwise some
            # adjacent swap shows it.  A renamed state's fingerprint is
            # rendered without building that state.
            init = {s.fingerprint() for s in self.init}

            def leaves(renaming: dict[str, str]) -> bool:
                return any((s._names, *[renamed_canonical(v, renaming)
                                        for v in s._vals]) not in init
                           for s in self.init)

            if leaves({names[0]: names[1], names[1]: names[0]}) \
                    or leaves(dict(zip(names, names[1:] + names[:1]))):
                a, b = next((a, b) for a, b in zip(names, names[1:])
                            if leaves({a: b, b: a}))
                raise ValueError(
                    f"initial states are not symmetric in {a!r} and "
                    f"{b!r}: swapping them leaves the initial states")

    def action(self, name: str) -> ActionSchema | None:
        return self._by_name.get(name)


def _complete(spec: Spec, schema: ActionSchema, pre: SpecState,
              partial: dict[str, Value]) -> SpecState:
    if not spec._declared.issuperset(partial):
        unknown = set(partial) - spec._declared
        raise ValueError(f"effect wrote undeclared variables: {sorted(unknown)}")
    writes = schema.writes
    if writes is not None and not writes.issuperset(partial):
        outside = set(partial) - writes
        raise ValueError(f"{schema.name}: effect wrote variables outside "
                         f"its frame: {sorted(outside)}")
    return pre.updated(partial)


def step(spec: Spec, state: SpecState, action_name: str,
         values: Sequence[Value]) -> list[SpecState]:
    """All successors of firing one action instance: none when the
    instance is disabled (``ActionSchema.failing_clause`` names the
    false clause).

    Raises ValueError when the effect binds a variable the spec does
    not declare or the action's frame leaves out.
    """
    schema = spec.action(action_name)
    if schema is None:
        raise KeyError(f"no action named {action_name!r}")
    params = schema.bind(values)
    if schema.failing_clause(state, params) is not None:
        return []
    partials = schema.effect(state, params)
    if not partials:
        raise ValueError(
            f"{action_name}: effect produced no successor despite a "
            "true guard")
    return [_complete(spec, schema, state, p) for p in partials]
