"""Brute-force references the tests compare the search against.

``oracle_validate`` decides acceptance by enumerating behaviors
outright, and ``explore`` walks a spec's whole reachable state graph.
Neither shares matching code with ``tracecheck.explorer``: from it they
take only the configuration and its composition check.  Both ignore
action frames: where the search skips a step whose frame cannot make
an entry's recorded changes, the oracle still fires it.
"""

from __future__ import annotations

from tracecheck import (GuardFailed, Spec, SpecState, Trace,
                        TracecheckError, Value, apply_entry_updates,
                        render_event_arg, step)
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
                try:
                    outs = step(spec, s2, stages[k], vals)
                except GuardFailed:
                    continue
                if any(chain(t, stages, k + 1) for t in outs):
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
                try:
                    outs = step(spec, s, schema.name, values)
                except GuardFailed:
                    continue
                for t in outs:
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
