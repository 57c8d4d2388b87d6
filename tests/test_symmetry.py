"""Symmetry reduction: a spec's declared interchangeable names, and the
search's merging of nodes whose states differ only by a renaming of
names no later trace entry mentions.

The reduced search is checked against the same spec with no names
declared, and against the brute-force oracle: same verdict, same
deepest entry, a witness that replays entry by entry, and only blocked
states the unreduced search also reports.
"""

import contextlib
import dataclasses
import io
import random

import pytest
from oracle import (explore, free_names, oracle_validate, renamed,
                    renamed_state, renamings)

from tracecheck import (ActionSchema, ExplorerConfig, Spec, SpecState,
                        TraceEntry, UpdateOp, VBag, VInt, VRec, VSeq, VSet,
                        VStr, explain, explored_dot, match_entry, mk,
                        validate)
from tracecheck.cli import main
from tracecheck.protocols import (TwoPhaseConfig, build_twophase_spec,
                                  rm_names, run_twophase)
from tracecheck.symmetry import Orbits
from tracecheck.values import renamed_canonical

# --- renaming values and declaring symmetry -----------------------------


def test_renamed_renames_strings_and_keys_at_any_depth():
    v = VRec([("a", VSet([VStr("a"), VStr("c")])),
              ("k", VSeq([VStr("b"), VBag([(VStr("a"), 2)])]))])
    swap = {"a": "b", "b": "a"}
    want = VRec([("b", VSet([VStr("b"), VStr("c")])),
                 ("k", VSeq([VStr("a"), VBag([(VStr("b"), 2)])]))])
    assert renamed(v, swap) == want
    assert renamed_canonical(v, swap) == want.canonical()


def _one_var_spec(init_values, symmetric):
    return Spec(variables=("x",),
                init=[SpecState({"x": mk(v)}) for v in init_values],
                actions=[], symmetric=symmetric)


def test_spec_refuses_a_repeated_symmetric_name():
    with pytest.raises(ValueError, match="repeats"):
        _one_var_spec(["a"], ("a", "b", "a"))


def test_spec_refuses_initial_states_not_closed_under_a_swap():
    # Closed under swapping a and b, not under swapping b and c.
    with pytest.raises(ValueError, match="'b' and 'c'"):
        _one_var_spec([{"a"}, {"b"}], ("a", "b", "c"))
    spec = _one_var_spec([{"a"}, {"b"}, {"c"}], ("a", "b", "c"))
    assert spec.symmetric == ("a", "b", "c")


def test_twophase_declares_its_rms_unless_one_is_named_like_a_state_string():
    assert build_twophase_spec(rm_names(3)).symmetric == rm_names(3)
    for clash in ("working", "init", "done", "Prepared", "type", "rm"):
        assert build_twophase_spec((clash, "rm-1")).symmetric == ()
    # Renaming would rename the state string too.  Where the initial
    # state holds it, declaring the RMs anyway is refused.
    for clash in ("working", "init"):
        spec = build_twophase_spec((clash, "rm-1"))
        with pytest.raises(ValueError, match="not symmetric"):
            dataclasses.replace(spec, symmetric=(clash, "rm-1"))


def test_twophase_with_an_rm_named_working_validates_as_unreduced(tmp_path):
    for bug in (None, "counter"):
        extra = (dict(bug=bug, force_resend=True, resend_logging="silent")
                 if bug else {})
        res = run_twophase(TwoPhaseConfig(
            rms=("working", "rm-1", "rm-2"), seed=4, record="e", **extra),
            tmp_path / f"run-{bug}")
        assert res.spec.symmetric == ()
        plain = dataclasses.replace(res.spec, symmetric=())
        for search in ("bfs", "dfs"):
            cfg = ExplorerConfig(search=search)
            got, want = (validate(s, res.trace, cfg)
                         for s in (res.spec, plain))
            assert got.accepted == (bug is None)
            assert explain(got, res.trace) == explain(want, res.trace)
            assert got.to_jsonable() == want.to_jsonable()
            assert explored_dot(got, res.trace) == \
                explored_dot(want, res.trace)
            # The same through the command line's spec argument.
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["validate", "--spec",
                             "twophase:working,rm-1,rm-2", "--search", search,
                             "--trace", str(res.out_dir / "merged.ndjson")])
            assert code == (0 if bug is None else 1)
            assert out.getvalue().startswith(explain(want, res.trace))


def _random_value(rng, depth=3):
    """A value whose strings and keys come from a few names."""
    names = ("a", "b", "c", "é", "ab")
    kind = rng.choice(["str", "int"] + ["seq", "set", "bag", "rec"] * (
        depth > 0))
    if kind == "str":
        return VStr(rng.choice(names))
    if kind == "int":
        return VInt(rng.randint(0, 2))
    kids = [_random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    if kind == "seq":
        return VSeq(kids)
    if kind == "set":
        return VSet(kids)
    if kind == "bag":
        return VBag([(k, rng.randint(1, 2)) for k in kids])
    return VRec(dict(zip(rng.sample(names, len(kids)), kids)).items())


def test_renamed_bytes_are_the_renamed_values_bytes():
    rng = random.Random(14)
    free = ("a", "b", "c", "é")
    for _ in range(500):
        v = _random_value(rng)
        perm = dict(zip(free, rng.sample(free, len(free))))
        want = renamed(v, perm).canonical()
        assert renamed_canonical(v, perm) == want
        state = SpecState({"v": v, "w": VStr("a")})
        assert state.renamed_fingerprint(perm) == \
            renamed_state(state, perm).fingerprint()


def test_orbit_keys_are_equal_exactly_within_an_orbit():
    # Twophase at three and four RMs: every reachable state, keyed with
    # all RMs free.  Equal keys must mean a renaming (soundness), and
    # here each orbit gets one key (no state is left unmerged).
    for rms, orbit_count in ((3, 70), (4, 146)):
        spec = build_twophase_spec(rm_names(rms))
        states, _ = explore(spec)
        orbits = Orbits(spec.symmetric, frozenset(spec.symmetric))
        by_key = {}
        for s in states:
            by_key.setdefault(orbits.key(s), set()).add(s)
        for group in by_key.values():
            assert group == renamings(next(iter(group)),
                                      rm_names(rms)) & set(states)
        assert len(by_key) == orbit_count < len(states)


_FREE = ("a", "b", "c", "é")


def _occurrences(v, free):
    """How many times the names in ``free`` occur in ``v``, as strings
    or record keys."""
    if isinstance(v, VStr):
        return int(v.text in free)
    if isinstance(v, VRec):
        return sum((k in free) + _occurrences(x, free) for k, x in v.fields)
    if isinstance(v, VBag):
        return sum(_occurrences(x, free) for x, _ in v.pairs)
    if isinstance(v, (VSeq, VSet)):
        return sum(_occurrences(x, free) for x in v.items)
    return 0


def _separable(v, free):
    """Whether each set element, bag element and free-keyed record
    field (key and value together) in ``v``, at any depth, holds at
    most one occurrence of a name in ``free``."""
    if isinstance(v, VRec):
        return all(_separable(x, free)
                   and (k not in free or _occurrences(x, free) == 0)
                   for k, x in v.fields)
    if isinstance(v, VSeq):
        return all(_separable(x, free) for x in v.items)
    elements = (v.items if isinstance(v, VSet) else
                [x for x, _ in v.pairs] if isinstance(v, VBag) else [])
    return all(_separable(x, free) and _occurrences(x, free) < 2
               for x in elements)


# Pairs of values that are no renaming of one another, each beside the
# same sequence of every name, so that no renaming but the identity
# maps one state to the other.  Each pair differs where a careless
# skeleton or place would not see it.
_LOOKALIKES = [
    # A record key and a string that read like a masked name.
    (mk({"*": 1, "k": "a"}), mk({"b": 1, "k": "a"})),
    (mk({"k": "a", "m": "*"}), mk({"k": "a", "m": "b"})),
    (mk(["*", {"a"}]), mk([{"a"}, "*"])),
    # Keys holding the separators of an encoding without lengths.
    (mk({"k": "a", "m": 1, "n": 2}), mk({"k": "a", "m=i1;;n": 2})),
    (mk({"k": "a", "m;": {"n": 1}}), mk({"k": "a", "m": {";n": 1}})),
    (mk({"k": "a", "3:x": 1}), mk({"k": "a", "3": {"x": 1}})),
    (mk({"a": "s3:b"}), mk({"a": "3:b"})),
    # Set and bag elements told apart only by their skeletons.
    (mk({("a", 1), ("b", 2)}), mk({("a", 2), ("b", 1)})),
    (VBag([(mk(("a", 1)), 1), (mk(("b", 2)), 1)]),
     VBag([(mk(("a", 2)), 1), (mk(("b", 1)), 1)])),
    (VBag([(mk("a"), 1), (mk("b"), 2)]), VBag([(mk("a"), 2), (mk("b"), 1)])),
    # Elements and free-keyed fields holding two names: not separable.
    (VSet([mk({"p": "a", "q": "b"}), mk({"p": "c", "q": "é"})]),
     VSet([mk({"p": "a", "q": "é"}), mk({"p": "c", "q": "b"})])),
    (mk({("a", "b"), ("c", "é")}), mk({("a", "é"), ("c", "b")})),
    (VBag([(mk(("a", "b")), 1), (mk(("c", "é")), 1)]),
     VBag([(mk(("a", "é")), 1), (mk(("c", "b")), 1)])),
    (mk({"a": "b", "c": "é"}), mk({"a": "é", "c": "b"})),
]


@pytest.mark.parametrize("free", [_FREE, _FREE[:3]])
def test_orbit_keys_merge_only_renamings(free):
    # Seeded random states, separable or not, and the look-alike pairs,
    # each beside a random renaming of itself.  Equal keys must mean a
    # renaming; a state whose values are all separable must get the key
    # of every renaming of it; and no key is a fingerprint, so keys and
    # fingerprints can share the search's dedup table.
    rng = random.Random(f"orbit-keys-{len(free)}")
    names = mk(list(_FREE))
    pool = [SpecState({"x": _random_value(rng), "y": _random_value(rng, 2)})
            for _ in range(200)]
    pool += [SpecState({"x": v, "y": names})
             for pair in _LOOKALIKES for v in pair]

    def shuffled():
        return dict(zip(free, rng.sample(free, len(free))))

    states = pool + [renamed_state(s, shuffled()) for s in pool]
    orbits = Orbits(_FREE, frozenset(free))
    by_key = {}
    for s in states:
        by_key.setdefault(orbits.key(s), set()).add(s)
    for group in by_key.values():
        if len(group) > 1:
            assert group <= renamings(next(iter(group)), free)
    assert not set(by_key) & {s.fingerprint() for s in states}
    separable = [s for s in pool if all(
        _separable(v, free) for v in s.bindings.values())]
    assert 0 < len(separable) < len(pool)
    for s in separable:
        assert orbits.key(renamed_state(s, shuffled())) == orbits.key(s)


# --- the reduced search against the unreduced one and the oracle --------


def _replays(spec, trace, cfg, witness):
    """Each witness step is a match of its entry from the state the
    previous step left (the initial state for the first)."""
    (prev,) = spec.init
    for entry, w in zip(trace, witness):
        matches, _ = match_entry(spec, prev, entry, cfg)
        if (w.state, w.name, w.values, w.stage_values) not in [
                (m.state, m.name, m.values, m.stage_values)
                for m in matches]:
            return False
        prev = w.state
    return len(witness) == len(trace)


def check_reduction(spec, trace, cfg, oracle=True):
    """The reduced search agrees with the unreduced one (and, when
    asked, with the oracle); returns the reduced verdict."""
    assert len(spec.symmetric) > 1
    got = validate(spec, trace, cfg)
    want = validate(dataclasses.replace(spec, symmetric=()), trace, cfg)
    assert got.status() == want.status()
    assert got.consumed_max == want.consumed_max
    assert got.distinct_states <= want.distinct_states
    if oracle:
        assert got.accepted == oracle_validate(spec, trace, cfg)
    if got.accepted:
        assert _replays(spec, trace, cfg, got.witness)
    else:
        assert {f.entry_index for f in got.failures} == \
            {f.entry_index for f in want.failures}
        assert {f.state for f in got.failures} <= \
            {f.state for f in want.failures}
    return got


def _mutants(trace, rng):
    """The trace, one entry dropped, two adjacent entries swapped, and
    one event arg pointed at another RM."""
    out = [trace]
    entries = list(trace)
    i = rng.randrange(len(entries))
    out.append(entries[:i] + entries[i + 1:])
    if len(entries) > 1:
        j = rng.randrange(len(entries) - 1)
        out.append(entries[:j] + [entries[j + 1], entries[j]]
                   + entries[j + 2:])
    named = [k for k, e in enumerate(entries) if e.event_args]
    if named:
        k = rng.choice(named)
        e = entries[k]
        other = rng.choice([r for r in rm_names(3) if r != e.event_args[0]])
        out.append(entries[:k] + [dataclasses.replace(
            e, event_args=(other,) + e.event_args[1:])] + entries[k + 1:])
    return out


@pytest.mark.parametrize("level", ["e", "ea", "v", "vpea"])
def test_reduced_search_agrees_with_unreduced_and_oracle(level, tmp_path):
    rng = random.Random(f"symmetry-{level}")
    merged_somewhere = False
    for seed in range(3):
        for bug in (None, "counter"):
            extra = (dict(bug=bug, force_resend=True,
                          resend_logging="silent") if bug else {})
            res = run_twophase(TwoPhaseConfig(
                rms=rm_names(3), seed=seed, record=level, **extra),
                tmp_path / f"run-{seed}-{bug}")
            for trace in _mutants(res.trace, rng):
                for search in ("bfs", "dfs"):
                    cfg = ExplorerConfig(search=search,
                                         allow_stutter=level in ("v", "vpea"))
                    got = check_reduction(res.spec, trace, cfg)
                    plain = validate(dataclasses.replace(
                        res.spec, symmetric=()), trace, cfg)
                    merged_somewhere |= (got.distinct_states
                                         < plain.distinct_states)
    if level == "e":
        assert merged_somewhere


def test_reduced_search_agrees_on_wider_e_traces(tmp_path):
    # Four and five RMs: the oracle is too slow here, so the unreduced
    # search is the reference.
    for rms in (4, 5):
        for bug in (None, "counter"):
            extra = (dict(bug=bug, force_resend=True,
                          resend_logging="silent") if bug else {})
            res = run_twophase(TwoPhaseConfig(
                rms=rm_names(rms), seed=rms, record="e", **extra),
                tmp_path / f"run-{rms}-{bug}")
            for search in ("bfs", "dfs"):
                got = check_reduction(res.spec, res.trace,
                                      ExplorerConfig(search=search),
                                      oracle=False)
                assert got.accepted == (bug is None)


@pytest.mark.parametrize("search", ["bfs", "dfs"])
def test_initial_states_merge_among_themselves(search):
    # s starts at each of a, b and c, and no entry mentions any of
    # them, so the three initial states are one node.
    tick = ActionSchema("Tick", (), (),
                        lambda s, p: [{"n": VInt(s["n"].n + 1)}])
    spec = Spec(variables=("n", "s"),
                init=[SpecState({"s": VStr(x), "n": VInt(0)})
                      for x in ("a", "b", "c")],
                actions=[tick], symmetric=("a", "b", "c"))
    trace = [TraceEntry(clock=k, event="Tick") for k in (1, 2)]
    cfg = ExplorerConfig(search=search)
    got = validate(spec, trace, cfg)
    plain = validate(dataclasses.replace(spec, symmetric=()), trace, cfg)
    assert got.accepted and plain.accepted
    assert got.distinct_states == 3
    assert plain.distinct_states == {"bfs": 7, "dfs": 5}[search]


# Each case: entry 1 prepares some RM, and entry 2 can follow only the
# branch where rm-1 prepared.  rm-0 is mentioned only at entry 2, in
# one way each; a search that missed that mention would take both RMs
# as free at entry 2, merge the rm-1 branch into the rm-0 one (found
# first) and reject.
_PREPARE = TraceEntry(clock=1, event="RMPrepare")
_ONLY_RM0_MENTION = {
    "event arg": TraceEntry(clock=2, event="RMPrepare",
                            event_args=("rm-0",)),
    "update path": TraceEntry(clock=2, event="RMPrepare", updates={
        "rmState": (UpdateOp("Update", ("rm-0",), (VStr("prepared"),)),)}),
    "update arg": TraceEntry(clock=2, event="RMPrepare", updates={
        "msgs": (UpdateOp("Add", (), (mk({"type": "Prepared",
                                          "rm": "rm-0"}),)),)}),
}


@pytest.mark.parametrize("kind", list(_ONLY_RM0_MENTION))
@pytest.mark.parametrize("search", ["bfs", "dfs"])
def test_a_name_mentioned_only_later_is_not_merged(kind, search):
    spec = build_twophase_spec(rm_names(2))
    trace = [_PREPARE, _ONLY_RM0_MENTION[kind]]
    assert free_names(spec, trace, 2) == ("rm-1",)
    cfg = ExplorerConfig(search=search)
    got = check_reduction(spec, trace, cfg)
    assert got.accepted
    assert got.witness[0].values == (VStr("rm-1"),)
    # With the mention dropped both RMs are free, and the search merges.
    bare = [_PREPARE, dataclasses.replace(trace[1], event_args=None,
                                          updates={})]
    assert validate(spec, bare, cfg).distinct_states < \
        validate(dataclasses.replace(spec, symmetric=()), bare,
                 cfg).distinct_states


def test_orbit_tables_are_made_only_for_lines_that_key(tmp_path,
                                                       monkeypatch):
    # A counter trace at level v: some line holds two nodes, but leaves
    # fewer than two RMs free, so nothing there is keyed; the lines that
    # leave two RMs free hold one node each.
    res = run_twophase(TwoPhaseConfig(
        rms=rm_names(3), seed=0, record="v", bug="counter",
        force_resend=True, resend_logging="silent"), tmp_path / "run")
    made = []
    init = Orbits.__init__

    def counting(self, names, free):
        made.append(free)
        init(self, names, free)

    monkeypatch.setattr(Orbits, "__init__", counting)
    got = validate(res.spec, res.trace, ExplorerConfig(allow_stutter=True))
    lines = range(1, len(res.trace) + 1)
    free = {line: free_names(res.spec, res.trace, line) for line in lines}
    crowded = [line for line in lines if got.lines.count(line) > 1]
    assert crowded
    assert all(len(free[line]) < 2 for line in crowded)
    assert any(len(free[line]) >= 2 for line in lines)
    assert made == []
