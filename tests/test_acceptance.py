"""Acceptance suite: one test per release criterion, each printing a
single PASS or FAIL line (run with ``pytest -s`` to see them live).

The criteria pin the behaviors the package ships for: search results
match a brute-force oracle, full recording keeps exploration linear,
an injected coordinator bug is caught at every recording level, coarse
recording costs more search, composed events and stuttering entries
need their flags, the algebraic property suites hold at volume, the
bundled spec is sound at desk scale, and erasing trace detail never
turns an accepted run into a rejected one.
"""

import dataclasses
import random
import threading
import time
from contextlib import contextmanager

import pytest
from conftest import gen_entry, gen_value, has_set_or_bag
from oracle import explore, oracle_validate

from tracecheck import (
    ExplorerConfig,
    InMemoryClock,
    Trace,
    Tracer,
    UpdateOp,
    VBag,
    VSet,
    apply_entry_updates,
    apply_update,
    jsonable_to_value,
    merge,
    parse_ndjson,
    serialize_entry,
    serialize_trace,
    validate,
    value_to_jsonable,
)
from tracecheck.protocols import (
    TokenRingConfig,
    TwoPhaseConfig,
    build_twophase_spec,
    rm_names,
    run_tokenring,
    run_twophase,
)


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL - {summary}")
        raise
    print(f"\nACCEPTANCE {n}: PASS - {summary}")


def twophase_run(tmp_path, tag, **kw):
    cfg = TwoPhaseConfig(**kw)
    return run_twophase(cfg, tmp_path / tag)


# --- 1: search agrees with the brute-force oracle -----------------------


def mutate(rng, trace, action_names):
    """One random deviation: drop, duplicate, or rename an entry."""
    entries = list(trace)
    kind = rng.choice(("delete", "duplicate", "rename"))
    i = rng.randrange(len(entries))
    if kind == "delete":
        del entries[i]
    elif kind == "duplicate":
        entries.insert(i + 1, entries[i])
    else:
        evented = [j for j, e in enumerate(entries) if e.event is not None]
        j = rng.choice(evented) if evented else i
        new_name = rng.choice(action_names + ("Phantom",))
        entries[j] = dataclasses.replace(entries[j], event=new_name)
    return Trace(entries)


def test_acceptance_1_oracle_equivalence(tmp_path):
    with criterion(1, "BFS, DFS, and the oracle agree on 200 seeded runs "
                      "plus 200 mutants"):
        t0 = time.monotonic()
        rng = random.Random(20260818)
        cases = []
        for n_rms in (1, 2):
            spec = build_twophase_spec(rm_names(n_rms))
            action_names = tuple(a.name for a in spec.actions)
            for seed in range(100):
                res = twophase_run(
                    tmp_path, f"c1-{n_rms}-{seed}",
                    rms=rm_names(n_rms), seed=seed,
                    abort_after=2.0 if seed % 3 == 1 else None)
                base = Trace(list(res.trace)[:6])
                cases.append((spec, base))
                cases.append((spec, mutate(rng, base, action_names)))
        assert len(cases) == 400

        outcomes = {True: 0, False: 0}
        for spec, trace in cases:
            want = oracle_validate(spec, trace)
            for search in ("bfs", "dfs"):
                got = validate(spec, trace, ExplorerConfig(search=search))
                assert got.accepted == want, serialize_trace(trace)
            outcomes[want] += 1
        # the corpus must exercise both verdicts to mean anything
        assert outcomes[True] > 0 and outcomes[False] > 0
        assert time.monotonic() - t0 < 120.0


# --- 2: full recording keeps the search linear ---------------------------


def test_acceptance_2_happy_path_linear(tmp_path):
    with criterion(2, "4-RM full-detail trace accepted with near-linear "
                      "exploration"):
        t0 = time.monotonic()
        res = twophase_run(tmp_path, "c2", rms=rm_names(4), seed=7,
                           loss=0.0, record="vea")
        v = validate(res.spec, res.trace)
        assert v.accepted
        assert v.consumed_max == len(res.trace)
        assert v.distinct_states <= len(res.trace) + 2
        assert time.monotonic() - t0 < 5.0


# --- 3: the counting coordinator is caught at every recording level ------


def test_acceptance_3_bug_detection_across_levels(tmp_path):
    with criterion(3, "duplicate-counting coordinator rejected at every "
                      "recording level, blocked at TMCommit"):
        for n_rms in (2, 3, 4):
            for level in ("vea", "v", "vpea", "ea", "e"):
                res = twophase_run(
                    tmp_path, f"c3-{n_rms}-{level}",
                    rms=rm_names(n_rms), seed=0, bug="counter",
                    force_resend=True, resend_logging="silent",
                    record=level)
                t0 = time.monotonic()
                v = validate(res.spec, res.trace)
                elapsed = time.monotonic() - t0
                assert not v.accepted, (n_rms, level)
                assert not v.inconclusive, (n_rms, level)
                assert v.failures, (n_rms, level)
                assert any(a.candidate == "TMCommit"
                           for f in v.failures for a in f.attempts), \
                    (n_rms, level)
                assert elapsed < 60.0, (n_rms, level, elapsed)


# --- 4: recording less detail never shrinks the search -------------------


def test_acceptance_4_precision_ordering(tmp_path):
    with criterion(4, "distinct states ordered vea <= vpea <= e and "
                      "vea <= v on one fixed run"):
        counts = {}
        for level in ("vea", "v", "vpea", "e"):
            res = twophase_run(tmp_path, f"c4-{level}", rms=rm_names(4),
                               seed=7, record=level)
            v = validate(res.spec, res.trace)
            assert v.accepted, level
            counts[level] = v.distinct_states
        assert counts["vea"] <= counts["vpea"] <= counts["e"], counts
        assert counts["vea"] <= counts["v"], counts


# --- 5: composed events and stuttering entries need their switches -------


def test_acceptance_5_composition_and_stutter(tmp_path):
    with criterion(5, "composed detection event needs the composition map; "
                      "resend entries need stutter"):
        t0 = time.monotonic()

        ring = run_tokenring(TokenRingConfig(n=3, seed=2), tmp_path / "c5r")
        plain = validate(ring.spec, ring.trace)
        assert not plain.accepted
        assert any(a.reason == "UnknownEvent"
                   for f in plain.failures for a in f.attempts)
        composed = validate(ring.spec, ring.trace,
                            ExplorerConfig(composition=ring.composition))
        assert composed.accepted

        res = twophase_run(tmp_path, "c5s", rms=rm_names(2), seed=0,
                           delay=(10.0, 10.0), work=(1.0, 1.0),
                           timeout=12.0)
        assert any(e.event is None for e in res.trace)
        assert not validate(res.spec, res.trace).accepted
        assert validate(res.spec, res.trace,
                        ExplorerConfig(allow_stutter=True)).accepted

        assert time.monotonic() - t0 < 5.0


# --- 6: property suites at volume ----------------------------------------


def test_acceptance_6_property_suites(tmp_path):
    with criterion(6, "value algebra over 1000 values, 500 merge pairs, "
                      "4x1000 concurrent clock stamps, zero failures"):
        rng = random.Random(6)

        checked = 0
        while checked < 1000:
            v = gen_value(rng)
            checked += 1
            # empty update fold is the identity
            assert apply_entry_updates(v, ()) == v
            # the wire round trip is exact for set/bag-free values and
            # a fixpoint for everything
            wire = value_to_jsonable(v)
            back = jsonable_to_value(wire)
            if not has_set_or_bag(v):
                assert back == v
            assert value_to_jsonable(back) == wire
            # set add/remove cancel; duplicate add is absorbed
            s = VSet((v,))
            probe = gen_value(rng, depth=1)
            if probe in s:
                assert apply_update(s, UpdateOp("Add", (), (probe,))) == s
            else:
                grown = apply_update(s, UpdateOp("Add", (), (probe,)))
                assert apply_update(
                    grown, UpdateOp("Remove", (), (probe,))) == s
            # bag add/remove cancel regardless of prior multiplicity
            b = VBag(((v, 2),))
            grown_b = apply_update(b, UpdateOp("AddToBag", (), (probe,)))
            assert apply_update(
                grown_b, UpdateOp("RemoveFromBag", (), (probe,))) == b

        def clocked(n):
            entries, clock = [], 0
            for _ in range(n):
                clock += rng.randint(0, 3)
                entries.append(gen_entry(rng, clock=clock))
            return Trace(entries)

        for i in range(500):
            a = clocked(rng.randint(0, 6))
            b = clocked(rng.randint(0, 6))
            merged = merge([a, b])
            # permutation: nothing is lost, invented, or altered
            assert sorted(serialize_entry(e) for e in merged) == sorted(
                serialize_entry(e) for e in [*a, *b])
            clocks = [e.clock for e in merged]
            assert clocks == sorted(clocks)
            # each source's entries keep their original relative order
            for src in (a, b):
                ids = {id(e) for e in src}
                kept = [id(e) for e in merged if id(e) in ids]
                assert kept == [id(e) for e in src]

        clock = InMemoryClock()
        tracers = [Tracer(str(tmp_path / f"c6-{i}.ndjson"), clock)
                   for i in range(4)]
        stamps = [[] for _ in range(4)]

        def worker(i):
            for _ in range(1000):
                stamps[i].append(tracers[i].log())

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for t in tracers:
            t.close()
        flat = [s for per in stamps for s in per]
        assert len(set(flat)) == 4000
        for per in stamps:
            assert per == sorted(per)


# --- 7: the bundled spec is sound at desk scale ---------------------------


def test_acceptance_7_exhaustive_soundness():
    with criterion(7, "exhaustive exploration up to 3 RMs violates no "
                      "invariant"):
        t0 = time.monotonic()
        for n in (1, 2, 3):
            spec = build_twophase_spec(rm_names(n))
            states, _ = explore(spec, max_states=100_000)
            assert states
            for s in states:
                assert spec.invariants["TypeOK"](s), s
                assert spec.invariants["Consistent"](s), s
        assert time.monotonic() - t0 < 30.0


# --- 8: erasing detail never flips accepted to rejected -------------------


def erase_args(trace):
    return Trace([dataclasses.replace(e, event_args=None) for e in trace])


def erase_events(trace):
    return Trace([dataclasses.replace(e, event=None, event_args=None)
                  for e in trace])


def erase_var(trace, var):
    return Trace([dataclasses.replace(
        e, updates={k: v for k, v in e.updates.items() if k != var})
        for e in trace])


def test_acceptance_8_monotone_erasure(tmp_path):
    with criterion(8, "progressive detail erasure on 50 accepted traces "
                      "never rejects"):
        runs = [(2, seed) for seed in range(25)] \
            + [(3, seed) for seed in range(15)] \
            + [(4, seed) for seed in range(10)]
        assert len(runs) == 50
        cfg = ExplorerConfig(allow_stutter=True)
        for n_rms, seed in runs:
            res = twophase_run(
                tmp_path, f"c8-{n_rms}-{seed}",
                rms=rm_names(n_rms), seed=seed,
                abort_after=2.0 if seed % 4 == 1 else None)
            spec, trace = res.spec, res.trace
            assert validate(spec, trace, cfg).accepted, (n_rms, seed)

            stages = []
            t = erase_args(trace)
            stages.append(("event args erased", t))
            t = erase_events(t)
            stages.append(("events erased", t))
            for var in spec.variables:
                t = erase_var(t, var)
                stages.append((f"updates of {var} erased", t))
            for stage, tt in stages:
                v = validate(spec, tt, cfg)
                assert v.accepted, (n_rms, seed, stage, v.status())
