"""Hypothesis property tests for the sorted-order fast paths.

The sorted lookups and in-place updates in ``values.py`` must agree
with the linear definitions and full rebuilds they replace, and the
``SpecState`` dedup key must be equal exactly when bindings are equal.
Only this module needs hypothesis.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracecheck import SpecState, VBag, VBool, VInt, VRec, VSeq, VSet, VStr

I64_MIN = -(2 ** 63)
I64_MAX = 2 ** 63 - 1

# Nested Values.  Small alphabets and ranges make equal elements, keys
# and bag entries common.
_scalar_values = st.one_of(
    st.text(alphabet="ab\"é", max_size=3).map(VStr),
    st.one_of(st.integers(-3, 3),
              st.integers(I64_MIN, I64_MAX)).map(VInt),
    st.booleans().map(VBool),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(VSeq),
        st.lists(children, max_size=4).map(VSet),
        st.lists(st.tuples(children, st.integers(1, 3)),
                 max_size=4).map(VBag),
        st.dictionaries(st.text(alphabet="ab", max_size=2), children,
                        max_size=3).map(lambda d: VRec(d.items())),
    )


values = st.recursive(_scalar_values, _containers, max_leaves=10)


def _linear_contains(s: VSet, x) -> bool:
    return any(x == y for y in s.items)


def _linear_count(b: VBag, x) -> int:
    for elem, c in b.pairs:
        if elem == x:
            return c
    return 0


def _linear_get(r: VRec, key: str):
    for k, v in r.fields:
        if k == key:
            return v
    return None


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=6), values)
def test_set_and_bag_lookups_agree_with_linear_scans(elems, probe):
    s = VSet(elems)
    bag = VBag((e, 1 + i % 3) for i, e in enumerate(elems))
    for x in (probe, *elems, *s.items):
        assert (x in s) == _linear_contains(s, x)
        assert bag.count(x) == _linear_count(bag, x)
    assert "not a value" not in s
    assert bag.count("not a value") == 0


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text(alphabet="abc", max_size=3), values,
                       max_size=6),
       st.text(alphabet="abc", max_size=3))
def test_record_get_agrees_with_linear_scan(fields, probe):
    r = VRec(fields.items())
    for key in (probe, *fields):
        assert r.get(key) is _linear_get(r, key)


@settings(max_examples=200, deadline=None)
@given(st.lists(values, max_size=6), values)
def test_in_place_updates_match_a_full_rebuild(elems, x):
    s = VSet(elems)
    rebuilt = VSet(s.items + (x,))
    assert s.with_element(x).items == rebuilt.items
    assert s.with_element(x).canonical() == rebuilt.canonical()

    r = VRec((f"k{i}", e) for i, e in enumerate(elems))
    for k in r.keys():
        assert r.replaced(k, x).canonical() == VRec(
            (f, x if f == k else v) for f, v in r.fields).canonical()
    with pytest.raises(KeyError):
        r.replaced("missing", x)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.dictionaries(st.sampled_from(("x", "y", "xy", "")),
                                values, max_size=3),
                min_size=2, max_size=4))
def test_spec_state_key_is_equal_exactly_when_bindings_are_equal(maps):
    # States over different variable sets, and states derived with
    # updated() (which share their parent's variable order), included.
    states = [SpecState(m) for m in maps]
    states += [states[0].updated(m) for m in maps[1:]]
    for a in states:
        for b in states:
            same = a.bindings == b.bindings
            assert (a.fingerprint() == b.fingerprint()) == same
            assert (a == b) == same
