"""Value model: construction, canonical bytes, JSON wire format,
update operators."""

from __future__ import annotations

import random

import pytest
from conftest import I64_MAX, I64_MIN, gen_value, has_set_or_bag

from tracecheck import (BagUnderflow, OpTypeError, ParseError, PathError,
                        UnknownOp, UpdateOp, VBag, VBool, VInt, VRec, VSeq,
                        VSet, VStr, apply_entry_updates, apply_update,
                        json_to_value, jsonable_to_value, mk,
                        render_event_arg, value_to_json, value_to_jsonable)


# --- construction and equality ---------------------------------------

def test_int_range_is_signed_64_bit():
    assert VInt(I64_MAX).n == I64_MAX
    assert VInt(I64_MIN).n == I64_MIN
    with pytest.raises(OverflowError):
        VInt(I64_MAX + 1)
    with pytest.raises(OverflowError):
        VInt(I64_MIN - 1)


def test_int_rejects_bool():
    with pytest.raises(TypeError):
        VInt(True)


def test_bool_and_int_never_equal():
    assert VBool(True) != VInt(1)
    assert VBool(False) != VInt(0)
    assert hash(VBool(True)) != hash(VInt(1))


def test_set_deduplicates_and_ignores_order():
    a = VSet([VInt(2), VInt(1), VInt(2)])
    b = VSet([VInt(1), VInt(2)])
    assert a == b
    assert len(a) == 2
    assert VInt(2) in a and VInt(3) not in a


def test_bag_merges_counts_and_rejects_nonpositive():
    b = VBag([(VStr("m"), 2), (VStr("m"), 1)])
    assert b.count(VStr("m")) == 3
    assert len(b) == 3
    with pytest.raises(ValueError):
        VBag([(VStr("m"), 0)])
    with pytest.raises(ValueError):
        VBag([(VStr("m"), -1)])


def test_record_sorts_keys_and_rejects_duplicates():
    r = VRec([("b", VInt(2)), ("a", VInt(1))])
    assert r.keys() == ("a", "b")
    assert r["a"] == VInt(1)
    with pytest.raises(ValueError):
        VRec([("a", VInt(1)), ("a", VInt(2))])


def test_seq_keeps_order_and_duplicates():
    s = VSeq([VInt(1), VInt(1), VInt(2)])
    assert len(s) == 3
    assert s != VSeq([VInt(1), VInt(2), VInt(1)])


def test_mk_builds_from_plain_python():
    v = mk({"n": 3, "ok": True, "xs": [1, 2], "who": "me"})
    assert isinstance(v, VRec)
    assert v["n"] == VInt(3)
    assert v["ok"] == VBool(True)
    assert v["xs"] == VSeq([VInt(1), VInt(2)])
    assert mk({1, 2}) == VSet([VInt(1), VInt(2)])
    assert mk(VStr("x")) == VStr("x")


# --- canonical bytes --------------------------------------------------

# Frozen canonical bytes: the search's state fingerprints are built
# from them, so flag accidental changes to the byte format.
GOLDEN_FINGERPRINTS = [
    (VStr("hello"), b"s5:hello"),
    (VInt(42), b"i42;"),
    (VBool(True), b"b1"),
    (VSeq([VInt(1), VStr("a")]), b"q[i1;s1:a]"),
    (VSet([VStr("b"), VStr("a")]), b"S[s1:as1:b]"),
    (VBag([(VStr("m"), 2)]), b"B[s1:m*2;]"),
    (VRec([("k", VInt(1))]), b"R{k1:k=i1;}"),
]


def test_fingerprints_are_frozen():
    for v, canonical in GOLDEN_FINGERPRINTS:
        assert v.canonical() == canonical, value_to_json(v)


def test_equal_values_share_canonical_bytes_and_hash():
    rng = random.Random(4242)
    for _ in range(300):
        v = gen_value(rng)
        w = json_to_value(value_to_json(v))
        again = json_to_value(value_to_json(w))
        assert value_to_json(w) == value_to_json(again)
        assert w == again and hash(w) == hash(again)
        assert w.canonical() == again.canonical()


def test_distinct_scalars_have_distinct_canonical_bytes():
    vals = [VStr("1"), VInt(1), VBool(True), VSeq([VInt(1)]),
            VSet([VInt(1)]), VBag([(VInt(1), 1)]),
            VRec([("1", VInt(1))])]
    canons = {v.canonical() for v in vals}
    assert len(canons) == len(vals)


# --- JSON wire format --------------------------------------------------

def test_wire_format_shapes():
    assert value_to_json(VStr("a")) == '"a"'
    assert value_to_json(VInt(-3)) == "-3"
    assert value_to_json(VBool(True)) == "true"
    assert value_to_json(VSeq([VInt(1), VStr("x")])) == '[1,"x"]'
    # sets serialize in canonical element order
    assert value_to_json(VSet([VStr("b"), VStr("a")])) == '["a","b"]'
    # bags serialize as [element, count] pairs
    assert value_to_json(VBag([(VStr("m"), 2)])) == '[["m",2]]'
    # records serialize with lexicographically sorted keys
    assert value_to_json(VRec([("b", VInt(2)), ("a", VInt(1))])) == \
        '{"a":1,"b":2}'


def test_parse_resolves_arrays_to_sequences():
    v = json_to_value('[1,2,2]')
    assert v == VSeq([VInt(1), VInt(2), VInt(2)])


def test_parse_rejects_floats_and_null():
    with pytest.raises(ParseError):
        json_to_value("1.5")
    with pytest.raises(ParseError):
        json_to_value("null")
    with pytest.raises(ParseError):
        json_to_value(str(I64_MAX + 1))


def test_mk_refuses_floats_and_null():
    # The reader lifts with mk and turns its TypeError into a ParseError.
    for bad in (1.5, None):
        with pytest.raises(TypeError):
            mk(bad)


def test_roundtrip_identity_without_sets_or_bags():
    rng = random.Random(99)
    checked = 0
    while checked < 400:
        v = gen_value(rng)
        if has_set_or_bag(v):
            continue
        checked += 1
        assert jsonable_to_value(value_to_jsonable(v)) == v


def test_serialize_parse_serialize_is_identity_for_all_values():
    rng = random.Random(100)
    for _ in range(400):
        v = gen_value(rng)
        s1 = value_to_json(v)
        s2 = value_to_json(json_to_value(s1))
        assert json_to_value(s1) == json_to_value(s2)
        assert s2 == value_to_json(json_to_value(s2))


def test_render_event_arg():
    assert render_event_arg(VStr("rm-1")) == "rm-1"
    assert render_event_arg(VInt(7)) == "7"
    assert render_event_arg(VSeq([VInt(1)])) == "[1]"
    assert render_event_arg(VRec([("a", VStr("x"))])) == '{"a":"x"}'
    # Every value but a bare string renders as its JSON text, scalars
    # included, though they are written without the JSON encoder.
    for v in (VInt(I64_MIN), VInt(-1), VInt(0), VInt(I64_MAX),
              VBool(True), VBool(False),
              VSeq([VInt(1), VStr("a")]), VSet([VBool(False), VInt(-3)]),
              VBag([(VStr("m"), 2)]), VRec([("k", VSeq([VBool(True)]))]),
              VSeq(), VSet(), VBag(), VRec()):
        assert render_event_arg(v) == value_to_json(v)


# --- update operators --------------------------------------------------

def test_update_and_init_replace():
    assert apply_update(VInt(1), UpdateOp("Update", args=(VInt(2),))) == \
        VInt(2)
    assert apply_update(VStr("a"), UpdateOp("Init", args=(VStr("b"),))) == \
        VStr("b")


def test_update_coerces_sequence_into_set_slot():
    out = apply_update(VSet([VInt(1)]),
                       UpdateOp("Update", args=(VSeq([VInt(2), VInt(2)]),)))
    assert out == VSet([VInt(2)])


def test_update_coerces_pairs_into_bag_slot():
    pairs = VSeq([VSeq([VStr("m"), VInt(2)])])
    out = apply_update(VBag(), UpdateOp("Update", args=(pairs,)))
    assert out == VBag([(VStr("m"), 2)])


def test_set_add_remove_roundtrip():
    base = VSet([VInt(1)])
    added = apply_update(base, UpdateOp("Add", args=(VInt(2),)))
    assert added == VSet([VInt(1), VInt(2)])
    # adding again is idempotent
    assert apply_update(added, UpdateOp("Add", args=(VInt(2),))) == added
    back = apply_update(added, UpdateOp("Remove", args=(VInt(2),)))
    assert back == base
    # removing an absent element is a no-op
    assert apply_update(back, UpdateOp("Remove", args=(VInt(9),))) == base


def test_bag_add_remove_and_underflow():
    b = apply_update(VBag(), UpdateOp("AddToBag", args=(VStr("m"),)))
    b = apply_update(b, UpdateOp("AddToBag", args=(VStr("m"),)))
    assert b.count(VStr("m")) == 2
    b = apply_update(b, UpdateOp("RemoveFromBag", args=(VStr("m"),)))
    assert b.count(VStr("m")) == 1
    b = apply_update(b, UpdateOp("RemoveFromBag", args=(VStr("m"),)))
    assert b.count(VStr("m")) == 0
    with pytest.raises(BagUnderflow):
        apply_update(b, UpdateOp("RemoveFromBag", args=(VStr("m"),)))


def test_clear_only_applies_to_sets_and_bags():
    assert apply_update(VSet([VInt(1)]), UpdateOp("Clear")) == VSet()
    assert apply_update(VBag([(VInt(1), 2)]), UpdateOp("Clear")) == VBag()
    with pytest.raises(OpTypeError):
        apply_update(VSeq([VInt(1)]), UpdateOp("Clear"))


def test_append_grows_sequences_only():
    assert apply_update(VSeq([VInt(1)]),
                        UpdateOp("Append", args=(VInt(2),))) == \
        VSeq([VInt(1), VInt(2)])
    with pytest.raises(OpTypeError):
        apply_update(VSet(), UpdateOp("Append", args=(VInt(1),)))


def test_path_descends_record_fields_strictly():
    rec = VRec([("a", VRec([("b", VInt(1))]))])
    out = apply_update(rec, UpdateOp("Update", path=("a", "b"),
                                     args=(VInt(2),)))
    assert out["a"]["b"] == VInt(2)
    with pytest.raises(PathError):
        apply_update(rec, UpdateOp("Update", path=("missing",),
                                   args=(VInt(0),)))
    with pytest.raises(PathError):
        apply_update(VInt(3), UpdateOp("Update", path=("a",),
                                       args=(VInt(0),)))


def test_unknown_op_rejected_at_construction():
    with pytest.raises(UnknownOp):
        UpdateOp("Frobnicate", args=(VInt(1),))


def test_fold_applies_left_to_right_and_annotates_errors():
    ops = (UpdateOp("Add", args=(VInt(1),)),
           UpdateOp("Add", args=(VInt(2),)),
           UpdateOp("Remove", args=(VInt(1),)))
    assert apply_entry_updates(VSet(), ops) == VSet([VInt(2)])

    bad = (UpdateOp("Add", args=(VInt(1),)),
           UpdateOp("Append", args=(VInt(2),)))
    with pytest.raises(OpTypeError) as err:
        apply_entry_updates(VSet(), bad)
    assert "update 2 of 2" in str(err.value)


def test_empty_fold_is_identity():
    v = VRec([("x", VInt(1))])
    assert apply_entry_updates(v, ()) == v


# --- splicing one field into a record's bytes ---------------------------

# Multi-byte UTF-8 keys (a key head's length counts bytes), and keys
# whose heads, such as b"k4:rm-1=", also turn up inside field values.
_SPLICE_KEYS = ("a", "k4", "rm-1", "rm-10", "é", "世界", "z")


def _splice_value(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if roll < 0.15:
        return VStr(rng.choice(("k4:rm-1=", "R{k4:rm-1=s0:}", "é=")))
    if roll < 0.35 and depth > 0:
        return _splice_record(rng, depth - 1)
    return gen_value(rng, depth)


def _splice_record(rng: random.Random, depth: int = 2) -> VRec:
    keys = rng.sample(_SPLICE_KEYS, rng.randint(1, 5))
    return VRec([(k, _splice_value(rng, depth)) for k in keys])


def test_replaced_record_bytes_equal_rendered_bytes():
    rng = random.Random(1717)
    for _ in range(400):
        fields = _splice_record(rng).fields
        n = len(fields)
        for cached in (False, True):
            rec = VRec(fields)
            if cached:
                rec.canonical()
            # The first, a middle and the last field, replaced in turn
            # on the record the previous replacement gave.
            for i in (0, n // 2, n - 1):
                key = fields[i][0]
                new = _splice_value(rng)
                want = VRec([(k, new if k == key else v)
                             for k, v in rec.fields]).canonical()
                rec = rec.replaced(key, new)
                assert rec.canonical() == want
                assert rec[key] is new


# --- the bulk generated-value suite ------------------------------------

def test_thousand_generated_values_hold_core_properties():
    rng = random.Random(20260818)
    seen = set()
    for _ in range(1000):
        v = gen_value(rng)
        # canonical bytes are stable and hash-consistent
        c1, c2 = v.canonical(), v.canonical()
        assert c1 == c2
        w = json_to_value(value_to_json(v))
        assert value_to_json(w) == value_to_json(
            json_to_value(value_to_json(w)))
        seen.add(v.canonical())
    assert len(seen) > 500  # the generator is actually diverse


def test_nesting_too_deep_for_the_stack_is_a_parse_error():
    deep = "[" * 3000 + "1" + "]" * 3000
    with pytest.raises(ParseError):
        json_to_value(deep)
    nested = 1
    for _ in range(3000):
        nested = [nested]
    with pytest.raises(ParseError):
        jsonable_to_value(nested)
