"""Structured values and the update operators that rewrite them.

The value domain has seven variants: strings, 64-bit signed integers,
booleans, sequences, sets, bags (multisets with positive counts) and
records (string-keyed mappings).  Every value is immutable, carries a
cached canonical byte form, and compares/hashes by that form, so sets
and record keys are order-insensitive by construction.

Wire mapping (bit-exact, used when values appear inside trace files):

    String  <-> JSON string
    Int     <-> JSON number (integral, 64-bit signed)
    Bool    <-> JSON true/false
    Seq     <-> JSON array
    Set      -> JSON array in canonical element order
    Bag      -> JSON array of [element, count] pairs in canonical order
    Record  <-> JSON object, keys in lexicographic order

JSON arrays are ambiguous on the way back in: a set, a bag and a
sequence all serialize to arrays.  ``json_to_value`` resolves every
array to a Seq.  ``Update``/``Init`` compensate with a one-level
coercion: replacing a Set (or Bag) with a Seq argument re-reads the
argument as a set (or as [element, count] pairs).  See ``apply_update``.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Iterable, Mapping, Sequence

from .errors import BagUnderflow, OpTypeError, ParseError, PathError, UnknownOp

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class Value:
    """Base class; concrete variants are the V* classes below."""

    __slots__ = ("_canon",)

    def canonical(self) -> bytes:
        """Deterministic byte form; equal values have equal bytes."""
        c = self._canon
        if c is None:
            c = self._render()
            self._canon = c
        return c

    def _render(self) -> bytes:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({value_to_json(self)})"


class VStr(Value):
    __slots__ = ("text",)

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise TypeError(f"VStr needs str, got {type(text).__name__}")
        self._canon = None
        self.text = text

    def _render(self) -> bytes:
        raw = self.text.encode("utf-8")
        return b"s%d:%s" % (len(raw), raw)


class VInt(Value):
    __slots__ = ("n",)

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise TypeError(f"VInt needs int, got {type(n).__name__}")
        if not (I64_MIN <= n <= I64_MAX):
            raise OverflowError(f"integer out of 64-bit signed range: {n}")
        self._canon = None
        self.n = n

    def _render(self) -> bytes:
        return b"i%d;" % self.n


class VBool(Value):
    __slots__ = ("flag",)

    def __init__(self, flag: bool):
        if not isinstance(flag, bool):
            raise TypeError(f"VBool needs bool, got {type(flag).__name__}")
        self._canon = None
        self.flag = flag

    def _render(self) -> bytes:
        return b"b1" if self.flag else b"b0"


class VSeq(Value):
    __slots__ = ("items",)

    def __init__(self, items: Iterable[Value] = ()):
        items = tuple(items)
        for x in items:
            _require_value(x)
        self._canon = None
        self.items = items

    def _render(self) -> bytes:
        return b"q[" + b"".join(x.canonical() for x in self.items) + b"]"

    def __len__(self) -> int:
        return len(self.items)


# Lookups binary-search the order a container already keeps.  Set
# elements and bag elements are sorted by canonical bytes when the
# container is built, so their bytes are always cached and the search
# key can read ``_canon`` directly; record fields are sorted by key.
_elem_canon = attrgetter("_canon")
_field_key = itemgetter(0)


def _pair_canon(pair: tuple[Value, int]) -> bytes:
    return pair[0]._canon


class VSet(Value):
    """Finite set; elements are deduplicated and kept in canonical order."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Value] = ()):
        ordered = sorted((_require_value(x) for x in items),
                         key=Value.canonical)
        dedup: list[Value] = []
        for x in ordered:
            if not dedup or dedup[-1].canonical() != x.canonical():
                dedup.append(x)
        self._canon = None
        self.items = tuple(dedup)

    def _render(self) -> bytes:
        return b"S[" + b"".join(x.canonical() for x in self.items) + b"]"

    def __len__(self) -> int:
        return len(self.items)

    @classmethod
    def _of_sorted(cls, items: tuple[Value, ...]) -> "VSet":
        """Wrap elements already deduplicated and in canonical order."""
        out = object.__new__(cls)
        out._canon = None
        out.items = items
        return out

    def _find(self, x: Value) -> tuple[int, bool]:
        """Insertion index of x, and whether x is already there."""
        key = x.canonical()
        items = self.items
        i = bisect_left(items, key, key=_elem_canon)
        return i, i < len(items) and items[i]._canon == key

    def __contains__(self, x: Value) -> bool:
        return isinstance(x, Value) and self._find(x)[1]

    def with_element(self, x: Value) -> "VSet":
        """This set plus x, inserted in place (self if already there)."""
        i, found = self._find(_require_value(x))
        if found:
            return self
        items = self.items
        return VSet._of_sorted(items[:i] + (x,) + items[i:])


class VBag(Value):
    """Multiset; counts are strictly positive."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[Value, int]] = ()):
        merged: dict[bytes, tuple[Value, int]] = {}
        for elem, count in pairs:
            _require_value(elem)
            if isinstance(count, bool) or not isinstance(count, int):
                raise TypeError("bag count must be int")
            if count <= 0:
                raise ValueError(f"bag count must be positive, got {count}")
            key = elem.canonical()
            if key in merged:
                merged[key] = (elem, merged[key][1] + count)
            else:
                merged[key] = (elem, count)
        self._canon = None
        self.pairs = tuple(sorted(merged.values(),
                                  key=lambda ec: ec[0].canonical()))

    def _render(self) -> bytes:
        body = b"".join(b"%s*%d;" % (e.canonical(), c) for e, c in self.pairs)
        return b"B[" + body + b"]"

    def count(self, x: Value) -> int:
        if not isinstance(x, Value):
            return 0
        key = x.canonical()
        pairs = self.pairs
        i = bisect_left(pairs, key, key=_pair_canon)
        if i < len(pairs) and pairs[i][0]._canon == key:
            return pairs[i][1]
        return 0

    def __len__(self) -> int:
        return sum(c for _, c in self.pairs)


class VRec(Value):
    """Record / finite function with string keys, kept in key order.

    ``replaced`` splices the new field's bytes into the record's
    canonical bytes instead of rendering every field again.  It keeps
    where each field's value starts in those bytes (``_starts``) on
    both records, so a chain of replacements works each one out at
    most once.
    """

    __slots__ = ("fields", "_starts")

    def __init__(self, fields: Iterable[tuple[str, Value]] = ()):
        items = list(fields)
        for k, v in items:
            if not isinstance(k, str):
                raise TypeError("record keys must be str")
            _require_value(v)
        keys = [k for k, _ in items]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate record key")
        self._canon = None
        self._starts = None
        self.fields = tuple(sorted(items, key=lambda kv: kv[0]))

    def _render(self) -> bytes:
        parts = []
        for k, v in self.fields:
            raw = k.encode("utf-8")
            parts.append(b"k%d:%s=%s" % (len(raw), raw, v.canonical()))
        return b"R{" + b"".join(parts) + b"}"

    def _value_starts(self) -> tuple[int, ...]:
        """Where each field's value starts in the cached canonical
        bytes, worked out from the fields' cached bytes."""
        starts = []
        at = 2
        for k, v in self.fields:
            raw = k.encode("utf-8")
            at += len(b"k%d:%s=" % (len(raw), raw))
            starts.append(at)
            at += len(v._canon)
        return tuple(starts)

    @classmethod
    def _of_sorted(cls, fields: tuple[tuple[str, Value], ...]) -> "VRec":
        """Wrap fields already in key order, with distinct keys."""
        out = object.__new__(cls)
        out._canon = None
        out._starts = None
        out.fields = fields
        return out

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.fields)

    def get(self, key: str) -> Value | None:
        fields = self.fields
        i = bisect_left(fields, key, key=_field_key)
        if i < len(fields) and fields[i][0] == key:
            return fields[i][1]
        return None

    def replaced(self, key: str, value: Value) -> "VRec":
        """This record with field ``key`` set to ``value``; KeyError if
        the field does not exist."""
        fields = self.fields
        i = bisect_left(fields, key, key=_field_key)
        if i == len(fields) or fields[i][0] != key:
            raise KeyError(key)
        out = VRec._of_sorted(
            fields[:i] + ((key, _require_value(value)),) + fields[i + 1:])
        # Cached bytes were rendered or spliced from the fields' cached
        # bytes, so the old field's bytes are cached too.
        canon = self.canonical()
        starts = self._starts
        if starts is None:
            starts = self._starts = self._value_starts()
        at = starts[i]
        end = at + len(fields[i][1]._canon)
        new = value.canonical()
        out._canon = canon[:at] + new + canon[end:]
        shift = len(new) - (end - at)
        out._starts = starts if not shift else starts[:i + 1] + tuple(
            [s + shift for s in starts[i + 1:]])
        return out

    def __getitem__(self, key: str) -> Value:
        v = self.get(key)
        if v is None:
            raise KeyError(key)
        return v


def renamed_canonical(v: Value, names: Mapping[str, str]) -> bytes:
    """The canonical bytes of ``v`` with every string and record key
    that ``names`` maps replaced by its image, at any depth, rendered
    without building the renamed value.  ``names`` must be one-to-one,
    so distinct elements and keys stay distinct."""
    if isinstance(v, VStr):
        new = names.get(v.text)
        return v.canonical() if new is None else VStr(new).canonical()
    if isinstance(v, VRec):
        fields = []
        for k, x in sorted([(names.get(k, k), x) for k, x in v.fields],
                           key=_field_key):
            raw = k.encode("utf-8")
            if type(x) is VStr and x.text not in names:
                c = x.canonical()    # the common field: a string kept
            else:
                c = renamed_canonical(x, names)
            fields.append(b"k%d:%s=%s" % (len(raw), raw, c))
        return b"R{" + b"".join(fields) + b"}"
    if isinstance(v, VSeq):
        return b"q[" + b"".join([renamed_canonical(x, names)
                                 for x in v.items]) + b"]"
    if isinstance(v, VSet):
        return b"S[" + b"".join(sorted([renamed_canonical(x, names)
                                        for x in v.items])) + b"]"
    if isinstance(v, VBag):
        return b"B[" + b"".join([b"%s*%d;" % pair for pair in sorted(
            [(renamed_canonical(x, names), c) for x, c in v.pairs])]) + b"]"
    return v.canonical()


def _require_value(x: Any) -> Value:
    if not isinstance(x, Value):
        raise TypeError(f"expected Value, got {type(x).__name__}")
    return x


def mk(obj: Any) -> Value:
    """Lift plain Python data into the value domain.

    bool/int/str map to the scalar variants, list/tuple to Seq,
    set/frozenset to Set, dict to Record.  Values pass through.
    Bags have no plain-Python spelling; construct VBag directly.
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, int):
        return VInt(obj)
    if isinstance(obj, str):
        return VStr(obj)
    if isinstance(obj, (list, tuple)):
        return VSeq(mk(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return VSet(mk(x) for x in obj)
    if isinstance(obj, dict):
        return VRec((k, mk(v)) for k, v in obj.items())
    # JSON's two values with no variant, worded as the reader reports.
    if isinstance(obj, float):
        raise TypeError(f"non-integral number not supported: {obj!r}")
    if obj is None:
        raise TypeError("null is not a supported value")
    raise TypeError(f"cannot lift {type(obj).__name__} into a Value")


# --- JSON mapping -----------------------------------------------------

TOO_DEEP = "value nested too deeply"

# A \uD800-\uDFFF escape: the only way a surrogate gets into JSON text
# that was itself read as UTF-8.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        dup = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ParseError(f"duplicate key {dup!r}")
    return obj


# Built once: json.loads with a hook builds a new decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str) -> Any:
    """JSON text as Python objects; every failure is a ParseError.

    Refused besides malformed JSON: a key repeated in any object, a
    lone surrogate (it has no UTF-8 form, so it could not be printed
    back), an integer past Python's int-string digit limit, and nesting
    too deep for the stack (message ``TOO_DEEP``).
    """
    try:
        obj = _DECODER.decode(text)
        if "\\u" in text and _SURROGATE_ESCAPE.search(text):
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from None
    except UnicodeEncodeError:
        raise ParseError("string holds a lone surrogate") from None
    except RecursionError:
        raise ParseError(TOO_DEEP) from None
    except ValueError:
        # int() refuses digit strings past sys.get_int_max_str_digits().
        raise ParseError("number has too many digits") from None
    return obj


def value_to_jsonable(v: Value) -> Any:
    if isinstance(v, VStr):
        return v.text
    if isinstance(v, VInt):
        return v.n
    if isinstance(v, VBool):
        return v.flag
    if isinstance(v, (VSeq, VSet)):
        return [value_to_jsonable(x) for x in v.items]
    if isinstance(v, VBag):
        return [[value_to_jsonable(e), c] for e, c in v.pairs]
    if isinstance(v, VRec):
        return {k: value_to_jsonable(x) for k, x in v.fields}
    raise TypeError(f"not a Value: {type(v).__name__}")


def jsonable_to_value(obj: Any) -> Value:
    """Decode parsed JSON with ``mk``; arrays become Seq (see the module
    docstring).  What ``mk`` refuses, and nesting too deep for the
    interpreter's stack, is a ParseError."""
    try:
        return mk(obj)
    except (TypeError, OverflowError) as exc:
        raise ParseError(str(exc)) from None
    except RecursionError:
        raise ParseError(TOO_DEEP) from None


def value_to_json(v: Value) -> str:
    """Compact JSON text under the wire mapping; deterministic."""
    return json.dumps(value_to_jsonable(v), separators=(",", ":"),
                      ensure_ascii=False)


def json_to_value(text: str) -> Value:
    return jsonable_to_value(parse_json(text))


def render_event_arg(v: Value) -> str:
    """Event parameters render as JSON, except bare strings stay unquoted.
    Scalars are written directly, as ``value_to_json`` would write them."""
    if isinstance(v, VStr):
        return v.text
    if isinstance(v, VInt):
        return str(v.n)
    if isinstance(v, VBool):
        return "true" if v.flag else "false"
    return value_to_json(v)


# --- update operators -------------------------------------------------

@dataclass(frozen=True)
class UpdateOp:
    """One recorded mutation: operator name, record path, arguments."""

    op: str
    path: tuple[str, ...] = ()
    args: tuple[Value, ...] = ()

    def __post_init__(self):
        if self.op not in OP_NAMES:
            raise UnknownOp(f"unknown operator: {self.op!r}")
        object.__setattr__(self, "path", tuple(self.path))
        object.__setattr__(self, "args", tuple(self.args))
        for seg in self.path:
            if not isinstance(seg, str):
                raise TypeError("path segments must be str")
        for a in self.args:
            _require_value(a)

    @classmethod
    def _of_checked(cls, op: str, path: tuple[str, ...],
                    args: tuple[Value, ...]) -> "UpdateOp":
        """Wrap fields a caller has already checked as ``__post_init__``
        would: a known operator, a tuple of str segments and a tuple of
        Values."""
        out = object.__new__(cls)
        object.__setattr__(out, "op", op)
        object.__setattr__(out, "path", path)
        object.__setattr__(out, "args", args)
        return out


OP_NAMES = frozenset([
    "Update", "Init", "Add", "Remove",
    "AddToBag", "RemoveFromBag", "Clear", "Append",
])


def _seq_as_set(seq: VSeq) -> VSet:
    return VSet(seq.items)


def _seq_as_bag(seq: VSeq) -> VBag | None:
    pairs = []
    for item in seq.items:
        if not (isinstance(item, VSeq) and len(item.items) == 2
                and isinstance(item.items[1], VInt)
                and item.items[1].n > 0):
            return None
        pairs.append((item.items[0], item.items[1].n))
    return VBag(pairs)


def _arity(op: str, args: tuple[Value, ...], want: int) -> None:
    if len(args) != want:
        raise OpTypeError(f"{op} takes {want} argument(s), got {len(args)}")


def _apply_here(v: Value, op: str, args: tuple[Value, ...]) -> Value:
    if op in ("Update", "Init"):
        _arity(op, args, 1)
        new = args[0]
        # The wire format cannot distinguish a set or bag from a
        # sequence, so a Seq replacing a Set or Bag is re-read in the
        # shape of the value it replaces (one level deep only).
        if isinstance(new, VSeq):
            if isinstance(v, VSet):
                return _seq_as_set(new)
            if isinstance(v, VBag):
                coerced = _seq_as_bag(new)
                if coerced is not None:
                    return coerced
        return new
    if op == "Add":
        _arity(op, args, 1)
        if not isinstance(v, VSet):
            raise OpTypeError(f"Add needs a set, got {type(v).__name__}")
        return v.with_element(args[0])
    if op == "Remove":
        _arity(op, args, 1)
        if not isinstance(v, VSet):
            raise OpTypeError(f"Remove needs a set, got {type(v).__name__}")
        return VSet(x for x in v.items if x != args[0])
    if op == "AddToBag":
        _arity(op, args, 1)
        if not isinstance(v, VBag):
            raise OpTypeError(f"AddToBag needs a bag, got {type(v).__name__}")
        return VBag(v.pairs + ((args[0], 1),))
    if op == "RemoveFromBag":
        _arity(op, args, 1)
        if not isinstance(v, VBag):
            raise OpTypeError(
                f"RemoveFromBag needs a bag, got {type(v).__name__}")
        if v.count(args[0]) == 0:
            raise BagUnderflow(
                f"RemoveFromBag: element not in bag: {value_to_json(args[0])}")
        return VBag((e, c - 1 if e == args[0] else c)
                    for e, c in v.pairs
                    if not (e == args[0] and c == 1))
    if op == "Clear":
        _arity(op, args, 0)
        if isinstance(v, VSet):
            return VSet()
        if isinstance(v, VBag):
            return VBag()
        raise OpTypeError(f"Clear needs a set or bag, got {type(v).__name__}")
    if op == "Append":
        _arity(op, args, 1)
        if not isinstance(v, VSeq):
            raise OpTypeError(f"Append needs a sequence, got {type(v).__name__}")
        return VSeq(v.items + (args[0],))
    raise UnknownOp(f"unknown operator: {op!r}")


def apply_update(v: Value, u: UpdateOp) -> Value:
    """Apply one update at its path and return the rewritten value.

    Paths descend record fields only; every segment must resolve
    (updates never create fields).  The empty path targets v itself.
    """
    return _apply_at(v, u.path, u.op, u.args)


def _apply_at(v: Value, path: tuple[str, ...], op: str,
              args: tuple[Value, ...]) -> Value:
    if not path:
        return _apply_here(v, op, args)
    if not isinstance(v, VRec):
        raise PathError(
            f"path segment {path[0]!r} descends into {type(v).__name__}, "
            "not a record")
    head = path[0]
    sub = v.get(head)
    if sub is None:
        raise PathError(f"record has no field {head!r}")
    return v.replaced(head, _apply_at(sub, path[1:], op, args))


def apply_entry_updates(v: Value, updates: Sequence[UpdateOp]) -> Value:
    """Left-to-right fold of apply_update.

    Errors gain a 1-based "update N of M" annotation but keep their type.
    """
    out = v
    for i, u in enumerate(updates):
        try:
            out = apply_update(out, u)
        except (PathError, OpTypeError, BagUnderflow, UnknownOp) as exc:
            exc.args = (f"update {i + 1} of {len(updates)} ({u.op}): "
                        f"{exc.args[0]}",)
            raise
    return out
