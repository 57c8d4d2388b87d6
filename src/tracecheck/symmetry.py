"""Symmetry reduction for the trace search: which declared names each
trace line leaves free, and orbit keys that merge states differing
only by a renaming of free names.

A name is free at line l when no entry from l to the end of the trace
mentions it.  An entry mentions a name in an event arg (the arg itself,
or the name as a JSON string inside an arg a container renders as), in
an update path, or as a string or record key at any depth of an
update's args.  ``explorer`` argues why merging on these keys is sound.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Callable, Sequence

from .machine import Spec, SpecState
from .traces import TraceEntry
from .values import Value, VBag, VRec, VSeq, VSet, VStr, renamed_canonical

def _strings(v: Value, out: set[str]) -> None:
    """Add every string and record key in ``v`` to ``out``."""
    if isinstance(v, VStr):
        out.add(v.text)
    elif isinstance(v, VRec):
        for k, x in v.fields:
            out.add(k)
            _strings(x, out)
    elif isinstance(v, VBag):
        for x, _ in v.pairs:
            _strings(x, out)
    elif isinstance(v, (VSeq, VSet)):
        for x in v.items:
            _strings(x, out)


def mentions(entry: TraceEntry, names: frozenset[str]) -> set[str]:
    """The names among ``names`` that ``entry`` mentions."""
    args = entry.event_args or ()
    found = set(args).intersection(names)
    for arg in args:
        if arg.startswith(("[", "{")):          # a container's JSON text
            found.update(n for n in names
                         if json.dumps(n, ensure_ascii=False) in arg)
    for ops in entry.updates.values():
        for u in ops:
            found.update(u.path)
            for a in u.args:
                _strings(a, found)
    return found & names


def line_orbits(spec: Spec, trace: Sequence[TraceEntry],
                shapes: Sequence[int]) -> Callable[[int], Orbits | None]:
    """A function from l (1-based line) to the orbit keys of nodes at
    line l, or None where fewer than two of the spec's symmetric names
    are free; None too at line 0 and at the goal line len(trace) + 1.

    ``shapes`` numbers the entries by shape, so each shape's mentions
    are found once.  The free names shrink towards the start of the
    trace, so the walk stops once fewer than two are left.  Lines share
    one set of free names until an entry mentions one of them, and the
    ``Orbits`` of a set is made when a line with it is first asked for.
    """
    free_at: list[frozenset[str] | None] = [None] * (len(trace) + 2)
    names = free = frozenset(spec.symmetric)
    by_shape: dict[int, set[str]] = {}
    for line in range(len(trace), 0, -1):
        shape = shapes[line - 1]
        found = by_shape.get(shape)
        if found is None:
            found = by_shape[shape] = mentions(trace[line - 1], names)
        if found & free:
            free = free - found
        if len(free) < 2:
            break
        free_at[line] = free
    tables: dict[frozenset[str], Orbits] = {}

    def orbits(line: int) -> Orbits | None:
        free = free_at[line]
        if free is None:
            return None
        keys = tables.get(free)
        if keys is None:
            keys = tables[free] = Orbits(spec.symmetric, free)
        return keys
    return orbits


class Orbits:
    """Orbit keys of states under the permutations of the ``free``
    names among ``names``: two states get equal keys only when one is a
    renaming of the other, and a state whose values are all separable
    (below) gets the same key as every renaming of it.

    A *place* of a free name in a value is the path to one occurrence
    of it, with free names masked: a sequence index, a field's key (or,
    for the name as a free-keyed field's key, that field's value), and
    for a set or bag element the element's skeleton (and count).  A
    value's *skeleton* is its canonical bytes with every free name
    masked (``*``) and unordered parts sorted after masking.  Every
    skeleton is self-delimiting and length-prefixes its strings and
    keys, so it is injective on values up to their free names.  A value
    is *separable* when each of its set elements, bag elements and
    free-keyed record fields (key and value together) holds at most
    one occurrence of a free name.  A separable value is rebuilt from
    its skeleton and its places: each masked occurrence is either at a
    fixed path (a sequence item, a fixed key's field) or alone in an
    element or field the place picks out by skeleton, so the name at
    each place fills exactly one hole.

    A name's signature lists, variable by variable, the sorted places
    of the name in that variable's value.  The key is (the variable
    names, the sorted signatures laid end to end, one part per
    variable).  The part is the value's bytes when it holds no free
    name, its skeleton when it is separable, and otherwise its bytes
    renamed by the permutation that sorts the free names on their
    signatures (sending the i-th name in that order to the i-th in
    declared order).

    Sound: say states s and t have equal keys.  Send the i-th name in
    s's sorted order to the i-th in t's: equal sorted signatures make
    this a bijection β with equal signatures, so each variable holds
    β(n) in t at the places it holds n in s.  Equal parts are of one
    kind: a skeleton holding a mask is no value's bytes, and a renamed
    value holds free names where bytes without them hold none.  Equal
    renamed parts make t's value β of s's, since both orders are sent
    to the declared one.  A separable value of t has the skeleton of
    s's, and the places of β of s's, so it is rebuilt as β of s's
    value.  So t is β(s).  Conversely, renaming moves each signature
    with its name, so the sorted signatures stay, and it fixes bytes
    without free names and skeletons; only a renamed part, where equal
    signatures leave the order open, can tell two states of one orbit
    apart.  The key's second item is a tuple, where a fingerprint holds
    bytes, so no key equals a fingerprint.

    Everything is kept for the validation, by canonical bytes: each
    state's key by its fingerprint, each value's places, skeleton and
    separability, and each variable's value's places by name and part.
    An ``Orbits`` is made only when a line with its free names takes
    its first key (``line_orbits``), so the tables are set up at once.
    """

    def __init__(self, names: tuple[str, ...], free: frozenset[str]):
        self._free = free
        self.free = tuple(n for n in names if n in free)
        # A free name's canonical bytes hold b":" + its UTF-8 bytes, as
        # a string (b"s<len>:<name>") or as a record key; a value whose
        # bytes hold none of these holds no free name.
        self._mentioned = re.compile(b"|".join(
            re.escape(b":" + n.encode()) for n in self.free)).search
        self._keys: dict[tuple, tuple] = {}
        # canonical -> (places: (name, place) pairs, skeleton, separable)
        self._info: dict[bytes, tuple[tuple[tuple[str, bytes], ...],
                                      bytes, bool]] = {}
        # a variable's canonical -> (each free name's sorted places, part)
        self._held: dict[bytes, tuple[tuple[tuple[bytes, ...], ...],
                                      bytes | None]] = {}

    def key(self, state: SpecState) -> tuple:
        fp = state.fingerprint()
        key = self._keys.get(fp)
        if key is None:
            key = self._keys[fp] = self._key(state, fp)
        return key

    def _key(self, state: SpecState, fp: tuple) -> tuple:
        names, canons = fp[0], fp[1:]
        held = [self._held.get(canon) or self._hold(state[names[i]])
                for i, canon in enumerate(canons)]
        sigs = list(zip(*[column for column, _ in held]))
        parts = [part for _, part in held]
        if None in parts:
            order = sorted(self.free, key=dict(zip(self.free, sigs)).get)
            perm = dict(zip(order, self.free))
            parts = [renamed_canonical(state[name], perm) if part is None
                     else part for name, part in zip(names, parts)]
        sigs.sort()
        return (names, tuple(chain.from_iterable(sigs)), *parts)

    def _hold(self, v: Value) -> tuple[tuple[tuple[bytes, ...], ...],
                                       bytes | None]:
        """The sorted places in a variable's value ``v`` of each free
        name, in declared order, and the value's part of a key: its
        skeleton when it is separable, else None."""
        places, skeleton, separable = self._walk(v)
        by_name: dict[str, list[bytes]] = {}
        for n, place in places:
            by_name.setdefault(n, []).append(place)
        held = self._held[v.canonical()] = (
            tuple([tuple(sorted(by_name.get(n, ()))) for n in self.free]),
            skeleton if separable else None)
        return held

    def _walk(self, v: Value) -> tuple[tuple[tuple[str, bytes], ...],
                                       bytes, bool]:
        """The (name, place) of each free name in ``v``, the skeleton
        of ``v`` and whether ``v`` is separable; a value without free
        names is its own skeleton.

        Each step of a place opens with its own byte: ``k`` (the name is
        a field's key; then that field value's skeleton), ``v`` (inside
        a free-keyed field's value), ``f`` (a fixed key, length-prefixed),
        ``q`` (a sequence index), ``e`` (a set element; then its
        skeleton) or ``b`` (a bag element; its count, then its
        skeleton).  A masked name is ``*``, which opens no value's
        bytes, so skeletons, and with them places, are self-delimiting.
        """
        canon = v.canonical()
        info = self._info.get(canon)
        if info is not None:
            return info
        known, walk = self._info.get, self._walk
        places: list[tuple[str, bytes]] = []
        separable = True
        if not self._mentioned(canon):
            skeleton = canon
        elif isinstance(v, VStr):
            if v.text in self._free:
                places.append((v.text, b""))
                skeleton = b"*"
            else:
                skeleton = canon
        elif isinstance(v, VRec):
            fields = []
            for k, x in v.fields:
                inner, skel, sep = known(x.canonical()) or walk(x)
                if k in self._free:
                    places.append((k, b"k" + skel))
                    fields.append(b"*=" + skel)
                    tag = b"v"
                    sep = sep and not inner
                else:
                    raw = k.encode()
                    tag = b"f%d:%s" % (len(raw), raw)
                    fields.append(b"k%d:%s=" % (len(raw), raw) + skel)
                separable = separable and sep
                if inner:
                    places.extend([(n, tag + p) for n, p in inner])
            skeleton = b"R{" + b"".join(sorted(fields)) + b"}"
        elif isinstance(v, VSeq):
            items = []
            for i, x in enumerate(v.items):
                inner, skel, sep = known(x.canonical()) or walk(x)
                separable = separable and sep
                items.append(skel)
                if inner:
                    tag = b"q%d;" % i
                    places.extend([(n, tag + p) for n, p in inner])
            skeleton = b"q[" + b"".join(items) + b"]"
        elif isinstance(v, VSet):
            items = []
            for x in v.items:
                inner, skel, sep = known(x.canonical()) or walk(x)
                separable = separable and sep and len(inner) < 2
                items.append(skel)
                if inner:
                    tag = b"e" + skel
                    places.extend([(n, tag + p) for n, p in inner])
            skeleton = b"S[" + b"".join(sorted(items)) + b"]"
        elif isinstance(v, VBag):
            items = []
            for x, c in v.pairs:
                inner, skel, sep = known(x.canonical()) or walk(x)
                separable = separable and sep and len(inner) < 2
                items.append(skel + b"*%d;" % c)
                if inner:
                    tag = b"b%d;" % c + skel
                    places.extend([(n, tag + p) for n, p in inner])
            skeleton = b"B[" + b"".join(sorted(items)) + b"]"
        else:
            skeleton = canon
        info = self._info[canon] = (tuple(places), skeleton, separable)
        return info
