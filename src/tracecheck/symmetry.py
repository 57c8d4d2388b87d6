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
from typing import Callable, Mapping, Sequence

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
    names among ``names``.

    A state's key is the fingerprint of its representative: the state
    renamed by the permutation that sorts the free names on a
    signature and sends the i-th name in that order to the i-th in
    declared order.  A name's signature is the sorted list of the
    places it occupies in the state, free names masked, so renaming
    free names moves signatures with the names: the states of an orbit
    get one key unless equal signatures leave the order open.  Sorting
    is stable, so the representative is always a real renaming of the
    state, and states with equal keys are renamings of one another.

    Everything is kept for the validation: each state's key by its
    fingerprint, each value's places by its canonical bytes, and the
    bytes of each value renamed, by the images of the free names it
    holds.  An ``Orbits`` is made only when a line with its free names
    takes its first key (``line_orbits``), so the tables are set up at
    once.
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
        # canonical -> (places: (name, place) pairs, names in order)
        self._info: dict[bytes, tuple[tuple[tuple[str, bytes], ...],
                                      tuple[str, ...]]] = {}
        self._renamed: dict[tuple[bytes, tuple[str, ...]], bytes] = {}

    def key(self, state: SpecState) -> tuple:
        fp = state.fingerprint()
        key = self._keys.get(fp)
        if key is None:
            key = self._keys[fp] = self._key(state, fp)
        return key

    def _key(self, state: SpecState, fp: tuple) -> tuple:
        names, canons = fp[0], fp[1:]
        sigs: dict[str, list[tuple[int, bytes]]] = {n: [] for n in self.free}
        held = []
        for i, canon in enumerate(canons):
            info = self._info.get(canon) or self._places(state[names[i]])
            held.append(bool(info[1]))
            for name, place in info[0]:
                sigs[name].append((i, place))
        for sig in sigs.values():
            sig.sort()
        order = sorted(self.free, key=sigs.__getitem__)
        if order == list(self.free):
            return fp
        perm = dict(zip(order, self.free))
        return (names, *[self._rename(state[name], perm) if has else canon
                         for name, canon, has in zip(names, canons, held)])

    def _places(self, v: Value) -> tuple[tuple[tuple[str, bytes], ...],
                                         tuple[str, ...]]:
        """The (name, place) of each free name in ``v``, a place being
        the path to it from ``v`` (a record key's place includes its
        field's value, masked), and the free names in ``v``."""
        canon = v.canonical()
        info = self._info.get(canon)
        if info is not None:
            return info
        found: list[tuple[str, bytes]] = []
        if not self._mentioned(canon):
            pass
        elif isinstance(v, VStr):
            if v.text in self._free:
                found.append((v.text, b""))
        elif isinstance(v, VRec):
            for k, x in v.fields:
                if k in self._free:
                    found.append((k, b"k" + self._masked(x)))
                    tag = b"f*"
                else:
                    tag = b"f" + k.encode() + b";"
                found.extend([(n, tag + p) for n, p in self._places(x)[0]])
        elif isinstance(v, VSeq):
            for i, x in enumerate(v.items):
                tag = b"q%d;" % i
                found.extend([(n, tag + p) for n, p in self._places(x)[0]])
        elif isinstance(v, VSet):
            for x in v.items:
                found.extend([(n, b"e" + p) for n, p in self._places(x)[0]])
        elif isinstance(v, VBag):
            for x, c in v.pairs:
                tag = b"b%d;" % c
                found.extend([(n, tag + p) for n, p in self._places(x)[0]])
        info = self._info[canon] = (
            tuple(found), tuple(dict.fromkeys([n for n, _ in found])))
        return info

    def _masked(self, v: Value) -> bytes:
        """Canonical-like bytes of ``v`` with every free name replaced
        by ``*``; unordered parts are sorted after masking, so the bytes
        do not change when free names are renamed."""
        canon = v.canonical()
        if not self._mentioned(canon):
            return canon
        free = self._free
        if isinstance(v, VStr):
            return b"*" if v.text in free else canon
        if isinstance(v, VRec):
            return b"R{" + b"".join(sorted(
                (b"*" if k in free else k.encode()) + b"=" + self._masked(x)
                + b";" for k, x in v.fields)) + b"}"
        if isinstance(v, VSeq):
            return b"q[" + b"".join(map(self._masked, v.items)) + b"]"
        if isinstance(v, VSet):
            return b"S[" + b"".join(sorted(map(self._masked, v.items))) + b"]"
        if isinstance(v, VBag):
            return b"B[" + b"".join(sorted(
                self._masked(x) + b"*%d;" % c for x, c in v.pairs)) + b"]"
        return canon

    def _rename(self, v: Value, perm: Mapping[str, str]) -> bytes:
        """``renamed_canonical(v, perm)`` for a value whose places are
        known, kept by the images of the free names it holds."""
        canon = v.canonical()
        names = self._info[canon][1]
        images = tuple([perm[n] for n in names])
        if images == names:
            return canon
        out = self._renamed.get((canon, images))
        if out is None:
            out = self._renamed[canon, images] = renamed_canonical(
                v, perm, self._rename)
        return out
