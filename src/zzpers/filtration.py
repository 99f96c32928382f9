"""Zigzag filtrations as ordered add/delete event sequences, held as dense-id records.

Index convention: event i sits between the snapshots K_i and K_{i+1}, so a
filtration with m events has complexes K_0..K_m. Filtrations are immutable
values; every operation returns a new one.
"""

from __future__ import annotations

import gc
import sys
from array import array
from collections import namedtuple
from contextlib import contextmanager
from itertools import chain, islice, repeat
from operator import attrgetter, gt
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .complexes import Simplex, SimplicialComplex, _faces, _facet_ids, _missing_facet
from .errors import (
    InvalidDiamondError,
    InvalidInputError,
    InvalidSwitchError,
    NotNonRepetitiveError,
    NotStandardizedError,
    NotUpDownError,
)
from .rng import SplitMix64

ADD = "a"
DEL = "d"


class _Frozen:
    """Base of an immutable record in named ``__slots__`` (``_fields``) that
    is no tuple: compared within its class, hashed, copied and pickled as
    the tuple of its fields, and printed as Name(field=value, ...)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = property(attrgetter(*cls._fields))  # the fields' tuple (of two or more)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"{self.__class__.__name__}({fields})"


class FiltrationEvent(_Frozen):
    """The addition (ADD) or deletion (DEL) of a simplex."""

    __slots__ = _fields = ("direction", "simplex")

    def __init__(self, direction: str, simplex: Simplex):
        if direction not in (ADD, DEL):
            raise InvalidInputError(f"unknown event direction {direction!r}")
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "simplex", simplex)

    @classmethod
    def add(cls, s: Simplex) -> "FiltrationEvent":
        return cls(ADD, s)

    @classmethod
    def delete(cls, s: Simplex) -> "FiltrationEvent":
        return cls(DEL, s)

    def __repr__(self) -> str:
        return _event_text(self.direction, self.simplex.vertices)


def _event_text(direction: str, vs: Tuple[int, ...]) -> str:
    """An event as its repr prints it, by its vertex tuple: +0.1 for the addition of {0, 1}."""
    return f"{'+' if direction == ADD else '-'}{'.'.join(map(str, vs))}"


def _named(vs: Tuple[int, ...]) -> str:
    """The repr of the Simplex with vertex tuple vs, as error texts name it."""
    return repr(Simplex._from_sorted(vs))


@contextmanager
def _gc_paused():
    """Run the block with the cyclic garbage collector disabled, then restore
    whether it was enabled before.

    For code that builds many objects but no reference cycles: refcounting
    still frees all of them, and no full collection walks them while they
    are built. The switch is process-global, so other threads run without
    cyclic collection while the block runs.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class ZigzagFiltration:
    """Event list plus the starting complex (empty by default), held as a
    dense-id record.

    The record, in the private slot ``_ids``, is the signed id of each
    position (id for an addition, ~id for a deletion) in a 4-byte int array,
    and the vertex tuple of each id; ids are dense, one per vertex tuple, and
    run in order of first appearance. K_0's additions take the first
    positions, in face order, and event i sits at |K_0| + i, as in the
    admission sweep (``_sweep``). ``ZigzagFiltration(events, initial)``
    interns the events into the record; the parser and every producer here
    give theirs to ``_of_record``. Every reader here reads the record.
    ``_simplices``, the Simplex of each id, and ``events``, the public view,
    are the given ones, or else built from the record on first read and
    kept (``events`` one event per position, with no list beside it); being
    pure functions of the record, concurrent first reads build equal lists.
    Equality compares the records position by position (direction and
    vertex tuple) and K_0, so it builds neither; repr prints the events.
    """

    __slots__ = ("_events", "initial", "_ids", "_simplex_list")

    def __init__(self, events: Iterable[FiltrationEvent], initial: Iterable[Simplex] = ()):
        self._events: Optional[Tuple[FiltrationEvent, ...]] = tuple(events)
        init = frozenset(initial)
        missing = _missing_facet(init)
        if missing:
            raise InvalidInputError(
                "initial complex is not face-closed: missing %r (facet of %r)" % missing)
        self.initial = init
        ids, vts, simplices = _interned(chain(
            zip(sorted(init), repeat(True)),
            ((e.simplex, e.direction == ADD) for e in self._events),
        ))
        self._ids = (ids, vts)
        self._simplex_list: Optional[List[Simplex]] = simplices

    @classmethod
    def _of_record(cls, ids: array, vts: List[Tuple[int, ...]], initial: frozenset = frozenset(),
                   simplices: Optional[List[Simplex]] = None) -> "ZigzagFiltration":
        """The filtration from ``initial``, whose position i is the addition of
        the simplex with vertex tuple ``vts[ids[i]]``, or the deletion of that
        of ``vts[~ids[i]]`` where ``ids[i] < 0``, with K_0's additions first,
        and, if given, ``simplices`` its Simplex of each id; nothing is checked."""
        f = object.__new__(cls)
        f._events, f.initial, f._ids, f._simplex_list = None, initial, (ids, vts), simplices
        return f

    @property
    def _simplices(self) -> List[Simplex]:
        simplices = self._simplex_list
        if simplices is None:
            with _gc_paused():  # the simplices form no reference cycle
                simplices = self._simplex_list = list(map(Simplex._from_sorted, self._ids[1]))
        return simplices

    @property
    def events(self) -> Tuple[FiltrationEvent, ...]:
        events = self._events
        if events is None:
            ids, simplices = self._ids[0], self._simplices
            with _gc_paused():  # the events form no reference cycle
                events = self._events = tuple(
                    FiltrationEvent(ADD if j >= 0 else DEL, simplices[j if j >= 0 else ~j])
                    for j in islice(ids, len(self.initial), None)
                )
        return events

    def __len__(self) -> int:
        return len(self._ids[0]) - len(self.initial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZigzagFiltration) or self.initial != other.initial:
            return False
        (a, avts), (b, bvts) = self._ids, other._ids
        if len(a) != len(b):
            return False
        return all((x >= 0) == (y >= 0) and avts[x if x >= 0 else ~x] == bvts[y if y >= 0 else ~y]
                   for x, y in zip(a, b))

    def __repr__(self) -> str:
        return f"ZigzagFiltration({list(self.events)!r})"

    def directions(self) -> Tuple[str, ...]:
        return _directions(self._ids[0], len(self.initial))

    def _present(self) -> Iterator[set]:
        """The running complex, one set changed in place: K_0, then after each event."""
        current = set(self.initial)
        yield current
        ids, simplices = self._ids[0], self._simplices
        for j in islice(ids, len(self.initial), None):
            (current.add if j >= 0 else current.discard)(simplices[j if j >= 0 else ~j])
            yield current

    def snapshots(self) -> Iterator[frozenset]:
        """Yield K_0..K_m. Intended for small instances (copies each step)."""
        return map(frozenset, self._present())

    def complex_at(self, i: int) -> frozenset:
        if i >= 0:
            for current in islice(self._present(), i, None):
                return frozenset(current)
        raise IndexError(i)

    def final_complex(self) -> frozenset:
        for current in self._present():
            pass
        return frozenset(current)

    def total_complex(self) -> SimplicialComplex:
        ids, simplices = self._ids[0], self._simplices
        all_simplices = set(self.initial)  # K_0 first: insertion order picks the facet an error names
        all_simplices.update(simplices[j] for j in islice(ids, len(self.initial), None) if j >= 0)
        return SimplicialComplex(all_simplices)

    def is_standardized(self) -> bool:
        """K_0 = K_m = empty, read off the record without building a
        simplex: K_0 is empty and each id's last event is a deletion."""
        if self.initial:
            return False
        ids, vts = self._ids
        present = bytearray(len(vts))
        for j in ids:
            if j >= 0:
                present[j] = 1
            else:
                present[~j] = 0
        return not any(present)

    def is_updown(self) -> bool:
        dirs = self.directions()
        return DEL not in dirs or ADD not in dirs[dirs.index(DEL):]


def _additions(simplices: Iterable[Simplex]) -> ZigzagFiltration:
    """The filtration that adds the given simplices in order to the empty complex."""
    ids, vts, simplices = _interned(zip(simplices, repeat(True)))
    return ZigzagFiltration._of_record(ids, vts, simplices=simplices)


# the direction of a signed id, indexed by the byte of it that holds its sign
_DIRECTION_OF_SIGN_BYTE = bytes(ord(ADD if b < 128 else DEL) for b in range(256))


def _directions(ids: array, start: int = 0) -> Tuple[str, ...]:
    """The direction of each signed id in an int array from position start
    on: ADD for an id, DEL for ~id, read off the byte of each id that holds
    its sign (a walk over the ids in Python takes about five times as long)."""
    k = ids.itemsize
    signs = ids.tobytes()[start * k + (k - 1 if sys.byteorder == "little" else 0) :: k]
    return tuple(signs.translate(_DIRECTION_OF_SIGN_BYTE).decode("ascii"))


class Violation(NamedTuple):
    index: int
    reason: str


_Sweep = namedtuple(
    "_Sweep",
    "vts index ids dims facets add_at del_at dels violations repetition standardized",
)


def _interned(events: Iterable[Tuple[Simplex, bool]]):
    """Dense ids in order of first appearance, one per vertex tuple, for a
    sequence of (simplex, is an addition) pairs: the signed id of each pair
    (id for an addition, ~id for a deletion), and the vertex tuple and the
    Simplex (its first one) of each id."""
    index: Dict[Tuple[int, ...], int] = {}
    get = index.get
    vts: List[Tuple[int, ...]] = []
    simplices: List[Simplex] = []
    ids = array("i")
    append = ids.append
    for s, added in events:
        vs = s.vertices
        j = get(vs)
        if j is None:
            j = index[vs] = len(vts)
            vts.append(vs)
            simplices.append(s)
        append(j if added else ~j)
    return ids, vts, simplices


def _sweep(f: ZigzagFiltration) -> _Sweep:
    """Validity, first repetition, event orders and facet ids in one pass.

    Dense simplex ids, one per vertex tuple in order of first appearance (so
    of addition when f is valid), come from f's record
    (``ZigzagFiltration._ids``), without its events or simplices being
    built. The facet ids come from one pass over the ids' vertex tuples, and
    one loop over the signed ids does the rest, so nothing is kept across
    calls. A Simplex is built only for a text that names one: a violation
    or the repetition.

    Per id: the vertex tuple (the record's own list), its dimension, its
    facet ids (up to the first None, a facet that is no simplex of f), its
    last addition and deletion position (-1: none) in the padded
    filtration, where K_0 enters first and event i sits at |K_0| + i. Also
    the vertex tuple -> id index, the signed id of each position (the
    record's own array, not to be changed), the ids of all deletions in
    event order, the violations and first repetition (by f's event
    indices), and whether K_0 = K_m = empty.
    Invalid events are skipped when updating the running complex; the
    repetition check looks at the raw events.
    """
    ids, vts = f._ids
    n = len(vts)
    index = dict(zip(vts, range(n)))
    get = index.get
    dims = [len(vs) - 1 for vs in vts]
    facets = _facet_ids(vts, get)
    add_at = [-1] * n
    del_at = add_at[:]
    count = add_at[:]  # -1 while absent, else the number of present cofaces
    dels: List[int] = []
    out: List[Violation] = []
    dangling: Dict[int, int] = {}  # event index -> its slot in out, named after the pass
    repetition = None
    p = len(f.initial)
    for i, j in enumerate(ids):
        if j >= 0:
            if repetition is None and del_at[j] >= 0:
                repetition = (Simplex._from_sorted(vts[j]), del_at[j] - p, i - p)
            add_at[j] = i
            if count[j] >= 0:
                out.append(Violation(i - p, f"duplicate add of {_named(vts[j])}"))
                continue
            fs = facets[j]
            if None in fs or -1 in map(count.__getitem__, fs):
                # a facet that is no simplex of f reads as j itself, which is absent;
                # at most five are named, so a long line gives a short text
                missing = list(islice((t for t in _faces(vts[j]) if count[get(t, j)] < 0), 6))
                names = ", ".join(map(_named, missing[:5])) + (", ..." if len(missing) > 5 else "")
                out.append(Violation(i - p, f"missing facets of {_named(vts[j])}: {names}"))
                continue
            count[j] = 0
            for k in fs:
                count[k] += 1
        else:
            j = ~j
            del_at[j] = i
            dels.append(j)
            if count[j] < 0:
                out.append(Violation(i - p, f"delete of absent simplex {_named(vts[j])}"))
            elif count[j]:
                dangling[i - p] = len(out)
                out.append(Violation(i - p, ""))
            else:
                count[j] = -1
                for k in facets[j]:
                    count[k] -= 1
    if dangling:
        # name the present coface added last: a replay of the valid events keeps
        # each id's cofaces in order of addition and pops absent ones off the end
        skipped = {v.index for v in out}
        present = bytearray(n)
        cofaces: List[List[int]] = [[] for _ in range(n)]
        for i, j in enumerate(ids[: p + max(dangling) + 1], -p):
            if i in dangling:
                up = cofaces[~j]
                while not present[up[-1]]:
                    up.pop()
                out[dangling[i]] = Violation(i, f"dangling coface {_named(vts[up[-1]])} of "
                                                f"deleted {_named(vts[~j])}")
            elif i in skipped:
                continue
            elif j >= 0:
                present[j] = 1
                for k in facets[j]:
                    cofaces[k].append(j)
            else:
                present[~j] = 0
    standardized = not f.initial and not any(map(gt, add_at, del_at))
    return _Sweep(vts, index, ids, dims, facets, add_at, del_at, dels, out, repetition,
                  standardized)


def _admitted(f: ZigzagFiltration) -> _Sweep:
    """The sweep of a valid f, else InvalidInputError: the one admission of every entry point."""
    sw = _sweep(f)
    if sw.violations:
        head = "; ".join(f"event {v.index}: {v.reason}" for v in sw.violations[:5])
        raise InvalidInputError(f"invalid filtration ({len(sw.violations)} violations): {head}")
    return sw


def validate(f: ZigzagFiltration) -> List[Violation]:
    """Well-formedness diagnostics (the sweep's); empty list iff f is valid."""
    return _sweep(f).violations


def find_repetition(f: ZigzagFiltration) -> Optional[Tuple[Simplex, int, int]]:
    """First (simplex, delete index, re-add index) witnessing repetitiveness, valid or not."""
    return _sweep(f).repetition


def _raise_if_repetitive(rep: Optional[Tuple[Simplex, int, int]]) -> None:
    if rep is not None:
        s, di, ai = rep
        raise NotNonRepetitiveError(f"{s!r} deleted at index {di} and added again at index {ai}")


def is_non_repetitive(f: ZigzagFiltration) -> bool:
    """True iff no simplex is added again after one of its deletions."""
    return find_repetition(f) is None


class StandardizationRecord(NamedTuple):
    """How a filtration was padded to start and end with the empty complex.

    Complex index i of the original corresponds to prefix_length + i in the
    standardized filtration.
    """

    prefix_length: int
    original_length: int
    suffix_length: int

    @property
    def original_range(self) -> Tuple[int, int]:
        return self.prefix_length, self.prefix_length + self.original_length


def standardize(f: ZigzagFiltration) -> Tuple[ZigzagFiltration, StandardizationRecord]:
    """Prepend additions building K_0 and append deletions dismantling K_m.

    The prepended additions follow (dimension, lexicographic) order and the
    appended deletions the reverse; any face-respecting order would do, this
    one is deterministic. Non-repetitiveness is preserved. An invalid f, with
    no K_m to dismantle, fails the shared admission (``_admitted``); the
    padding comes from that one sweep (``_pad``), and the result is the
    record of its signed ids (K_0 already first) with K_m's deletions
    appended, so neither f's events or simplices nor the result's are built
    here.
    """
    sw = _admitted(f)
    record = _pad(sw, f)
    ends = sw.dels[len(sw.dels) - record.suffix_length :]
    ids = sw.ids + array("i", [~j for j in ends])
    return ZigzagFiltration._of_record(ids, sw.vts), record


def _pad(sw: _Sweep, f: ZigzagFiltration) -> StandardizationRecord:
    """Make an admitted sweep of f the sweep of ``standardize(f)``: its
    positions already put K_0 first, so only K_m's deletions are appended,
    by decreasing (dimension, vertices). A standardized sweep is kept as is."""
    m, p = len(f), len(f.initial)
    if sw.standardized:
        return StandardizationRecord(0, m, 0)
    final = [j for j, (a, d) in enumerate(zip(sw.add_at, sw.del_at)) if a > d]
    final.sort(key=lambda j: (sw.dims[j], sw.vts[j]), reverse=True)
    for k, j in enumerate(final, p + m):
        sw.del_at[j] = k
    sw.dels.extend(final)
    return StandardizationRecord(p, m, len(final))


class EventIndexMap(NamedTuple):
    """Index of each simplex's addition and deletion in a reference filtration."""

    add_index: dict
    del_index: dict


def to_updown(f: ZigzagFiltration) -> Tuple[ZigzagFiltration, EventIndexMap]:
    """Canonical up-down form: all additions first, then all deletions.

    Both halves keep their relative order from f. The returned index map
    records where each addition/deletion sat in f. The shared admission
    (``_admitted``) raises InvalidInputError on an invalid f.
    """
    sw = _admitted(f)
    if not sw.standardized:
        raise NotStandardizedError("up-down conversion needs K_0 = K_m = empty")
    return _updown(sw, f)


def _updown(sw: _Sweep, f: ZigzagFiltration) -> Tuple[ZigzagFiltration, EventIndexMap]:
    """``to_updown`` of the padded f, from its admitted sweep after ``_pad``.
    The index map is keyed by f's simplices, which the result shares."""
    _raise_if_repetitive(sw.repetition)
    simplices = f._simplices
    ids = array("i", range(len(simplices)))  # ids run in order of addition
    ids.extend([~j for j in sw.dels])
    add_index = dict(zip(simplices, sw.add_at))
    del_index = {simplices[j]: sw.del_at[j] for j in sw.dels}
    U = ZigzagFiltration._of_record(ids, sw.vts, simplices=simplices)
    return U, EventIndexMap(add_index, del_index)


def _switched(f: ZigzagFiltration, j: int, first_dir: str) -> ZigzagFiltration:
    """f with the events at (j-1, j), first_dir then the other way, switched:
    its record with the two signed ids swapped. The ids still run in order
    of first appearance when the result is valid."""
    order, words = {DEL: ("delete-then-add", "deletion and addition"),
                    ADD: ("add-then-delete", "addition and deletion")}[first_dir]
    if not 1 <= j < len(f):
        raise InvalidSwitchError(f"switch position {j} out of range")
    ids, vts = f._ids
    k = len(f.initial) + j  # the position of event j
    first, second = ids[k - 1], ids[k]
    added = first_dir == ADD
    if (first >= 0) != added or (second >= 0) == added:
        raise InvalidSwitchError(f"events at {j - 1}, {j} are not {order}")
    sigma, tau = (vts[i if i >= 0 else ~i] for i in (first, second))
    if sigma == tau:
        raise InvalidDiamondError(f"cannot switch {words} of the same {_named(sigma)}")
    if not added:  # sigma is the added simplex, tau the deleted one
        sigma, tau = tau, sigma
    if set(tau).issubset(sigma):
        raise InvalidSwitchError(
            f"{_named(tau)} is a face of {_named(sigma)}; switched order would be invalid")
    ids = array("i", ids)
    ids[k - 1], ids[k] = second, first
    return ZigzagFiltration._of_record(ids, vts, f.initial)


def outward_switch(f: ZigzagFiltration, j: int) -> ZigzagFiltration:
    """Replace delete-then-add at positions (j-1, j) by add-then-delete."""
    return _switched(f, j, DEL)


def inward_switch(f: ZigzagFiltration, j: int) -> ZigzagFiltration:
    """Replace add-then-delete at positions (j-1, j) by delete-then-add."""
    return _switched(f, j, ADD)


def random_outward_walk(
    f: ZigzagFiltration, steps: int, seed: int
) -> Tuple[ZigzagFiltration, int]:
    """Scatter deletions among additions by random adjacent swaps.

    Starting from a valid up-down filtration, repeatedly picks a uniformly
    random position holding add-then-delete of distinct, non-incident
    simplices and swaps it into delete-then-add. The result is a valid,
    non-repetitive zigzag filtration; with a fixed seed the walk is
    deterministic bit-for-bit. Returns (filtration, steps actually taken);
    the walk stops early once no legal position remains.
    """
    if not f.is_updown():
        raise NotUpDownError("random walk starts from an up-down filtration")
    ids, vts = f._ids
    p = len(f.initial)
    events = ids[p:]  # the signed id of each event, swapped in place
    m = len(events)
    rng = SplitMix64(seed)

    def legal(pos: int) -> bool:
        first, second = events[pos - 1], events[pos]
        return first >= 0 > second and not set(vts[~second]).issubset(vts[first])

    # Uniform sampling from a dynamic set: array + position map, swap-remove.
    items: List[int] = [pos for pos in range(1, m) if legal(pos)]
    where: Dict[int, int] = {pos: i for i, pos in enumerate(items)}

    def drop(pos: int) -> None:
        i = where.pop(pos, None)
        if i is None:
            return
        last = items.pop()
        if last != pos:
            items[i] = last
            where[last] = i

    def put(pos: int) -> None:
        if pos not in where:
            where[pos] = len(items)
            items.append(pos)

    taken = 0
    while taken < steps and items:
        pos = items[rng.below(len(items))]
        events[pos - 1], events[pos] = events[pos], events[pos - 1]
        taken += 1
        for q in (pos - 1, pos, pos + 1):
            if 1 <= q < m:
                if legal(q):
                    put(q)
                else:
                    drop(q)
    return ZigzagFiltration._of_record(ids[:p] + events, vts, f.initial), taken
