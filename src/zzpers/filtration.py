"""Zigzag filtrations as ordered add/delete event sequences.

Index convention: event i sits between the snapshots K_i and K_{i+1}, so a
filtration with m events has complexes K_0..K_m. Filtrations are immutable
values; every operation returns a new one.
"""

from __future__ import annotations

import gc
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import combinations
from operator import gt
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .complexes import Simplex, SimplicialComplex, boundary
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


@dataclass(frozen=True, slots=True)
class FiltrationEvent:
    direction: str
    simplex: Simplex

    def __post_init__(self):
        if self.direction not in (ADD, DEL):
            raise InvalidInputError(f"unknown event direction {self.direction!r}")

    @classmethod
    def _trusted(cls, direction: str, s: Simplex) -> "FiltrationEvent":
        """Fast path for a direction already known to be ADD or DEL: the event
        the public constructor would build, without its check."""
        e = _new(cls)
        _set_direction(e, direction)
        _set_simplex(e, s)
        return e

    @classmethod
    def add(cls, s: Simplex) -> "FiltrationEvent":
        return cls(ADD, s)

    @classmethod
    def delete(cls, s: Simplex) -> "FiltrationEvent":
        return cls(DEL, s)

    def __repr__(self) -> str:
        sign = "+" if self.direction == ADD else "-"
        return f"{sign}{'.'.join(map(str, self.simplex.vertices))}"


# the slot setters, which the frozen dataclass's __setattr__ would refuse
_new = object.__new__
_set_direction = FiltrationEvent.direction.__set__
_set_simplex = FiltrationEvent.simplex.__set__


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
    """Event list plus the starting complex (empty by default)."""

    __slots__ = ("events", "initial")

    def __init__(self, events: Iterable[FiltrationEvent], initial: Iterable[Simplex] = ()):
        self.events: Tuple[FiltrationEvent, ...] = tuple(events)
        init = frozenset(initial)
        for s in init:
            for f in boundary(s):
                if f not in init:
                    raise InvalidInputError(
                        f"initial complex is not face-closed: missing {f!r} (facet of {s!r})"
                    )
        self.initial = init

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ZigzagFiltration)
            and self.events == other.events
            and self.initial == other.initial
        )

    def __repr__(self) -> str:
        return f"ZigzagFiltration({list(self.events)!r})"

    def directions(self) -> Tuple[str, ...]:
        return tuple(e.direction for e in self.events)

    def snapshots(self) -> Iterator[frozenset]:
        """Yield K_0..K_m. Intended for small instances (copies each step)."""
        current = set(self.initial)
        yield frozenset(current)
        for e in self.events:
            if e.direction == ADD:
                current.add(e.simplex)
            else:
                current.discard(e.simplex)
            yield frozenset(current)

    def complex_at(self, i: int) -> frozenset:
        for k, snap in enumerate(self.snapshots()):
            if k == i:
                return snap
        raise IndexError(i)

    def final_complex(self) -> frozenset:
        current = set(self.initial)
        for e in self.events:
            if e.direction == ADD:
                current.add(e.simplex)
            else:
                current.discard(e.simplex)
        return frozenset(current)

    def total_complex(self) -> SimplicialComplex:
        all_simplices = set(self.initial)
        all_simplices.update(e.simplex for e in self.events if e.direction == ADD)
        return SimplicialComplex(all_simplices)

    def is_standardized(self) -> bool:
        return not self.initial and not self.final_complex()

    def is_updown(self) -> bool:
        seen_del = False
        for e in self.events:
            if e.direction == DEL:
                seen_del = True
            elif seen_del:
                return False
        return True


@dataclass(frozen=True)
class Violation:
    index: int
    reason: str


_Sweep = namedtuple(
    "_Sweep", "simplices dims facets add_at del_at dels violations repetition standardized"
)


def _faces(vs: Tuple[int, ...]) -> Iterable[Tuple[int, ...]]:
    """Facets of the simplex with vertices vs, in ascending order of vertex tuple."""
    return combinations(vs, len(vs) - 1) if len(vs) > 1 else ()


def _sweep(f: ZigzagFiltration) -> _Sweep:
    """Validity, first repetition, event orders and facet ids in one pass.

    Per dense simplex id (in order of first appearance, so of addition when
    f is valid): the Simplex, its dimension, its facet ids (None until it is
    added with every facet known), its last addition and deletion position
    (-1: none) in the padded filtration, where K_0 enters first in face order
    and event i sits at |K_0| + i. Also the ids of all deletions in event
    order, the violations and first repetition (by f's event indices), and
    whether K_0 = K_m = empty. Invalid events are skipped when updating the
    running complex; the repetition check looks at the raw events. Ids are
    not given at parse time: that would add to every parse and need a second
    interning site for library-built input.
    """
    ids: Dict[Tuple[int, ...], int] = {}
    get = ids.get
    events = [*map(FiltrationEvent.add, sorted(f.initial)), *f.events]
    simplices, dims, dels = [], [], []
    # indexed by id; ids never outnumber the events
    facets: List[Optional[Tuple[int, ...]]] = [None] * len(events)
    add_at = [-1] * len(events)
    del_at = add_at[:]
    count = add_at[:]  # -1 while absent, else the number of present cofaces
    out: List[Violation] = []
    dangling: Dict[int, int] = {}  # event index -> its slot in out, named after the pass
    repetition = None
    p = len(f.initial)
    for i, e in enumerate(events):
        s = e.simplex
        vs = s.vertices
        j = get(vs)
        if j is None:
            j = ids[vs] = len(simplices)
            simplices.append(s)
            dims.append(len(vs) - 1)
        if e.direction == ADD:
            if repetition is None and del_at[j] >= 0:
                repetition = (s, del_at[j] - p, i - p)
            add_at[j] = i
            if count[j] >= 0:
                out.append(Violation(i - p, f"duplicate add of {s!r}"))
                continue
            fs = facets[j]
            if fs is None:
                fs = tuple(map(get, _faces(vs)))
                if None not in fs:
                    facets[j] = fs
            if None in fs or -1 in map(count.__getitem__, fs):
                # a facet never seen reads as j itself, which is absent
                names = ", ".join(
                    repr(Simplex(t)) for t in _faces(vs) if count[get(t, j)] < 0
                )
                out.append(Violation(i - p, f"missing facets of {s!r}: {names}"))
                continue
            count[j] = 0
            for k in fs:
                count[k] += 1
        else:
            del_at[j] = i
            dels.append(j)
            if count[j] < 0:
                out.append(Violation(i - p, f"delete of absent simplex {s!r}"))
            elif count[j]:
                dangling[i - p] = len(out)
                out.append(Violation(i - p, ""))
            else:
                count[j] = -1
                for k in facets[j]:
                    count[k] -= 1
    if dangling:
        # name a present coface: the first match in a set of present vertex tuples
        # replayed event by event, so that the name depends only on the input
        skipped = {v.index for v in out}
        present = {s.vertices for s in f.initial}
        for i, e in enumerate(f.events[: max(dangling) + 1]):
            s = e.simplex
            if i in dangling:
                w = next(t for t in present if len(t) == s.dim + 2 and s.is_face_of(Simplex(t)))
                out[dangling[i]] = Violation(i, f"dangling coface {Simplex(w)!r} of deleted {s!r}")
            elif i not in skipped:
                (present.add if e.direction == ADD else present.discard)(s.vertices)
    standardized = not f.initial and not any(map(gt, add_at, del_at))
    return _Sweep(simplices, dims, facets, add_at, del_at, dels, out, repetition, standardized)


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


@dataclass(frozen=True)
class StandardizationRecord:
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
    padding comes from that one sweep (``_pad``).
    """
    sw = _admitted(f)
    record = _pad(sw, f)
    ends = sw.dels[len(sw.dels) - record.suffix_length :]
    prefix = [FiltrationEvent.add(s) for s in sw.simplices[: record.prefix_length]]
    suffix = [FiltrationEvent.delete(sw.simplices[j]) for j in ends]
    return ZigzagFiltration(prefix + list(f.events) + suffix), record


def _pad(sw: _Sweep, f: ZigzagFiltration) -> StandardizationRecord:
    """Make an admitted sweep of f the sweep of ``standardize(f)``: its
    positions already put K_0 first, so only K_m's deletions are appended,
    by decreasing (dimension, vertices). A standardized sweep is kept as is."""
    m, p = len(f.events), len(f.initial)
    if sw.standardized:
        return StandardizationRecord(0, m, 0)
    final = [j for j, (a, d) in enumerate(zip(sw.add_at, sw.del_at)) if a > d]
    final.sort(key=lambda j: (sw.dims[j], sw.simplices[j].vertices), reverse=True)
    for k, j in enumerate(final, p + m):
        sw.del_at[j] = k
    sw.dels.extend(final)
    return StandardizationRecord(p, m, len(final))


@dataclass(frozen=True)
class EventIndexMap:
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
    return _updown(sw)


def _updown(sw: _Sweep) -> Tuple[ZigzagFiltration, EventIndexMap]:
    """``to_updown`` of the padded filtration, from its admitted sweep after ``_pad``."""
    _raise_if_repetitive(sw.repetition)
    events = [FiltrationEvent(ADD, s) for s in sw.simplices]  # ids run in order of addition
    events += [FiltrationEvent(DEL, sw.simplices[j]) for j in sw.dels]
    add_index = dict(zip(sw.simplices, sw.add_at))
    del_index = {sw.simplices[j]: sw.del_at[j] for j in sw.dels}
    return ZigzagFiltration(events), EventIndexMap(add_index, del_index)


def _switched(f: ZigzagFiltration, j: int, first_dir: str) -> ZigzagFiltration:
    """f with the events at (j-1, j), first_dir then the other way, switched."""
    order, words = {DEL: ("delete-then-add", "deletion and addition"),
                    ADD: ("add-then-delete", "addition and deletion")}[first_dir]
    if not 1 <= j < len(f.events):
        raise InvalidSwitchError(f"switch position {j} out of range")
    first, second = f.events[j - 1], f.events[j]
    if first.direction != first_dir or second.direction == first_dir:
        raise InvalidSwitchError(f"events at {j - 1}, {j} are not {order}")
    if first.simplex == second.simplex:
        raise InvalidDiamondError(f"cannot switch {words} of the same {first.simplex!r}")
    sigma, tau = first.simplex, second.simplex  # the added simplex, the deleted one
    if first_dir == DEL:
        sigma, tau = tau, sigma
    if tau.is_face_of(sigma):
        raise InvalidSwitchError(f"{tau!r} is a face of {sigma!r}; switched order would be invalid")
    events = list(f.events)
    events[j - 1], events[j] = second, first
    return ZigzagFiltration(events, f.initial)


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
    events = list(f.events)
    m = len(events)
    rng = SplitMix64(seed)

    def legal(pos: int) -> bool:
        first, second = events[pos - 1], events[pos]
        if first.direction != ADD or second.direction != DEL:
            return False
        return not second.simplex.is_face_of(first.simplex)

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
    return ZigzagFiltration(events, f.initial), taken
