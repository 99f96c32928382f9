"""Intervals with open/closed end types and multiset barcodes.

An interval [b, d] refers to complex indices of a module of length m, so
0 <= b <= d <= m. A birth b is closed iff b = 0 or the arrow entering index
b points forward (an addition); a death d is closed iff d = m or the arrow
leaving index d points backward (a deletion).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from functools import partial
from itertools import groupby
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import ContextMismatchError, ContractViolationError, InvalidInputError
from .filtration import ADD, DEL

CLOSED = "c"
OPEN = "o"

ABSOLUTE = "abs"
RELATIVE = "rel"


class _IntervalFields(NamedTuple):
    dim: int
    b: int
    d: int
    birth_type: str
    death_type: str


class Interval(_IntervalFields):
    """[b, d] in dimension dim with its end types; ordered, compared and
    hashed as the tuple (dim, b, d, birth_type, death_type)."""

    __slots__ = ()

    def __new__(cls, dim: int, b: int, d: int, birth_type: str, death_type: str) -> "Interval":
        if b < 0 or d < b:
            raise ContractViolationError(f"bad interval endpoints [{b}, {d}]")
        if dim < 0:
            raise ContractViolationError(f"negative interval dimension {dim}")
        if birth_type not in (CLOSED, OPEN) or death_type not in (CLOSED, OPEN):
            raise ContractViolationError("end types must be 'c' or 'o'")
        return tuple.__new__(cls, (dim, b, d, birth_type, death_type))

    @property
    def type_code(self) -> str:
        return self.birth_type + self.death_type

    def __repr__(self) -> str:
        return f"[{self.b},{self.d}]^{self.type_code}_{self.dim}"


# an Interval from its field tuple without the checks, for fields valid by construction
_trusted_interval = partial(tuple.__new__, Interval)


def classify_ends(b: int, d: int, directions: Sequence[str]) -> Tuple[str, str]:
    """End types of [b, d] against the arrow directions of a filtration."""
    m = len(directions)
    if not 0 <= b <= d <= m:
        raise ContractViolationError(f"interval [{b}, {d}] out of range for m = {m}")
    bt = CLOSED if b == 0 or directions[b - 1] == ADD else OPEN
    dt = CLOSED if d == m or directions[d] == DEL else OPEN
    return bt, dt


class Barcode:
    """Multiset of intervals of a module of length m.

    Held as one sorted list of field tuples (dim, b, d, birth_type,
    death_type), one entry per copy of an interval; the garbage collector
    does not track such tuples. Every accessor hands out Interval objects,
    and counts, items and the text are read off the list in order.
    """

    __slots__ = ("m", "kind", "_fields")

    def __init__(self, intervals: Iterable[Interval], m: int, kind: str):
        if kind not in (ABSOLUTE, RELATIVE):
            raise InvalidInputError(f"unknown barcode kind {kind!r}")
        if m < 0:
            raise InvalidInputError("module length must be non-negative")
        try:
            it = iter(intervals)
        except TypeError:
            raise InvalidInputError(f"not an iterable of intervals: {intervals!r}") from None
        items = intervals if isinstance(intervals, Mapping) else list(it)  # Mapping: counts
        try:
            counted = Counter(items)
        except TypeError:  # an unhashable item, so no Interval
            bad = next(iv for iv in items if not isinstance(iv, Interval))
            raise InvalidInputError(f"not an interval: {bad!r}") from None
        fields = []
        for iv, c in counted.items():
            if not isinstance(iv, Interval):
                raise InvalidInputError(f"not an interval: {iv!r}")
            if iv.d > m:
                raise ContractViolationError(f"{iv!r} exceeds module length {m}")
            if not isinstance(c, int):
                raise InvalidInputError(f"multiplicity of {iv!r} is not an integer: {c!r}")
            if c < 0:
                raise InvalidInputError("negative multiplicity")
            fields += [tuple(iv)] * c
        fields.sort()
        self.m = m
        self.kind = kind
        self._fields = fields

    @classmethod
    def _of_fields(
        cls, fields: List[Tuple[int, int, int, str, str]], m: int, kind: str
    ) -> "Barcode":
        """Barcode of a list of field tuples valid by construction, one per
        copy; sorts the list in place and keeps it, with no checks."""
        fields.sort()
        bar = object.__new__(cls)
        bar.m, bar.kind, bar._fields = m, kind, fields
        return bar

    def items(self) -> List[Tuple[Interval, int]]:
        return [(_trusted_interval(k), len(list(g))) for k, g in groupby(self._fields)]

    def counts(self) -> Counter:
        return Counter(self)

    def triples(self) -> Counter:
        """Multiset over (dim, b, d), forgetting end types."""
        return Counter(k[:3] for k in self._fields)

    def filter(self, predicate) -> "Barcode":
        kept = [k for k in self._fields if predicate(_trusted_interval(k))]
        return Barcode._of_fields(kept, self.m, self.kind)

    def in_dim(self, q: int) -> "Barcode":
        return self.filter(lambda iv: iv.dim == q)

    def __iter__(self) -> Iterator[Interval]:
        return map(_trusted_interval, self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Barcode)
            and self.m == other.m
            and self.kind == other.kind
            and self._fields == other._fields
        )

    def __repr__(self) -> str:
        return f"Barcode(kind={self.kind}, m={self.m}, intervals={len(self)})"

    def to_lines(self) -> List[str]:
        out = [f"zzbar v1 m={self.m} kind={self.kind}"]
        out += [f"{dim} {b} {d} {bt}{dt}" for dim, b, d, bt, dt in self._fields]
        return out

    def to_text(self) -> str:
        """``to_lines`` joined, each line ended by a newline. The lines are
        made and joined ``_TEXT_CHUNK`` at a time, so that no list of one
        string per interval is held next to the text."""
        fields = self._fields
        chunks = [f"zzbar v1 m={self.m} kind={self.kind}\n"]
        for k in range(0, len(fields), _TEXT_CHUNK):
            chunks.append("".join([f"{dim} {b} {d} {bt}{dt}\n"
                                   for dim, b, d, bt, dt in fields[k : k + _TEXT_CHUNK]]))
        return "".join(chunks)


_TEXT_CHUNK = 1 << 12  # intervals formatted per chunk of Barcode.to_text


class BarcodeDiff(NamedTuple):
    equal: bool
    missing: Tuple[Tuple[Interval, int], ...]  # in a, not in b
    extra: Tuple[Tuple[Interval, int], ...]  # in b, not in a

    def __bool__(self) -> bool:
        return self.equal


def multiset_equal(a: Barcode, b: Barcode) -> BarcodeDiff:
    """Exact multiset comparison; reports the symmetric difference."""
    if a.m != b.m or a.kind != b.kind:
        raise ContextMismatchError(
            f"barcode contexts differ: m={a.m}/{b.m}, kind={a.kind}/{b.kind}"
        )
    ca, cb = a.counts(), b.counts()
    missing = sorted((iv, c) for iv, c in (ca - cb).items())
    extra = sorted((iv, c) for iv, c in (cb - ca).items())
    return BarcodeDiff(not missing and not extra, tuple(missing), tuple(extra))
