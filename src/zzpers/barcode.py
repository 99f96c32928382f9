"""Intervals with open/closed end types and multiset barcodes.

An interval [b, d] refers to complex indices of a module of length m, so
0 <= b <= d <= m. A birth b is closed iff b = 0 or the arrow entering index
b points forward (an addition); a death d is closed iff d = m or the arrow
leaving index d points backward (a deletion).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import ContextMismatchError, ContractViolationError, InvalidInputError
from .filtration import ADD, DEL

CLOSED = "c"
OPEN = "o"

ABSOLUTE = "abs"
RELATIVE = "rel"


@dataclass(frozen=True, order=True)
class Interval:
    dim: int
    b: int
    d: int
    birth_type: str
    death_type: str

    def __post_init__(self):
        if self.b < 0 or self.d < self.b:
            raise ContractViolationError(f"bad interval endpoints [{self.b}, {self.d}]")
        if self.dim < 0:
            raise ContractViolationError(f"negative interval dimension {self.dim}")
        if self.birth_type not in (CLOSED, OPEN) or self.death_type not in (CLOSED, OPEN):
            raise ContractViolationError("end types must be 'c' or 'o'")

    @property
    def type_code(self) -> str:
        return self.birth_type + self.death_type

    def __repr__(self) -> str:
        return f"[{self.b},{self.d}]^{self.type_code}_{self.dim}"


def classify_ends(b: int, d: int, directions: Sequence[str]) -> Tuple[str, str]:
    """End types of [b, d] against the arrow directions of a filtration."""
    m = len(directions)
    if not 0 <= b <= d <= m:
        raise ContractViolationError(f"interval [{b}, {d}] out of range for m = {m}")
    bt = CLOSED if b == 0 or directions[b - 1] == ADD else OPEN
    dt = CLOSED if d == m or directions[d] == DEL else OPEN
    return bt, dt


class Barcode:
    """Multiset of intervals of a module of length m."""

    __slots__ = ("m", "kind", "_counts")

    def __init__(self, intervals: Iterable[Interval], m: int, kind: str):
        if kind not in (ABSOLUTE, RELATIVE):
            raise InvalidInputError(f"unknown barcode kind {kind!r}")
        if m < 0:
            raise InvalidInputError("module length must be non-negative")
        counts = Counter(intervals)
        for iv, c in counts.items():
            if not isinstance(iv, Interval):
                raise InvalidInputError(f"not an interval: {iv!r}")
            if iv.d > m:
                raise ContractViolationError(f"{iv!r} exceeds module length {m}")
            if c < 0:
                raise InvalidInputError("negative multiplicity")
        if 0 in counts.values():
            counts = Counter({iv: c for iv, c in counts.items() if c})
        self.m = m
        self.kind = kind
        self._counts = counts

    def items(self) -> List[Tuple[Interval, int]]:
        return sorted(self._counts.items())

    def counts(self) -> Counter:
        return Counter(self._counts)

    def triples(self) -> Counter:
        """Multiset over (dim, b, d), forgetting end types."""
        out: Counter = Counter()
        for iv, c in self._counts.items():
            out[(iv.dim, iv.b, iv.d)] += c
        return out

    def filter(self, predicate) -> "Barcode":
        kept = Counter({iv: c for iv, c in self._counts.items() if predicate(iv)})
        return Barcode(kept, self.m, self.kind)

    def in_dim(self, q: int) -> "Barcode":
        return self.filter(lambda iv: iv.dim == q)

    def __iter__(self) -> Iterator[Interval]:
        for iv, c in self.items():
            for _ in range(c):
                yield iv

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Barcode)
            and self.m == other.m
            and self.kind == other.kind
            and self._counts == other._counts
        )

    def __repr__(self) -> str:
        return f"Barcode(kind={self.kind}, m={self.m}, intervals={len(self)})"

    def to_lines(self) -> List[str]:
        out = [f"zzbar v1 m={self.m} kind={self.kind}"]
        for iv, c in self.items():
            out.extend([f"{iv.dim} {iv.b} {iv.d} {iv.type_code}"] * c)
        return out

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


@dataclass(frozen=True)
class BarcodeDiff:
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
