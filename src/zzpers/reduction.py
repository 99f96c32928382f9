"""Standard persistence by Z2 column reduction, plus the coned filtration
that turns an up-down zigzag into a single monotone filtration.

Columns are integer bitmasks (bit i = row of the i-th added simplex); the
pivot of a column is its highest set bit. The pairing produced by reduction
is unique, independent of the reduction strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

from .complexes import Simplex, cone
from .errors import InternalInconsistencyError, InvalidInputError, NotStandardizedError, NotUpDownError
from .filtration import ADD, DEL, ZigzagFiltration, _faces, _Sweep

ORD = "Ord"
REL = "Rel"
EXT = "Ext"


@dataclass(frozen=True)
class ReductionState:
    order: Tuple[Simplex, ...]
    pairs: Tuple[Tuple[int, int], ...]  # (birth column, death column)
    essentials: Tuple[int, ...]
    columns: Tuple[int, ...]  # reduced columns


def _simplex_order(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> List[Simplex]:
    if isinstance(f, ZigzagFiltration):
        if f.initial:
            raise InvalidInputError("reduction expects a filtration starting from the empty complex")
        order = []
        for e in f.events:
            if e.direction != ADD:
                raise InvalidInputError("reduction expects additions only")
            order.append(e.simplex)
        return order
    return list(f)


def _facet_rows(order: Sequence[Simplex]) -> Iterator[List[int]]:
    """Rows of each simplex's facets in a monotone order of simplices."""
    position: Dict[Tuple[int, ...], int] = {}
    get = position.get
    for j, s in enumerate(order):
        vs = s.vertices
        if vs in position:
            raise InvalidInputError(f"{s!r} added twice")
        rows = []
        for face in sorted(_faces(vs), reverse=True):  # a missing facet is named largest first
            row = get(face)
            if row is None:
                raise InvalidInputError(f"facet {Simplex(face)!r} of {s!r} not added before it")
            rows.append(row)
        position[vs] = j
        yield rows


def _columns(rows: Iterable[Iterable[int]]) -> List[int]:
    """One dense bitmask column per entry of rows."""
    cols: List[int] = []
    for rs in rows:
        col = 0
        for r in rs:
            col |= 1 << r
        cols.append(col)
    return cols


def _reduce(cols: List[int], dims: Sequence[int]) -> List[Tuple[int, int]]:
    """Reduce cols in place by decreasing dimension; returns the (birth, death) pairs.

    Once a column j kills the class born at i, column i is known to be a
    birth and is cleared without being reduced. With all dims equal this is
    the plain left-to-right reduction: no column is cleared before it is
    reached.
    """
    by_dim: Dict[int, List[int]] = {}
    for j, q in enumerate(dims):
        by_dim.setdefault(q, []).append(j)
    low_inv: List[int] = [-1] * len(cols)
    cleared = bytearray(len(cols))
    pairs: List[Tuple[int, int]] = []
    for q in sorted(by_dim, reverse=True):
        for j in by_dim[q]:
            if cleared[j]:
                cols[j] = 0
                continue
            col = cols[j]
            while col:
                low = col.bit_length() - 1
                k = low_inv[low]
                if k < 0:
                    break
                col ^= cols[k]
            cols[j] = col
            if col:
                low_inv[low] = j
                pairs.append((low, j))
                cleared[low] = 1
    return pairs


def _reduced(f: Union[ZigzagFiltration, Sequence[Simplex]], twist: bool) -> ReductionState:
    order = _simplex_order(f)
    cols = _columns(_facet_rows(order))
    pairs = _reduce(cols, [s.dim for s in order] if twist else [0] * len(order))
    used = {c for pair in pairs for c in pair}
    essentials = tuple(j for j in range(len(order)) if j not in used)
    return ReductionState(tuple(order), tuple(sorted(pairs)), essentials, tuple(cols))


def reduce(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> ReductionState:
    """Left-to-right column reduction.

    Pair (i, j) means the simplex added at i creates a class that the
    simplex added at j kills; unpaired columns are the essential classes.
    """
    return _reduced(f, twist=False)


def reduce_twist(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> ReductionState:
    """Column reduction by decreasing dimension with clearing.

    Produces the same pairing as reduce() (pairing uniqueness), usually
    much faster.
    """
    return _reduced(f, twist=True)


def _coned_rows(sw: _Sweep, cone: List[int]) -> Iterator[Sequence[int]]:
    """Boundary rows of the coned filtration of a valid standardized sweep.

    Its ids run in order of addition, so the up column of id s is row
    s + 1 (row 0 is the apex). The up column of s has the up rows of its
    facets; the cone over s (row cone[s]) has s's up row plus the cone
    rows of its facets, or the apex row when s is a vertex.
    """
    facets = sw.facets
    yield ()
    for s in sw.adds:
        yield map((1).__add__, facets[s])
    for s in reversed(sw.dels):
        fs = facets[s]
        yield (s + 1, *map(cone.__getitem__, fs)) if fs else (s + 1, 0)


@dataclass(frozen=True)
class ExtendedFiltration:
    """Monotone filtration computing the two-sided barcode of an up-down zigzag.

    The event list adds the apex, then the n simplices in their up-phase
    order, then cones (over the apex) of the down-phase simplices in reverse
    deletion order: shrinking the second complex of a pair means un-deleting,
    so the last-deleted simplex is coned first.
    """

    events: Tuple[Simplex, ...]
    omega: int
    n: int

    def column_table(self) -> List[str]:
        """Human-readable column -> sequence-index translation."""
        out = [f"col 0: apex vertex {self.omega}"]
        for c in range(1, self.n + 1):
            out.append(f"col {c}: {self.events[c]!r} enters at index {c}")
        for c in range(self.n + 1, 2 * self.n + 1):
            out.append(f"col {c}: cone {self.events[c]!r} enters at index {c}")
        return out


def build_extended(U: ZigzagFiltration) -> ExtendedFiltration:
    """Cone an up-down filtration into a single monotone filtration.

    The apex vertex id is one past the largest vertex id in play, so it is
    stable for a given input.
    """
    if not U.is_updown():
        raise NotUpDownError("extended filtration needs an up-down input")
    if not U.is_standardized():
        raise NotStandardizedError("extended filtration needs K_0 = K_m = empty")
    adds = [e.simplex for e in U.events if e.direction == ADD]
    dels = [e.simplex for e in U.events if e.direction == DEL]
    if len(adds) != len(dels):
        raise NotStandardizedError("up-down filtration must delete everything it adds")
    omega = 1 + max((s.vertices[-1] for s in adds), default=-1)
    events = [Simplex([omega]), *adds, *(cone(s, omega) for s in reversed(dels))]
    return ExtendedFiltration(tuple(events), omega, len(adds))


@dataclass(frozen=True)
class ExtendedInterval:
    b: int
    d: int
    dim: int
    label: str  # ORD, REL, or EXT

    def __repr__(self) -> str:
        return f"{self.label}[{self.b},{self.d}]_{self.dim}"


@dataclass(frozen=True)
class ExtendedBarcode:
    intervals: Tuple[ExtendedInterval, ...]
    n: int
    omega: int


def _label(b: int, d: int, n: int) -> str:
    if d < n:
        return ORD
    if b > n:
        return REL
    return EXT


def extended_from_reduction(ext: ExtendedFiltration, state: ReductionState) -> ExtendedBarcode:
    """Translate reduction pairs of the coned filtration to sequence indices.

    Column c is the arrow entering index c of the two-sided sequence (the
    apex column 0 precedes index 0), so a pair (i, j) yields the interval
    [i, j - 1]. The unique infinite interval is the apex's component and is
    identified structurally: column 0 must be the only essential one.
    """
    if state.essentials != (0,):
        raise InternalInconsistencyError(
            f"expected the apex column as the only essential, got {state.essentials}"
        )
    n = ext.n
    events = ext.events
    intervals = []
    for i, j in state.pairs:
        if i == 0:
            raise InternalInconsistencyError("apex column appears in a pair")
        intervals.append(ExtendedInterval(i, j - 1, events[i].dim, _label(i, j - 1, n)))
    return ExtendedBarcode(tuple(intervals), n, ext.omega)


def extended_barcode(U: ZigzagFiltration) -> ExtendedBarcode:
    """Two-sided (ordinary/relative/extended) barcode of an up-down filtration."""
    ext = build_extended(U)
    return extended_from_reduction(ext, reduce_twist(ext.events))
