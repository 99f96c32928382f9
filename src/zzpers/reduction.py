"""Standard persistence by Z2 column reduction, plus the coned filtration
that turns an up-down zigzag into a single monotone filtration.

A column is stored as the tuple of its rows; its pivot is its highest row.
Reduction runs by decreasing dimension with clearing (twist). A column
whose pivot no reduced column owns yet is paired at once, with no bitmask
built. Only a column that collides is turned into an integer bitmask, over
the rows of the dimension below its own numbered densely in order, and
other columns' masks are XORed into it. A column's rows lie in one
dimension, where bit numbers grow with rows, so every mask is held from
its lowest row up (the bit of that row is its shift): a mask is as wide as
its column's span of rows, not as its pivot's position. The loop keeps the
reduced mask of each column it reduced, shifted right by its lowest set
bit; a column paired at once has its mask built from its rows each time it
is added, and kept from its second use on. The pairing produced by
reduction is unique, independent of the reduction strategy.

``reduce`` (also named ``reduce_twist``) and ``extended_barcode`` admit a
monotone filtration through the shared admission (``filtration._admitted``)
and reduce its boundary matrix, with the sweep's ids as columns and their
facet ids as rows; ``reduce`` numbers mask bits by row over the whole
filtration, so that a kept mask is a reduced column as ``ReductionState``
holds it. The pipeline reduces the coned filtration's
coboundary matrix instead (``_coned_coboundaries``): the same pairs, with
far fewer column additions where the coned columns of high dimension
collide (1,666,206 against 180,314 on a bumpy torus with a Rips layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .complexes import Simplex, cone
from .errors import InternalInconsistencyError, InvalidInputError, NotStandardizedError, NotUpDownError
from .filtration import ADD, FiltrationEvent, ZigzagFiltration, _admitted, _Sweep

ORD = "Ord"
REL = "Rel"
EXT = "Ext"


@dataclass(frozen=True)
class ReductionState:
    order: Tuple[Simplex, ...]
    pairs: Tuple[Tuple[int, int], ...]  # (birth column, death column)
    essentials: Tuple[int, ...]
    columns: Tuple[int, ...]  # reduced columns as bitmasks over all rows; 0 if cleared


def _mask(rows: Iterable[int], bit: Sequence[int], base: int = 0) -> int:
    """Bitmask with bit bit[r] - base set for each row r."""
    col = 0
    for r in rows:
        col |= 1 << (bit[r] - base)
    return col


def _by_dim(dims: Sequence[int]) -> Tuple[List[int], Dict[int, List[int]]]:
    """Each column's position among the columns of its dimension, and the
    columns of each dimension in order."""
    local = [0] * len(dims)
    members: Dict[int, List[int]] = {}
    for j, q in enumerate(dims):
        ids = members.get(q)
        if ids is None:
            ids = members[q] = []
        local[j] = len(ids)
        ids.append(j)
    return local, members


def _reduce(
    rows: Sequence[Sequence[int]], dims: Sequence[int], dense: bool = False
) -> Tuple[List[Tuple[int, int]], List[Optional[int]], List[int], Dict[str, int]]:
    """Reduce the columns given by their rows, each row a column of the
    dimension one below the column's own (boundary or coboundary columns).

    Returns the (birth, death) pairs, the kept masks (column -> mask, None
    where none was kept), their shifts (column -> the bit a kept mask is
    shifted by, 0 where none was kept) and the counters. Bit i of a
    column's full mask is the i-th row of the dimension below, or with
    dense row i itself. Kept mask j is that full mask shifted right by its
    lowest set bit, shifts[j], so it has bit 0 set and is as wide as the
    column's span of rows; ``masks[j] << shifts[j]`` is the reduced column
    as ReductionState holds it. Columns run by decreasing dimension, and a
    column known to be a birth is cleared without being reduced (twist).
    """
    n = len(rows)
    local, members = _by_dim(dims)
    order = chain.from_iterable(members[q] for q in sorted(members, reverse=True))
    if dense:
        local = range(n)
        bit_rows = dict.fromkeys(members, local)
    else:  # dimension q -> the row of each bit of a q-column's mask
        bit_rows = {q: members.get(q - 1, []) for q in members}
    low_inv: List[int] = [-1] * n  # row -> the column whose pivot it is
    cleared = bytearray(n)
    masks: List[Optional[int]] = [None] * n
    shifts = [0] * n  # column -> the lowest set bit its kept mask was shifted down from
    used = bytearray(n)  # a column paired at once that was added once already
    pairs: List[Tuple[int, int]] = []
    n_cleared = at_once = additions = most = 0
    for j in order:
        if cleared[j]:
            n_cleared += 1
            continue
        rs = rows[j]
        if not rs:
            continue
        low = max(rs)
        k = low_inv[low]
        if k < 0:
            at_once += 1
        else:
            row_ids = bit_rows[dims[j]]
            # a column's rows share a dimension, in which bits increase with
            # rows: col holds bits from base up, as wide as its span of rows
            base = local[min(rs)]
            col = _mask(rs, local, base)
            added = 0
            while True:
                mk = masks[k]
                if mk is None:
                    rk = rows[k]
                    shift = local[min(rk)]
                    if used[k]:
                        mk = masks[k] = _mask(rk, local, shift)
                        shifts[k] = shift
                    else:
                        # added once so far, so not kept: built from col's base
                        # where it can be, as a shift costs about three XORs
                        used[k] = 1
                        if shift > base:
                            shift = base
                        mk = _mask(rk, local, shift)
                else:
                    shift = shifts[k]
                if shift < base:  # mk reaches below col: rebase col
                    col <<= base - shift
                    base = shift
                col ^= mk << (shift - base) if shift > base else mk
                added += 1
                if not col:
                    break
                low = row_ids[base + col.bit_length() - 1]
                k = low_inv[low]
                if k < 0:
                    break
            additions += added
            if added > most:
                most = added
            if not col:
                continue
            lo = (col & -col).bit_length() - 1
            masks[j] = col >> lo
            shifts[j] = base + lo
        low_inv[low] = j
        pairs.append((low, j))
        cleared[low] = 1
    stats = {
        "columns": n,
        "cleared_columns": n_cleared,
        "pairs": len(pairs),
        "pivots_without_addition": at_once,
        "column_additions": additions,
        "max_column_additions": most,
        "masks_kept": n - masks.count(None),
    }
    return pairs, masks, shifts, stats


def _essentials(pairs: Iterable[Tuple[int, int]], n: int) -> Tuple[int, ...]:
    used = {c for pair in pairs for c in pair}
    return tuple(j for j in range(n) if j not in used)


def _monotone(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> _Sweep:
    """The shared admission's sweep of a monotone filtration (additions from the
    empty complex, or its simplices in order): ids are columns, facet ids rows."""
    if not isinstance(f, ZigzagFiltration):
        f = ZigzagFiltration(FiltrationEvent._trusted(ADD, s) for s in f)
    sw = _admitted(f)
    if f.initial or sw.dels:
        raise InvalidInputError("reduction expects additions only, from the empty complex")
    return sw


def reduce(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> ReductionState:
    """Reduction of the boundary matrix of a monotone filtration, by
    decreasing dimension with clearing.

    Pair (i, j) means the simplex added at i creates a class that the
    simplex added at j kills; unpaired columns are the essential classes.
    The pairing is that of left-to-right reduction, which is unique
    whatever the column order.
    """
    sw = _monotone(f)
    rows, n = sw.facets, len(sw.dims)
    pairs, masks, shifts, _ = _reduce(rows, sw.dims, dense=True)
    cols = [0] * n
    for _, j in pairs:  # every other column is cleared or reduces to zero
        mk = masks[j]
        cols[j] = _mask(rows[j], range(n)) if mk is None else mk << shifts[j]
    essentials = _essentials(pairs, n)
    return ReductionState(tuple(sw.simplices), tuple(sorted(pairs)), essentials, tuple(cols))


reduce_twist = reduce


def _coned_coboundaries(facets, dims, dels) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Coboundary columns of the coned filtration of a valid standardized
    dense-id record (facet ids and dimension per id, ids in order of
    deletion), anti-transposed, and their dimensions.

    The coned filtration has N = 2n + 1 columns: the apex (0), the up
    column of id s (s + 1, as ids run in order of addition) and the cone
    over the k-th deleted id (2n - k). Column N-1-c here is the coboundary
    of column c, with row N-1-x for each coface x: the cone over the k-th
    deleted id is column and row k, the up column of s is 2n-1-s, the apex
    2n. The up column of s has the up rows of its cofaces in K, then the
    cone over s; the cone over s has the cone rows of its cofaces; the apex
    has the cones over the vertices. A column's dimension is minus its
    simplex's, so that twist runs by increasing simplex dimension. A pair
    (low, j) of this matrix is the pair (N-1-j, N-1-low) of the boundary
    matrix (de Silva, Morozov and Vejdemo-Johansson, *Dualities in
    persistent (co)homology*, 2011).
    """
    n = len(dels)
    cofaces: List[List[int]] = [[] for _ in range(n)]
    for t in range(n):  # in order of addition
        for x in facets[t]:
            cofaces[x].append(t)
    at = [0] * n  # id -> its position among the deletions: the row of the cone over it
    for k, s in enumerate(dels):
        at[s] = k
    row_of_cone = at.__getitem__
    up_row = (2 * n - 1).__sub__
    cols = [tuple(map(row_of_cone, cofaces[s])) for s in dels]
    cols += [(*map(up_row, cofaces[s]), at[s]) for s in range(n - 1, -1, -1)]
    cols.append(tuple(at[v] for v in range(n) if not dims[v]))
    col_dims = [-1 - dims[s] for s in dels]
    col_dims += [-dims[s] for s in range(n - 1, -1, -1)]
    col_dims.append(0)
    return cols, col_dims


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

    U passes the shared admission (``filtration._admitted``,
    InvalidInputError otherwise). The apex vertex id is one past the
    largest vertex id in play, so it is stable for a given input.
    """
    sw = _admitted(U)
    if not U.is_updown():
        raise NotUpDownError("extended filtration needs an up-down input")
    if not sw.standardized:
        raise NotStandardizedError("extended filtration needs K_0 = K_m = empty")
    return _extended(sw)


def _extended(sw: _Sweep) -> ExtendedFiltration:
    """``build_extended`` of the up-down form of a standardized non-repetitive
    filtration, from its sweep, whose ids run in the up-down order of addition."""
    adds = sw.simplices
    omega = 1 + max((s.vertices[-1] for s in adds), default=-1)
    events = [Simplex([omega]), *adds, *(cone(adds[j], omega) for j in reversed(sw.dels))]
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
    return _extended_from_pairs(ext, state.pairs, state.essentials)


def _extended_from_pairs(
    ext: ExtendedFiltration, pairs: Sequence[Tuple[int, int]], essentials: Tuple[int, ...]
) -> ExtendedBarcode:
    if essentials != (0,):
        raise InternalInconsistencyError(
            f"expected the apex column as the only essential, got {essentials}"
        )
    n = ext.n
    events = ext.events
    intervals = []
    for i, j in pairs:
        if i == 0:
            raise InternalInconsistencyError("apex column appears in a pair")
        intervals.append(ExtendedInterval(i, j - 1, events[i].dim, _label(i, j - 1, n)))
    return ExtendedBarcode(tuple(intervals), n, ext.omega)


def extended_barcode(U: ZigzagFiltration) -> ExtendedBarcode:
    """Two-sided (ordinary/relative/extended) barcode of an up-down filtration.

    Reads only the pairs, so it runs the sparse reduction and never builds
    the dense reduced columns of ``reduce_twist``.
    """
    ext = build_extended(U)
    sw = _monotone(ext.events)
    pairs, _, _, _ = _reduce(sw.facets, sw.dims)
    return _extended_from_pairs(ext, sorted(pairs), _essentials(pairs, len(sw.dims)))
