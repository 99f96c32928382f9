"""Standard persistence by Z2 column reduction, plus the coned filtration
that turns an up-down zigzag into a single monotone filtration.

A column is given by its rows; its pivot is its highest row. Reduction runs
by decreasing dimension with clearing (twist), and one loop,
``_reduce_dim``, reduces the columns of one dimension: a column's masks are
only ever added into columns of its own dimension. A column whose pivot no
reduced column owns yet is paired at once, with no bitmask built. Only a
column that collides is turned into an integer bitmask, one bit for each of
its rows, and other columns' masks are XORed into it. Every mask is held
from its lowest row up (the bit of that row is its shift): a mask is as
wide as its column's span of rows, not as its pivot's position. The loop
keeps the reduced mask of each column it reduced, shifted right by its
lowest set bit; a column paired at once has its mask built from its rows
each time it is added, and kept from its second use on. The pairing
produced by reduction is unique, independent of the reduction strategy.

``reduce`` (also named ``reduce_twist``) admits a monotone filtration
through the shared admission (``filtration._admitted``) and reduces its
boundary matrix (``_reduce``), with the sweep's ids as columns and their
facet ids as rows, one bit number per row over the whole filtration, so
that a kept mask is a reduced column as ``ReductionState`` holds it. The
pipeline (``pipeline._solve``, which ``pipeline.extended_barcode`` also
runs) pairs dimension 0 of the coned filtration by union-find and runs the
same loop on the coboundary matrix of the others instead, one dimension at
a time, building only the columns twist does not clear: the same pairs,
with far fewer column additions where the coned columns of high dimension
collide (1,666,206 against 179,514 on a bumpy torus with a Rips layer).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .complexes import Simplex, cone
from .errors import InternalInconsistencyError, InvalidInputError, NotStandardizedError, NotUpDownError
from .filtration import ZigzagFiltration, _additions, _admitted, _Sweep

ORD = "Ord"
REL = "Rel"
EXT = "Ext"


class ReductionState(NamedTuple):
    order: Tuple[Simplex, ...]
    pairs: Tuple[Tuple[int, int], ...]  # (birth column, death column)
    essentials: Tuple[int, ...]
    columns: Tuple[int, ...]  # reduced columns as bitmasks over all rows; 0 if cleared


def _mask(bits: Iterable[int], base: int = 0) -> int:
    """Bitmask with bit b - base set for each b in bits."""
    col = 0
    for b in bits:
        col |= 1 << (b - base)
    return col


STATS = ("columns", "cleared_columns", "pairs", "pivots_without_addition",
         "column_additions", "max_column_additions", "masks_kept", "union_find_pairs")


def _reduce_dim(rows, owner, stats: Dict[str, int]) -> Tuple[List[Optional[int]], List[int]]:
    """Reduce the columns of one dimension in order: the one loop of every
    reduction here. rows[j] is column j's rows as bit numbers, which grow
    with rows (None: cleared, so skipped). owner[b], the column whose pivot
    is bit b (-1: none), is filled in: its pivots are the columns of the
    dimension below that twist clears. Adds the counters to stats; returns
    the kept masks (column -> mask, None where none was kept) and their
    shifts: kept mask j is column j's reduced mask shifted right by its
    lowest set bit, shifts[j], so it is as wide as the column's span of rows.
    """
    n = len(rows)
    masks: List[Optional[int]] = [None] * n
    shifts = [0] * n
    used = bytearray(n)  # a column paired at once that was added once already
    n_cleared = paired = at_once = additions = most = 0
    for j, rs in enumerate(rows):
        if rs is None:
            n_cleared += 1
            continue
        if not rs:
            continue
        low = max(rs)
        k = owner[low]
        if k < 0:
            at_once += 1
        else:
            base = min(rs)  # col holds bits from base up, as wide as its span of rows
            col = _mask(rs, base)
            added = 0
            while True:
                mk = masks[k]
                if mk is None:
                    rk = rows[k]
                    shift = min(rk)
                    if used[k]:
                        mk = masks[k] = _mask(rk, shift)
                        shifts[k] = shift
                    else:
                        # added once so far, so not kept: built from col's base
                        # where it can be, as a shift costs about three XORs
                        used[k] = 1
                        if shift > base:
                            shift = base
                        mk = _mask(rk, shift)
                else:
                    shift = shifts[k]
                if shift < base:  # mk reaches below col: rebase col
                    col <<= base - shift
                    base = shift
                col ^= mk << (shift - base) if shift > base else mk
                added += 1
                if not col:
                    break
                low = base + col.bit_length() - 1
                k = owner[low]
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
        owner[low] = j
        paired += 1
    for key, c in zip(STATS, (n, n_cleared, paired, at_once, additions, 0, n - masks.count(None))):
        stats[key] += c  # sums over the dimensions, but for the maximum:
    stats["max_column_additions"] = max(stats["max_column_additions"], most)
    return masks, shifts


def _reduce(
    rows: Sequence[Sequence[int]], dims: Sequence[int]
) -> Tuple[List[Tuple[int, int]], List[Optional[int]], List[int], Dict[str, int]]:
    """Reduce the columns given by their rows, each row a column of the
    dimension one below the column's own, one ``_reduce_dim`` per dimension.

    Returns the (birth, death) pairs, the kept masks and their shifts by
    column (None and 0 where none was kept; ``masks[j] << shifts[j]`` is the
    reduced column, its bit i row i) and the counters.
    """
    n = len(rows)
    members: Dict[int, List[int]] = {}
    for j, q in enumerate(dims):
        members.setdefault(q, []).append(j)
    pairs: List[Tuple[int, int]] = []
    masks: List[Optional[int]] = [None] * n
    shifts = [0] * n
    stats = dict.fromkeys(STATS, 0)
    owner = array("l", [-1]) * n  # pivot row -> its column's position in its dimension
    for q in sorted(members, reverse=True):
        ids = members[q]
        cols = [None if owner[j] >= 0 else rows[j] for j in ids]  # twist clears a pivot's column
        kept, kept_shifts = _reduce_dim(cols, owner, stats)  # sets owner on rows of dimension q - 1
        pairs += ((b, ids[owner[b]]) for b in members.get(q - 1, ()) if owner[b] >= 0)
        for j, mk, shift in zip(ids, kept, kept_shifts):  # None and 0 where none was kept
            masks[j], shifts[j] = mk, shift
    return pairs, masks, shifts, stats


def _essentials(pairs: Iterable[Tuple[int, int]], n: int) -> Tuple[int, ...]:
    used = {c for pair in pairs for c in pair}
    return tuple(j for j in range(n) if j not in used)


def reduce(f: Union[ZigzagFiltration, Sequence[Simplex]]) -> ReductionState:
    """Reduction of the boundary matrix of a monotone filtration, by
    decreasing dimension with clearing.

    Pair (i, j) means the simplex added at i creates a class that the
    simplex added at j kills; unpaired columns are the essential classes.
    The pairing is that of left-to-right reduction, which is unique
    whatever the column order.
    """
    if not isinstance(f, ZigzagFiltration):
        f = _additions(f)
    sw = _admitted(f)  # ids are columns, facet ids rows
    if f.initial or sw.dels:
        raise InvalidInputError("reduction expects additions only, from the empty complex")
    rows, n = sw.facets, len(sw.dims)
    pairs, masks, shifts, _ = _reduce(rows, sw.dims)
    cols = [0] * n
    for _, j in pairs:  # every other column is cleared or reduces to zero
        mk = masks[j]
        cols[j] = _mask(rows[j]) if mk is None else mk << shifts[j]
    essentials = _essentials(pairs, n)
    return ReductionState(tuple(f._simplices), tuple(sorted(pairs)), essentials, tuple(cols))


reduce_twist = reduce


class ExtendedFiltration(NamedTuple):
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
    return _extended(_updown_sweep(U), U._simplices)


def _updown_sweep(U: ZigzagFiltration) -> _Sweep:
    """The admission sweep of U, which must be up-down and standardized."""
    sw = _admitted(U)
    if not U.is_updown():
        raise NotUpDownError("extended filtration needs an up-down input")
    if not sw.standardized:
        raise NotStandardizedError("extended filtration needs K_0 = K_m = empty")
    return sw


def _extended(sw: _Sweep, adds: Sequence[Simplex]) -> ExtendedFiltration:
    """``build_extended`` of the up-down form of a standardized non-repetitive
    filtration, from its sweep, whose ids run in the up-down order of
    addition, and its Simplex of each id (``adds``)."""
    omega = 1 + max((vs[-1] for vs in sw.vts), default=-1)
    events = [Simplex([omega]), *adds, *(cone(adds[j], omega) for j in reversed(sw.dels))]
    return ExtendedFiltration(tuple(events), omega, len(adds))


class ExtendedInterval(NamedTuple):
    b: int
    d: int
    dim: int
    label: str  # ORD, REL, or EXT

    def __repr__(self) -> str:
        return f"{self.label}[{self.b},{self.d}]_{self.dim}"


class ExtendedBarcode(NamedTuple):
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

