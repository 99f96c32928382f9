"""Zigzag barcodes of non-repetitive filtrations via standard persistence.

The route: standardize, take the up-down form, reduce its coned monotone
filtration, then map every interval back through two tables (two-sided
sequence -> up-down, up-down -> input order) and finally into input
coordinates. Only the matrix reduction does non-trivial work; both
remappings are constant time per interval.

``compute_zigzag`` runs it on dense simplex ids from one sweep over the
events (the shared admission, ``filtration._admitted``, on the ids of the
filtration's record), padded in place (``filtration._pad``) if
the input does not start and end empty, and dropped once the lists the
solve reads are taken from it.
``_solve`` reads only the per-id dimensions and facet ids and the order
of deletions: it pairs dimension 0 of the coned filtration by union-find
(``_vertex_pairs``), reduces the coboundary matrix of the others one
dimension at a time, building only the columns twist does not clear, and
writes each pair, in the boundary matrix's columns (the pairs are the same,
by the duality of persistent homology and cohomology), into one death table:
birth column -> death column. ``_remap_pairs`` walks that table in birth
order to the interval field tuples, and ``Barcode._of_fields`` sorts that
list in place and keeps it. ``extended_barcode`` reads the same table,
from ``_solve`` on an up-down filtration's own sweep, into the two-sided
barcode.
``_copies`` records a zigzag of cells of any dimension that may bring a
cell back as the same dense-id record, one fresh copy per entry of a cell:
``manifold.zero_dim_zigzag`` walks a graph zigzag into it, and
``manifold.relative_top_barcode`` the dual zigzag of a repetitive
filtration on the sweep's ids; both records go through ``_solve`` and
``_remap_pairs``. (The dual zigzag of a non-repetitive filtration needs no
record: ``manifold._top_fields`` pairs it with two union-finds.) The
public steps (``to_updown``,
``build_extended``, ``reduce_twist``, ``ext_to_updown``, ``updown_to_f``)
reduce the boundary matrix and are the specification it is tested
against; those that read a filtration admit it as it does.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Dict, Iterator, List, Tuple

from .barcode import ABSOLUTE, CLOSED, OPEN, Barcode, Interval, _trusted_interval, classify_ends
from .complexes import _find
from .errors import ContractViolationError, InternalInconsistencyError
from .filtration import (
    EventIndexMap,
    StandardizationRecord,
    ZigzagFiltration,
    _Frozen,
    _admitted,
    _gc_paused,
    _pad,
    _raise_if_repetitive,
)
from .reduction import (
    EXT,
    ORD,
    REL,
    STATS,
    ExtendedBarcode,
    ExtendedInterval,
    _essentials,
    _extended,
    _extended_from_pairs,
    _reduce_dim,
    _updown_sweep,
)


def ext_to_updown(iv: ExtendedInterval, n: int) -> Interval:
    """Map one labeled interval of the two-sided sequence into the up-down barcode."""
    if iv.label == ORD:
        if iv.d >= n:
            raise ContractViolationError(f"{iv!r} labeled {ORD} but ends at {iv.d} >= n")
        return Interval(iv.dim, iv.b, iv.d, CLOSED, OPEN)
    if iv.label == REL:
        if iv.b <= n:
            raise ContractViolationError(f"{iv!r} labeled {REL} but starts at {iv.b} <= n")
        if iv.dim < 1:
            raise InternalInconsistencyError(f"{iv!r}: second-half classes have dimension >= 1")
        return Interval(iv.dim - 1, 3 * n - iv.d, 3 * n - iv.b, OPEN, CLOSED)
    if iv.label == EXT:
        if not iv.b <= n <= iv.d:
            raise ContractViolationError(f"{iv!r} labeled {EXT} but does not span index n")
        return Interval(iv.dim, iv.b, 3 * n - iv.d - 1, CLOSED, CLOSED)
    raise ContractViolationError(f"unknown label {iv.label!r}")


def updown_to_f(iv: Interval, id_map: EventIndexMap, U: ZigzagFiltration) -> Interval:
    """Map one up-down interval into the original filtration's barcode.

    The creator (event b-1) and destroyer (event d) keep their identities;
    only their positions move, and for closed-closed intervals whose
    creator lands after its destroyer the two swap roles, dropping the
    dimension by one.
    """
    ids, simplices = U._ids[0], U._simplices
    m, p = len(U), len(U.initial)
    if not 1 <= iv.b <= iv.d <= m - 1:
        raise ContractViolationError(f"{iv!r} out of interior range for length {m}")
    code = iv.type_code
    c, d = ids[p + iv.b - 1], ids[p + iv.d]
    creator, destroyer = simplices[c if c >= 0 else ~c], simplices[d if d >= 0 else ~d]
    if code == "co":
        if c < 0 or d < 0:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        return Interval(iv.dim, id_map.add_index[creator] + 1, id_map.add_index[destroyer],
                        CLOSED, OPEN)
    if code == "oc":
        if c >= 0 or d >= 0:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        return Interval(iv.dim, id_map.del_index[creator] + 1, id_map.del_index[destroyer],
                        OPEN, CLOSED)
    if code == "cc":
        if c < 0 or d >= 0:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        at = id_map.add_index[creator]
        dt = id_map.del_index[destroyer]
        if at == dt:
            raise InternalInconsistencyError("an addition and a deletion cannot share an index")
        if at < dt:
            return Interval(iv.dim, at + 1, dt, CLOSED, CLOSED)
        if iv.dim < 1:
            raise InternalInconsistencyError(
                f"{iv!r}: creator after destroyer needs dimension >= 1"
            )
        return Interval(iv.dim - 1, dt + 1, at, OPEN, OPEN)
    raise ContractViolationError(f"{iv!r}: open-open intervals cannot occur up-down")


def check_diamond(original: Barcode, switched: Barcode, j: int) -> bool:
    """Do two barcodes correspond across one switch at positions (j-1, j)?

    `switched` belongs to the add-then-delete form and `original` to the
    delete-then-add form of the same filtration. Intervals map by shifting
    ends touching index j, and the singleton [j, j] drops one dimension;
    end types are not compared (they are determined by each filtration's
    own arrows).
    """
    mapped: Counter = Counter()
    for (dim, b, d), c in switched.triples().items():
        if b == j and d == j:
            key = (dim - 1, j, j)
        elif d == j - 1 and b <= j - 1:
            key = (dim, b, j)
        elif d == j and b <= j - 1:
            key = (dim, b, j - 1)
        elif b == j and d >= j + 1:
            key = (dim, j + 1, d)
        elif b == j + 1 and d >= j + 1:
            key = (dim, j, d)
        else:
            key = (dim, b, d)
        mapped[key] += c
    return mapped == original.triples()


class PipelineResult(_Frozen):
    """``barcode`` in input coordinates, ``standardized`` in those of the
    padded filtration, the ``synthetic`` intervals living entirely in the
    padding, the padding ``record``, the phase ``timings``, the reduction
    counters ``stats`` (columns, cleared, additions, ...) and the process's
    ``peak_rss_mb`` after each phase; no tuple, so it can be weakly referenced."""

    _fields = ("barcode", "standardized", "synthetic", "record", "timings", "stats", "peak_rss_mb")
    __slots__ = _fields + ("__weakref__",)

    def __init__(self, barcode, standardized, synthetic, record, timings, stats, peak_rss_mb):
        values = barcode, standardized, synthetic, record, timings, stats, peak_rss_mb
        for k, v in zip(self._fields, values):
            object.__setattr__(self, k, v)


_STATUS = "/proc/self/status"


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB: VmHWM from
    /proc/self/status, as on Linux ru_maxrss carries the peak of the process
    that started this one across exec. Falls back to ru_maxrss where that
    file does not exist: bytes on macOS, KiB on other systems."""
    try:
        with open(_STATUS, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource  # imported here: Windows has no resource module
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _restrict_to_input(
    std: Barcode, record: StandardizationRecord, f: ZigzagFiltration
) -> Tuple[Barcode, Tuple[Interval, ...]]:
    if record.prefix_length == 0 and record.suffix_length == 0:
        return std, ()
    directions = f.directions()
    lo, hi = record.original_range
    kept = []
    synthetic = []  # sorted, as std's fields are
    for fields in std._fields:
        q, b, d, _, _ = fields
        if d < lo or b > hi:
            synthetic.append(_trusted_interval(fields))
            continue
        b = max(b - lo, 0)
        d = min(d - lo, record.original_length)
        kept.append((q, b, d, *classify_ends(b, d, directions)))
    return Barcode._of_fields(kept, record.original_length, ABSOLUTE), tuple(synthetic)


def _vertex_pairs(facets, dims, dels) -> Iterator[Tuple[int, int]]:
    """Dimension 0's pairs in ``_solve``'s columns, by the elder rule: a union-find
    walks the coned 1-skeleton in column order (up edges by id, then the cones
    over vertices to the apex by reverse deletion), each root its set's smallest
    column, and a merge pairs the younger root with the edge's column. ``_solve``
    is its one caller; it writes these pairs and clears their death columns
    from dimension 1."""
    n = len(dels)
    parent = list(range(n + 1))  # the apex and the up columns
    for s, q in enumerate(dims):
        if q == 1:
            a, b = facets[s]
            ra, rb = _find(parent, a + 1), _find(parent, b + 1)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
                yield rb, s + 1
    for k in range(n - 1, -1, -1):  # the cone columns in order
        s = dels[k]
        if not dims[s]:
            r = _find(parent, s + 1)
            if r:
                parent[r] = 0
                yield r, 2 * n - k


def _solve(facets, dims, dels) -> Tuple[array, Dict[str, int]]:
    """Death table of the boundary-matrix pairs of the coned filtration of a
    valid standardized non-repetitive dense-id record (birth column -> death
    column, -1 for none), and the reduction's counters.

    Columns: the apex (0), the up column of id s (s + 1), the cone over the
    k-th deleted id (2n - k). Dimension 0 is paired by union-find, and its
    death columns are cleared in dimension 1. Twist reduces the coboundaries
    of the others, rows and columns reversed, which have the same pairs (de
    Silva, Morozov and Vejdemo-Johansson, 2011): the up column of s has the
    up rows of its cofaces and the cone over s, the cone over s the cones
    over its cofaces. It runs by increasing simplex dimension p from 1, whose
    columns come in the order: cones over (p-1)-ids by deletion, up p-ids by
    decreasing id. Dimension p builds only the columns twist did not clear,
    from the facet ids of the p- and (p+1)-ids, and drops its rows and masks
    before the next: masks are only added within a dimension. Every pair is
    written to the table as it is found.
    """
    n = len(dels)
    n2 = 2 * n
    count = Counter(dims)
    top = max(count, default=-1) + 1  # the coned filtration's top dimension
    by_id = sorted(range(n), key=dims.__getitem__)
    by_del = list(map(dims.__getitem__, dels))
    by_del = sorted(range(n), key=by_del.__getitem__)  # deletion positions by dimension
    ids = []  # q -> the q-ids, ascending
    cones = []  # q -> the columns of the cones over q-ids, in order of deletion
    cone_at = array("l", [0]) * n  # id -> the position of the cone over it in its dimension
    up_at = array("l", [0]) * n  # id -> the position of its up column in its dimension
    start = 0
    for q in range(top + 2):
        end = start + count[q]
        ids.append(array("l", by_id[start:end]))
        cones.append(array("l", map(n2.__sub__, by_del[start:end])))
        for i, k in enumerate(by_del[start:end]):
            cone_at[dels[k]] = i
        last = count[q - 1] + count[q] - 1  # after the cones over (q-1)-ids
        for i, s in enumerate(ids[q]):
            up_at[s] = last - i
        start = end
    del by_id, by_del
    death = array("l", [-1]) * (n2 + 1)  # birth column -> death column
    stats = dict.fromkeys(STATS, 0)
    cols = cones[0] + array("l", map((1).__add__, reversed(ids[1])))  # dimension 1's columns
    owner = array("l", [-1]) * len(cols)  # the pivots of the dimension below: cleared here
    for b, d in _vertex_pairs(facets, dims, dels):
        death[b] = d
        owner[up_at[d - 1] if d <= n else cone_at[dels[n2 - d]]] = b
        stats["union_find_pairs"] += 1
    for p in range(1, top + 1):
        rows = [None if k >= 0 else [] for k in owner]
        for t in ids[p]:  # the cone over t: a row of t's up column and of its facets' cones
            b = cone_at[t]
            r = rows[up_at[t]]
            if r is not None:
                r.append(b)
            for x in facets[t]:
                r = rows[cone_at[x]]
                if r is not None:
                    r.append(b)
        for t in ids[p + 1]:  # the up column of t: a row of its facets' up columns
            b = up_at[t]
            for x in facets[t]:
                r = rows[up_at[x]]
                if r is not None:
                    r.append(b)
        above = cones[p] + array("l", map((1).__add__, reversed(ids[p + 1])))
        owner = array("l", [-1]) * len(above)
        _reduce_dim(rows, owner, stats)
        del rows
        for b, j in enumerate(owner):
            if j >= 0:
                death[cols[j]] = above[b]
        cols = above
    return death, stats


def extended_barcode(U: ZigzagFiltration) -> ExtendedBarcode:
    """Two-sided (ordinary/relative/extended) barcode of an up-down filtration,
    checked as ``build_extended`` checks it. U's sweep ids run in order of
    addition, so ``_solve`` on that sweep pairs the coned filtration's columns."""
    sw = _updown_sweep(U)
    death, _ = _solve(sw.facets, sw.dims, sw.dels)
    pairs = [(i, j) for i, j in enumerate(death) if j >= 0]
    return _extended_from_pairs(_extended(sw, U._simplices), pairs, _essentials(pairs, len(death)))


def _copies(steps, ends):
    """Dense-id record of a valid zigzag of cells that starts and ends empty;
    nothing is checked here.

    The zigzag may bring a cell back. Giving every (re)entry of a cell a
    fresh copy makes the copies a non-repetitive filtration with the same
    module (the copy trick of Dey & Hou, *Fast Computation of Zigzag
    Persistence*, ESA 2022), which ``_solve`` pairs, with no simplex, event
    or filtration built for them. ``steps`` gives (enters, cell, arrow) per
    event, ``ends`` per cell its facet cells (() for a vertex), or None for
    a cell whose events are identity arrows, which are skipped. Copies get
    ids in order of addition; a copy's facets are the present copies of its
    cell's ends, its dimension one less than their number (0 for none).
    Returns per copy its facet ids and dimension, the copies in order of
    deletion, per copy the positions of its addition and deletion, and per
    position its arrow.
    """
    dims: List[int] = []
    facets: List[Tuple[int, ...]] = []
    add_at: List[int] = []
    del_at: List[int] = []
    dels: List[int] = []
    arrow_of: List[int] = []
    copy = [-1] * len(ends)  # cell -> the id of its present copy
    for enters, j, k in steps:
        e = ends[j]
        if e is None:
            continue
        if enters:
            copy[j] = len(dims)
            dims.append(len(e) - 1 if e else 0)
            facets.append(tuple([copy[x] for x in e]))
            add_at.append(len(arrow_of))
            del_at.append(-1)
        else:
            c = copy[j]
            del_at[c] = len(arrow_of)
            dels.append(c)
        arrow_of.append(k)
    return facets, dims, dels, add_at, del_at, arrow_of


def _remap_pairs(death, dims, dels, add_at, del_at) -> List[Tuple[int, int, int, str, str]]:
    """Fused version of extended_from_reduction + ext_to_updown + updown_to_f.

    One walk over the death table ``_solve`` returns (birth column -> death
    column, -1 for none), in birth order, straight to the field tuples (dim,
    b, d, birth_type, death_type) of input-order intervals; add_at and
    del_at give each id's event index. Column c <= n is the up column of id
    c - 1; column c > n is the cone over dels[2n - c].
    Must stay interval-for-interval equal to the composed public operations
    (a property test holds it to that).
    """
    n = len(dels)
    n2 = 2 * n
    if len(death) - death.count(-1) != n:
        used = {c for i, j in enumerate(death) if j >= 0 for c in (i, j)}
        essentials = tuple(c for c in range(n2 + 1) if c not in used)
        raise InternalInconsistencyError(
            f"expected the apex column as the only essential, got {essentials}")
    if death[0] >= 0:
        raise InternalInconsistencyError("apex column appears in a pair")
    out = []
    # birth-column order leaves the intervals nearly sorted, which makes sorting them cheap
    for i, j in enumerate(death):
        if j < 0:
            continue
        if j <= n:  # both columns in the up phase
            creator = i - 1
            iv = (dims[creator], add_at[creator] + 1, add_at[j - 1], CLOSED, OPEN)
        elif i > n:  # both columns in the coned phase
            creator = dels[n2 - j]  # base of the death column, deleted first
            destroyer = dels[n2 - i]  # base of the birth column
            iv = (dims[destroyer], del_at[creator] + 1, del_at[destroyer], OPEN, CLOSED)
        else:  # spans the middle: born in the up phase, killed by a cone
            creator = i - 1
            at = add_at[creator]
            dt = del_at[dels[n2 - j]]
            if at == dt:
                raise InternalInconsistencyError(
                    "an addition and a deletion cannot share an index"
                )
            if at < dt:
                iv = (dims[creator], at + 1, dt, CLOSED, CLOSED)
            else:
                if dims[creator] < 1:
                    raise InternalInconsistencyError(
                        "creator after destroyer needs dimension >= 1"
                    )
                iv = (dims[creator] - 1, dt + 1, at, OPEN, OPEN)
        out.append(iv)
    return out


def compute_zigzag(f: ZigzagFiltration) -> PipelineResult:
    """Full pipeline with per-phase timings and the reduction's counters.

    Phases: ``validate`` (the shared admission ``filtration._admitted``,
    which raises InvalidInputError on an invalid f, then the repetition
    check), ``convert`` (``_pad``: the deletions of K_m appended to the
    sweep; near zero on a standardized input),
    ``reduce`` (``_solve``: the coned filtration paired by union-find in
    dimension 0, its sparse coboundary columns reduced one dimension at a
    time above that), ``remap`` (the death table to the sorted intervals,
    then restriction to the input's index range). ``stats`` holds the
    reduction's counters; ``peak_rss_mb`` the process's peak RSS read
    after each phase.

    The cyclic garbage collector is paused for the call (``_gc_paused``, a
    process-global switch put back as it was on return or error). Nothing
    built here forms a reference cycle, so refcounting frees it all, and no
    collection walks the caller's parsed input while the columns are built.
    """
    with _gc_paused():
        t0 = time.perf_counter()
        sw = _admitted(f)
        _raise_if_repetitive(sw.repetition)
        t1 = time.perf_counter()
        peaks = [_peak_rss_mb()]
        record = _pad(sw, f)
        facets, dims, dels, add_at, del_at = sw.facets, sw.dims, sw.dels, sw.add_at, sw.del_at
        del sw  # with it go its vertex-tuple index and per-event ids
        t2 = time.perf_counter()
        peaks.append(_peak_rss_mb())
        death, stats = _solve(facets, dims, dels)
        del facets  # the remap reads only the other lists
        t3 = time.perf_counter()
        peaks.append(_peak_rss_mb())
        # a pair (i, j) has i < j, so every interval has 1 <= b <= d <= m and dim >= 0,
        # where m, the padded length, is twice the deletions: each id comes and goes once
        fields = _remap_pairs(death, dims, dels, add_at, del_at)
        del death
        standardized = Barcode._of_fields(fields, 2 * len(dels), ABSOLUTE)
        barcode, synthetic = _restrict_to_input(standardized, record, f)
        t4 = time.perf_counter()
        peaks.append(_peak_rss_mb())
        timings = {"validate": t1 - t0, "convert": t2 - t1, "reduce": t3 - t2, "remap": t4 - t3}
        return PipelineResult(barcode, standardized, synthetic, record, timings, stats,
                              dict(zip(timings, peaks)))


def zigzag_barcode(f: ZigzagFiltration) -> Barcode:
    """Absolute zigzag barcode of a valid non-repetitive filtration."""
    return compute_zigzag(f).barcode
