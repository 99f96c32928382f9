"""Zigzag barcodes of non-repetitive filtrations via standard persistence.

The route: standardize, take the up-down form, reduce its coned monotone
filtration, then map every interval back through two tables (two-sided
sequence -> up-down, up-down -> input order) and finally into input
coordinates. Only the matrix reduction does non-trivial work; both
remappings are constant time per interval.

``compute_zigzag`` runs it on dense simplex ids from one sweep over the
events (the shared admission, ``filtration._admitted``), padded in place
(``filtration._pad``) if the input does not start and end empty.
``_solve`` reads only the per-id dimensions and facet ids and the order
of deletions: it reduces the coboundary matrix of the coned filtration
and maps each pair back to the boundary matrix's (the pairs are the same,
by the duality of persistent homology and cohomology).
``manifold.zero_dim_zigzag`` fills the same dense-id record as it walks a
graph zigzag, gets the same pairs from matrix-free passes
(``manifold._copy_pairs``; ``_solve`` is their reference in the tests)
and shares ``_remap_pairs``. The public steps (``to_updown``,
``build_extended``, ``reduce_twist``, ``ext_to_updown``, ``updown_to_f``)
reduce the boundary matrix and are the specification it is tested
against; those that read a filtration admit it as it does.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .barcode import ABSOLUTE, CLOSED, OPEN, Barcode, Interval, classify_ends
from .errors import ContractViolationError, InternalInconsistencyError
from .filtration import (
    ADD,
    DEL,
    EventIndexMap,
    StandardizationRecord,
    ZigzagFiltration,
    _admitted,
    _gc_paused,
    _pad,
    _raise_if_repetitive,
)
from .reduction import (
    EXT,
    ORD,
    REL,
    ExtendedInterval,
    _coned_coboundaries,
    _reduce,
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
    events = U.events
    m = len(events)
    if not 1 <= iv.b <= iv.d <= m - 1:
        raise ContractViolationError(f"{iv!r} out of interior range for length {m}")
    code = iv.type_code
    creator = events[iv.b - 1]
    destroyer = events[iv.d]
    if code == "co":
        if creator.direction != ADD or destroyer.direction != ADD:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        b = id_map.add_index[creator.simplex] + 1
        d = id_map.add_index[destroyer.simplex]
        return Interval(iv.dim, b, d, CLOSED, OPEN)
    if code == "oc":
        if creator.direction != DEL or destroyer.direction != DEL:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        b = id_map.del_index[creator.simplex] + 1
        d = id_map.del_index[destroyer.simplex]
        return Interval(iv.dim, b, d, OPEN, CLOSED)
    if code == "cc":
        if creator.direction != ADD or destroyer.direction != DEL:
            raise ContractViolationError(f"{iv!r}: end types inconsistent with arrows")
        at = id_map.add_index[creator.simplex]
        dt = id_map.del_index[destroyer.simplex]
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


@dataclass(frozen=True)
class PipelineResult:
    barcode: Barcode  # input coordinates
    standardized: Barcode  # coordinates of the padded filtration
    synthetic: Tuple[Interval, ...]  # intervals living entirely in the padding
    record: StandardizationRecord
    timings: Dict[str, float]
    stats: Dict[str, int]  # reduction counters: columns, cleared, additions, ...


def _restrict_to_input(
    std: Barcode, record: StandardizationRecord, f: ZigzagFiltration
) -> Tuple[Barcode, Tuple[Interval, ...]]:
    if record.prefix_length == 0 and record.suffix_length == 0:
        return std, ()
    directions = f.directions()
    lo, hi = record.original_range
    kept: Counter = Counter()
    synthetic = []
    for iv, c in std.counts().items():
        if iv.d < lo or iv.b > hi:
            synthetic.extend([iv] * c)
            continue
        b = max(iv.b - lo, 0)
        d = min(iv.d - lo, record.original_length)
        bt, dt = classify_ends(b, d, directions)
        kept[Interval(iv.dim, b, d, bt, dt)] += c
    return Barcode(kept, record.original_length, ABSOLUTE), tuple(sorted(synthetic))


def _solve(facets, dims, dels) -> Tuple[List[Tuple[int, int]], Dict[str, int]]:
    """Boundary-matrix pairs of the coned filtration of a valid standardized
    non-repetitive dense-id record, from its reduced coboundary matrix, and
    the reduction's counters."""
    cols, col_dims = _coned_coboundaries(facets, dims, dels)
    pairs, _, _, stats = _reduce(cols, col_dims)
    del cols, col_dims
    top = 2 * len(dels)  # N - 1: coboundary pairs back to boundary pairs
    # in place: a second list, with the first freed on return, measured about
    # 8% slower end to end on a 200k-event torus
    for k, (low, j) in enumerate(pairs):
        pairs[k] = (top - j, top - low)
    return pairs, stats


def _remap_pairs(pairs, dims, dels, add_at, del_at) -> List[Tuple[int, int, int, str, str]]:
    """Fused version of extended_from_reduction + ext_to_updown + updown_to_f.

    One pass over the pairs ``_solve`` returns straight to the field tuples
    (dim, b, d, birth_type, death_type) of input-order intervals; add_at and
    del_at give each id's event index. Column c <= n is the up column of id
    c - 1; column c > n is the cone over dels[2n - c].
    Must stay interval-for-interval equal to the composed public operations
    (a property test holds it to that).
    """
    n = len(dels)
    n2 = 2 * n
    if len(pairs) != n:
        used = {c for pair in pairs for c in pair}
        essentials = tuple(c for c in range(n2 + 1) if c not in used)
        raise InternalInconsistencyError(
            f"expected the apex column as the only essential, got {essentials}"
        )
    out = []
    # birth-column order leaves the intervals nearly sorted, which makes formatting cheap
    for i, j in sorted(pairs):
        if i == 0:
            raise InternalInconsistencyError("apex column appears in a pair")
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
    ``reduce`` (``_solve``: sparse coboundary columns of the coned
    filtration, their reduction, and the pairs mapped back), ``remap``
    (pairs to intervals in input order, then restriction to the input's
    index range). The counters in ``stats`` are those of the coboundary
    reduction.

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
        record = _pad(sw, f)
        t2 = time.perf_counter()
        pairs, stats = _solve(sw.facets, sw.dims, sw.dels)
        t3 = time.perf_counter()
        # a pair (i, j) has i < j, so every interval has 1 <= b <= d <= m and dim >= 0,
        # where m, the padded length, is twice the deletions: each id comes and goes once
        fields = _remap_pairs(pairs, sw.dims, sw.dels, sw.add_at, sw.del_at)
        standardized = Barcode._of_fields(fields, 2 * len(sw.dels), ABSOLUTE)
        barcode, synthetic = _restrict_to_input(standardized, record, f)
        t4 = time.perf_counter()
        timings = {"validate": t1 - t0, "convert": t2 - t1, "reduce": t3 - t2, "remap": t4 - t3}
        return PipelineResult(barcode, standardized, synthetic, record, timings, stats)


def zigzag_barcode(f: ZigzagFiltration) -> Barcode:
    """Absolute zigzag barcode of a valid non-repetitive filtration."""
    return compute_zigzag(f).barcode
