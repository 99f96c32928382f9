"""Mapping absolute zigzag barcodes onto relative ones, and the partial
inverse available on closed manifolds.

The forward map is surjective but not injective: closed-closed and
open-open absolute intervals each split into a [0, .] and a [., m] relative
interval, and recombining those requires extra information. On a closed
p-manifold, or pseudomanifold, the dimension-p relative intervals can be
re-paired through the strong component of the top simplex at each open end,
which recovers all of dimension p and everything except closed-closed in
dimension p-1.
"""

from __future__ import annotations

from typing import List

from .barcode import ABSOLUTE, CLOSED, OPEN, RELATIVE, Barcode, _trusted_interval
from .complexes import SimplicialComplex, _find, _refuse_non_int_p
from .errors import ContractViolationError, InternalInconsistencyError, InvalidInputError
from .errors import NotStandardizedError
from .filtration import ADD, DEL, ZigzagFiltration, _Sweep, _admitted, _event_text
from .filtration import _gc_paused, _raise_if_repetitive


def absolute_to_relative(abs_bar: Barcode) -> Barcode:
    """Relative barcode of (K, K_i) from the absolute barcode of K_i.

    Requires the barcode of a standardized non-repetitive filtration (so no
    interval touches 0 or m). End types of the emitted intervals follow the
    arrows: both ends of a split pair sit on the parent's birth/death
    arrows, so the parent's types determine them.
    """
    if abs_bar.kind != ABSOLUTE:
        raise ContractViolationError("absolute_to_relative needs an absolute barcode")
    m = abs_bar.m
    out = []
    for fields in abs_bar._fields:
        dim, b, d, bt, dt = fields
        if b < 1 or d > m - 1:
            raise NotStandardizedError(
                f"{_trusted_interval(fields)!r} touches an end of the module; input must come "
                "from a filtration standardized to empty ends"
            )
        if bt != dt:  # co, oc
            out.append((dim + 1, b, d, bt, dt))
        elif bt == CLOSED:
            out += [(dim, 0, b - 1, CLOSED, OPEN), (dim, d + 1, m, OPEN, CLOSED)]
        else:
            out += [(dim + 1, 0, d, CLOSED, OPEN), (dim + 1, b, m, OPEN, CLOSED)]
    return Barcode._of_fields(out, m, RELATIVE)


def recover_absolute_from_relative(
    rel_p: Barcode, f: ZigzagFiltration, K: SimplicialComplex, p: int
) -> Barcode:
    """Partial absolute barcode from the dimension-p relative barcode.

    An f failing the shared admission (``filtration._admitted``) or not
    filling K raises InvalidInputError. Interior intervals drop to
    dimension p-1 unchanged. Intervals touching the ends pair up one
    [0, i] with one [j, m] per strong component of K, matched through the
    component of the p-simplex added at i and the p-simplex deleted at
    j-1; disjoint pairs give closed-closed intervals of dimension p,
    overlapping ones open-open intervals of dimension p-1.
    The closed-closed part of dimension p-1 is not recoverable and is not
    emitted. Inconsistent inputs raise rather than being repaired: this
    operation consumes computed data, so mismatches mean an upstream bug.

    A p that is not an int raises InvalidInputError, after the admission,
    as in the other manifold entries.

    K is read only by the fill check: the strong components come from the
    facet ids of f's admission sweep (``_top_components``). The cyclic
    garbage collector is paused for the call, as in ``compute_zigzag``: the
    sweep and the component labels build no reference cycle.
    """
    with _gc_paused():
        sw = _admitted_filling(f, K, "recovery")
        _refuse_non_int_p(p)
        if rel_p.kind != RELATIVE:
            raise ContractViolationError("recovery needs a relative barcode")
        if rel_p.m != len(f):
            raise ContractViolationError("barcode length does not match the filtration")
        _raise_if_repetitive(sw.repetition)
        ids, vts, comps = sw.ids, sw.vts, _top_components(sw.vts, sw.dims, sw.facets, p)
        del sw  # the recovery reads only the signed ids, vertex tuples and labels
        return _recovered(rel_p, ids, vts, comps, p)


def _admitted_filling(f: ZigzagFiltration, K: SimplicialComplex, path: str) -> _Sweep:
    """The sweep of an f that passes the shared admission, is standardized
    and fills K."""
    sw = _admitted(f)
    _refuse_unfilled(sw, path, sw.index.keys() == {s.vertices for s in K.simplex_set()})
    return sw


def _refuse_unfilled(sw: _Sweep, path: str, fills: bool) -> None:
    """NotStandardizedError if the swept f is not standardized, else
    InvalidInputError unless it ``fills`` the given complex."""
    if not sw.standardized:
        raise NotStandardizedError(f"{path} needs a standardized filtration")
    if not fills:
        raise InvalidInputError("filtration does not fill the given complex")


def _top_components(vts, dims, facets, p: int):
    """The count of the strong components of a sweep's p-ids (each carries one
    dimension-p class of a closed p-pseudomanifold), and each id's label (-1
    off dimension p), by smallest vertex tuple. Each p-id joins the first
    p-id on each of its facets; below p = 1 all share the empty face, id n."""
    n = len(vts)
    tops = [j for j, q in enumerate(dims) if q == p]
    shared = facets if p > 0 else [(n,)] * n
    parent = list(range(n))
    first = [-1] * (n + 1)  # (p-1)-id -> the first p-id on it
    for t in tops:
        for x in shared[t]:
            if first[x] < 0:
                first[x] = t
                continue
            ra, rb = _find(parent, t), _find(parent, first[x])
            if vts[rb] < vts[ra]:
                ra, rb = rb, ra
            parent[rb] = ra  # each root is its component's smallest vertex tuple
    roots = sorted({_find(parent, t) for t in tops}, key=vts.__getitem__)
    number = dict(zip(roots, range(len(roots))))
    return len(roots), [number[_find(parent, j)] if q == p else -1 for j, q in enumerate(dims)]


def _recovered(rel_p: Barcode, ids, vts, comps, p: int) -> Barcode:
    """``recover_absolute_from_relative`` of a relative barcode of f's length
    and an admitted, standardized, non-repetitive f, with the GC paused.

    f is given by its sweep's signed id of each event (``_Sweep.ids``) and
    vertex tuple of each id, and ``comps`` is ``_top_components`` of that
    sweep. The barcode is read and built as field tuples, with no Interval
    checked; an interval one dimension below p = 0 raises as Interval would.
    """

    def got(j: int) -> str:
        return _event_text(ADD if j >= 0 else DEL, vts[j if j >= 0 else ~j])

    m = rel_p.m
    count, comp_of = comps
    out = []
    starts: List[List[int]] = [[] for _ in range(count)]  # death indices i of [0, i]
    ends: List[List[int]] = [[] for _ in range(count)]  # birth indices j of [j, m]
    for fields in rel_p._fields:
        dim, b, d, bt, dt = fields
        if dim != p:
            raise ContractViolationError(f"{_trusted_interval(fields)!r} is not of dimension {p}")
        if b == 0 and d == m:
            raise InternalInconsistencyError(f"{_trusted_interval(fields)!r} spans the whole "
                                             "module")
        if b == 0:
            j = ids[d]
            if j < 0 or comp_of[j] < 0:
                raise InternalInconsistencyError(f"{_trusted_interval(fields)!r} should end at "
                                                 f"the addition of a {p}-simplex, got {got(j)}")
            starts[comp_of[j]].append(d)
        elif d == m:
            j = ids[b - 1]
            if j >= 0 or comp_of[~j] < 0:
                raise InternalInconsistencyError(f"{_trusted_interval(fields)!r} should start at "
                                                 f"the deletion of a {p}-simplex, got {got(j)}")
            ends[comp_of[~j]].append(b)
        else:
            if bt == dt:
                raise InternalInconsistencyError(
                    f"interior interval {_trusted_interval(fields)!r} is not co or oc")
            if p < 1:
                raise ContractViolationError(f"negative interval dimension {p - 1}")
            out.append((p - 1, b, d, bt, dt))

    for label in range(count):
        si, ei = starts[label], ends[label]
        if len(si) != 1 or len(ei) != 1:
            raise InternalInconsistencyError(
                f"component {label} has {len(si)} start and {len(ei)} end intervals"
            )
        i, j = si[0], ei[0]
        if i < j:
            if i + 1 > j - 1:
                raise InternalInconsistencyError(
                    f"pair [0,{i}], [{j},{m}] leaves an empty closed-closed interval"
                )
            out.append((p, i + 1, j - 1, CLOSED, CLOSED))
        elif p < 1:
            raise ContractViolationError(f"negative interval dimension {p - 1}")
        else:
            out.append((p - 1, j, i, OPEN, OPEN))
    return Barcode._of_fields(out, m, ABSOLUTE)
