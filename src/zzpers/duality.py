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

from collections import Counter
from itertools import combinations
from typing import Dict, List, Optional

from .barcode import ABSOLUTE, CLOSED, OPEN, RELATIVE, Barcode, Interval
from .complexes import ComponentLabels, SimplicialComplex, _label_components
from .errors import ContractViolationError, InternalInconsistencyError, InvalidInputError
from .errors import NotStandardizedError
from .filtration import ADD, DEL, ZigzagFiltration, _admitted, _gc_paused, _raise_if_repetitive


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
    out: Counter = Counter()
    for iv, c in abs_bar.counts().items():
        if iv.b < 1 or iv.d > m - 1:
            raise NotStandardizedError(
                f"{iv!r} touches an end of the module; input must come from "
                "a filtration standardized to empty ends"
            )
        code = iv.type_code
        if code == "co":
            out[Interval(iv.dim + 1, iv.b, iv.d, CLOSED, OPEN)] += c
        elif code == "oc":
            out[Interval(iv.dim + 1, iv.b, iv.d, OPEN, CLOSED)] += c
        elif code == "cc":
            out[Interval(iv.dim, 0, iv.b - 1, CLOSED, OPEN)] += c
            out[Interval(iv.dim, iv.d + 1, m, OPEN, CLOSED)] += c
        else:  # oo
            out[Interval(iv.dim + 1, 0, iv.d, CLOSED, OPEN)] += c
            out[Interval(iv.dim + 1, iv.b, m, OPEN, CLOSED)] += c
    return Barcode(out, m, RELATIVE)


def _strong_components(K: SimplicialComplex, p: int) -> ComponentLabels:
    """Label the p-simplices of K, keyed by vertex tuple, by strong component:
    p-simplices joined through shared (p-1)-faces. Each strong component of a
    closed p-pseudomanifold carries one dimension-p class."""
    top = [s.vertices for s in K.of_dim(p)]
    first: Dict[tuple, tuple] = {}  # (p-1)-face -> the first p-simplex on it
    return _label_components(
        top, [(first.setdefault(r, vs), vs) for vs in top for r in combinations(vs, p)]
    )


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

    The cyclic garbage collector is paused for the call, as in
    ``compute_zigzag``: the sweep and the component labels build no
    reference cycle.
    """
    with _gc_paused():
        repetition = _admitted_filling(f, K, "recovery")
        if rel_p.kind != RELATIVE:
            raise ContractViolationError("recovery needs a relative barcode")
        if rel_p.m != len(f):
            raise ContractViolationError("barcode length does not match the filtration")
        _raise_if_repetitive(repetition)
        return _recovered(rel_p, f, K, p)


def _admitted_filling(f: ZigzagFiltration, K: SimplicialComplex, path: str) -> Optional[tuple]:
    """The first repetition of an f that passes the shared admission, is
    standardized and fills K; its sweep is freed on return."""
    sw = _admitted(f)
    if not sw.standardized:
        raise NotStandardizedError(f"{path} needs a standardized filtration")
    if set(sw.simplices) != K.simplex_set():
        raise InvalidInputError("filtration does not fill the given complex")
    return sw.repetition


def _recovered(rel_p: Barcode, f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """``recover_absolute_from_relative`` of a relative barcode of f's length
    and an admitted, standardized, non-repetitive f, with the GC paused."""
    m = rel_p.m
    comps = _strong_components(K, p)
    comp_of = comps.of_vertex  # p-simplex vertex tuple -> its strong component
    out: Counter = Counter()
    starts: Dict[int, List[int]] = {}  # component -> death indices i of [0, i]
    ends: Dict[int, List[int]] = {}  # component -> birth indices j of [j, m]
    for iv, c in rel_p.counts().items():
        if iv.dim != p:
            raise ContractViolationError(f"{iv!r} is not of dimension {p}")
        if iv.b == 0 and iv.d == m:
            raise InternalInconsistencyError(f"{iv!r} spans the whole module")
        if iv.b == 0:
            ev = f.events[iv.d]
            if ev.direction != ADD or ev.simplex.dim != p:
                raise InternalInconsistencyError(
                    f"{iv!r} should end at the addition of a {p}-simplex, got {ev!r}"
                )
            starts.setdefault(comp_of[ev.simplex.vertices], []).extend([iv.d] * c)
        elif iv.d == m:
            ev = f.events[iv.b - 1]
            if ev.direction != DEL or ev.simplex.dim != p:
                raise InternalInconsistencyError(
                    f"{iv!r} should start at the deletion of a {p}-simplex, got {ev!r}"
                )
            ends.setdefault(comp_of[ev.simplex.vertices], []).extend([iv.b] * c)
        else:
            if iv.type_code not in ("co", "oc"):
                raise InternalInconsistencyError(f"interior interval {iv!r} is not co or oc")
            out[Interval(p - 1, iv.b, iv.d, iv.birth_type, iv.death_type)] += c

    for label in range(comps.count):
        si = starts.get(label, [])
        ei = ends.get(label, [])
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
            out[Interval(p, i + 1, j - 1, CLOSED, CLOSED)] += 1
        else:
            out[Interval(p - 1, j, i, OPEN, OPEN)] += 1
    return Barcode(out, m, ABSOLUTE)
