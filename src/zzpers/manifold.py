"""Top-dimensional zigzag persistence on closed p-manifolds through the
dual graph.

A filtration of the manifold induces a zigzag of subgraphs of the dual
graph: a dual vertex or edge is present exactly when its primal simplex is
absent, so additions become deletions and vice versa, and events on
simplices below dimension p-1 become identity arrows (kept so indices stay
aligned). The 0-dimensional barcode of that graph zigzag equals the
dimension-p relative barcode of the filtration.

The dual zigzag is generally repetitive (a dual cell leaves when its
primal simplex is added and comes back when it is deleted). Giving every
re-entry a fresh copy of the cell makes it a non-repetitive filtration
(the copy trick of Dey & Hou, *Fast Computation of Zigzag Persistence*,
ESA 2022), which the pipeline of ``zzpers.pipeline`` reduces. Building
the copies is linear in the length of the filtration; the reduction is
not near linear in the worst case, but on swept grid tori the whole path
grows with exponent about 1.2 (acceptance test A8-manifold).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .barcode import ABSOLUTE, RELATIVE, Barcode, Interval, classify_ends
from .complexes import DualGraph, Simplex, SimplicialComplex, dual_graph
from .duality import recover_absolute_from_relative
from .errors import InvalidInputError, NotStandardizedError
from .filtration import ADD, DEL, FiltrationEvent, ZigzagFiltration
from .pipeline import compute_zigzag

ADD_VERTEX = "+v"
DEL_VERTEX = "-v"
ADD_EDGE = "+e"
DEL_EDGE = "-e"
NOOP = "."

_FORWARD_OPS = (ADD_VERTEX, ADD_EDGE, NOOP)


@dataclass(frozen=True)
class GraphZigzag:
    """Zigzag of subgraphs of a fixed graph, one event per arrow.

    Events are (op, index) with op one of +v/-v/+e/-e/"." (identity);
    indices refer to the fixed vertex and edge lists. The graph has no
    self-loop and no parallel edges; a dual graph never has one, because
    two distinct p-simplices share at most one (p-1)-face. Each snapshot is
    a subgraph: an edge is present only while both its ends are.
    ``zero_dim_zigzag`` raises InvalidInputError where these fail.
    """

    n_vertices: int
    edges: Tuple[Tuple[int, int], ...]
    events: Tuple[Tuple[str, Optional[int]], ...]
    initial_vertices: frozenset = frozenset()
    initial_edges: frozenset = frozenset()
    dual: Optional[DualGraph] = None

    @property
    def m(self) -> int:
        return len(self.events)

    def snapshots(self):
        """Yield (vertex set, edge set) for G_0..G_m."""
        vs = set(self.initial_vertices)
        es = set(self.initial_edges)
        yield frozenset(vs), frozenset(es)
        for op, idx in self.events:
            if op == ADD_VERTEX:
                vs.add(idx)
            elif op == DEL_VERTEX:
                vs.discard(idx)
            elif op == ADD_EDGE:
                es.add(idx)
            elif op == DEL_EDGE:
                es.discard(idx)
            elif op != NOOP:
                raise InvalidInputError(f"unknown graph event {op!r}")
            yield frozenset(vs), frozenset(es)


def dual_filtration(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> GraphZigzag:
    """Complement zigzag on the dual graph, index-aligned with f."""
    G = dual_graph(K, p)
    k0 = f.initial
    init_v = frozenset(i for i, s in enumerate(G.vertex_simplices) if s not in k0)
    init_e = frozenset(i for i, s in enumerate(G.edge_simplices) if s not in k0)
    events: List[Tuple[str, Optional[int]]] = []
    for e in f.events:
        s = e.simplex
        if s not in K.simplex_set():
            raise InvalidInputError(f"{s!r} is not a simplex of the given complex")
        if s.dim == p:
            op = DEL_VERTEX if e.direction == ADD else ADD_VERTEX
            events.append((op, G.vertex_of[s]))
        elif s.dim == p - 1:
            op = DEL_EDGE if e.direction == ADD else ADD_EDGE
            events.append((op, G.edge_of[s]))
        else:
            events.append((NOOP, None))
    return GraphZigzag(G.n_vertices, G.edges, tuple(events), init_v, init_e, dual=G)


def _cell(i: int, n: int, kind: str) -> int:
    if type(i) is not int or not 0 <= i < n:
        raise InvalidInputError(f"{kind} index {i!r} out of range for {n} {kind}s")
    return i


def _arrow(k: int) -> str:
    return f"arrow {k}" if k >= 0 else "initial graph"


def zero_dim_zigzag(g: GraphZigzag) -> Barcode:
    """0-dimensional barcode of the graph zigzag, through the pipeline.

    Every (re)entry of a cell becomes a fresh simplex: a vertex gets a new
    copy id, and an edge joins the current copies of its two ends. An edge
    that comes back while both ends are still the copies it joined before
    would repeat a simplex, so it enters as a path through a fresh midpoint
    copy (three additions, left as three deletions). The initial graph is
    added before the first arrow and what is left is deleted after the
    last, so the copies form a standardized non-repetitive filtration;
    identity arrows add nothing to it. ``compute_zigzag`` reduces that
    filtration; each of its events belongs to one arrow of g (the padding
    to arrow -1 or m), so its interval [b, d] becomes [a(b-1) + 1, a(d)] in
    g's indices, and is dropped when it lives only inside one arrow's
    events.
    """
    nv, edges, m = g.n_vertices, g.edges, g.m
    seen = set()
    for e, (a, b) in enumerate(edges):
        pair = tuple(sorted((_cell(a, nv, "vertex"), _cell(b, nv, "vertex"))))
        if a == b:
            raise InvalidInputError(f"edge {e} is a self-loop at vertex {a}")
        if pair in seen:
            raise InvalidInputError(f"edge {e} is parallel to another edge between {a} and {b}")
        seen.add(pair)
    make = Simplex._from_sorted
    copy = [-1] * nv  # vertex -> its present copy, -1 while absent
    degree = [0] * nv  # vertex -> number of present edges at it
    present: Dict[int, Tuple[Tuple[int, ...], ...]] = {}  # edge -> its simplices
    joined = set()  # copy pairs that some edge has joined
    events: List[FiltrationEvent] = []
    arrow_of: List[int] = []  # event -> the arrow of g it belongs to

    def emit(direction, cells, k):
        events.extend(FiltrationEvent(direction, make(c)) for c in cells)
        arrow_of.extend([k] * len(cells))

    def vertex_in(v, k):
        if copy[_cell(v, nv, "vertex")] >= 0:
            raise InvalidInputError(f"{_arrow(k)}: vertex {v} added while present")
        copy[v] = len(events)  # a copy's id is the index of the event adding it
        emit(ADD, [(copy[v],)], k)

    def vertex_out(v, k):
        if copy[_cell(v, nv, "vertex")] < 0:
            raise InvalidInputError(f"{_arrow(k)}: delete of absent vertex {v}")
        if degree[v]:
            raise InvalidInputError(
                f"{_arrow(k)}: vertex {v} deleted while an edge at it is present"
            )
        emit(DEL, [(copy[v],)], k)
        copy[v] = -1

    def edge_in(e, k):
        if _cell(e, len(edges), "edge") in present:
            raise InvalidInputError(f"{_arrow(k)}: edge {e} added while present")
        a, b = edges[e]
        ca, cb = sorted((copy[a], copy[b]))
        if ca < 0:
            raise InvalidInputError(f"{_arrow(k)}: edge {e} added while an end is absent")
        if (ca, cb) in joined:
            mid = len(events)
            cells = ((mid,), (ca, mid), (cb, mid))
        else:
            joined.add((ca, cb))
            cells = ((ca, cb),)
        present[e] = cells
        degree[a] += 1
        degree[b] += 1
        emit(ADD, cells, k)

    def edge_out(e, k):
        cells = present.pop(_cell(e, len(edges), "edge"), None)
        if cells is None:
            raise InvalidInputError(f"{_arrow(k)}: delete of absent edge {e}")
        a, b = edges[e]
        degree[a] -= 1
        degree[b] -= 1
        emit(DEL, cells[::-1], k)

    for v in sorted(g.initial_vertices):
        vertex_in(v, -1)
    for e in sorted(g.initial_edges):
        edge_in(e, -1)
    steps = {ADD_VERTEX: vertex_in, DEL_VERTEX: vertex_out, ADD_EDGE: edge_in, DEL_EDGE: edge_out}
    for k, (op, i) in enumerate(g.events):
        if op != NOOP:
            step = steps.get(op)
            if step is None:
                raise InvalidInputError(f"{_arrow(k)}: unknown graph event {op!r}")
            step(i, k)
    for e in sorted(present):
        edge_out(e, m)
    for v in range(nv):
        if copy[v] >= 0:
            vertex_out(v, m)

    bars = compute_zigzag(ZigzagFiltration(events)).barcode
    at = [-1, *arrow_of, m]  # at[i]: the arrow of event i - 1
    directions = tuple(ADD if op in _FORWARD_OPS else DEL for op, _ in g.events)
    intervals: Counter = Counter()
    for iv, c in bars.counts().items():
        if iv.dim == 0:
            b, d = at[iv.b] + 1, at[iv.d + 1]
            if b <= d:
                intervals[Interval(0, b, d, *classify_ends(b, d, directions))] += c
    return Barcode(intervals, m, ABSOLUTE)


def relative_top_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Dimension-p relative barcode of a filtration of a closed p-manifold.

    Computed as the 0-dimensional barcode of the dual-graph complement
    zigzag; end types come from the relative arrows, which follow f's own
    directions. Repetitive filtrations are allowed here.
    """
    if not f.is_standardized():
        raise NotStandardizedError("manifold path needs a standardized filtration")
    if {e.simplex for e in f.events if e.direction == ADD} != K.simplex_set():
        raise InvalidInputError("filtration does not fill the given complex")
    bars = zero_dim_zigzag(dual_filtration(f, K, p))
    directions = f.directions()
    intervals = {
        Interval(p, iv.b, iv.d, *classify_ends(iv.b, iv.d, directions)): c
        for iv, c in bars.counts().items()
    }
    return Barcode(intervals, len(f), RELATIVE)


def manifold_absolute_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Recoverable part of the absolute barcode of a manifold filtration.

    All of dimension p, plus the closed-open, open-closed, and open-open
    intervals of dimension p-1; requires f non-repetitive.
    """
    rel = relative_top_barcode(f, K, p)
    return recover_absolute_from_relative(rel, f, K, p)
