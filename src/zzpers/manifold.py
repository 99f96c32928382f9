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
ESA 2022). The walk over the graph zigzag gives the copies dense ids and
records them as the pipeline's solve reads them, so no simplex, event or
filtration is built for them. The pairs of the copies' coned filtration
then come from two union-find passes and a spanning-forest pass, with no
boundary or coboundary matrix (``_copy_pairs``; after Dey & Hou,
*Computing Zigzag Persistence on Graphs in Near-Linear Time*, SoCG 2021),
and ``pipeline._remap_pairs`` maps them to intervals. The walk and the
union-finds are near linear in the length of the filtration; the forest
pass climbs tree paths, which grow with the graph, so on swept grid tori
it grows as about m^1.5 (link-cut trees would make it near linear).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .barcode import ABSOLUTE, RELATIVE, Barcode, classify_ends
from .complexes import DualGraph, SimplicialComplex, _find, dual_graph
from .duality import _admitted_filling, _recovered
from .errors import InvalidInputError
from .filtration import ADD, DEL, ZigzagFiltration, _gc_paused, _raise_if_repetitive
from .pipeline import _remap_pairs

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
        plural = "vertices" if kind == "vertex" else "edges"
        raise InvalidInputError(f"{kind} index {i!r} out of range for {n} {plural}")
    return i


def _arrow(k: int) -> str:
    return f"arrow {k}" if k >= 0 else "initial graph"


def _reroot(up: List[int], via: List[int], v: int, cut: int = -1) -> None:
    """Make v the root of its forest tree by reversing its path to the root,
    or, given the id of an edge on that path, to that edge, which is cut."""
    below = e = -1
    while True:  # the root's parent edge is -1, so the default stops there
        up[v], via[v], below, e, v = below, e, v, via[v], up[v]
        if e == cut:
            return


def _path_max(up: List[int], via: List[int], u: int, v: int) -> Tuple[int, bool]:
    """Heaviest edge id on the forest path between u and v (in one tree),
    and whether it is on u's side of the path.

    The two ends climb in turn, one step each, until one reaches a node the
    other has passed. Each passed node keeps the heaviest edge below it on
    its side, so no depth is needed.
    """
    hu = hv = -1  # the heaviest edge on each climb so far
    seen_u, seen_v = {u: -1}, {v: -1}
    while True:
        w = up[u]
        if w >= 0:
            if via[u] > hu:
                hu = via[u]
            u = w
            h = seen_v.get(w)
            if h is not None:
                return (hu, True) if hu > h else (h, False)
            seen_u[w] = hu
        w = up[v]
        if w >= 0:
            if via[v] > hv:
                hv = via[v]
            v = w
            h = seen_u.get(w)
            if h is not None:
                return (hv, False) if hv > h else (h, True)
            seen_v[w] = hv


def _copy_pairs(facets, dims, dels) -> List[Tuple[int, int]]:
    """Boundary-matrix pairs of the coned filtration of a copy record (the
    graph case of ``pipeline._solve``'s input), without a matrix.

    Columns are numbered as in ``_solve``: the apex 0, the up column s + 1
    of id s, and 2n - k for the cone over the k-th deleted id. A union-find
    keeps each root at its set's smallest column, so the younger of two
    roots is the larger. Three passes give every pair:

    a. A union-find walks the coned 1-skeleton in column order: the apex,
       the up vertex and edge copies, then the cones over vertex copies.
       Each merge pairs the younger root with the edge column.
    b. A second union-find walks the copies in reverse order of deletion
       (the cone columns in order). An edge copy that merges two sets pairs
       the cone over the younger root's vertex with the cone over the edge.
    c. An edge copy e that closes a cycle in pass b pairs the up column of
       max(e, x) with the cone over e, where x is the heaviest edge id on
       the path between e's ends in the minimum spanning forest (by id) of
       the edge copies pass b has met; if e < x, e replaces x there.

    Pass c keeps the forest as parent pointers (``up``) and parent-edge ids
    (``via``) over the cone columns of the vertex copies. A merge links e
    by re-rooting its end in the smaller tree (sizes from pass b). A
    replacement re-roots the end on x's side of the path only up to x,
    which clears x's parent pointer (the cut), and links e there. The path
    climbs make pass c superlinear (about m^1.5 on swept grid tori).
    """
    n = len(dels)
    n2 = 2 * n
    parent = list(range(n2 + 1))  # pass a on columns 0..n, pass b on n+1..2n
    pairs = []
    for s in range(n):  # a: the up phase
        if dims[s]:
            a, b = facets[s]
            ra, rb = _find(parent, a + 1), _find(parent, b + 1)
            if ra != rb:
                if ra > rb:
                    ra, rb = rb, ra
                parent[rb] = ra
                pairs.append((rb, s + 1))
    at = [0] * n  # id -> its position among the deletions
    for k, s in enumerate(dels):
        at[s] = k
    size = [1] * (n2 + 1)  # pass b root -> its set's size
    up = [-1] * (n2 + 1)  # pass c: forest parent, -1 at a root
    via = [-1] * (n2 + 1)  # pass c: id of the edge to the forest parent
    for k in range(n - 1, -1, -1):  # the cone columns in order
        s = dels[k]
        if not dims[s]:  # a: the cone over a vertex copy joins it to the apex
            r = _find(parent, s + 1)
            if r:
                parent[r] = 0
                pairs.append((r, n2 - k))
            continue
        a, b = facets[s]
        u, v = n2 - at[a], n2 - at[b]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            if size[ru] < size[rv]:
                u, v = v, u
            _reroot(up, via, v)  # v lies in the smaller tree
            up[v], via[v] = u, s
            if ru > rv:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            pairs.append((rv, n2 - k))
            continue
        x, on_u = _path_max(up, via, u, v)
        if s > x:
            pairs.append((s + 1, n2 - k))
            continue
        pairs.append((x + 1, n2 - k))
        if on_u:
            u, v = v, u
        _reroot(up, via, v, x)  # x is on v's side: cut it, and v roots what hung below it
        up[v], via[v] = u, s
    return pairs


def zero_dim_zigzag(g: GraphZigzag) -> Barcode:
    """0-dimensional barcode of the graph zigzag, from the pairs of its copies.

    Every (re)entry of a cell becomes a fresh copy with a dense id, given in
    order of addition: a vertex copy has no facets, and an edge copy has the
    current copies of its two ends. The initial graph is added before the
    first arrow and what is left is deleted after the last, so the copies
    form a standardized non-repetitive filtration; identity arrows add
    nothing to it. The walk records per id its dimension, facet ids and the
    positions of its addition and deletion, the ids in order of deletion,
    and the arrow of g each position belongs to (the padding to arrow -1 or
    m). ``_copy_pairs`` gives the pairs of that record's coned filtration,
    the same as ``pipeline._solve`` would, and ``_remap_pairs`` its
    intervals. An interval [b, d] of the copies becomes [a(b-1) + 1, a(d)]
    in g's indices, and is dropped when it lives only inside one arrow's
    positions.
    """
    nv, edges, m = g.n_vertices, g.edges, g.m
    if type(nv) is not int or nv < 0:
        raise InvalidInputError(f"vertex count {nv!r} is not a non-negative int")
    seen = set()
    for e, ends in enumerate(edges):
        try:
            a, b = ends
        except (TypeError, ValueError):
            raise InvalidInputError(f"edge {e} is not a pair of vertices: {ends!r}") from None
        pair = tuple(sorted((_cell(a, nv, "vertex"), _cell(b, nv, "vertex"))))
        if a == b:
            raise InvalidInputError(f"edge {e} is a self-loop at vertex {a}")
        if pair in seen:
            raise InvalidInputError(f"edge {e} is parallel to another edge between {a} and {b}")
        seen.add(pair)
    dims: List[int] = []  # id -> 0 for a vertex copy, 1 for an edge copy
    facets: List[Tuple[int, ...]] = []  # id -> the ids of its ends
    add_at: List[int] = []  # id -> the position of its addition
    del_at: List[int] = []  # id -> the position of its deletion
    dels: List[int] = []  # ids in order of deletion
    arrow_of: List[int] = []  # position -> the arrow of g it belongs to
    copy = [-1] * nv  # vertex -> the id of its present copy, -1 while absent
    degree = [0] * nv  # vertex -> number of present edges at it
    present: Dict[int, int] = {}  # edge -> the id of its present copy

    def add(dim, fs, k):
        dims.append(dim)
        facets.append(fs)
        add_at.append(len(arrow_of))
        del_at.append(-1)
        arrow_of.append(k)
        return len(dims) - 1

    def remove(j, k):
        del_at[j] = len(arrow_of)
        dels.append(j)
        arrow_of.append(k)

    def vertex_in(v, k):
        if copy[_cell(v, nv, "vertex")] >= 0:
            raise InvalidInputError(f"{_arrow(k)}: vertex {v} added while present")
        copy[v] = add(0, (), k)

    def vertex_out(v, k):
        if copy[_cell(v, nv, "vertex")] < 0:
            raise InvalidInputError(f"{_arrow(k)}: delete of absent vertex {v}")
        if degree[v]:
            raise InvalidInputError(
                f"{_arrow(k)}: vertex {v} deleted while an edge at it is present"
            )
        remove(copy[v], k)
        copy[v] = -1

    def edge_in(e, k):
        if _cell(e, len(edges), "edge") in present:
            raise InvalidInputError(f"{_arrow(k)}: edge {e} added while present")
        a, b = edges[e]
        if copy[a] < 0 or copy[b] < 0:
            raise InvalidInputError(f"{_arrow(k)}: edge {e} added while an end is absent")
        present[e] = add(1, (copy[a], copy[b]), k)
        degree[a] += 1
        degree[b] += 1

    def edge_out(e, k):
        j = present.pop(_cell(e, len(edges), "edge"), None)
        if j is None:
            raise InvalidInputError(f"{_arrow(k)}: delete of absent edge {e}")
        a, b = edges[e]
        degree[a] -= 1
        degree[b] -= 1
        remove(j, k)

    for v in sorted(_cell(v, nv, "vertex") for v in g.initial_vertices):
        vertex_in(v, -1)
    for e in sorted(_cell(e, len(edges), "edge") for e in g.initial_edges):
        edge_in(e, -1)
    steps = {ADD_VERTEX: vertex_in, DEL_VERTEX: vertex_out, ADD_EDGE: edge_in, DEL_EDGE: edge_out}
    steps[NOOP] = lambda i, k: None
    for k, event in enumerate(g.events):
        try:
            op, i = event
            step = steps[op]
        except (TypeError, ValueError, KeyError):
            raise InvalidInputError(f"{_arrow(k)}: unknown graph event {event!r}") from None
        step(i, k)
    for e in sorted(present):
        edge_out(e, m)
    for v in range(nv):
        if copy[v] >= 0:
            vertex_out(v, m)

    pairs = _copy_pairs(facets, dims, dels)
    at = [-1, *arrow_of, m]  # at[i]: the arrow of position i - 1
    directions = tuple(ADD if op in _FORWARD_OPS else DEL for op, _ in g.events)
    intervals = []
    for dim, b, d, _, _ in _remap_pairs(pairs, dims, dels, add_at, del_at):
        b, d = at[b] + 1, at[d + 1]
        if dim == 0 and b <= d:
            intervals.append((0, b, d, *classify_ends(b, d, directions)))
    return Barcode._of_fields(intervals, m, ABSOLUTE)


def relative_top_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Dimension-p relative barcode of a filtration of a closed p-manifold or pseudomanifold.

    Computed as the 0-dimensional barcode of the dual-graph complement
    zigzag; end types come from the relative arrows, which follow f's own
    directions. f passes the shared admission (``filtration._admitted``,
    InvalidInputError otherwise) and fills K; it may be repetitive.

    The cyclic garbage collector is paused for the call, as in
    ``compute_zigzag``: the dual graph and its walk build no reference cycle.
    """
    with _gc_paused():
        _admitted_filling(f, K, "manifold path")
        return _relative_top(f, K, p)


def _relative_top(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """``relative_top_barcode`` of an f already admitted, with the collector paused."""
    bars = zero_dim_zigzag(dual_filtration(f, K, p))
    directions = f.directions()
    fields = {(p, b, d, *classify_ends(b, d, directions)): c
              for (_, b, d, _, _), c in bars.counts().items()}
    return Barcode._of_fields(fields, len(f), RELATIVE)


def manifold_absolute_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Recoverable part of the absolute barcode of a manifold filtration.

    All of dimension p, plus the closed-open, open-closed, and open-open
    intervals of dimension p-1; requires f non-repetitive. K may be a
    closed pseudomanifold: the end intervals pair up per strong component.
    One sweep admits f for both steps; the cyclic GC is paused for the call.
    """
    with _gc_paused():
        _raise_if_repetitive(_admitted_filling(f, K, "manifold path"))
        return _recovered(_relative_top(f, K, p), f, K, p)
