"""Top-dimensional zigzag persistence on closed p-manifolds through the
dual graph.

A filtration of the manifold induces a zigzag of subgraphs of the dual
graph: a dual vertex or edge is present exactly when its primal simplex is
absent, so additions become deletions and vice versa, and events on
simplices below dimension p-1 become identity arrows (kept so indices stay
aligned). The 0-dimensional barcode of that graph zigzag equals the
dimension-p relative barcode of the filtration.

The paper's case, the p-th persistence of a non-repetitive filtration, is
near linear: each simplex is added once and deleted once, and a ridge is
added before its two top cofaces and deleted after them, so the dual
zigzag is a shrinking graph (cells present before their primal simplex is
added) and a growing one (after it is deleted) that no edge joins, and two
elder-rule union-finds over the dual graph, walked over f's additions
backwards and its deletions forwards, give its 0-dimensional barcode
(``_top_fields``). ``relative_top_barcode`` reads their order
straight off f's admission sweep (``_relative_top``), with no dual graph,
graph zigzag or matrix built, and ``_relative_and_recovered`` recovers on
that sweep, the one recovery entry of the library and of ``zzpers manifold
--recover``.

Any other zigzag of subgraphs may bring a cell back (the dual zigzag of a
repetitive filtration, and any ``GraphZigzag``). A walk over it feeds the
pipeline's copy recorder (``pipeline._copies``, which explains the copy
trick): ``relative_top_barcode`` walks a repetitive f's dual zigzag on its
sweep's ids, and ``zero_dim_zigzag`` walks a given ``GraphZigzag``,
checking it cell by cell. ``_arrow_fields`` pairs the record by the
pipeline's standard-persistence solve (``pipeline._solve``), maps the
pairs to intervals (``pipeline._remap_pairs``) and those to the zigzag's
arrows.
"""

from __future__ import annotations

from itertools import chain, islice, repeat
from typing import List, NamedTuple, Optional, Tuple

from .barcode import ABSOLUTE, CLOSED, OPEN, RELATIVE, Barcode, classify_ends
from .complexes import DualGraph, SimplicialComplex, _dual_cells, _find, dual_graph
from .duality import _admitted_filling, _recovered, _top_components
from .errors import InvalidInputError
from .filtration import ADD, DEL, ZigzagFiltration, _directions, _gc_paused
from .filtration import _raise_if_repetitive
from .pipeline import _copies, _remap_pairs, _solve

ADD_VERTEX = "+v"
DEL_VERTEX = "-v"
ADD_EDGE = "+e"
DEL_EDGE = "-e"
NOOP = "."

_FORWARD_OPS = (ADD_VERTEX, ADD_EDGE, NOOP)
# op -> (whether the cell enters, whether it is an edge); an identity arrow moves none
_MOVES = {ADD_VERTEX: (True, False), DEL_VERTEX: (False, False), ADD_EDGE: (True, True),
          DEL_EDGE: (False, True), NOOP: None}


class GraphZigzag(NamedTuple):
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
    """Complement zigzag on the dual graph, index-aligned with f.

    ``relative_top_barcode`` walks the same zigzag on the ids of f's sweep
    instead (``_relative_top``); this Simplex-keyed form is the public one,
    and tests hold that walk to it.
    """
    G = dual_graph(K, p)
    k0 = f.initial
    init_v = frozenset(i for i, s in enumerate(G.vertex_simplices) if s not in k0)
    init_e = frozenset(i for i, s in enumerate(G.edge_simplices) if s not in k0)
    events: List[Tuple[str, Optional[int]]] = []
    ids, simplices = f._ids[0], f._simplices
    for j in islice(ids, len(k0), None):
        s = simplices[j if j >= 0 else ~j]
        if s not in K.simplex_set():
            raise InvalidInputError(f"{s!r} is not a simplex of the given complex")
        if s.dim == p:
            op = DEL_VERTEX if j >= 0 else ADD_VERTEX
            events.append((op, G.vertex_of[s]))
        elif s.dim == p - 1:
            op = DEL_EDGE if j >= 0 else ADD_EDGE
            events.append((op, G.edge_of[s]))
        else:
            events.append((NOOP, None))
    return GraphZigzag(G.n_vertices, G.edges, tuple(events), init_v, init_e, dual=G)


def _cell(i: int, n: int, kind: str) -> int:
    if type(i) is not int or not 0 <= i < n:
        plural = "vertices" if kind == "vertex" else "edges"
        raise InvalidInputError(f"{kind} index {i!r} out of range for {n} {plural}")
    return i


def _field(g: GraphZigzag, name: str) -> tuple:
    x = getattr(g, name)
    try:
        return tuple(x)
    except TypeError:
        raise InvalidInputError(f"{name} is not iterable: {x!r}") from None


def _arrow(k: int) -> str:
    return f"arrow {k}" if k >= 0 else "initial graph"


def zero_dim_zigzag(g: GraphZigzag) -> Barcode:
    """0-dimensional barcode of the graph zigzag, from the pairs of its copies.

    The walk checks g event by event (InvalidInputError), one ``enter`` and
    one ``leave`` on ``_copies``' cell table, and lists its steps, with the
    initial graph added before the first arrow and what is left deleted
    after the last, edges first; identity arrows add nothing.
    ``pipeline._copies`` records the steps (g may repeat a cell), and
    ``_arrow_fields`` pairs the record and maps the intervals to g's
    arrows. This is the graph entry point; the manifold path hands the
    same two the dual zigzag of a repetitive filtration, walked on its
    sweep's ids with nothing left to check (``_relative_top``).
    """
    nv = g.n_vertices
    if type(nv) is not int or nv < 0:
        raise InvalidInputError(f"vertex count {nv!r} is not a non-negative int")
    edges, events, initial_vertices, initial_edges = (
        _field(g, k) for k in ("edges", "events", "initial_vertices", "initial_edges"))
    m = len(events)
    seen = set()
    for e, ab in enumerate(edges):
        try:
            a, b = ab
        except (TypeError, ValueError):
            raise InvalidInputError(f"edge {e} is not a pair of vertices: {ab!r}") from None
        pair = tuple(sorted((_cell(a, nv, "vertex"), _cell(b, nv, "vertex"))))
        if a == b:
            raise InvalidInputError(f"edge {e} is a self-loop at vertex {a}")
        if pair in seen:
            raise InvalidInputError(f"edge {e} is parallel to another edge between {a} and {b}")
        seen.add(pair)
    ne = len(edges)
    ends = [()] * nv + list(edges)  # cell -> () for a vertex, its two end cells for an edge
    present = bytearray(nv + ne)  # cell -> 1 while present
    degree = [0] * nv  # vertex -> number of present edges at it
    steps = []  # (enters, cell, arrow)

    def name(j):  # formatted only for a refusal
        return f"vertex {j}" if j < nv else f"edge {j - nv}"

    def enter(j, k):
        if present[j]:
            raise InvalidInputError(f"{_arrow(k)}: {name(j)} added while present")
        if j >= nv:
            a, b = ends[j]
            if not present[a] or not present[b]:
                raise InvalidInputError(f"{_arrow(k)}: {name(j)} added while an end is absent")
            degree[a] += 1
            degree[b] += 1
        present[j] = 1
        steps.append((True, j, k))

    def leave(j, k):
        if not present[j]:
            raise InvalidInputError(f"{_arrow(k)}: delete of absent {name(j)}")
        if j >= nv:
            a, b = ends[j]
            degree[a] -= 1
            degree[b] -= 1
        elif degree[j]:
            raise InvalidInputError(
                f"{_arrow(k)}: {name(j)} deleted while an edge at it is present"
            )
        present[j] = 0
        steps.append((False, j, k))

    for v in sorted(_cell(v, nv, "vertex") for v in initial_vertices):
        enter(v, -1)
    for e in sorted(_cell(e, ne, "edge") for e in initial_edges):
        enter(nv + e, -1)
    for k, event in enumerate(events):
        try:
            op, i = event
            move = _MOVES[op]
        except (TypeError, ValueError, KeyError):
            raise InvalidInputError(f"{_arrow(k)}: unknown graph event {event!r}") from None
        if move:
            enters, edge = move
            j = nv + _cell(i, ne, "edge") if edge else _cell(i, nv, "vertex")
            (enter if enters else leave)(j, k)
    for j in chain(range(nv, nv + ne), range(nv)):
        if present[j]:
            leave(j, m)

    directions = tuple(ADD if op in _FORWARD_OPS else DEL for op, _ in events)
    record = _copies(steps, ends)  # a graph zigzag may repeat a cell on the same ends
    return Barcode._of_fields(_arrow_fields(*record, directions, 0), m, ABSOLUTE)


def _arrow_fields(facets, dims, dels, add_at, del_at, arrow_of, directions, dim):
    """Field tuples, in dimension dim, of the 0-dimensional intervals of a copy
    record in the arrows of the zigzag it was walked from.

    ``pipeline._solve``, the standard-persistence solve of the copies' coned
    filtration, pairs the record, and ``_remap_pairs`` maps the death table
    to intervals in positions. An interval [b, d] of the copies becomes
    [a(b-1) + 1, a(d)] in arrows, where a(i) is ``arrow_of[i]`` (-1 before
    the first position and m after the last), and is dropped when it lives
    only inside one arrow's positions. End types follow ``directions``, the
    arrows' own (``barcode.classify_ends``).
    """
    m = len(directions)
    at = [-1, *arrow_of, m]  # at[i]: the arrow of position i - 1
    out = []
    for q, b, d, _, _ in _remap_pairs(_solve(facets, dims, dels)[0], dims, dels, add_at, del_at):
        b, d = at[b] + 1, at[d + 1]
        if q == 0 and b <= d:
            out.append((dim, b, d, *classify_ends(b, d, directions)))
    return out


def _top_fields(tops, ends, ids, add_at, del_at, p):
    """Field tuples of the dimension-p relative barcode of a standardized
    non-repetitive f, whose signed ids are ``ids``, from two elder-rule
    union-finds over its dual graph: the p-ids ``tops`` as vertices, the
    (p-1)-ids as edges joining their ``ends`` (a pair only for a (p-1)-id);
    ``add_at`` and ``del_at`` give each top's event index.

    A dual cell is present while its primal simplex is absent. A ridge is
    added before its two p-cofaces and deleted after them, so the dual
    zigzag is two graphs that no edge joins, each moving one way:

    S. The shrinking graph, walked backwards over f's additions: a top t is
       born at a_t, its addition. A ridge added at k that joins two sets
       kills the one born at the smaller a, giving [k + 1, a]; each set
       left gives [0, a] at its root.
    R. The growing graph, walked forwards over f's deletions: t is born at
       d_t, its deletion. A ridge deleted at k that joins two sets kills
       the one born at the larger d, giving [d + 1, k]; each set left gives
       [d + 1, m] at its root.

    Each walk is one scan of ``ids``, so no ridge is sorted or looked up. A
    ridge that closes a cycle is skipped: it carries a class of dimension
    1, which the 0-dimensional barcode drops. End types follow f's arrows
    as ``_arrow_fields`` reads them: an interval of S starts at 0 or after
    an addition and ends before one, so it is closed-open; one of R starts
    after a deletion and ends before one or at m, so it is open-closed.
    """
    m = len(ids)
    out = []
    parent = list(range(len(ends)))  # S: each root its set's last-added top
    for k in range(m - 1, -1, -1):
        s = ids[k]
        if s >= 0 and ends[s]:
            a, b = ends[s]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                if add_at[ra] > add_at[rb]:
                    ra, rb = rb, ra
                parent[ra] = rb
                out.append((p, k + 1, add_at[ra], CLOSED, OPEN))
    out += [(p, 0, add_at[t], CLOSED, OPEN) for t in tops if parent[t] == t]
    parent = list(range(len(ends)))  # R: each root its set's first-deleted top
    for k, s in enumerate(ids):
        if s < 0 and ends[~s]:
            a, b = ends[~s]
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                if del_at[ra] < del_at[rb]:
                    ra, rb = rb, ra
                parent[ra] = rb
                out.append((p, del_at[ra] + 1, k, OPEN, CLOSED))
    out += [(p, del_at[t] + 1, m, OPEN, CLOSED) for t in tops if parent[t] == t]
    return out


def relative_top_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Dimension-p relative barcode of a filtration of a closed p-manifold or pseudomanifold.

    Computed as the 0-dimensional barcode of the dual-graph complement
    zigzag, read off f's admission sweep (``_relative_top``): two
    union-finds for a non-repetitive f, the copy walk and the matrix solve
    for a repetitive one; end types come from the relative arrows, which
    follow f's own directions. f passes the shared admission
    (``filtration._admitted``, InvalidInputError otherwise) and fills K; it
    may be repetitive. K must be a closed p-(pseudo)manifold, else
    NotAManifoldError with the texts of ``complexes.dual_graph``.

    The cyclic garbage collector is paused for the call, as in
    ``compute_zigzag``: the passes and the walk build no reference cycle.
    """
    with _gc_paused():
        return _relative_top(f, K, p, recover=False)[0]


def _relative_top(f: ZigzagFiltration, K: SimplicialComplex, p: int, recover: bool):
    """``relative_top_barcode`` and what ``duality._recovered`` reads of f's
    one admission sweep: its signed ids, vertex tuples and, if ``recover``,
    the strong components of its p-ids (``duality._top_components``), a
    repetitive f then refused after the manifold checks, before the passes.
    The caller pauses the collector.

    Admission, the fill check and the manifold checks of ``dual_graph`` on
    the sweep's ids and vertex-tuple index (``_dual_cells``) make the dual
    zigzag valid, so nothing of it is checked again. Its vertices are the
    p-ids and its edges the (p-1)-ids, whose ends are their two p-cofaces.

    A non-repetitive f (the sweep's ``repetition`` is None) adds and deletes
    each simplex once, and ``_top_fields`` pairs its dual zigzag from the
    sweep's signed ids, with two union-finds and no copy record.
    A repetitive f is walked: f is standardized, so the whole dual graph
    enters before arrow 0, in its own order (vertex tuples ascending), and
    leaves after arrow m - 1, edges first. Adding a p- or (p-1)-simplex
    deletes its dual cell, and deleting it adds the cell back; events on
    lower simplices move none. ``pipeline._copies`` records the walk as it
    does ``zero_dim_zigzag``'s, and ``_arrow_fields`` pairs it.
    """
    sw = _admitted_filling(f, K, "manifold path")
    tops, ridges, ends = _dual_cells(K, p, sw.vts, sw.facets, sw.index)
    if recover:
        _raise_if_repetitive(sw.repetition)
    comps = _top_components(sw.vts, sw.dims, sw.facets, p) if recover else None
    ids, vts, add_at, del_at, repetition = sw.ids, sw.vts, sw.add_at, sw.del_at, sw.repetition
    del sw  # the passes read the signed ids and event indices, the walk only the ids
    m = len(f)
    if repetition is None:
        fields = _top_fields(tops, ends, ids, add_at, del_at, p)
    else:
        steps = chain(  # a dual cell enters when its primal simplex is deleted
            zip(repeat(True), tops + ridges, repeat(-1)),  # the whole dual graph enters first
            ((j < 0, j if j >= 0 else ~j, k) for k, j in enumerate(ids)),
            zip(repeat(False), ridges + tops, repeat(m)),  # and leaves after the last arrow
        )
        fields = _arrow_fields(*_copies(steps, ends), _directions(ids), p)
    return Barcode._of_fields(fields, m, RELATIVE), (ids, vts, comps)


def manifold_absolute_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Recoverable part of the absolute barcode of a manifold filtration.

    All of dimension p, plus the closed-open, open-closed, and open-open
    intervals of dimension p-1; requires f non-repetitive. K may be a
    closed pseudomanifold: the end intervals pair up per strong component.
    The second barcode of ``_relative_and_recovered``, with its errors.
    """
    return _relative_and_recovered(f, K, p)[1]


def _relative_and_recovered(f: ZigzagFiltration, K: SimplicialComplex,
                            p: int) -> Tuple[Barcode, Barcode]:
    """``relative_top_barcode(f, K, p)`` and ``recover_absolute_from_relative``
    of it, on one admission sweep: the same two barcodes, or the first error
    the two calls raise in turn (a non-manifold K before a repetitive f, and
    that before the walk). The cyclic GC is paused for the call."""
    with _gc_paused():
        rel, held = _relative_top(f, K, p, recover=True)
        return rel, _recovered(rel, *held, p)
