"""Top-dimensional zigzag persistence on closed p-manifolds through the
dual graph.

A filtration of the manifold induces a zigzag of subgraphs of the dual
graph: a dual vertex or edge is present exactly when its primal simplex is
absent, so additions become deletions and vice versa, and events on
simplices below dimension p-1 become identity arrows (kept so indices stay
aligned). The 0-dimensional barcode of that graph zigzag equals the
dimension-p relative barcode of the filtration.

The 0-dimensional computation here is a correctness-first baseline:
component labels per snapshot via union-find, label maps as matrices, and
the shared generalized-rank decomposition. Near-linear structures for the
same job are a documented future optimization. Note the dual zigzag is
generally repetitive (dual cells reappear), which is fine for this path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .barcode import ABSOLUTE, RELATIVE, Barcode, Interval, classify_ends
from .complexes import DualGraph, SimplicialComplex, _label_components, dual_graph
from .duality import recover_absolute_from_relative
from .errors import InvalidInputError, NotStandardizedError
from .filtration import ADD, DEL, ZigzagFiltration
from .oracle import LinearSpaceChain, zigzag_decompose

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
    indices refer to the fixed vertex and edge lists.
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


def zero_dim_zigzag(g: GraphZigzag) -> Barcode:
    """0-dimensional barcode of the graph zigzag.

    Builds the component-label module snapshot by snapshot and decomposes
    it with the generalized-rank routine; cost is quadratic in the number
    of arrows times component counts, adequate at desk scale.
    """
    snaps = list(g.snapshots())
    labelings = [_label_components(vs, (g.edges[ei] for ei in es)) for vs, es in snaps]
    dims = tuple(lab.count for lab in labelings)
    reps: List[List[int]] = []  # representative vertex per component, per snapshot
    for lab in labelings:
        by_label: Dict[int, int] = {}
        for v, c in lab.of_vertex.items():
            if c not in by_label or v < by_label[c]:
                by_label[c] = v
        reps.append([by_label[c] for c in sorted(by_label)])
    arrows = []
    for k, (op, _) in enumerate(g.events):
        if op in _FORWARD_OPS:
            src, tgt = k, k + 1
            direction = "f"
        else:
            src, tgt = k + 1, k
            direction = "b"
        target_lab = labelings[tgt].of_vertex
        cols = tuple(1 << target_lab[r] for r in reps[src])
        arrows.append((direction, cols))
    counts = zigzag_decompose(LinearSpaceChain(dims, tuple(arrows)))
    directions = tuple(ADD if op in _FORWARD_OPS else DEL for op, _ in g.events)
    intervals = {
        Interval(0, b, d, *classify_ends(b, d, directions)): c for (b, d), c in counts.items()
    }
    return Barcode(intervals, g.m, ABSOLUTE)


def relative_top_barcode(f: ZigzagFiltration, K: SimplicialComplex, p: int) -> Barcode:
    """Dimension-p relative barcode of a filtration of a closed p-manifold.

    Computed as the 0-dimensional barcode of the dual-graph complement
    zigzag; end types come from the relative arrows, which follow f's own
    directions. Repetitive filtrations are allowed here.
    """
    if not f.is_standardized():
        raise NotStandardizedError("manifold path needs a standardized filtration")
    if f.total_complex().simplex_set() != K.simplex_set():
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
