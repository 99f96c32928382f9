"""Simplices, simplicial complexes, and the dual graph of a closed manifold.

All types here are immutable after construction and safe to share across
threads; operations are pure functions.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .errors import InvalidConeError, InvalidInputError, NotAManifoldError


class Simplex:
    """A simplex given by its strictly increasing tuple of vertex ids."""

    __slots__ = ("vertices", "_hash")

    def __init__(self, vertices: Iterable[int]):
        vs = tuple(sorted(vertices))
        if not vs:
            raise InvalidInputError("a simplex needs at least one vertex")
        prev = -1
        for v in vs:
            if type(v) is not int or v < 0:
                raise InvalidInputError(f"vertex ids must be non-negative integers, got {v!r}")
            if v == prev:
                raise InvalidInputError(f"duplicate vertex {v} in simplex")
            prev = v
        self.vertices: Tuple[int, ...] = vs
        self._hash = hash(vs)

    @classmethod
    def _from_sorted(cls, vs: Tuple[int, ...]) -> "Simplex":
        """Fast path for internally produced, already strictly increasing tuples."""
        s = object.__new__(cls)
        s.vertices = vs
        s._hash = hash(vs)
        return s

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def is_face_of(self, other: "Simplex") -> bool:
        """True iff every vertex of self occurs in other (improper faces included)."""
        a, b = self.vertices, other.vertices
        if len(a) > len(b):
            return False
        j = 0
        nb = len(b)
        for v in a:
            while j < nb and b[j] < v:
                j += 1
            if j == nb or b[j] != v:
                return False
            j += 1
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, Simplex) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Simplex") -> bool:
        return (len(self.vertices), self.vertices) < (len(other.vertices), other.vertices)

    def __repr__(self) -> str:
        return "Simplex(%s)" % ",".join(map(str, self.vertices))


def boundary(s: Simplex) -> frozenset:
    """All facets (codimension-1 faces); empty for a vertex."""
    vs = s.vertices
    if len(vs) == 1:
        return frozenset()
    make = Simplex._from_sorted
    return frozenset(make(vs[:i] + vs[i + 1 :]) for i in range(len(vs)))


def cone(s: Simplex, apex: int) -> Simplex:
    """The simplex spanned by s and one extra apex vertex."""
    if apex in s.vertices:
        raise InvalidConeError(f"apex {apex} already belongs to {s!r}")
    vs = s.vertices
    if apex > vs[-1]:
        return Simplex._from_sorted(vs + (apex,))
    return Simplex(vs + (apex,))


def _missing_facet(fs: frozenset) -> Optional[Tuple[Simplex, Simplex]]:
    """The first facet missing from a set of simplices and its simplex, in
    the set's order, or None if the set is face-closed. The check runs on
    vertex tuples; only naming a missing facet walks the Simplex boundaries."""
    present = {s.vertices for s in fs}
    if present.issuperset(chain.from_iterable(map(_faces, present))):
        return None
    return next((f, s) for s in fs for f in boundary(s) if f not in fs)


class SimplicialComplex:
    """A face-closed set of simplices, indexed by dimension."""

    __slots__ = ("_simplices", "_by_dim", "_vertices")

    def __init__(self, simplices: Iterable[Simplex]):
        fs = frozenset(simplices)
        missing = _missing_facet(fs)
        if missing:
            raise InvalidInputError("not face-closed: %r (facet of %r) is missing" % missing)
        by_dim: Dict[int, List[Simplex]] = {}
        for s in fs:
            by_dim.setdefault(len(s.vertices) - 1, []).append(s)
        self._simplices = fs
        # one dimension's simplices have one length, so Simplex order is vertex tuple order
        key = attrgetter("vertices")
        self._by_dim = {q: tuple(sorted(ss, key=key)) for q, ss in by_dim.items()}
        self._vertices = frozenset(s.vertices[0] for s in by_dim.get(0, ()))

    @classmethod
    def closure(cls, simplices: Iterable[Simplex]) -> "SimplicialComplex":
        """Build the smallest complex containing the given simplices."""
        seen = set()
        stack = list(simplices)
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            stack.extend(boundary(s))
        return cls(seen)

    @property
    def n(self) -> int:
        return len(self._simplices)

    @property
    def dim(self) -> int:
        return max(self._by_dim) if self._by_dim else -1

    @property
    def vertices(self) -> frozenset:
        return self._vertices

    def of_dim(self, q: int) -> Tuple[Simplex, ...]:
        return self._by_dim.get(q, ())

    def simplex_set(self) -> frozenset:
        return self._simplices

    def __contains__(self, s: Simplex) -> bool:
        return s in self._simplices

    def __iter__(self) -> Iterator[Simplex]:
        for q in sorted(self._by_dim):
            yield from self._by_dim[q]

    def __len__(self) -> int:
        return len(self._simplices)

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._simplices == other._simplices

    def __hash__(self) -> int:
        return hash(self._simplices)

    def __repr__(self) -> str:
        return f"SimplicialComplex(n={self.n}, dim={self.dim})"


class ComponentLabels(NamedTuple):
    """Dense component ids, ordered by the smallest vertex id they contain."""

    count: int
    of_vertex: dict

    def label(self, s: Simplex) -> int:
        return self.of_vertex[s.vertices[0]]


def _find(parent, v: int) -> int:
    """Root of v in a union-find's parent map (a list or a dict), halving the path."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]  # v's parent becomes its grandparent, then v moves there
    return v


def connected_components(c: SimplicialComplex) -> ComponentLabels:
    """Label vertices (hence simplices) by connected component: a union-find
    over the vertices and edges of c."""
    parent = {v: v for v in c.vertices}
    for s in c.of_dim(1):
        ra, rb = _find(parent, s.vertices[0]), _find(parent, s.vertices[1])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)  # each root is its component's smallest vertex
    roots = sorted({_find(parent, v) for v in parent})
    index = {r: i for i, r in enumerate(roots)}
    return ComponentLabels(len(roots), {v: index[_find(parent, v)] for v in parent})


def _faces(vs: Tuple[int, ...]) -> Iterable[Tuple[int, ...]]:
    """Facets of the simplex with vertices vs, in ascending order of vertex tuple."""
    return combinations(vs, len(vs) - 1) if len(vs) > 1 else ()


def _facet_ids(vts: List[Tuple[int, ...]], get) -> List[Tuple[Optional[int], ...]]:
    """The ids (``get`` of the vertex tuple, None for none) of the facets of
    each vertex tuple, in ascending order of vertex tuple, up to and with
    the first None: a long tuple none of whose facets has an id costs one
    lookup. Edges and triangles, most of any complex, are unpacked rather
    than combined."""
    out: List[Tuple[Optional[int], ...]] = []
    append = out.append
    for vs in vts:
        k = len(vs)
        if k == 2:
            a, b = vs
            append((get((a,)), get((b,))))
        elif k == 3:
            a, b, c = vs
            append((get((a, b)), get((a, c)), get((b, c))))
        else:
            fs = []
            for t in _faces(vs):
                fs.append(get(t))
                if fs[-1] is None:
                    break
            append(tuple(fs))
    return out


class DualGraph:
    """Graph on the top-dimensional simplices of a closed p-manifold.

    Vertex i is dual to ``vertex_simplices[i]``; edge j joins the duals of
    the two p-cofaces of ``edge_simplices[j]``.
    """

    __slots__ = ("p", "vertex_simplices", "edge_simplices", "edges", "vertex_of", "edge_of")

    def __init__(self, p, vertex_simplices, edge_simplices, edges):
        self.p = p
        self.vertex_simplices: Tuple[Simplex, ...] = tuple(vertex_simplices)
        self.edge_simplices: Tuple[Simplex, ...] = tuple(edge_simplices)
        self.edges: Tuple[Tuple[int, int], ...] = tuple(edges)
        self.vertex_of = {s: i for i, s in enumerate(self.vertex_simplices)}
        self.edge_of = {s: i for i, s in enumerate(self.edge_simplices)}

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_simplices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_simplices)


def dual_graph(K: SimplicialComplex, p: int) -> DualGraph:
    """Dual graph of a closed simplicial p-manifold.

    Requires every (p-1)-simplex to have exactly two p-cofaces and every
    simplex to be the face of some p-simplex (so K is pure of dimension p);
    ``_dual_cells`` checks this on ids given in K's order.
    """
    vts = [s.vertices for s in K]
    idof = dict(zip(vts, range(len(vts))))
    tops, ridges, ends = _dual_cells(K, p, vts, _facet_ids(vts, idof.get), idof)
    vertex = {t: i for i, t in enumerate(tops)}  # p-id -> its dual vertex
    edges = [(vertex[a], vertex[b]) for a, b in map(ends.__getitem__, ridges)]
    return DualGraph(p, K.of_dim(p), K.of_dim(p - 1), edges)


def _refuse_non_int_p(p) -> None:
    """InvalidInputError for a top dimension p that is not an int (a bool is not)."""
    if type(p) is not int:
        raise InvalidInputError(f"dual graph needs an int p, got {p!r}")


def _dual_cells(K: SimplicialComplex, p: int, vts, facets, idof):
    """The dual graph of K on dense ids: its vertices (the p-ids) and edges
    (the (p-1)-ids), each in K's order, and per id the ends of its dual
    cell: () for a p-id, its two p-cofaces in K's order for a (p-1)-id (the
    p-ids' facet ids inverted once), None for a lower id.

    ``vts`` and ``facets`` give the vertex tuple and the facet ids of each
    id, and ``idof`` the id of each vertex tuple, for ids of exactly K's
    simplices. A p that is not an int, or p < 1, is InvalidInputError. A K
    that is no closed p-manifold or pseudomanifold is NotAManifoldError
    naming the first offender in K's order, checked in turn: a simplex of
    dimension above p, a (p-1)-simplex without exactly two p-cofaces, a
    simplex that is no face of a p-simplex; a Simplex is built only to name
    an offender.
    """
    _refuse_non_int_p(p)
    if p < 1:
        raise InvalidInputError("dual graph needs p >= 1")
    if K.dim > p:
        offender = K.of_dim(K.dim)[0]
        raise NotAManifoldError(f"{offender!r} has dimension {K.dim} > p = {p}")
    n = len(vts)
    tops = [idof[s.vertices] for s in K.of_dim(p)]
    ridges = [idof[s.vertices] for s in K.of_dim(p - 1)]
    ends = [None] * n
    for t in tops + ridges:
        ends[t] = ()
    for t in tops:
        for x in facets[t]:
            ends[x] += (t,)
    for x in ridges:
        if len(ends[x]) != 2:
            raise NotAManifoldError(
                f"{Simplex._from_sorted(vts[x])!r} has {len(ends[x])} cofaces of dimension {p}, "
                "expected 2"
            )
    faces = level = set(tops)  # the ids of faces of p-simplices
    while level:  # one dimension down at a time
        level = set(chain.from_iterable(map(facets.__getitem__, level)))
        faces |= level
    if len(faces) < n:
        s = min(Simplex._from_sorted(vts[j]) for j in range(n) if j not in faces)
        raise NotAManifoldError(f"{s!r} is not a face of any {p}-simplex")
    return tops, ridges, ends
