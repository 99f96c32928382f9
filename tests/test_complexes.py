import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzpers import (
    InvalidConeError,
    InvalidInputError,
    NotAManifoldError,
    Simplex,
    SimplicialComplex,
    ZigzagFiltration,
    boundary,
    cone,
    connected_components,
    dual_graph,
    homology_basis,
)
from zzpers.filtration import FiltrationEvent
from conftest import grid_torus, octahedron, sx, tetra_boundary


def test_simplex_invariants():
    assert sx(2, 0, 1).vertices == (0, 1, 2)
    assert sx(5).dim == 0
    with pytest.raises(InvalidInputError):
        Simplex([1, 1])
    with pytest.raises(InvalidInputError):
        Simplex([-1])
    with pytest.raises(InvalidInputError):
        Simplex([])
    with pytest.raises(InvalidInputError):
        Simplex([True, 2])


def test_is_face_of():
    assert sx(0, 2).is_face_of(sx(0, 1, 2))
    assert sx(0, 1, 2).is_face_of(sx(0, 1, 2))
    assert not sx(0, 3).is_face_of(sx(0, 1, 2))
    assert not sx(0, 1, 2).is_face_of(sx(0, 1))


def test_boundary_examples():
    assert boundary(sx(0)) == frozenset()
    assert boundary(sx(0, 1)) == {sx(0), sx(1)}
    assert boundary(sx(0, 1, 2)) == {sx(0, 1), sx(0, 2), sx(1, 2)}


def test_boundary_count_property():
    for verts in [(0,), (1, 4), (0, 2, 5), (1, 2, 3, 7), (0, 1, 2, 3, 4)]:
        s = Simplex(verts)
        assert len(boundary(s)) == s.dim + 1 if s.dim > 0 else not boundary(s)


def test_boundary_squared_vanishes_mod2():
    # every codimension-2 face appears in exactly two facets
    for verts in [(0, 1, 2), (0, 1, 2, 3), (2, 4, 6, 8, 9)]:
        s = Simplex(verts)
        counts = {}
        for f in boundary(s):
            for g in boundary(f):
                counts[g] = counts.get(g, 0) + 1
        assert counts and all(c == 2 for c in counts.values())


def test_cone_examples():
    assert cone(sx(0, 1), 9) == sx(0, 1, 9)
    assert cone(sx(0), 9) == sx(0, 9)
    assert cone(sx(1, 5), 3) == sx(1, 3, 5)
    with pytest.raises(InvalidConeError):
        cone(sx(0, 9), 9)


def test_complex_closure_and_membership():
    K = SimplicialComplex.closure([sx(0, 1, 2)])
    assert K.n == 7 and K.dim == 2
    assert sx(0, 2) in K and sx(1) in K
    with pytest.raises(InvalidInputError):
        SimplicialComplex([sx(0, 1)])  # vertices missing


# vertex sets of up to 5 vertices among 8: complexes up to dimension 4
vertex_sets = st.lists(st.sets(st.integers(0, 7), min_size=1, max_size=5), max_size=8)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vertex_sets)
def test_of_dim_and_iteration_follow_simplex_order(tops):
    K = SimplicialComplex.closure([Simplex(t) for t in tops])
    for q in range(-1, K.dim + 2):
        assert K.of_dim(q) == tuple(sorted(s for s in K.simplex_set() if s.dim == q))
    assert list(K) == sorted(K.simplex_set())
    assert K.vertices == {v for s in K.simplex_set() for v in s.vertices}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(vertex_sets)
def test_complex_names_the_first_missing_facet_of_the_simplex_walk(sets):
    fs = frozenset(Simplex(t) for t in sets)
    missing = next(((f, s) for s in fs for f in boundary(s) if f not in fs), None)
    if missing is None:
        assert SimplicialComplex(fs).simplex_set() == fs
    else:
        with pytest.raises(InvalidInputError) as err:
            SimplicialComplex(fs)
        assert str(err.value) == "not face-closed: %r (facet of %r) is missing" % missing


def test_not_face_closed_texts_name_the_same_facet():
    # K_0 misses four facets: 0.2 and 1.2 of the first triangle, 1.3 and 2.3 of the
    # second; the texts are those the walk over Simplex boundaries gave
    broken = [sx(0), sx(1), sx(2), sx(3), sx(0, 1), sx(0, 1, 2), sx(1, 2, 3)]
    first = r"Simplex\(0,2\) \(facet of Simplex\(0,1,2\)\)"
    with pytest.raises(InvalidInputError, match=rf"^not face-closed: {first} is missing$"):
        SimplicialComplex(broken)
    with pytest.raises(InvalidInputError, match=r"^not face-closed: Simplex\(2,3\) \(facet of "
                                                r"Simplex\(1,2,3\)\) is missing$"):
        SimplicialComplex(reversed(broken))
    with pytest.raises(InvalidInputError,
                       match=rf"^initial complex is not face-closed: missing {first}$"):
        ZigzagFiltration([], broken)
    f = ZigzagFiltration([FiltrationEvent.add(s) for s in broken[5:]], broken[:5])
    with pytest.raises(InvalidInputError, match=rf"^not face-closed: {first} is missing$"):
        f.total_complex()
    K = SimplicialComplex.closure(broken)  # closing adds the four
    assert K.n == 11 and {sx(0, 2), sx(1, 2), sx(1, 3), sx(2, 3)} <= K.simplex_set()


def test_connected_components_examples():
    one = SimplicialComplex.closure([sx(0, 1)])
    assert connected_components(one).count == 1
    two = SimplicialComplex([sx(0), sx(1)])
    labels = connected_components(two)
    assert labels.count == 2
    assert labels.of_vertex[0] == 0 and labels.of_vertex[1] == 1


def _bfs_components(K: SimplicialComplex) -> int:
    # independent check: breadth-first search on the vertex adjacency graph
    adjacency = {v: set() for v in K.vertices}
    for s in K.of_dim(1):
        a, b = s.vertices
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    count = 0
    for v in sorted(K.vertices):
        if v in seen:
            continue
        count += 1
        queue = [v]
        seen.add(v)
        while queue:
            x = queue.pop()
            for y in adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return count


def test_connected_components_octahedron_vs_bfs():
    K = octahedron()
    assert connected_components(K).count == _bfs_components(K) == 1


def test_component_count_matches_h0_rank():
    for K in (octahedron(), SimplicialComplex([sx(0), sx(1)]),
              SimplicialComplex.closure([sx(0, 1), sx(3, 4), sx(5)])):
        assert connected_components(K).count == homology_basis(K, 0).rank


def _coface_count_oracle(K: SimplicialComplex, p: int):
    # brute force: count p-cofaces of every (p-1)-simplex by subset testing
    out = {}
    for f in K.of_dim(p - 1):
        out[f] = sum(1 for t in K.of_dim(p) if f.is_face_of(t))
    return out


def test_dual_graph_tetrahedron_is_k4():
    K = tetra_boundary()
    G = dual_graph(K, 2)
    assert G.n_vertices == 4 and G.n_edges == 6
    # complete graph: every pair of dual vertices joined once
    assert sorted(G.edges) == sorted(itertools.combinations(range(4), 2))
    assert all(c == 2 for c in _coface_count_oracle(K, 2).values())


def test_dual_graph_two_components():
    K = SimplicialComplex(tetra_boundary(0).simplex_set() | tetra_boundary(4).simplex_set())
    G = dual_graph(K, 2)
    assert G.n_vertices == 8 and G.n_edges == 12
    # no edge crosses the two tetrahedra
    for a, b in G.edges:
        va = G.vertex_simplices[a].vertices
        vb = G.vertex_simplices[b].vertices
        assert (max(va) < 4) == (max(vb) < 4)


def test_dual_graph_round_trip():
    K = grid_torus()
    G = dual_graph(K, 2)
    for i, s in enumerate(G.vertex_simplices):
        assert G.vertex_of[s] == i
    for i, s in enumerate(G.edge_simplices):
        assert G.edge_of[s] == i
    assert set(G.vertex_simplices) == set(K.of_dim(2))
    assert set(G.edge_simplices) == set(K.of_dim(1))


def test_dual_graph_rejects_non_manifold():
    K = SimplicialComplex.closure([sx(0, 1, 2)])
    with pytest.raises(NotAManifoldError) as err:
        dual_graph(K, 2)
    assert "cofaces" in str(err.value)


def test_dual_graph_rejects_impure():
    K = SimplicialComplex(octahedron().simplex_set() | {sx(9)})
    with pytest.raises(NotAManifoldError):
        dual_graph(K, 2)


def test_dual_graph_names_the_first_simplex_off_the_top_faces():
    K = SimplicialComplex(octahedron().simplex_set() | {sx(9), sx(8)})
    with pytest.raises(NotAManifoldError) as err:
        dual_graph(K, 2)
    assert str(err.value) == "Simplex(8) is not a face of any 2-simplex"
