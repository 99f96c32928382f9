import itertools

import pytest

from zzpers import (
    InvalidConeError,
    InvalidInputError,
    NotAManifoldError,
    Simplex,
    SimplicialComplex,
    boundary,
    cone,
    connected_components,
    dual_graph,
    homology_basis,
)
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
