import gc
import itertools
import sys

import pytest

from zzpers import (
    ABSOLUTE,
    RELATIVE,
    Barcode,
    ContractViolationError,
    FiltrationEvent,
    GraphZigzag,
    InvalidInputError,
    NotNonRepetitiveError,
    NotStandardizedError,
    Simplex,
    ZigzagFiltration,
    compute_zigzag,
    dual_filtration,
    manifold_absolute_barcode,
    multiset_equal,
    oracle_absolute,
    oracle_relative,
    recover_absolute_from_relative,
    reduce,
    relative_top_barcode,
    standardize,
    to_updown,
    zero_dim_zigzag,
    zigzag_barcode,
)
import zzpers.filtration
from zzpers import duality, manifold
from zzpers.filtration import ADD, DEL
from zzpers.manifold import ADD_EDGE, ADD_VERTEX, DEL_EDGE, DEL_VERTEX, NOOP
from zzpers.oracle import sequence_barcode
from zzpers.rng import SplitMix64
from conftest import (
    grid_torus,
    moved_edge_torus,
    octahedron,
    random_nonrepetitive,
    random_updown,
    sx,
    tetra_boundary,
    zz,
)


def graph_snapshots(g: GraphZigzag):
    """Yield (vertex set, edge set) for G_0..G_m of a valid graph zigzag."""
    vs = set(g.initial_vertices)
    es = set(g.initial_edges)
    yield frozenset(vs), frozenset(es)
    apply = {ADD_VERTEX: vs.add, DEL_VERTEX: vs.discard, ADD_EDGE: es.add, DEL_EDGE: es.discard}
    for op, idx in g.events:
        if op != NOOP:
            apply[op](idx)
        yield frozenset(vs), frozenset(es)


def test_dual_filtration_complement_shape():
    K = tetra_boundary()
    rng = SplitMix64(1)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()), walk=0)  # up-down
    g = dual_filtration(f, K, 2)
    # empty complex dualizes to the full graph
    snaps = list(graph_snapshots(g))
    assert snaps[0] == (frozenset(range(4)), frozenset(range(6)))
    # at the midpoint the complex is all of K, so the dual graph is empty
    n = len(f) // 2
    assert snaps[n] == (frozenset(), frozenset())
    # a primal triangle addition deletes exactly its dual vertex
    for idx, e in enumerate(f.events):
        if e.direction == "a" and e.simplex.dim == 2:
            op, payload = g.events[idx]
            assert op == DEL_VERTEX
            assert g.dual.vertex_simplices[payload] == e.simplex
            break


def test_dual_filtration_snapshots_are_subgraphs():
    K = octahedron()
    rng = SplitMix64(2)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()))
    g = dual_filtration(f, K, 2)
    for vs, es in graph_snapshots(g):
        for ei in es:
            a, b = g.edges[ei]
            assert a in vs and b in vs


def test_dual_filtration_rejects_foreign_simplex():
    K = octahedron()
    f = ZigzagFiltration([FiltrationEvent.add(sx(99))])
    with pytest.raises(InvalidInputError):
        dual_filtration(f, K, 2)


def test_zero_dim_zigzag_two_vertex_example():
    g = GraphZigzag(
        n_vertices=2,
        edges=((0, 1),),
        events=(
            (ADD_VERTEX, 0),
            (ADD_VERTEX, 1),
            (ADD_EDGE, 0),
            (DEL_EDGE, 0),
            (DEL_VERTEX, 1),
            (DEL_VERTEX, 0),
        ),
    )
    bars = zero_dim_zigzag(g)
    assert sorted((i.b, i.d) for i in bars) == [(1, 5), (2, 2), (4, 4)]


def test_zero_dim_zigzag_empty():
    g = GraphZigzag(n_vertices=0, edges=(), events=())
    assert len(zero_dim_zigzag(g)) == 0


def test_zero_dim_zigzag_additions_only_matches_reduction():
    # grow a path, one vertex or edge at a time
    g = GraphZigzag(
        n_vertices=3,
        edges=((0, 1), (1, 2)),
        events=(
            (ADD_VERTEX, 0),
            (ADD_VERTEX, 1),
            (ADD_EDGE, 0),
            (ADD_VERTEX, 2),
            (ADD_EDGE, 1),
        ),
    )
    bars = zero_dim_zigzag(g)
    order = [sx(0), sx(1), sx(0, 1), sx(2), sx(1, 2)]
    st = reduce(order)
    m = len(order)
    expected = {(i + 1, j) for i, j in st.pairs if order[i].dim == 0}
    expected |= {(i + 1, m) for i in st.essentials if order[i].dim == 0}
    assert {(i.b, i.d) for i in bars} == expected


def test_zero_dim_zigzag_agrees_with_pipeline_on_updown_graph():
    # the same up-down sequence run as a graph zigzag and as a filtration
    rng = SplitMix64(3)
    circle = [sx(0), sx(1), sx(2), sx(0, 1), sx(0, 2), sx(1, 2)]
    from zzpers.complexes import SimplicialComplex

    U = random_updown(rng, sorted(SimplicialComplex.closure(circle).simplex_set()))
    vertex_ids = {}
    edge_ids = {}
    edges = []
    events = []
    for e in U.events:
        s = e.simplex
        if s.dim == 0:
            vid = vertex_ids.setdefault(s, len(vertex_ids))
            events.append((ADD_VERTEX if e.direction == "a" else DEL_VERTEX, vid))
        else:
            if s not in edge_ids:
                edge_ids[s] = len(edges)
                edges.append(tuple(vertex_ids[Simplex([v])] for v in s.vertices))
            events.append((ADD_EDGE if e.direction == "a" else DEL_EDGE, edge_ids[s]))
    g = GraphZigzag(len(vertex_ids), tuple(edges), tuple(events))
    graph_bars = {(i.b, i.d): c for i, c in zero_dim_zigzag(g).counts().items()}
    pipeline_bars = {}
    for i, c in zigzag_barcode(U).counts().items():
        if i.dim == 0:
            pipeline_bars[(i.b, i.d)] = c
    assert graph_bars == pipeline_bars


def test_relative_top_barcode_sphere_boundary_counts():
    K = octahedron()
    rng = SplitMix64(4)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()))
    rel = relative_top_barcode(f, K, 2)
    m = len(f)
    assert sum(c for i, c in rel.counts().items() if i.b == 0) == 1
    assert sum(c for i, c in rel.counts().items() if i.d == m) == 1
    assert multiset_equal(rel, oracle_relative(f).in_dim(2)).equal


def test_relative_top_barcode_allows_repetitive_with_noop_tail():
    K = octahedron()
    rng = SplitMix64(5)
    base = random_nonrepetitive(rng, sorted(K.simplex_set()))
    v = sx(0)
    f = ZigzagFiltration(
        list(base.events) + [FiltrationEvent.add(v), FiltrationEvent.delete(v)]
    )
    # repetitive: vertex 0 was deleted earlier and returns at the tail
    rel = relative_top_barcode(f, K, 2)
    assert multiset_equal(rel, oracle_relative(f).in_dim(2)).equal


def test_manifold_absolute_barcode_torus_instance():
    K = grid_torus()
    rng = SplitMix64(6)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()))
    got = manifold_absolute_barcode(f, K, 2)
    want = oracle_absolute(f).filter(
        lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
    )
    assert multiset_equal(got, want).equal


def test_manifold_absolute_barcode_sweeps_its_filtration_once(monkeypatch):
    K = octahedron()
    f = random_nonrepetitive(SplitMix64(5), sorted(K.simplex_set()))
    v = sx(0)
    repetitive = ZigzagFiltration([*f.events, FiltrationEvent.add(v), FiltrationEvent.delete(v)])
    want = recover_absolute_from_relative(relative_top_barcode(f, K, 2), f, K, 2)
    swept, sweeps, holders = [], [], []

    def sweep_spy(g, inner=zzpers.filtration._sweep):
        swept.append(g)
        sweeps.append(inner(g))
        return sweeps[-1]

    def walk_spy(*args, inner=manifold.dual_filtration):
        holders.append(sys.getrefcount(sweeps[-1]) - 2)  # less this list's and the argument's
        return inner(*args)

    monkeypatch.setattr(zzpers.filtration, "_sweep", sweep_spy)
    monkeypatch.setattr(manifold, "dual_filtration", walk_spy)
    assert manifold_absolute_barcode(f, K, 2) == want
    assert len(swept) == 1 and swept[0] is f
    assert holders == [0]  # the sweep is not held while the dual graph is walked
    # a repetitive f is refused from its one sweep, before the dual graph is walked
    with pytest.raises(NotNonRepetitiveError):
        manifold_absolute_barcode(repetitive, K, 2)
    assert len(swept) == 2 and swept[1] is repetitive and holders == [0]


@pytest.mark.parametrize("enabled", [True, False])
def test_manifold_path_pauses_the_gc_and_builds_no_cycle(enabled, monkeypatch):
    K = grid_torus()
    f = random_nonrepetitive(SplitMix64(6), sorted(K.simplex_set()))
    paused = []  # the GC state where each call does its main work
    for module, name in ((manifold, "dual_filtration"), (duality, "_strong_components")):
        def spy(*args, inner=getattr(module, name)):
            paused.append(not gc.isenabled())
            return inner(*args)

        monkeypatch.setattr(module, name, spy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        gc.collect()
        rel = relative_top_barcode(f, K, 2)
        assert gc.isenabled() is enabled
        assert gc.collect() == 0  # refcounting alone freed what the paused call built
        rec = recover_absolute_from_relative(rel, f, K, 2)
        assert gc.isenabled() is enabled
        assert gc.collect() == 0
        assert paused == [True, True]
        with pytest.raises(NotStandardizedError):
            relative_top_barcode(ZigzagFiltration([FiltrationEvent.add(sx(0))]), K, 2)
        assert gc.isenabled() is enabled
        with pytest.raises(ContractViolationError):
            recover_absolute_from_relative(rec, f, K, 2)  # an absolute barcode
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize(
    "f, p", [(zz("a 0 1", "a 0", "a 1", "d 0 1", "d 0", "d 1"), 1), (moved_edge_torus(), 2)]
)
def test_every_entry_point_rejects_an_invalid_filtration_alike(f, p):
    K = f.total_complex()  # every simplex is added, though not every one validly
    calls = (
        lambda: compute_zigzag(f),
        lambda: to_updown(standardize(f)[0]),
        lambda: relative_top_barcode(f, K, p),
        lambda: manifold_absolute_barcode(f, K, p),
        lambda: recover_absolute_from_relative(Barcode([], len(f), RELATIVE), f, K, p),
    )
    messages = set()
    for call in calls:
        with pytest.raises(InvalidInputError) as err:
            call()
        messages.add(str(err.value))
    assert len(messages) == 1


PATH3 = ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "edges, events, init_v, init_e, message, nv",
    [
        (PATH3, (("+x", 0),), (), (), "unknown graph event", 3),
        (PATH3, ((ADD_VERTEX, 0), (ADD_EDGE, 0)), (), (), "edge 0 added while an end is absent", 3),
        (PATH3, ((DEL_VERTEX, 2),), (0, 1), (), "delete of absent vertex 2", 3),
        (PATH3, ((DEL_EDGE, 1),), (0, 1, 2), (0,), "delete of absent edge 1", 3),
        (PATH3, ((DEL_VERTEX, 1),), (0, 1, 2), (0,), "vertex 1 deleted while an edge", 3),
        (PATH3, ((ADD_VERTEX, 0),), (0,), (), "vertex 0 added while present", 3),
        (PATH3, ((ADD_EDGE, 0),), (0, 1), (0,), "edge 0 added while present", 3),
        (PATH3, ((ADD_VERTEX, 3),), (), (), "vertex index 3 out of range", 3),
        (PATH3, ((DEL_EDGE, None),), (), (), "edge index None out of range", 3),
        (PATH3, (), (0, 2), (1,), "initial graph: edge 1 added while an end is absent", 3),
        (((0, 1), (1, 1)), (), (), (), "edge 1 is a self-loop", 3),
        (((0, 1), (1, 0)), (), (), (), "edge 1 is parallel", 3),
        (((0, 3),), (), (), (), "vertex index 3 out of range", 3),
        (((0, 5),), (), (), (), "vertex index 5 out of range for 2 vertices", 2),
        (PATH3, (), (0, "a"), (), "vertex index 'a' out of range", 3),
        (PATH3, (), (0, 1), (None,), "edge index None out of range", 3),
        (PATH3, ((["+v"], 0),), (), (), "arrow 0: unknown graph event", 3),
        (PATH3, ((ADD_VERTEX, 0), ("+v",)), (), (), "arrow 1: unknown graph event", 3),
        (((0, 1, 2),), (), (), (), "edge 0 is not a pair of vertices", 3),
        ((), (), (), (), "vertex count -1", -1),
    ],
)
def test_zero_dim_zigzag_rejects_malformed_graph_zigzags(
    edges, events, init_v, init_e, message, nv
):
    g = GraphZigzag(nv, edges, events, frozenset(init_v), frozenset(init_e))
    with pytest.raises(InvalidInputError, match=message):
        zero_dim_zigzag(g)


def _random_graph_zigzag(rng: SplitMix64, m: int) -> GraphZigzag:
    """A valid graph zigzag on a random simple graph with up to 5 vertices.

    Identity arrows come in runs, and a cell often leaves and comes back
    (an edge sometimes while both its ends stay, which repeats the simplex
    it would make).
    """
    nv = 1 + rng.below(5)
    pairs = list(itertools.combinations(range(nv), 2))
    rng.shuffle(pairs)
    edges = tuple(pairs[: rng.below(len(pairs) + 1)])
    vs = {v for v in range(nv) if rng.below(2)}
    es = {i for i, (a, b) in enumerate(edges) if a in vs and b in vs and rng.below(2)}
    g0 = (frozenset(vs), frozenset(es))
    events = []
    while len(events) < m:
        moves = [(ADD_VERTEX, v) for v in range(nv) if v not in vs]
        moves += [(DEL_VERTEX, v) for v in sorted(vs) if not any(v in edges[i] for i in es)]
        moves += [(ADD_EDGE, i) for i, (a, b) in enumerate(edges)
                  if i not in es and a in vs and b in vs]
        moves += [(DEL_EDGE, i) for i in sorted(es)]
        if not moves or rng.below(5) == 0:
            events.extend([(NOOP, None)] * min(1 + rng.below(3), m - len(events)))
            continue
        op, i = moves[rng.below(len(moves))]
        events.append((op, i))
        {ADD_VERTEX: vs.add, DEL_VERTEX: vs.discard, ADD_EDGE: es.add, DEL_EDGE: es.discard}[op](i)
    return GraphZigzag(nv, edges, tuple(events), *g0)


def _oracle_zero_dim(g: GraphZigzag):
    """The graph zigzag's 0-dimensional barcode by the brute-force oracle."""
    pairs = [
        (frozenset([*(Simplex([v]) for v in vs), *(Simplex(g.edges[i]) for i in es)]), frozenset())
        for vs, es in graph_snapshots(g)
    ]
    directions = [ADD if op in (ADD_VERTEX, ADD_EDGE, NOOP) else DEL for op, _ in g.events]
    return sequence_barcode(pairs, directions, ABSOLUTE, qmax=0)


def test_zero_dim_zigzag_matches_oracle_on_random_graph_zigzags():
    rng = SplitMix64(0x0D1)
    seen = {"m=0": 0, "non-empty start": 0, "identity run": 0, "cell re-enters twice": 0,
            "edge back on the same ends": 0}
    for case in range(120):
        g = _random_graph_zigzag(rng, 0 if case % 15 == 0 else 1 + rng.below(24))
        got = zero_dim_zigzag(g)
        assert multiset_equal(got, _oracle_zero_dim(g)).equal, g
        seen["m=0"] += g.m == 0
        seen["non-empty start"] += bool(g.initial_vertices)
        ops = [op for op, _ in g.events]
        seen["identity run"] += any(a == b == NOOP for a, b in zip(ops, ops[1:]))
        entries = [e for e in g.events if e[0] in (ADD_VERTEX, ADD_EDGE)]
        seen["cell re-enters twice"] += any(entries.count(e) >= 3 for e in entries)
        for k, (op, i) in enumerate(g.events):
            if op == DEL_EDGE:
                back = next((j for j in range(k + 1, g.m) if g.events[j] == (ADD_EDGE, i)), None)
                ends = {(DEL_VERTEX, v) for v in g.edges[i]}
                if back is not None and not ends & set(g.events[k:back]):
                    seen["edge back on the same ends"] += 1
                    break
    assert all(seen.values()), seen


def test_zero_dim_zigzag_hands_its_passes_a_valid_copy_record(monkeypatch):
    """The walk's record is the only input of the pairing passes, so check
    it: ids in order of addition, each deleted once after it is added,
    facets present over their coface's lifetime, vertices and edges well
    formed."""
    import zzpers.manifold as manifold

    records = []
    passes, remap = manifold._copy_pairs, manifold._remap_pairs

    def capture_passes(facets, dims, dels):
        records.append([facets, dims, dels])
        return passes(facets, dims, dels)

    def capture_remap(pairs, dims, dels, add_at, del_at):
        assert records[-1][1:] == [dims, dels]
        records[-1] += [add_at, del_at]
        return remap(pairs, dims, dels, add_at, del_at)

    monkeypatch.setattr(manifold, "_copy_pairs", capture_passes)
    monkeypatch.setattr(manifold, "_remap_pairs", capture_remap)
    rng = SplitMix64(0x0D1)
    for case in range(120):
        g = _random_graph_zigzag(rng, 0 if case % 15 == 0 else 1 + rng.below(24))
        zero_dim_zigzag(g)
        facets, dims, dels, add_at, del_at = records[-1]
        n = len(dims)
        assert len(facets) == len(add_at) == len(del_at) == n
        assert add_at == sorted(add_at) and sorted(dels) == list(range(n))
        assert sorted(add_at + del_at) == list(range(2 * n))
        assert [del_at[j] for j in dels] == sorted(del_at)
        for j in range(n):
            assert add_at[j] < del_at[j]
            assert (dims[j], len(facets[j])) in ((0, 0), (1, 2))
            for x in facets[j]:
                assert dims[x] == 0 and add_at[x] < add_at[j] and del_at[j] < del_at[x]
    assert len(records) == 120


def test_zero_dim_zigzag_builds_no_simplex_event_or_sweep(monkeypatch):
    import zzpers.filtration
    import zzpers.pipeline
    import zzpers.reduction

    g = _random_graph_zigzag(SplitMix64(7), 24)
    expected = zero_dim_zigzag(g)

    def forbidden(*args, **kwargs):
        raise AssertionError("zero_dim_zigzag built a simplex, an event, a sweep or a matrix")

    monkeypatch.setattr(Simplex, "__init__", forbidden)
    monkeypatch.setattr(Simplex, "_from_sorted", forbidden)
    monkeypatch.setattr(FiltrationEvent, "__init__", forbidden)
    monkeypatch.setattr(zzpers.filtration, "_sweep", forbidden)
    monkeypatch.setattr(zzpers.pipeline, "_solve", forbidden)
    monkeypatch.setattr(zzpers.reduction, "_reduce", forbidden)
    assert zero_dim_zigzag(g) == expected
    assert expected.m == 24 and len(expected)
