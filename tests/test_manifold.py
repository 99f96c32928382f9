import gc
import itertools
import sys
from array import array
from collections import Counter

import pytest

from zzpers import (
    ABSOLUTE,
    RELATIVE,
    Barcode,
    ContractViolationError,
    FiltrationEvent,
    GraphZigzag,
    Interval,
    InternalInconsistencyError,
    InvalidInputError,
    NotAManifoldError,
    NotNonRepetitiveError,
    NotStandardizedError,
    Simplex,
    SimplicialComplex,
    ZigzagFiltration,
    compute_zigzag,
    dual_filtration,
    dual_graph,
    find_repetition,
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
import zzpers.pipeline
from zzpers import complexes, duality, manifold
from zzpers.barcode import classify_ends
from zzpers.filtration import ADD, DEL
from zzpers.cli import main
from zzpers.io import OffMesh, format_filtration, generate
from zzpers.manifold import ADD_EDGE, ADD_VERTEX, DEL_EDGE, DEL_VERTEX, NOOP
from zzpers.oracle import sequence_barcode
from zzpers.pipeline import _solve
from zzpers.rng import SplitMix64
from conftest import (
    grid_torus,
    moved_edge_torus,
    octahedra_wedge,
    octahedron,
    random_complex,
    random_nonrepetitive,
    random_updown,
    sx,
    tetra_boundary,
    torus_mesh_points,
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
    swept, sweeps, holders, walks = [], [], [], []

    def sweep_spy(g, inner=zzpers.filtration._sweep):
        swept.append(g)
        sweeps.append(inner(g))
        return sweeps[-1]

    def passes_spy(*args, inner=manifold._top_fields):
        holders.append(sys.getrefcount(sweeps[-1]) - 2)  # less this list's and the argument's
        return inner(*args)

    def walk_spy(*args, inner=manifold._copies):
        walks.append(args)
        return inner(*args)

    monkeypatch.setattr(zzpers.filtration, "_sweep", sweep_spy)
    monkeypatch.setattr(manifold, "_top_fields", passes_spy)
    monkeypatch.setattr(manifold, "_copies", walk_spy)
    assert manifold_absolute_barcode(f, K, 2) == want
    assert len(swept) == 1 and swept[0] is f
    assert holders == [0]  # the sweep is dropped before the passes run
    assert walks == []
    # a repetitive f is refused from its one sweep, before the dual zigzag is walked
    with pytest.raises(NotNonRepetitiveError):
        manifold_absolute_barcode(repetitive, K, 2)
    assert len(swept) == 2 and swept[1] is repetitive and holders == [0] and walks == []


def test_manifold_path_builds_no_dual_graph_or_graph_zigzag(monkeypatch):
    K = grid_torus()
    f = random_nonrepetitive(SplitMix64(6), sorted(K.simplex_set()))
    rel, absolute = relative_top_barcode(f, K, 2), manifold_absolute_barcode(f, K, 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("the manifold path went through the Simplex-keyed graph route")

    for module, name in ((complexes, "dual_graph"), (manifold, "dual_graph"),
                         (manifold, "dual_filtration"), (manifold, "zero_dim_zigzag"),
                         (GraphZigzag, "__init__")):
        monkeypatch.setattr(module, name, forbidden)
    assert relative_top_barcode(f, K, 2) == rel
    assert manifold_absolute_barcode(f, K, 2) == absolute


def _graph_route(f, K, p):
    """The route the manifold path used to take, kept as its reference: the
    0-dimensional barcode of the graph zigzag ``dual_filtration`` builds,
    retyped to dimension p with f's end types."""
    directions = f.directions()
    return Barcode(
        [Interval(p, i.b, i.d, *classify_ends(i.b, i.d, directions))
         for i in zero_dim_zigzag(dual_filtration(f, K, p))],
        len(f), RELATIVE,
    )


def polygon(n: int = 7) -> SimplicialComplex:
    """The boundary of an n-gon: a closed 1-manifold."""
    return SimplicialComplex.closure([Simplex((i, (i + 1) % n)) for i in range(n)])


# closed (pseudo)manifolds and their top dimension p
MANIFOLDS = {"octahedron": (octahedron, 2), "grid_torus": (grid_torus, 2),
             "octahedra_wedge": (octahedra_wedge, 2), "polygon": (polygon, 1)}


class _MatrixSolve(AssertionError):
    pass


def _solve_spy(monkeypatch):
    """Make ``pipeline._solve``, as the manifold module calls it, count its
    calls in the dict returned, and raise while its "armed" is set."""
    calls = {"armed": True, "solves": 0}

    def spy(*args, inner=manifold._solve):
        calls["solves"] += 1
        if calls["armed"]:
            raise _MatrixSolve("_solve ran on a non-repetitive walk")
        return inner(*args)

    monkeypatch.setattr(manifold, "_solve", spy)
    return calls


@pytest.mark.parametrize("name", list(MANIFOLDS))
def test_relative_top_barcode_equals_the_graph_route(name, monkeypatch):
    """Same barcode. f goes through the two union-finds, with no copy record
    and no matrix solve; the walk of its repetitive tail records the same
    copies as the graph route (the initial copies in the dual graph's order,
    as the graph route adds them) and runs one matrix solve. The first cases
    are held to the brute-force oracle too."""
    make, p = MANIFOLDS[name]
    K = make()
    tops = K.of_dim(p)
    records = _capture_copy_records(monkeypatch)
    calls = _solve_spy(monkeypatch)
    rng = SplitMix64(0x5EE)
    for case in range(40):
        f = random_nonrepetitive(rng, sorted(K.simplex_set()))
        # a repetitive tail: one top simplex's closure added again, then taken down
        closure = sorted(SimplicialComplex.closure([tops[rng.below(len(tops))]]).simplex_set())
        tail = [FiltrationEvent.add(s) for s in closure]
        tail += [FiltrationEvent.delete(s) for s in reversed(closure)]
        repetitive = ZigzagFiltration([*f.events, *tail])
        assert find_repetition(repetitive) is not None
        for g in (f, repetitive):
            calls.update(armed=g is f, solves=0)
            walked = len(records)
            rel = relative_top_barcode(g, K, p)
            assert calls["solves"] == len(records) - walked == (g is repetitive)
            calls["armed"] = False  # the graph route pairs every record by the matrix solve
            assert rel == _graph_route(g, K, p), g
            assert len(records) - walked == 1 + (g is repetitive)
            if g is repetitive:
                assert records[-2] == records[-1]
            assert rel.kind == RELATIVE and rel.m == len(g) and len(rel)
            if case < 3:
                assert rel == oracle_relative(g).in_dim(p), g


@pytest.mark.parametrize("name", list(MANIFOLDS))
def test_a_non_repetitive_walk_runs_no_matrix_solve(name, monkeypatch, tmp_path, capsys):
    """relative_top_barcode, manifold_absolute_barcode and ``zzpers manifold
    --recover`` on non-repetitive filtrations: two union-finds, no copy
    record (``_copies``) and no ``_solve``."""
    make, p = MANIFOLDS[name]
    K = make()
    rng = SplitMix64(0xF0)
    cases = [random_nonrepetitive(rng, sorted(K.simplex_set())) for _ in range(8)]
    want = [(relative_top_barcode(f, K, p), manifold_absolute_barcode(f, K, p)) for f in cases]
    calls = _solve_spy(monkeypatch)

    def no_record(*args):
        raise AssertionError("a non-repetitive walk built a copy record")

    monkeypatch.setattr(manifold, "_copies", no_record)
    path = tmp_path / "f.zz"
    for f, (rel, absolute) in zip(cases, want):
        assert relative_top_barcode(f, K, p) == rel
        assert manifold_absolute_barcode(f, K, p) == absolute
        path.write_text(format_filtration(f))
        assert main(["manifold", str(path), "--p", str(p), "--recover"]) == 0
        assert capsys.readouterr().out == rel.to_text() + absolute.to_text()
    assert calls == {"armed": True, "solves": 0}


def _read_repetition_as(monkeypatch, repetition):
    """Make the manifold path read ``repetition`` off every admission sweep,
    so it takes the route of the other kind of filtration."""
    admitted = manifold._admitted_filling
    monkeypatch.setattr(manifold, "_admitted_filling",
                        lambda *args: admitted(*args)._replace(repetition=repetition))


def test_a_repetitive_walk_goes_through_the_matrix_solve(monkeypatch):
    """A triangle built and torn down, then two of its vertices again: the
    interval [14, 14] needs the matrix solve. The two union-finds of a
    non-repetitive f, run on this f, lose it: they make only closed-open
    and open-closed intervals."""
    f = zz("a 0", "a 1", "a 2", "a 0 1", "a 0 2", "a 1 2", "d 0 1", "d 0 2", "d 1 2", "d 1",
           "d 2", "d 0", "a 2", "a 0", "d 2", "d 0")
    K = polygon(3)
    calls = _solve_spy(monkeypatch)
    calls["armed"] = False
    rel = relative_top_barcode(f, K, 1)
    assert calls["solves"] == 1
    assert rel == _graph_route(f, K, 1) == oracle_relative(f).in_dim(1)
    _read_repetition_as(monkeypatch, None)
    calls["armed"] = True
    skipped = relative_top_barcode(f, K, 1)
    assert "1 14 14 cc" in set(rel.to_text().splitlines()) - set(skipped.to_text().splitlines())
    assert {i.type_code for i in skipped} == {"co", "oc"}


def test_the_pairs_the_walk_leaves_out_are_closed_closed_of_dimension_1(monkeypatch):
    """The two union-finds of a non-repetitive f skip the ridges that close a
    cycle. Walked as a copy record and paired by ``_solve`` instead, the same
    dual zigzag gives the same barcode, and every pair ``_remap_pairs`` makes
    beyond it is a closed-closed interval of dimension 1: one per skipped
    ridge in each pass. ``_remap_pairs`` refuses a table short of a pair or
    with a paired apex."""
    remap = manifold._remap_pairs
    rng = SplitMix64(0xF2)
    cases = []
    for make, p in MANIFOLDS.values():
        K = make()
        f = random_nonrepetitive(rng, sorted(K.simplex_set()))
        cases.append((K, p, f, relative_top_barcode(f, K, p)))
    records = _capture_copy_records(monkeypatch)
    _read_repetition_as(monkeypatch, (None, 0, 0))
    for K, p, f, rel in cases:
        assert relative_top_barcode(f, K, p) == rel
        facets, dims, dels, add_at, del_at = records[-1]
        death = _solve(facets, dims, dels)[0]
        full = remap(death, dims, dels, add_at, del_at)
        left_out = [iv for iv in full if iv[0] == 1]
        components = sum(1 for i in rel if i.b == 0)
        cycles = len(K.of_dim(p - 1)) - len(K.of_dim(p)) + components  # per pass
        assert len(left_out) == 2 * cycles > 0
        assert {iv[3:] for iv in left_out} == {("c", "c")}
        b = next(b for b, d in enumerate(death) if d >= 0)
        short = array("l", death)
        short[b] = -1
        with pytest.raises(InternalInconsistencyError,
                           match="^expected the apex column as the only essential, got "):
            remap(short, dims, dels, add_at, del_at)
        short[0] = death[b]  # the pair moved to the apex
        with pytest.raises(InternalInconsistencyError, match="^apex column appears in a pair$"):
            remap(short, dims, dels, add_at, del_at)


def test_a_non_repetitive_barcode_has_one_end_interval_of_each_kind_per_strong_component():
    """Each strong component of K is one set left at the end of each of the
    two union-finds: one [0, i] closed-open and one [j, m] open-closed
    interval. The rest lie inside (0, m), closed-open or open-closed."""
    two_polygons = SimplicialComplex.closure(
        [*polygon(7).of_dim(1), *(Simplex((7 + i, 7 + (i + 1) % 3)) for i in range(3))])
    cases = [(octahedron(), 2, 1), (grid_torus(), 2, 1), (octahedra_wedge(), 2, 2),
             (polygon(), 1, 1), (two_polygons, 1, 2)]
    rng = SplitMix64(0xF4)
    for K, p, components in cases:
        for _ in range(10):
            f = random_nonrepetitive(rng, sorted(K.simplex_set()))
            m = len(f)
            rel = relative_top_barcode(f, K, p)
            kinds = Counter((i.b == 0, i.d == m, i.type_code) for i in rel)
            assert kinds[True, False, "co"] == kinds[False, True, "oc"] == components
            assert set(kinds) <= {(True, False, "co"), (False, True, "oc"),
                                  (False, False, "co"), (False, False, "oc")}
            assert rel == _graph_route(f, K, p)


@pytest.mark.parametrize("p", ["1", 1.0, True, None], ids=["str", "float", "bool", "none"])
def test_the_manifold_entries_refuse_a_p_that_is_no_int(p):
    K = polygon(3)
    f = random_nonrepetitive(SplitMix64(0xF3), sorted(K.simplex_set()))
    rel = relative_top_barcode(f, K, 1)
    for call in (relative_top_barcode, manifold_absolute_barcode, dual_filtration,
                 lambda f, K, p: dual_graph(K, p),
                 lambda f, K, p: recover_absolute_from_relative(rel, f, K, p)):
        with pytest.raises(InvalidInputError) as err:
            call(f, K, p)
        assert str(err.value) == f"dual graph needs an int p, got {p!r}"


def _refusal(call, *args):
    try:
        call(*args)
    except NotAManifoldError as exc:
        return str(exc)
    return None


def test_the_walk_refuses_a_complex_as_dual_graph_does():
    """The walk checks K on the sweep's ids and ``dual_graph`` on simplices:
    both name the same first offender in K's order, or neither refuses."""
    rng = SplitMix64(0xC0F)
    kinds = Counter()
    for _ in range(150):
        simplices = random_complex(rng)
        K = SimplicialComplex(simplices)
        f = random_nonrepetitive(rng, simplices)
        for p in (1, 2, 3):
            want = _refusal(dual_graph, K, p)
            assert _refusal(relative_top_barcode, f, K, p) == want
            kinds[want and next(k for k in ("cofaces", "not a face", "> p") if k in want)] += 1
    assert set(kinds) == {None, "cofaces", "not a face", "> p"}, kinds


@pytest.mark.parametrize("enabled", [True, False])
def test_manifold_path_pauses_the_gc_and_builds_no_cycle(enabled, monkeypatch):
    K = grid_torus()
    f = random_nonrepetitive(SplitMix64(6), sorted(K.simplex_set()))
    paused = []  # the GC state where each call does its main work
    for module, name in ((manifold, "_top_fields"), (duality, "_top_components")):
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


def test_manifold_path_builds_no_checked_interval(built_intervals):
    verts, faces = torus_mesh_points(6, 5)
    f = generate(OffMesh(tuple(verts), tuple(faces)), "x", 90, 8)
    K = f.total_complex()
    want = zigzag_barcode(f).filter(lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc"))
    built_intervals.clear()  # those were built by the pipeline
    assert [Interval(0, 0, 1, "c", "c")] == built_intervals  # the counter counts
    built_intervals.clear()
    rel = relative_top_barcode(f, K, 2)
    rec = recover_absolute_from_relative(rel, f, K, 2)
    absolute = manifold_absolute_barcode(f, K, 2)
    assert built_intervals == []
    assert rec == absolute == want and len(rel)


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


# the whole text of each refusal, and the arrow or the initial graph it names
@pytest.mark.parametrize(
    "edges, events, init_v, init_e, message, nv",
    [
        (PATH3, (("+x", 0),), (), (), "arrow 0: unknown graph event ('+x', 0)", 3),
        (PATH3, ((ADD_VERTEX, 0), (ADD_EDGE, 0)), (), (),
         "arrow 1: edge 0 added while an end is absent", 3),
        (PATH3, ((DEL_VERTEX, 2),), (0, 1), (), "arrow 0: delete of absent vertex 2", 3),
        (PATH3, ((DEL_EDGE, 1),), (0, 1, 2), (0,), "arrow 0: delete of absent edge 1", 3),
        (PATH3, ((DEL_VERTEX, 1),), (0, 1, 2), (0,),
         "arrow 0: vertex 1 deleted while an edge at it is present", 3),
        (PATH3, ((ADD_VERTEX, 0),), (0,), (), "arrow 0: vertex 0 added while present", 3),
        (PATH3, ((ADD_EDGE, 0),), (0, 1), (0,), "arrow 0: edge 0 added while present", 3),
        (PATH3, ((ADD_VERTEX, 3),), (), (), "vertex index 3 out of range for 3 vertices", 3),
        (PATH3, ((DEL_EDGE, None),), (), (), "edge index None out of range for 2 edges", 3),
        (PATH3, (), (0, 2), (1,), "initial graph: edge 1 added while an end is absent", 3),
        (((0, 1), (1, 1)), (), (), (), "edge 1 is a self-loop at vertex 1", 3),
        (((0, 1), (1, 0)), (), (), (), "edge 1 is parallel to another edge between 1 and 0", 3),
        (((0, 3),), (), (), (), "vertex index 3 out of range for 3 vertices", 3),
        (((0, 5),), (), (), (), "vertex index 5 out of range for 2 vertices", 2),
        (PATH3, (), (0, "a"), (), "vertex index 'a' out of range for 3 vertices", 3),
        (PATH3, (), (0, 1), (None,), "edge index None out of range for 2 edges", 3),
        (PATH3, ((["+v"], 0),), (), (), "arrow 0: unknown graph event (['+v'], 0)", 3),
        (PATH3, ((ADD_VERTEX, 0), ("+v",)), (), (), "arrow 1: unknown graph event ('+v',)", 3),
        (((0, 1, 2),), (), (), (), "edge 0 is not a pair of vertices: (0, 1, 2)", 3),
        ((), (), (), (), "vertex count -1 is not a non-negative int", -1),
        (PATH3, ((ADD_EDGE, 5),), (0, 1, 2), (), "edge index 5 out of range for 2 edges", 3),
        (PATH3, ((DEL_VERTEX, True),), (0, 1), (),
         "vertex index True out of range for 3 vertices", 3),
        (PATH3, ((ADD_EDGE, 1), (DEL_VERTEX, 0)), (0, 1, 2), (0,),
         "arrow 1: vertex 0 deleted while an edge at it is present", 3),
        # a field that is not iterable; the initial sets are passed as they are
        (None, (), (), (), "edges is not iterable: None", 2),
        ((), None, (), (), "events is not iterable: None", 2),
        (PATH3, (), 5, (), "initial_vertices is not iterable: 5", 3),
        (PATH3, (), (), None, "initial_edges is not iterable: None", 3),
    ],
)
def test_zero_dim_zigzag_rejects_malformed_graph_zigzags(
    edges, events, init_v, init_e, message, nv
):
    init_v, init_e = (frozenset(x) if type(x) is tuple else x for x in (init_v, init_e))
    g = GraphZigzag(nv, edges, events, init_v, init_e)
    with pytest.raises(InvalidInputError) as err:
        zero_dim_zigzag(g)
    assert str(err.value) == message


def test_zero_dim_zigzag_accepts_any_identity_payload_and_tears_down_what_is_left(
    monkeypatch
):
    """Identity arrows read no index. Cells present after the last arrow
    leave after it, the edges first, then the vertices, each kind by index."""
    events = ((NOOP, 7), (ADD_EDGE, 1), (NOOP, "x"), (DEL_EDGE, 0), (NOOP, None),
              (ADD_EDGE, 0))
    g = GraphZigzag(3, PATH3, events, frozenset((0, 1, 2)), frozenset((0,)))
    walked = []

    def spy(steps, ends, inner=manifold._copies):
        walked.append(list(steps))
        return inner(walked[-1], ends)

    monkeypatch.setattr(manifold, "_copies", spy)
    bar = zero_dim_zigzag(g)
    assert walked[0][-5:] == [(False, 3, 6), (False, 4, 6), (False, 0, 6), (False, 1, 6),
                              (False, 2, 6)]
    assert bar.to_text() == "zzbar v1 m=6 kind=abs\n0 0 1 co\n0 0 6 cc\n0 4 5 oo\n"
    assert multiset_equal(bar, _oracle_zero_dim(g)).equal


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


def _capture_copy_records(monkeypatch):
    """Make the manifold module record each copy record its walks hand
    ``_arrow_fields``, whichever solver then pairs it: the list returned
    gets [facets, dims, dels, add_at, del_at] per call."""
    records = []

    def capture(facets, dims, dels, add_at, del_at, *rest, inner=manifold._arrow_fields,
                **options):
        records.append([facets, dims, dels, add_at, del_at])
        return inner(facets, dims, dels, add_at, del_at, *rest, **options)

    monkeypatch.setattr(manifold, "_arrow_fields", capture)
    return records


def _assert_valid_copy_record(facets, dims, dels, add_at, del_at):
    """The record is the only input of the pairing passes, so check it: ids
    in order of addition, each deleted once after it is added, facets
    present over their coface's lifetime, vertices and edges well formed."""
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


def test_zero_dim_zigzag_hands_its_passes_a_valid_copy_record(monkeypatch):
    records = _capture_copy_records(monkeypatch)
    rng = SplitMix64(0x0D1)
    for case in range(120):
        g = _random_graph_zigzag(rng, 0 if case % 15 == 0 else 1 + rng.below(24))
        zero_dim_zigzag(g)
        _assert_valid_copy_record(*records[-1])
    assert len(records) == 120


def test_the_manifold_walk_hands_its_passes_a_valid_copy_record(monkeypatch):
    """The walk of a repetitive f on the sweep's ids: one copy per dual cell
    before arrow 0 and one per re-entry, every cell's last copy deleted
    after the last arrow. A non-repetitive f records no copies."""
    records = _capture_copy_records(monkeypatch)
    rng = SplitMix64(0x0D2)
    for K in (octahedron(), grid_torus(), octahedra_wedge()):
        cells = len(K.of_dim(2)) + len(K.of_dim(1))
        for _ in range(10):
            f = random_nonrepetitive(rng, sorted(K.simplex_set()))
            v = sx(0)
            for g in (f, ZigzagFiltration([*f.events, FiltrationEvent.add(v),
                                           FiltrationEvent.delete(v)])):
                walked = len(records)
                relative_top_barcode(g, K, 2)
                if g is f:
                    assert len(records) == walked
                    continue
                _assert_valid_copy_record(*records[-1])
                dims = records[-1][1]
                reentries = sum(e.direction == DEL and e.simplex.dim >= 1 for e in g.events)
                assert len(dims) == cells + reentries
                assert dims.count(0) == len(K.of_dim(2)) + sum(
                    e.direction == DEL and e.simplex.dim == 2 for e in g.events)
    assert len(records) == 30


def test_zero_dim_zigzag_builds_no_simplex_event_or_sweep(monkeypatch):
    import zzpers.filtration
    import zzpers.reduction

    g = _random_graph_zigzag(SplitMix64(7), 24)
    expected = zero_dim_zigzag(g)

    def forbidden(*args, **kwargs):
        raise AssertionError("zero_dim_zigzag built a simplex, an event or a sweep, or ran reduce")

    monkeypatch.setattr(Simplex, "__init__", forbidden)
    monkeypatch.setattr(Simplex, "_from_sorted", forbidden)
    monkeypatch.setattr(FiltrationEvent, "__init__", forbidden)
    monkeypatch.setattr(zzpers.filtration, "_sweep", forbidden)
    monkeypatch.setattr(zzpers.reduction, "_reduce", forbidden)
    assert zero_dim_zigzag(g) == expected
    assert expected.m == 24 and len(expected)


class _Seam(Exception):
    """Raised by a seam the test below patches."""


def _seam_calls():
    """Named calls, each of which must pass through the seams the test
    below lists for it."""
    K = octahedron()
    f = random_nonrepetitive(SplitMix64(5), sorted(K.simplex_set()))
    v = sx(0)
    repetitive = ZigzagFiltration([*f.events, FiltrationEvent.add(v), FiltrationEvent.delete(v)])
    g = GraphZigzag(2, ((0, 1),), ((ADD_VERTEX, 0), (ADD_VERTEX, 1), (ADD_EDGE, 0), (DEL_EDGE, 0)))
    return {
        "graph": lambda: zero_dim_zigzag(g),
        "relative": lambda: relative_top_barcode(f, K, 2),
        "recovered": lambda: manifold_absolute_barcode(f, K, 2),
        "repetitive": lambda: relative_top_barcode(repetitive, K, 2),
        "compute": lambda: compute_zigzag(f),
    }


_SEAMS = [
    (manifold, "_copies", ("graph", "repetitive")),
    (manifold, "_solve", ("graph", "repetitive")),
    (manifold, "_arrow_fields", ("graph", "repetitive")),
    (manifold, "_top_fields", ("relative", "recovered")),
    (manifold, "_admitted_filling", ("relative", "recovered", "repetitive")),
    (zzpers.pipeline, "_reduce_dim", ("compute", "graph", "repetitive")),
]


@pytest.mark.parametrize("module, name, calls", _SEAMS,
                         ids=[f"{module.__name__}.{name}" for module, name, _ in _SEAMS])
def test_every_seam_the_suite_patches_is_on_the_calls_it_watches(module, name, calls,
                                                                  monkeypatch):
    # the suite's spies patch these names in these modules; a helper moved out of the
    # namespace its spies patch would leave them watching nothing, and fails here instead
    named = _seam_calls()

    def seam(*args, **kwargs):
        raise _Seam(name)

    monkeypatch.setattr(module, name, seam)
    for call in calls:
        with pytest.raises(_Seam):
            named[call]()
