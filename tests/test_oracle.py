import itertools
from collections import Counter

import pytest

from zzpers import (
    ABSOLUTE,
    InvalidInputError,
    LinearSpaceChain,
    RELATIVE,
    Simplex,
    SimplicialComplex,
    absolute_to_relative,
    boundary,
    compute_zigzag,
    homology_basis,
    induced_map,
    multiset_equal,
    oracle_absolute,
    oracle_relative,
    reduce,
    relative_homology_basis,
    sequence_barcode,
    zigzag_decompose,
)
from zzpers.oracle import generalized_ranks
from conftest import grid_torus, sx, zz


def test_decompose_identity_arrow():
    chain = LinearSpaceChain((1, 1), (("f", (1,)),))
    assert zigzag_decompose(chain) == Counter({(0, 1): 1})


def test_decompose_zero_arrow():
    chain = LinearSpaceChain((1, 1), (("f", (0,)),))
    assert zigzag_decompose(chain) == Counter({(0, 0): 1, (1, 1): 1})


def test_decompose_two_vertex_graph_module():
    # component counts along +u, +v, +uv, -uv, -v, -u
    dims = (0, 1, 2, 1, 2, 1, 0)
    arrows = (
        ("f", ()),            # 0 -> Z2
        ("f", (0b1,)),        # u keeps its component
        ("f", (0b1, 0b1)),    # merge
        ("b", (0b1, 0b1)),    # backward from the two components
        ("b", (0b1,)),
        ("b", ()),
    )
    chain = LinearSpaceChain(dims, arrows)
    assert zigzag_decompose(chain) == Counter({(1, 5): 1, (2, 2): 1, (4, 4): 1})


def test_decompose_validates_shapes():
    with pytest.raises(InvalidInputError):
        LinearSpaceChain((1, 1), ())
    with pytest.raises(InvalidInputError):
        LinearSpaceChain((1, 1), (("f", (0b10,)),))
    with pytest.raises(InvalidInputError):
        LinearSpaceChain((2, 1), (("f", (1,)),))


def test_generalized_rank_monotone(small_corpus):
    for f in small_corpus[:3]:
        dims_dirs = f.directions()
        bar = oracle_absolute(f)  # exercises the same machinery
        assert len(bar) * 2 == len(dims_dirs)
    # explicit monotonicity on a hand chain with merges and splits
    chain = LinearSpaceChain(
        (1, 2, 1, 2, 1),
        (("f", (0b01,)), ("f", (0b1, 0b1)), ("b", (0b1, 0b1)), ("b", (0b1,))),
    )
    gr = generalized_ranks(chain)
    for (i, j), value in gr.items():
        assert gr.get((i - 1, j), 0) <= value or i == 0
        assert gr.get((i, j + 1), 0) <= value
        assert value <= chain.dims[i] and value <= chain.dims[j]


def test_homology_point_and_hollow_triangle():
    point = SimplicialComplex([sx(0)])
    assert homology_basis(point, 0).rank == 1
    assert homology_basis(point, 1).rank == 0
    hollow = SimplicialComplex.closure([sx(0, 1), sx(0, 2), sx(1, 2)])
    assert homology_basis(hollow, 0).rank == 1
    assert homology_basis(hollow, 1).rank == 1
    # the 1-cycle is the full triangle boundary
    (cycle,) = homology_basis(hollow, 1).cycles
    assert cycle == {sx(0, 1), sx(0, 2), sx(1, 2)}


def test_homology_torus_ranks():
    K = grid_torus()
    assert [homology_basis(K, q).rank for q in range(3)] == [1, 2, 1]


def test_relative_homology_basics():
    K = SimplicialComplex.closure([sx(0, 1, 2)])
    assert all(relative_homology_basis(K, K, q).rank == 0 for q in range(3))
    empty = SimplicialComplex([])
    for q in range(3):
        assert relative_homology_basis(K, empty, q).rank == homology_basis(K, q).rank
    with pytest.raises(InvalidInputError):
        relative_homology_basis(empty, K, 0)


def test_relative_homology_torus_two_circles():
    # two parallel essential circles pinched: two relative 2-cycles appear
    K = grid_torus(3, 3)
    rows = []
    for j in (0, 1):
        rows.append(sx(0 * 3 + j))
        rows.append(sx(1 * 3 + j))
        rows.append(sx(2 * 3 + j))
        rows.append(Simplex((0 * 3 + j, 1 * 3 + j)))
        rows.append(Simplex((1 * 3 + j, 2 * 3 + j)))
        rows.append(Simplex((0 * 3 + j, 2 * 3 + j)))
    L = SimplicialComplex(rows)
    assert homology_basis(L, 0).rank == 2
    assert relative_homology_basis(K, L, 2).rank == 2


def test_induced_map_examples():
    edge = SimplicialComplex.closure([sx(0, 1)])
    identity = induced_map(edge, edge, 0)
    assert identity.columns == (1,) and identity.src_rank == identity.dst_rank == 1
    point = SimplicialComplex([sx(0)])
    m = induced_map(point, edge, 0)
    assert m.columns == (1,)
    hollow = SimplicialComplex.closure([sx(0, 1), sx(0, 2), sx(1, 2)])
    filled = SimplicialComplex.closure([sx(0, 1, 2)])
    m = induced_map(hollow, filled, 1)
    assert m.src_rank == 1 and m.dst_rank == 0 and m.columns == (0,)
    with pytest.raises(InvalidInputError):
        induced_map(filled, hollow, 1)


def test_oracle_absolute_and_relative_single_vertex():
    f = zz("a 0", "d 0")
    assert [(i.dim, i.b, i.d, i.type_code) for i in oracle_absolute(f)] == [(0, 1, 1, "cc")]
    assert [(i.dim, i.b, i.d, i.type_code) for i in oracle_relative(f)] == [
        (0, 0, 0, "co"),
        (0, 2, 2, "oc"),
    ]


def test_oracle_accepts_repetitive_filtrations():
    f = zz("a 0", "d 0", "a 0", "d 0")
    assert sorted((i.dim, i.b, i.d) for i in oracle_absolute(f)) == [(0, 1, 1), (0, 3, 3)]
    # the relative module sees the vertex leave and return
    rel = oracle_relative(f)
    assert sorted((i.b, i.d) for i in rel) == [(0, 0), (2, 2), (4, 4)]


def test_oracles_admit_an_invalid_filtration_like_compute():
    # the edge comes before its vertices
    f = zz("a 0 1", "a 0", "a 1", "d 0 1", "d 0", "d 1")
    with pytest.raises(InvalidInputError) as want:
        compute_zigzag(f)
    for oracle in (oracle_absolute, oracle_relative):
        with pytest.raises(InvalidInputError) as got:
            oracle(f)
        assert str(got.value) == str(want.value)


def _all_face_closed_subsets(simplices, max_size):
    out = []
    for r in range(max_size + 1):
        for subset in itertools.combinations(simplices, r):
            fs = frozenset(subset)
            if all(f in fs for s in fs for f in boundary(s)):
                out.append(sorted(fs))
    return out


def _linear_extensions(simplices):
    if not simplices:
        yield []
        return
    remaining = set(simplices)
    present = set()
    stack = [([], remaining, present)]

    def rec(prefix, remaining, present):
        if not remaining:
            yield list(prefix)
            return
        for s in sorted(remaining):
            if all(f in present for f in boundary(s)):
                prefix.append(s)
                remaining.remove(s)
                present.add(s)
                yield from rec(prefix, remaining, present)
                prefix.pop()
                remaining.add(s)
                present.remove(s)

    yield from rec([], remaining, present)


def test_exhaustive_monotone_agreement_with_reduction():
    """Oracle decomposition vs matrix reduction on every monotone filtration
    of every face-closed subset (<= 6 simplices) of the full triangle plus
    a disjoint edge."""
    pool = sorted(
        SimplicialComplex.closure([sx(0, 1, 2)]).simplex_set()
        | SimplicialComplex.closure([sx(3, 4)]).simplex_set()
    )
    complexes = _all_face_closed_subsets(pool, 6)
    total_orders = 0
    for simplices in complexes:
        for order in _linear_extensions(simplices):
            total_orders += 1
            st = reduce(order)
            m = len(order)
            expected = Counter()
            for (i, j) in st.pairs:
                expected[(order[i].dim, i + 1, j)] += 1
            for i in st.essentials:
                expected[(order[i].dim, i + 1, m)] += 1
            f = zz(*["a " + " ".join(map(str, s.vertices)) for s in order])
            got = Counter()
            for interval in oracle_absolute(f):
                got[(interval.dim, interval.b, interval.d)] += 1
            assert got == expected, f"disagreement on {order}"
    assert total_orders > 500


def test_torus_height_sweep_levelset_zigzag():
    """Sweep of an upright torus: cap, circle, pants, two circles, pants,
    circle, cap; the absolute and relative barcodes must show the four
    classic intervals and their split relative images."""
    a, b = 4, 3

    def vid(u, v):
        return (u % a) * b + (v % b)

    tris = []
    for u in range(a):
        for v in range(b):
            tris.append((vid(u, v), vid(u + 1, v), vid(u + 1, v + 1)))
            tris.append((vid(u, v), vid(u + 1, v + 1), vid(u, v + 1)))
    K = SimplicialComplex.closure([Simplex(t) for t in tris])
    Kset = K.simplex_set()

    def induced(vertices):
        vs = set(vertices)
        return frozenset(s for s in Kset if set(s.vertices) <= vs)

    def closed_star(v):
        star = {s for s in Kset if v in s.vertices}
        out = set(star)
        for s in star:
            out.update(SimplicialComplex.closure([s]).simplex_set())
        return frozenset(out)

    def link(v):
        return frozenset(s for s in closed_star(v) if v not in s.vertices)

    col = lambda u: {vid(u, v) for v in range(b)}
    low, high = vid(2, 0), vid(0, 0)
    spaces = [
        frozenset(),
        closed_star(low),
        link(low),
        frozenset(s for s in induced(col(1) | col(2) | col(3)) if low not in s.vertices),
        frozenset(induced(col(1)) | induced(col(3))),
        frozenset(s for s in induced(col(3) | col(0) | col(1)) if high not in s.vertices),
        link(high),
        closed_star(high),
        frozenset(),
    ]
    directions = ("a", "d", "a", "d", "a", "d", "a", "d")
    assert frozenset().union(*spaces) == Kset

    absolute = sequence_barcode([(s, frozenset()) for s in spaces], directions, ABSOLUTE)
    assert sorted((i.dim, i.b, i.d, i.type_code) for i in absolute) == [
        (0, 1, 7, "cc"),
        (0, 4, 4, "oo"),
        (1, 2, 6, "oo"),
        (1, 3, 5, "cc"),
    ]
    relative = sequence_barcode([(Kset, s) for s in spaces], directions, RELATIVE)
    assert sorted((i.dim, i.b, i.d) for i in relative) == [
        (0, 0, 0),
        (0, 8, 8),
        (1, 0, 2),
        (1, 0, 4),
        (1, 4, 8),
        (1, 6, 8),
        (2, 0, 6),
        (2, 2, 8),
    ]
    # the mapping table carries the absolute barcode exactly onto the relative one
    assert multiset_equal(absolute_to_relative(absolute), relative).equal


def test_random_chains_decompose_consistently():
    # any matrix assignment is a legitimate module: multiplicities must be
    # non-negative and account for every pointwise dimension
    from zzpers.rng import SplitMix64

    rng = SplitMix64(7)
    for _ in range(30):
        n = 2 + rng.below(6)
        dims = tuple(rng.below(4) for _ in range(n))
        arrows = []
        for k in range(n - 1):
            direction = "f" if rng.below(2) else "b"
            src = dims[k] if direction == "f" else dims[k + 1]
            tgt = dims[k + 1] if direction == "f" else dims[k]
            cols = tuple(rng.below(1 << tgt) if tgt else 0 for _ in range(src))
            arrows.append((direction, cols))
        counts = zigzag_decompose(LinearSpaceChain(dims, tuple(arrows)))
        assert all(c >= 0 for c in counts.values())
        for i in range(n):
            covered = sum(c for (b, d), c in counts.items() if b <= i <= d)
            assert covered == dims[i]
