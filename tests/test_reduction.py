from collections import Counter
from itertools import chain

import pytest

from zzpers import (
    InvalidInputError,
    NotUpDownError,
    Simplex,
    ZigzagFiltration,
    boundary,
    build_extended,
    compute_zigzag,
    extended_barcode,
    oracle_extended,
    reduce,
    reduce_twist,
    to_updown,
    validate,
)
from zzpers.filtration import FiltrationEvent
from zzpers.io import OffMesh, generate
from zzpers.reduction import _reduce
from zzpers.z2 import rank
from conftest import (
    random_complex,
    random_linear_extension,
    random_nonrepetitive,
    sx,
    torus_mesh_points,
    zz,
)
from zzpers.rng import SplitMix64


def test_reduce_single_vertex():
    st = reduce(zz("a 0"))
    assert st.pairs == () and st.essentials == (0,)


def test_reduce_edge():
    st = reduce(zz("a 0", "a 1", "a 0 1"))
    assert st.pairs == ((1, 2),) and st.essentials == (0,)


def _pairing_by_prefix_ranks(order):
    """Independent pairing oracle: inclusion-exclusion of submatrix ranks."""
    n = len(order)
    pos = {s: i for i, s in enumerate(order)}
    cols = []
    for s in order:
        mask = 0
        if s.dim > 0:
            vs = s.vertices
            for i in range(len(vs)):
                mask |= 1 << pos[Simplex(vs[:i] + vs[i + 1 :])]
        cols.append(mask)

    def r(low_row, hi_col):
        row_mask = ~((1 << low_row) - 1)
        return rank(c & row_mask for c in cols[: hi_col + 1])

    pairs = []
    for j in range(n):
        for i in range(j):
            delta = r(i, j) - r(i + 1, j) - r(i, j - 1) + r(i + 1, j - 1)
            if delta == 1:
                pairs.append((i, j))
    return sorted(pairs)


def test_reduce_filled_triangle_vs_rank_oracle():
    f = zz("a 0", "a 1", "a 2", "a 0 1", "a 0 2", "a 1 2", "a 0 1 2")
    st = reduce(f)
    expected = _pairing_by_prefix_ranks([e.simplex for e in f.events])
    assert list(st.pairs) == expected == [(1, 3), (2, 4), (5, 6)]
    assert st.essentials == (0,)


def test_reduce_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        reduce(zz("a 0", "d 0"))
    with pytest.raises(InvalidInputError):
        reduce([sx(0), sx(0)])
    with pytest.raises(InvalidInputError):
        reduce([sx(0), sx(0, 1)])


def test_reduce_matches_left_to_right_reduction_on_random_monotone():
    # the pairing and the reduced columns do not depend on the column order:
    # twist with clearing gives those of plain left-to-right reduction
    rng = SplitMix64(88)
    for _ in range(20):
        f = random_nonrepetitive(rng)
        U, _ = to_updown(f)
        order = [e.simplex for e in U.events if e.direction == "a"]
        got = reduce(order)
        pairs, cols, _ = _dense_reference(order, twist=False)
        assert got.pairs == pairs
        assert got.columns == cols
        assert got.essentials == tuple(j for j in range(len(order)) if j not in {*chain(*pairs)})
        if len(order) <= 12:
            assert list(got.pairs) == _pairing_by_prefix_ranks(order)


@pytest.mark.parametrize("run", [reduce, reduce_twist])
@pytest.mark.parametrize(
    "events", [("a 0", "a 0"), ("a 0", "a 0 1"), ("a 0", "a 1", "a 0 1 2", "a 0 1")]
)
def test_reduce_admits_invalid_monotone_like_compute(run, events):
    f = zz(*events)
    with pytest.raises(InvalidInputError) as want:
        compute_zigzag(f)
    for given in (f, [e.simplex for e in f.events]):
        with pytest.raises(InvalidInputError) as got:
            run(given)
        assert str(got.value) == str(want.value)


def test_build_extended_single_vertex():
    U = zz("a 0", "d 0")
    ext = build_extended(U)
    assert ext.omega == 1
    assert list(ext.events) == [sx(1), sx(0), sx(0, 1)]


def test_build_extended_two_vertices():
    U = zz("a 0", "a 1", "d 0", "d 1")
    ext = build_extended(U)
    # cones enter in reverse deletion order
    assert list(ext.events) == [sx(2), sx(0), sx(1), sx(1, 2), sx(0, 2)]


def test_build_extended_is_valid_monotone(small_corpus):
    for f in small_corpus[:6]:
        U, _ = to_updown(f)
        ext = build_extended(U)
        assert len(ext.events) == len(U) + 1
        mono = ZigzagFiltration([FiltrationEvent.add(s) for s in ext.events])
        assert validate(mono) == []


def test_build_extended_requires_updown():
    with pytest.raises(NotUpDownError):
        build_extended(zz("a 0", "d 0", "a 1", "d 1"))


def test_build_extended_admits_an_invalid_updown_like_compute():
    # up-down and standardized, but the edge comes before its vertices
    U = zz("a 0 1", "a 0", "a 1", "d 0 1", "d 0", "d 1")
    assert U.is_updown() and U.is_standardized()
    with pytest.raises(InvalidInputError) as want:
        compute_zigzag(U)
    with pytest.raises(InvalidInputError) as got:
        build_extended(U)
    assert str(got.value) == str(want.value)


def test_extended_barcode_single_vertex():
    eb = extended_barcode(zz("a 0", "d 0"))
    assert [(e.label, e.b, e.d, e.dim) for e in eb.intervals] == [("Ext", 1, 1, 0)]


def test_extended_barcode_two_vertices_matches_oracle():
    U = zz("a 0", "a 1", "d 0", "d 1")
    eb = extended_barcode(U)
    got = sorted((e.dim, e.b, e.d) for e in eb.intervals)
    assert got == [(0, 1, 3), (0, 2, 2)]
    assert sorted(oracle_extended(U).elements()) == got
    labels = {(e.dim, e.b, e.d): e.label for e in eb.intervals}
    assert labels == {(0, 1, 3): "Ext", (0, 2, 2): "Ext"}


def test_extended_barcode_vs_oracle_on_corpus(small_corpus):
    for f in small_corpus[:8]:
        U, _ = to_updown(f)
        eb = extended_barcode(U)
        got = sorted((e.dim, e.b, e.d) for e in eb.intervals)
        assert got == sorted(oracle_extended(U).elements())


def test_exactly_one_essential_in_coned_reduction(small_corpus):
    for f in small_corpus[:8]:
        U, _ = to_updown(f)
        ext = build_extended(U)
        st = reduce_twist(ext.events)
        assert st.essentials == (0,)


def _dense_reference(order, twist):
    """Reference reduction of the boundary matrix of a monotone filtration."""
    pos = {s: i for i, s in enumerate(order)}
    cols = [sum(1 << pos[f] for f in boundary(s)) for s in order]
    return _dense_reduction(cols, [s.dim for s in order], twist)


def _dense_reduction(cols, dims, twist, counted=lambda q: True):
    """Reference reduction on dense columns: one bitmask per column (bit
    i = row i), reduced in place; with twist, by decreasing dimension.

    Returns the sorted pairs, the reduced columns (0 where cleared) and the
    counters the sparse loop reports, over the columns whose dimension q has
    counted(q). masks_kept follows the keeping rule: every column reduced
    with at least one addition, plus every column paired at once that was
    added to others at least twice. No column is paired by union-find here.
    """
    cols = list(cols)
    sequence = sorted(range(len(cols)), key=lambda j: -dims[j]) if twist else range(len(cols))
    owner = {}
    cleared = set()
    skipped = set()
    pairs = []
    uses = Counter()  # column -> the times it was added to another
    added = Counter()  # column -> the number of columns added into it
    for j in sequence:
        if j in cleared:
            cols[j] = 0
            skipped.add(j)
            continue
        while cols[j] and cols[j].bit_length() - 1 in owner:
            k = owner[cols[j].bit_length() - 1]
            cols[j] ^= cols[k]
            uses[k] += 1
            added[j] += 1
        if cols[j]:
            low = cols[j].bit_length() - 1
            owner[low] = j
            cleared.add(low)
            pairs.append((low, j))
    paired = {j for _, j in pairs}
    mine = [j for j in range(len(cols)) if counted(dims[j])]
    stats = {
        "columns": len(mine),
        "cleared_columns": sum(j in skipped for j in mine),
        "pairs": sum(j in paired for j in mine),
        "pivots_without_addition": sum(j in paired and not added[j] for j in mine),
        "column_additions": sum(added[j] for j in mine),
        "max_column_additions": max((added[j] for j in mine), default=0),
        "masks_kept": sum(j in paired and (added[j] > 0 or uses[j] >= 2) for j in mine),
        "union_find_pairs": 0,
    }
    return tuple(sorted(pairs)), tuple(cols), stats


def _solve_counters(cols, dims):
    """The pairs and counters of ``pipeline._solve`` on a coboundary matrix, its
    rows and columns reversed, given as dense columns and their dimensions
    (minus their simplices'). Dimension 0 goes by union-find there, so the
    counters are the dense reference's over the columns of dimension >= 1,
    and union_find_pairs is the number of pairs of dimension 0."""
    pairs, _, stats = _dense_reduction(cols, dims, twist=True, counted=lambda q: q < 0)
    stats["union_find_pairs"] = sum(dims[j] == 0 for _, j in pairs)
    return pairs, stats


def _check_against_dense(order):
    """reduce gives the dense twist reference's pairs and reduced columns,
    and the shared loop its pairs, counters and kept masks; returns those
    counters."""
    pos = {s: i for i, s in enumerate(order)}
    rows = [tuple(pos[f] for f in boundary(s)) for s in order]
    dims = [s.dim for s in order]
    pairs, cols, stats = _dense_reference(order, twist=True)
    got = reduce(order)
    assert got.pairs == pairs
    assert got.columns == cols
    # bit i of a column's full mask is row i; a kept mask is stored from its lowest set bit
    found, masks, shifts, counted = _reduce(rows, dims)
    assert tuple(sorted(found)) == pairs and counted == stats
    for j, mask in enumerate(masks):
        if mask is not None:
            assert mask & 1
            assert mask << shifts[j] == cols[j]  # the reduced column (its boundary if paired at once)
    return stats


def _coboundary_stats(order):
    """Counters of the twist reduction of the anti-transposed boundary matrix
    (the coboundary matrix, the order of its rows and columns reversed), as
    the pipeline reduces the coned filtration (``_solve_counters``); its
    pairs, mapped back, are the boundary matrix's pairs."""
    pos = {s: i for i, s in enumerate(order)}
    top = len(order) - 1
    cols = [0] * len(order)  # column top - x has bit top - c for each coface c of x
    for c, s in enumerate(order):
        for f in boundary(s):
            cols[top - pos[f]] |= 1 << (top - c)
    pairs, stats = _solve_counters(cols, [-s.dim for s in reversed(order)])
    assert tuple(sorted((top - j, top - low) for low, j in pairs)) == reduce_twist(order).pairs
    return stats


def test_sparse_reduction_matches_dense_on_a3_corpus(a3_corpus):
    for f in a3_corpus:
        U, _ = to_updown(f)
        order = list(build_extended(U).events)
        _check_against_dense(order)
        # the pipeline runs the same loop on the coboundary columns of its sweep
        assert compute_zigzag(f).stats == _coboundary_stats(order)


def test_sparse_reduction_matches_dense_on_seeded_filtrations():
    rng = SplitMix64(0x5EED)
    for _ in range(30):
        simplices = random_complex(rng, max_vertices=9, max_simplices=45, max_dim=3)
        f = random_nonrepetitive(rng, simplices)
        U, _ = to_updown(f)
        order = list(build_extended(U).events)
        _check_against_dense(order)
        assert compute_zigzag(f).stats == _coboundary_stats(order)
        _check_against_dense(random_linear_extension(rng, simplices))
    # height sweeps of a bumpy torus with a Vietoris-Rips layer (the seed moves
    # only the walk, which leaves the up-down form alone; axis and radius do not)
    verts, faces = torus_mesh_points(4, 4, bumpy=True)
    mesh = OffMesh(tuple(verts), tuple(faces))
    for seed, (axis, radius) in enumerate((("z", 2.0), ("x", 2.2), ("y", 2.5))):
        f = generate(mesh, axis=axis, switches=48, seed=seed, rips_radius=radius)
        assert len(f) > 192  # the bare mesh has 96 simplices
        U, _ = to_updown(f)
        order = list(build_extended(U).events)
        stats = _check_against_dense(order)
        assert stats["column_additions"] > 0
        costats = _coboundary_stats(order)
        assert costats["column_additions"] > 0
        assert compute_zigzag(f).stats == costats
