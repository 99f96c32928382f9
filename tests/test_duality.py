import pytest

from zzpers import (
    ABSOLUTE,
    Barcode,
    ContractViolationError,
    InternalInconsistencyError,
    Interval,
    InvalidInputError,
    NotStandardizedError,
    RELATIVE,
    SimplicialComplex,
    absolute_to_relative,
    manifold_absolute_barcode,
    multiset_equal,
    oracle_absolute,
    oracle_relative,
    recover_absolute_from_relative,
    relative_top_barcode,
    zigzag_barcode,
)
from zzpers.rng import SplitMix64
from conftest import octahedra_wedge, octahedron, random_nonrepetitive, sx, tetra_boundary


def iv(dim, b, d, tc):
    return Interval(dim, b, d, tc[0], tc[1])


def test_absolute_to_relative_torus_sweep_rows():
    bar = Barcode(
        [iv(0, 1, 7, "cc"), iv(0, 4, 4, "oo"), iv(1, 2, 6, "oo"), iv(1, 3, 5, "cc")],
        8,
        ABSOLUTE,
    )
    rel = absolute_to_relative(bar)
    assert sorted((i.dim, i.b, i.d) for i in rel) == [
        (0, 0, 0),
        (0, 8, 8),
        (1, 0, 2),
        (1, 0, 4),
        (1, 4, 8),
        (1, 6, 8),
        (2, 0, 6),
        (2, 2, 8),
    ]


def test_absolute_to_relative_single_vertex():
    bar = Barcode([iv(0, 1, 1, "cc")], 2, ABSOLUTE)
    rel = absolute_to_relative(bar)
    assert sorted(rel) == [iv(0, 0, 0, "co"), iv(0, 2, 2, "oc")]


def test_absolute_to_relative_errors():
    with pytest.raises(ContractViolationError):
        absolute_to_relative(Barcode([], 2, RELATIVE))
    with pytest.raises(NotStandardizedError):
        absolute_to_relative(Barcode([iv(0, 0, 1, "cc")], 2, ABSOLUTE))


def test_duality_identity_on_small_instances():
    rng = SplitMix64(64)
    for _ in range(10):
        f = random_nonrepetitive(rng)
        assert multiset_equal(
            absolute_to_relative(oracle_absolute(f)), oracle_relative(f)
        ).equal


def test_end_interval_counts_match_components():
    rng = SplitMix64(65)
    two = SimplicialComplex(
        tetra_boundary(0).simplex_set() | tetra_boundary(4).simplex_set()
    )
    for K, expected in ((octahedron(), 1), (two, 2)):
        f = random_nonrepetitive(rng, sorted(K.simplex_set()), walk=10)
        rel = relative_top_barcode(f, K, 2)
        m = len(f)
        zeros = sum(c for i, c in rel.counts().items() if i.b == 0)
        fulls = sum(c for i, c in rel.counts().items() if i.d == m)
        assert zeros == fulls == expected


def test_recover_formula_case_overlapping_pair():
    # one-component complex whose [0, i] and [j, m] intervals overlap
    K = octahedron()
    rng = SplitMix64(66)
    for _ in range(12):
        f = random_nonrepetitive(rng, sorted(K.simplex_set()))
        rel = oracle_relative(f).in_dim(2)
        rec = recover_absolute_from_relative(rel, f, K, 2)
        want = oracle_absolute(f).filter(
            lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
        )
        assert multiset_equal(rec, want).equal
        # dimension-2 output contains only closed-closed intervals
        assert all(i.type_code == "cc" for i in rec if i.dim == 2)


def test_recover_two_components_never_cross():
    K = SimplicialComplex(tetra_boundary(0).simplex_set() | tetra_boundary(4).simplex_set())
    rng = SplitMix64(67)
    for _ in range(8):
        f = random_nonrepetitive(rng, sorted(K.simplex_set()))
        rel = oracle_relative(f).in_dim(2)
        rec = recover_absolute_from_relative(rel, f, K, 2)
        want = oracle_absolute(f).filter(
            lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
        )
        assert multiset_equal(rec, want).equal


def test_recover_pairs_end_intervals_per_strong_component_of_a_pseudomanifold():
    # connected, but each octahedron carries its own dimension-2 class: two
    # [0, .] and two [., m] intervals pair up inside their own octahedron.
    # The oracle checks the first five seeds, the pipeline (itself checked
    # against the oracle elsewhere) the other 25
    K = octahedra_wedge()
    for seed in range(30):
        f = random_nonrepetitive(SplitMix64(seed), sorted(K.simplex_set()))
        absolute = oracle_absolute(f) if seed < 5 else zigzag_barcode(f)
        want = absolute.filter(lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc"))
        assert multiset_equal(manifold_absolute_barcode(f, K, 2), want).equal


def test_recover_on_a_circle_exercises_overlap_row():
    # on a 1-manifold the [0, i] / [j, m] pair regularly overlaps (i >= j),
    # producing the open-open interval [j, i] one dimension down
    circle = SimplicialComplex.closure([sx(0, 1), sx(1, 2), sx(0, 2)])
    rng = SplitMix64(99)
    saw_overlap = False
    for _ in range(10):
        f = random_nonrepetitive(rng, sorted(circle.simplex_set()))
        rel = oracle_relative(f).in_dim(1)
        m = len(f)
        i = next(x.d for x in rel if x.b == 0)
        j = next(x.b for x in rel if x.d == m)
        saw_overlap = saw_overlap or i >= j
        rec = recover_absolute_from_relative(rel, f, circle, 1)
        want = oracle_absolute(f).filter(
            lambda x: x.dim == 1 or (x.dim == 0 and x.type_code != "cc")
        )
        assert multiset_equal(rec, want).equal
        if i >= j:
            assert rec.counts()[Interval(0, j, i, "o", "o")] >= 1
    assert saw_overlap


def test_recover_rejects_inconsistent_counts():
    K = octahedron()
    rng = SplitMix64(68)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()))
    rel = oracle_relative(f).in_dim(2)
    # drop one boundary-touching interval: counts no longer match components
    broken = [i for i in rel]
    victim = next(i for i in broken if i.b == 0)
    broken.remove(victim)
    with pytest.raises(InternalInconsistencyError):
        recover_absolute_from_relative(Barcode(broken, rel.m, RELATIVE), f, K, 2)


def test_recover_rejects_wrong_dimension():
    K = octahedron()
    rng = SplitMix64(69)
    f = random_nonrepetitive(rng, sorted(K.simplex_set()))
    rel = oracle_relative(f).in_dim(1)
    with pytest.raises(ContractViolationError):
        recover_absolute_from_relative(rel, f, K, 2)


def test_recover_rejects_a_filtration_that_does_not_fill_the_complex():
    T, K = tetra_boundary(10), octahedron()
    f = random_nonrepetitive(SplitMix64(3), sorted(T.simplex_set()))
    rel = relative_top_barcode(f, T, 2)
    for call in (
        lambda: recover_absolute_from_relative(rel, f, K, 2),
        lambda: manifold_absolute_barcode(f, K, 2),
    ):
        with pytest.raises(InvalidInputError) as err:
            call()
        assert str(err.value) == "filtration does not fill the given complex"
