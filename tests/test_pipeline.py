import gc
import os
import subprocess
import sys
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest

from zzpers import (
    ABSOLUTE,
    Barcode,
    ContractViolationError,
    EventIndexMap,
    FiltrationEvent,
    InternalInconsistencyError,
    Interval,
    InvalidInputError,
    NotNonRepetitiveError,
    Simplex,
    SimplicialComplex,
    ZigzagFiltration,
    boundary,
    check_diamond,
    compute_zigzag,
    ext_to_updown,
    extended_barcode,
    multiset_equal,
    oracle_absolute,
    outward_switch,
    standardize,
    to_updown,
    updown_to_f,
    zigzag_barcode,
)
from zzpers.filtration import _admitted, _pad
from zzpers.io import OffMesh, generate
from zzpers.pipeline import _copies, _peak_rss_mb, _remap_pairs, _restrict_to_input, _solve
from zzpers.reduction import ExtendedInterval, _reduce
from zzpers.rng import SplitMix64
from conftest import ev, random_nonrepetitive, sx, torus_mesh_points, zz
from test_reduction import _solve_counters


def test_ext_to_updown_rows():
    assert ext_to_updown(ExtendedInterval(1, 3, 0, "Ord"), 4) == Interval(0, 1, 3, "c", "o")
    assert ext_to_updown(ExtendedInterval(6, 7, 1, "Rel"), 4) == Interval(0, 5, 6, "o", "c")
    assert ext_to_updown(ExtendedInterval(1, 1, 0, "Ext"), 1) == Interval(0, 1, 1, "c", "c")


def test_ext_to_updown_label_mismatch():
    with pytest.raises(ContractViolationError):
        ext_to_updown(ExtendedInterval(1, 5, 0, "Ord"), 4)
    with pytest.raises(ContractViolationError):
        ext_to_updown(ExtendedInterval(2, 7, 1, "Rel"), 4)
    with pytest.raises(ContractViolationError):
        ext_to_updown(ExtendedInterval(5, 7, 1, "Ext"), 4)


def _worked_example_updown():
    # four edges added then deleted; the reference map records where each
    # event sat in the original interleaved order
    events = [
        ev("a 0 3"),  # {a,d}
        ev("a 0 1"),  # {a,b}
        ev("a 1 3"),  # {b,d}
        ev("a 1 2"),  # {b,c}
        ev("d 0 1"),
        ev("d 1 3"),
        ev("d 0 3"),
        ev("d 1 2"),
    ]
    id_map = EventIndexMap(
        {sx(0, 3): 0, sx(0, 1): 1, sx(1, 3): 2, sx(1, 2): 6},
        {sx(0, 1): 2, sx(1, 3): 3, sx(0, 3): 5, sx(1, 2): 7},
    )
    return ZigzagFiltration(events), id_map


def test_updown_to_f_swap_case():
    U, id_map = _worked_example_updown()
    got = updown_to_f(Interval(1, 4, 5, "c", "c"), id_map, U)
    assert got == Interval(0, 4, 6, "o", "o")


def test_updown_to_f_plain_case():
    U, id_map = _worked_example_updown()
    got = updown_to_f(Interval(1, 1, 4, "c", "c"), id_map, U)
    assert got == Interval(1, 1, 2, "c", "c")


def test_updown_to_f_identity_case():
    U, id_map = to_updown(zz("a 0", "d 0"))
    got = updown_to_f(Interval(0, 1, 1, "c", "c"), id_map, U)
    assert got == Interval(0, 1, 1, "c", "c")


def test_updown_to_f_rejects_open_open():
    U, id_map = to_updown(zz("a 0", "d 0"))
    with pytest.raises(ContractViolationError):
        updown_to_f(Interval(0, 1, 1, "o", "o"), id_map, U)


def test_updown_to_f_type_arrow_mismatch():
    U, id_map = to_updown(zz("a 0", "a 1", "d 0", "d 1"))
    # birth arrow of [3, 3] is a deletion; closed-open demands an addition
    with pytest.raises(ContractViolationError):
        updown_to_f(Interval(0, 3, 3, "c", "o"), id_map, U)


def test_zigzag_barcode_single_vertex():
    assert list(zigzag_barcode(zz("a 0", "d 0"))) == [Interval(0, 1, 1, "c", "c")]


def test_zigzag_barcode_two_vertices_vs_oracle():
    f = zz("a 0", "d 0", "a 1", "d 1")
    bar = zigzag_barcode(f)
    assert sorted(bar) == [Interval(0, 1, 1, "c", "c"), Interval(0, 3, 3, "c", "c")]
    assert multiset_equal(bar, oracle_absolute(f)).equal


def test_zigzag_barcode_rejects_repetitive():
    with pytest.raises(NotNonRepetitiveError) as err:
        zigzag_barcode(zz("a 0", "d 0", "a 0", "d 0"))
    assert "Simplex(0)" in str(err.value)


def test_zigzag_barcode_random_vs_oracle():
    rng = SplitMix64(4242)
    for _ in range(20):
        f = random_nonrepetitive(rng)
        assert multiset_equal(zigzag_barcode(f), oracle_absolute(f)).equal


def test_truncated_filtration_restriction_vs_oracle():
    rng = SplitMix64(515)
    checked = 0
    for _ in range(12):
        f = random_nonrepetitive(rng)
        m = len(f)
        if m < 6:
            continue
        lo = rng.below(m // 3)
        hi = m - rng.below(m // 3)
        g = ZigzagFiltration(f.events[lo:hi], f.complex_at(lo))
        got = zigzag_barcode(g)
        want = oracle_absolute(g)
        assert multiset_equal(got, want).equal
        checked += 1
    assert checked >= 8


def _copy_steps(f):
    """The admitted sweep of f padded by ``_pad``, its padding record, and
    the steps ``_copies`` reads of it: (enters, id, position) per signed id,
    then per deletion ``_pad`` appended."""
    sw = _admitted(f)
    unpadded = len(sw.dels)
    record = _pad(sw, f)
    steps = [(j >= 0, j if j >= 0 else ~j, k) for k, j in enumerate(sw.ids)]
    steps += [(False, j, k) for k, j in enumerate(sw.dels[unpadded:], len(steps))]
    return sw, record, steps


def _cut(rng, events):
    """A random window of the events, from a start taken as K_0: K_0 is
    often not empty and the last complex often not empty either."""
    m = len(events)
    lo, hi = rng.below(m // 3 + 1), m - rng.below(m // 3 + 1)
    return ZigzagFiltration(events[lo:hi], ZigzagFiltration(events).complex_at(lo))


def _random_closure(rng):
    """The simplices of the closure of one to three random simplices of
    dimension 1 to 3 on four to six vertices, sorted."""
    nv = 4 + rng.below(3)
    tops = []
    for _ in range(1 + rng.below(3)):
        vs = list(range(nv))
        rng.shuffle(vs)
        tops.append(Simplex(vs[: 2 + rng.below(3)]))
    return sorted(SimplicialComplex.closure(tops).simplex_set())


def test_copies_of_a_non_repetitive_sweep_are_its_ids():
    # each simplex comes once, so its copy is its sweep id, and the record is the sweep's own
    rng = SplitMix64(0xC0F)
    seen = {"non-empty K_0": 0, "padded end": 0, "dimension 3": 0}
    for _ in range(100):
        f = _cut(rng, random_nonrepetitive(rng, _random_closure(rng)).events)
        sw, record, steps = _copy_steps(f)
        assert _copies(steps, sw.facets) == (sw.facets, sw.dims, sw.dels, sw.add_at, sw.del_at,
                                             list(range(len(steps))))
        seen["non-empty K_0"] += record.prefix_length > 0
        seen["padded end"] += record.suffix_length > 0
        seen["dimension 3"] += 3 in sw.dims
    assert all(seen.values()), seen


def _random_zigzag(rng, simplices, m):
    """m valid events on a face-closed simplex set: two in three add an
    absent simplex whose facets are present, if there is one, the others
    delete a present one with no present coface, each uniformly; on a small
    set simplices often come back."""
    present = set()
    events = []
    for _ in range(m):
        adds = [s for s in simplices if s not in present and all(x in present for x in boundary(s))]
        dels = [s for s in present if not any(s != t and s.is_face_of(t) for t in present)]
        if adds and (not dels or rng.below(3)):
            s = adds[rng.below(len(adds))]
            present.add(s)
            events.append(FiltrationEvent.add(s))
        else:
            s = sorted(dels)[rng.below(len(dels))]
            present.remove(s)
            events.append(FiltrationEvent.delete(s))
    return events


def test_copies_of_a_repetitive_sweep_pair_to_the_oracle_barcode():
    # a fresh copy per re-addition makes the copies non-repetitive, so _solve pairs them
    rng = SplitMix64(0xC0F1E5)
    seen = {"repetitive": 0, "re-added simplex of dimension 2 or 3": 0, "non-empty K_0": 0,
            "padded end": 0}
    for _ in range(150):
        f = _cut(rng, _random_zigzag(rng, _random_closure(rng), 4 + rng.below(33)))
        sw, record, steps = _copy_steps(f)
        facets, dims, dels, add_at, del_at, arrow_of = _copies(steps, sw.facets)
        assert arrow_of == list(range(len(steps)))  # a position per event of the padded f
        fields = _remap_pairs(_solve(facets, dims, dels)[0], dims, dels, add_at, del_at)
        std = Barcode._of_fields(fields, len(steps), ABSOLUTE)
        assert _restrict_to_input(std, record, f)[0] == oracle_absolute(f)
        added = Counter(j for enters, j, _ in steps if enters)
        seen["repetitive"] += len(dims) > len(added)
        seen["re-added simplex of dimension 2 or 3"] += any(
            c > 1 and sw.dims[j] >= 2 for j, c in added.items())
        seen["non-empty K_0"] += record.prefix_length > 0
        seen["padded end"] += record.suffix_length > 0
    assert all(seen.values()), seen


def test_empty_filtration():
    f = ZigzagFiltration([])
    result = compute_zigzag(f)
    # the apex alone, in dimension 0, which goes by union-find and pairs nothing
    assert len(result.barcode) == 0
    assert (result.stats["columns"], result.stats["union_find_pairs"]) == (0, 0)
    assert len(zigzag_barcode(f)) == 0
    assert len(oracle_absolute(f)) == 0


def test_padded_inputs_vertex_only_and_non_empty_initial():
    # both need padding, so compute_zigzag sweeps the standardized filtration again
    triangle_boundary = [sx(0), sx(1), sx(2), sx(0, 1), sx(0, 2), sx(1, 2)]
    cases = [
        (zz("a 0", "a 1", "d 0", "a 2"), 0, 2, 3),
        (zz("a 0 1 2", "d 0 1 2", "d 0 1", "a 3", "a 0 3", initial=triangle_boundary), 6, 7, 4),
    ]
    for f, prefix, suffix, vertices in cases:
        result = compute_zigzag(f)
        assert (result.record.prefix_length, result.record.suffix_length) == (prefix, suffix)
        assert multiset_equal(result.barcode, oracle_absolute(f)).equal
        # one column per event of the padded filtration, less the up vertices: with the
        # apex they are dimension 0, which union-find pairs, one pair per vertex
        assert result.stats["columns"] == prefix + len(f) + suffix - vertices
        assert result.stats["union_find_pairs"] == vertices


def test_initial_only_filtration():
    # no events at all: the single snapshot still carries its homology
    f = ZigzagFiltration([], initial=[sx(0)])
    result = compute_zigzag(f)
    assert list(result.barcode) == [Interval(0, 0, 0, "c", "c")]
    assert result.barcode.m == 0
    assert multiset_equal(result.barcode, oracle_absolute(f)).equal


def test_synthetic_intervals_are_flagged():
    f = ZigzagFiltration([ev("d 0 1")], initial=[sx(0), sx(1), sx(0, 1)])
    result = compute_zigzag(f)
    # the padded form is +0 +1 +01 -01 -1 -0; the second component lives
    # and dies inside the prefix
    assert result.synthetic == (Interval(0, 2, 2, "c", "o"),)
    assert multiset_equal(result.barcode, oracle_absolute(f)).equal
    assert result.standardized.m == 6


def test_a_padded_input_is_restricted_with_no_checked_interval(built_intervals, small_corpus):
    f = ZigzagFiltration([ev("d 0 1"), ev("a 2")], initial=[sx(0), sx(1), sx(0, 1)])
    windows = [g for g in _windows(small_corpus) if g.initial and g.final_complex()][:10]
    wants = [oracle_absolute(g) for g in (f, *windows)]
    built_intervals.clear()  # those were built by the oracle
    results = [compute_zigzag(g) for g in (f, *windows)]
    assert built_intervals == []
    assert results[0].synthetic == (Interval(0, 2, 2, "c", "o"),)
    assert results[0].barcode.to_text() == "zzbar v1 m=2 kind=abs\n0 0 2 cc\n0 1 2 oc\n0 2 2 cc\n"
    for g, result, want in zip((f, *windows), results, wants):
        assert result.record.prefix_length or result.record.suffix_length
        assert result.barcode == want and result.barcode.m == len(g)


def _windows(corpus):
    """Sub-filtrations of the corpus that start and end at non-empty complexes."""
    rng = SplitMix64(77)
    for f in corpus:
        lo = 1 + rng.below(len(f) // 3)
        hi = len(f) - 1 - rng.below(len(f) // 3)
        if lo < hi:
            yield ZigzagFiltration(f.events[lo:hi], f.complex_at(lo))


def test_fused_remap_matches_composed_operations(small_corpus):
    windows = list(_windows(small_corpus))
    assert sum(1 for g in windows if g.initial and g.final_complex()) >= 15
    for f in small_corpus + windows:
        result = compute_zigzag(f)
        std, record = standardize(f)
        U, id_map = to_updown(std)
        ebar = extended_barcode(U)
        composed = Barcode(
            [updown_to_f(ext_to_updown(e, ebar.n), id_map, U) for e in ebar.intervals],
            len(std),
            ABSOLUTE,
        )
        lo, hi = record.original_range
        assert multiset_equal(result.standardized, composed).equal
        assert result.record == record
        assert result.synthetic == tuple(sorted(iv for iv in composed if iv.d < lo or iv.b > hi))


def test_compute_error_precedence_and_text():
    # invalid (a deletion under a coface, a deletion of an absent simplex) and
    # repetitive ({0,2} deleted at 8, added at 9): invalidity is reported
    both = zz("a 0", "a 2", "a 3", "a 4", "a 0 2", "a 0 3", "a 0 4", "d 0", "d 0 2", "a 0 2", "d 5")
    with pytest.raises(InvalidInputError) as err:
        compute_zigzag(both)
    assert str(err.value) == (
        "invalid filtration (2 violations): event 7: dangling coface Simplex(0,4) of deleted "
        "Simplex(0); event 10: delete of absent simplex Simplex(5)"
    )
    with pytest.raises(NotNonRepetitiveError) as err:
        compute_zigzag(zz("a 0", "d 0", "a 1", "a 0", "d 0", "d 1"))
    assert str(err.value) == "Simplex(0) deleted at index 1 and added again at index 3"


def test_compute_zigzag_runs_no_public_pass(monkeypatch, small_corpus):
    import zzpers.filtration
    import zzpers.pipeline
    import zzpers.reduction

    f = small_corpus[0]
    padded = ZigzagFiltration(f.events[1:-1], f.complex_at(1))
    assert f.is_standardized() and padded.initial and padded.final_complex()
    expected = [compute_zigzag(g) for g in (f, padded)]

    def public_pass(*args, **kwargs):
        raise AssertionError("compute_zigzag called a public pass")

    names = ("validate", "find_repetition", "standardize", "to_updown", "build_extended",
             "reduce_twist")
    for module in (zzpers.filtration, zzpers.pipeline, zzpers.reduction):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, public_pass)
    monkeypatch.setattr(ZigzagFiltration, "final_complex", public_pass)
    # an input that needs padding runs none either: its one sweep is padded in place
    for g, want in zip((f, padded), expected):
        got = compute_zigzag(g)
        assert got.barcode == want.barcode and got.standardized == want.standardized
        assert got.record == want.record and got.synthetic == want.synthetic
    # the guard bites: the public padding is patched out
    with pytest.raises(AssertionError):
        zzpers.filtration.standardize(padded)


def test_a_padded_input_is_swept_once(monkeypatch, small_corpus):
    import zzpers.filtration

    f = small_corpus[1]
    padded = ZigzagFiltration(f.events[2:-2], f.complex_at(2))
    assert padded.initial and padded.final_complex()
    sweeps = []

    def spy(*fields, inner=zzpers.filtration._Sweep):
        sweeps.append(fields)  # every sweep ends here, whichever module called it
        return inner(*fields)

    monkeypatch.setattr(zzpers.filtration, "_Sweep", spy)
    for call in (compute_zigzag, standardize):
        sweeps.clear()
        call(padded)
        assert len(sweeps) == 1


def test_extended_barcode_sweeps_u_once_and_builds_no_coned_filtration(monkeypatch, small_corpus):
    import zzpers.filtration
    import zzpers.reduction

    forms = [to_updown(f)[0] for f in small_corpus[:8]]
    expected = [extended_barcode(U) for U in forms]
    sweeps = []

    def spy(*fields, inner=zzpers.filtration._Sweep):
        sweeps.append(fields)
        return inner(*fields)

    def forbidden(*args, **kwargs):
        raise AssertionError("extended_barcode built or reduced a coned filtration")

    monkeypatch.setattr(zzpers.filtration, "_Sweep", spy)
    for module in (zzpers.filtration, zzpers.reduction):
        monkeypatch.setattr(module, "_additions", forbidden)
    monkeypatch.setattr(zzpers.reduction, "_reduce", forbidden)
    for U, want in zip(forms, expected):
        sweeps.clear()
        assert extended_barcode(U) == want
        assert len(sweeps) == 1  # U's own admission sweep


def test_check_diamond_hand_case():
    lower = zz("a 0", "d 0", "a 1", "d 1")
    upper = outward_switch(lower, 2)
    assert check_diamond(oracle_absolute(lower), oracle_absolute(upper), 2)
    # wrong position must fail
    assert not check_diamond(oracle_absolute(lower), oracle_absolute(upper), 1)


def test_check_diamond_dimension_shift():
    # switching the last edge of a hollow triangle against an unrelated edge
    upper = zz("a 0", "a 1", "a 2", "a 0 1", "a 0 2", "a 1 2",
               "d 0 1", "d 0 2", "d 1 2", "d 2", "d 1", "d 0")
    lower = None
    # find the inward-switch position producing delete-then-add of distinct simplices
    from zzpers import inward_switch

    lower = inward_switch(upper, 6)  # swap +{1,2} with -{0,1}
    assert check_diamond(oracle_absolute(lower), oracle_absolute(upper), 6)


def test_pipeline_counts_arrows(small_corpus):
    for f in small_corpus[:8]:
        result = compute_zigzag(f)
        assert 2 * len(result.standardized) == result.standardized.m


def test_ext_to_updown_pointwise_dimensions(small_corpus):
    # the mapped multiset must cover each up-down snapshot by its total
    # Betti number
    from zzpers import homology_basis
    from zzpers.complexes import SimplicialComplex

    for f in small_corpus[:4]:
        U, _ = to_updown(f)
        ebar = extended_barcode(U)
        mapped = [ext_to_updown(e, ebar.n) for e in ebar.intervals]
        assert len(mapped) == len(ebar.intervals)
        for index, snap in enumerate(U.snapshots()):
            K = SimplicialComplex(snap)
            betti = sum(homology_basis(K, q).rank for q in range(K.dim + 1))
            covered = sum(1 for i in mapped if i.b <= index <= i.d)
            assert covered == betti


def test_updown_to_f_preserves_creator_destroyer(small_corpus):
    for f in small_corpus[:6]:
        U, id_map = to_updown(f)
        ebar = extended_barcode(U)
        for e in ebar.intervals:
            up = ext_to_updown(e, ebar.n)
            down = updown_to_f(up, id_map, U)
            up_set = {U.events[up.b - 1].simplex, U.events[up.d].simplex}
            f_set = {f.events[down.b - 1].simplex, f.events[down.d].simplex}
            assert up_set == f_set
            # the roles swap exactly when the mapped interval is open-open
            up_creator = U.events[up.b - 1].simplex
            f_creator = f.events[down.b - 1].simplex
            if down.type_code == "oo":
                assert f_creator != up_creator or up_creator == U.events[up.d].simplex
            elif up.type_code == "cc":
                assert f_creator == up_creator



@pytest.mark.parametrize("enabled", [True, False])
def test_compute_zigzag_restores_the_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        compute_zigzag(zz("a 0", "a 1", "a 0 1", "d 0 1"))
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidInputError):
            compute_zigzag(zz("a 0 1"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def _coned_coboundaries(facets, dims, dels):
    """The full coboundary matrix of the coned filtration of a valid
    standardized dense-id record, anti-transposed, and its columns' dimensions.

    The coned filtration has N = 2n + 1 columns: the apex (0), the up column
    of id s (s + 1) and the cone over the k-th deleted id (2n - k). Column
    N-1-c here is the coboundary of column c, with row N-1-x for each coface
    x: the cone over the k-th deleted id is column and row k, the up column
    of s is 2n-1-s, the apex 2n. A column's dimension is minus its simplex's.
    """
    n = len(dels)
    cofaces = [[] for _ in range(n)]
    for t in range(n):
        for x in facets[t]:
            cofaces[x].append(t)
    at = [0] * n  # id -> its position among the deletions: the row of the cone over it
    for k, s in enumerate(dels):
        at[s] = k
    cols = [tuple(at[t] for t in cofaces[s]) for s in dels]
    cols += [(*(2 * n - 1 - t for t in cofaces[s]), at[s]) for s in range(n - 1, -1, -1)]
    cols.append(tuple(at[v] for v in range(n) if not dims[v]))
    col_dims = [-1 - dims[s] for s in dels]
    col_dims += [-dims[s] for s in range(n - 1, -1, -1)]
    col_dims.append(0)
    return cols, col_dims


def _boundary_pairs(cols, col_dims):
    """The sorted boundary-matrix pairs of the coned filtration, from its full
    coboundary matrix (``_coned_coboundaries``) reduced by the shared loop."""
    top = len(cols) - 1  # coboundary pairs back to boundary pairs
    return sorted((top - j, top - low) for low, j in _reduce(cols, col_dims)[0])


def _record(f):
    sw = _admitted(f)
    _pad(sw, f)
    return sw.facets, sw.dims, sw.dels


def _swept_tori():
    """Seeded height sweeps of grid tori, plain and bumpy with a Rips layer."""
    for a, b, bumpy, radius, seed in ((6, 5, False, None, 3), (5, 4, True, 2.0, 8)):
        verts, faces = torus_mesh_points(a, b, bumpy=bumpy)
        yield generate(OffMesh(tuple(verts), tuple(faces)), axis="z", switches=30, seed=seed,
                       rips_radius=radius)


def test_solve_reduces_as_the_full_coboundary_matrix(a3_corpus):
    # _solve pairs dimension 0 by union-find, builds the other columns one dimension at
    # a time and skips the cleared ones; the whole matrix, built up front and reduced by
    # the shared loop, is the reference, and the dense reference gives its counters
    inputs = [*a3_corpus, *_swept_tori(), ZigzagFiltration([])]
    for f in inputs:
        record = _record(f)
        cols, col_dims = _coned_coboundaries(*record)
        pairs = _boundary_pairs(cols, col_dims)
        death, got_stats = _solve(*record)
        assert [(i, d) for i, d in enumerate(death) if d >= 0] == pairs
        _, stats = _solve_counters([sum(1 << r for r in rs) for rs in cols], col_dims)
        assert got_stats == stats
    # the empty filtration: the apex alone, in dimension 0
    assert (stats["columns"], stats["union_find_pairs"]) == (0, 0) and not pairs


def test_remap_pairs_refuses_a_table_with_the_apex_paired_or_a_pair_missing():
    # one edge: up vertex 1 (column 2) dies at the edge (3), up vertex 0 (1) at the cone
    # over vertex 1 (4), and the cone over vertex 0 (5) at the cone over the edge (6)
    f = zz("a 0", "a 1", "a 0 1", "d 0 1", "d 0", "d 1")
    sw = _admitted(f)
    record = sw.dims, sw.dels, sw.add_at, sw.del_at
    death = array("l", [-1, 4, 3, -1, -1, 6, -1])
    assert _solve(sw.facets, sw.dims, sw.dels)[0] == death
    remapped = Barcode._of_fields(_remap_pairs(death, *record), len(f), ABSOLUTE)
    assert remapped == compute_zigzag(f).barcode
    with pytest.raises(InternalInconsistencyError, match="^apex column appears in a pair$"):
        _remap_pairs(array("l", [6, 4, 3, -1, -1, -1, -1]), *record)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"^expected the apex column as the only essential, got \(0, 5, 6\)$",
    ):
        _remap_pairs(array("l", [-1, 4, 3, -1, -1, -1, -1]), *record)


def test_solve_builds_only_the_columns_twist_does_not_clear(monkeypatch):
    import zzpers.pipeline

    built, handed = [], []

    def spy(rows, owner, stats, inner=zzpers.pipeline._reduce_dim):
        built.append(sum(r is not None for r in rows))
        handed.append(len(rows))
        return inner(rows, owner, stats)

    monkeypatch.setattr(zzpers.pipeline, "_reduce_dim", spy)
    for f in _swept_tori():
        built.clear()
        handed.clear()
        stats = compute_zigzag(f).stats
        assert stats["cleared_columns"] > 0
        assert sum(built) == stats["columns"] - stats["cleared_columns"]
        assert sum(handed) == stats["columns"] and len(handed) > 2  # one call per dimension


def test_compute_zigzag_records_the_peak_rss_after_each_phase(small_corpus):
    result = compute_zigzag(small_corpus[0])
    peaks = result.peak_rss_mb
    assert list(peaks) == list(result.timings) == ["validate", "convert", "reduce", "remap"]
    assert 0 < peaks["validate"] and list(peaks.values()) == sorted(peaks.values())
    assert peaks["remap"] <= _peak_rss_mb()


def test_the_phase_that_sets_the_peak_shows_in_its_reading():
    # a fresh process whose reduce phase holds 64 MB more than any phase before it
    code = (
        "import zzpers.pipeline as p\n"
        "from zzpers.io import parse_filtration\n"
        "solve = p._solve\n"
        "def bloated(*record):\n"
        "    held = bytearray(64 << 20)\n"
        "    return solve(*record)\n"
        "p._solve = bloated\n"
        "f = parse_filtration('zzfilt v1\\na 0\\na 1\\na 0 1\\nd 0 1\\nd 0\\nd 1\\n').filtration\n"
        "print(*p.compute_zigzag(f).peak_rss_mb.values())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    validate, convert, reduce, remap = map(float, out.split())
    assert validate <= convert < convert + 60 < reduce <= remap


@pytest.mark.parametrize("platform, maxrss", [("darwin", 300 << 20), ("linux", 300 << 10)])
def test_peak_rss_falls_back_to_ru_maxrss_in_its_platform_unit(monkeypatch, tmp_path,
                                                                platform, maxrss):
    # where /proc/self/status does not exist, ru_maxrss is bytes on macOS and KiB on Linux
    import resource

    import zzpers.pipeline

    monkeypatch.setattr(zzpers.pipeline, "_STATUS", str(tmp_path / "no-status"))
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(resource, "getrusage", lambda who: SimpleNamespace(ru_maxrss=maxrss))
    assert _peak_rss_mb() == 300
