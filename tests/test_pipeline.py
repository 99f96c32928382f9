import gc

import pytest

from zzpers import (
    ABSOLUTE,
    Barcode,
    ContractViolationError,
    EventIndexMap,
    Interval,
    InvalidInputError,
    NotNonRepetitiveError,
    ZigzagFiltration,
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
from zzpers.reduction import ExtendedInterval
from zzpers.rng import SplitMix64
from conftest import ev, random_nonrepetitive, sx, zz


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


def test_empty_filtration():
    f = ZigzagFiltration([])
    result = compute_zigzag(f)
    assert len(result.barcode) == 0 and result.stats["columns"] == 1  # the apex alone
    assert len(zigzag_barcode(f)) == 0
    assert len(oracle_absolute(f)) == 0


def test_padded_inputs_vertex_only_and_non_empty_initial():
    # both need padding, so compute_zigzag sweeps the standardized filtration again
    triangle_boundary = [sx(0), sx(1), sx(2), sx(0, 1), sx(0, 2), sx(1, 2)]
    cases = [
        (zz("a 0", "a 1", "d 0", "a 2"), 0, 2),
        (zz("a 0 1 2", "d 0 1 2", "d 0 1", "a 3", "a 0 3", initial=triangle_boundary), 6, 7),
    ]
    for f, prefix, suffix in cases:
        result = compute_zigzag(f)
        assert (result.record.prefix_length, result.record.suffix_length) == (prefix, suffix)
        assert multiset_equal(result.barcode, oracle_absolute(f)).equal
        # the apex plus one column per event of the padded filtration
        assert result.stats["columns"] == prefix + len(f) + suffix + 1


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
