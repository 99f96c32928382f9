from array import array

import pytest

from zzpers import (
    ADD,
    DEL,
    FiltrationEvent,
    InvalidDiamondError,
    InvalidInputError,
    InvalidSwitchError,
    NotNonRepetitiveError,
    NotUpDownError,
    ZigzagFiltration,
    find_repetition,
    inward_switch,
    is_non_repetitive,
    oracle_absolute,
    outward_switch,
    random_outward_walk,
    standardize,
    to_updown,
    validate,
)
from zzpers.filtration import StandardizationRecord, _admitted, _directions, _pad, _sweep
from zzpers.rng import SplitMix64
from conftest import ev, random_complex, random_updown, sx, zz


def test_directions_of_signed_ids_of_every_magnitude():
    ids = [0, ~0, 255, ~255, 2**24, ~2**24, 2**31 - 1, ~(2**31 - 1)]
    assert _directions(array("i", ids)) == (ADD, DEL) * 4
    assert _directions(array("i")) == ()


def test_validate_examples():
    assert validate(zz("a 0")) == []
    bad = validate(zz("a 0 1"))
    assert len(bad) == 1 and bad[0].index == 0 and "missing facets" in bad[0].reason
    assert validate(zz("a 0", "d 0", "a 0")) == []  # valid but repetitive


def test_validate_more_violations():
    out = validate(zz("a 0", "a 0"))
    assert [v.index for v in out] == [1] and "duplicate" in out[0].reason
    out = validate(zz("d 0"))
    assert "absent" in out[0].reason
    out = validate(zz("a 0", "a 1", "a 0 1", "d 0"))
    assert out[0].index == 3 and "dangling coface" in out[0].reason


def test_non_repetitive_examples():
    assert is_non_repetitive(zz("a 0", "a 1", "d 1", "d 0"))
    assert not is_non_repetitive(zz("a 0", "d 0", "a 0", "d 0"))
    assert is_non_repetitive(zz())
    assert find_repetition(zz("a 0", "d 0", "a 0")) == (sx(0), 1, 2)


def test_standardize_fixed_point():
    f = zz("a 0", "d 0")
    out, record = standardize(f)
    assert out == f
    assert (record.prefix_length, record.suffix_length) == (0, 0)


def test_standardize_initial_only():
    f = ZigzagFiltration([ev("d 0")], initial=[sx(0)])
    out, record = standardize(f)
    assert out == zz("a 0", "d 0")
    assert record.prefix_length == 1 and record.suffix_length == 0


def test_standardize_both_ends():
    f = ZigzagFiltration([ev("a 0 1")], initial=[sx(0), sx(1)])
    out, record = standardize(f)
    assert out == zz("a 0", "a 1", "a 0 1", "d 0 1", "d 1", "d 0")
    assert validate(out) == []
    assert out.is_standardized()
    assert is_non_repetitive(out)


def test_standardize_preserves_validity_and_nonrepetitiveness(small_corpus):
    rng = SplitMix64(5)
    for f in small_corpus[:8]:
        # truncate to a non-standardized fragment, then standardize
        m = len(f)
        lo, hi = rng.below(m // 2 + 1), m - rng.below(m // 3 + 1)
        if lo >= hi:
            continue
        g = ZigzagFiltration(f.events[lo:hi], f.complex_at(lo))
        out, _ = standardize(g)
        assert validate(out) == []
        assert out.is_standardized()
        assert is_non_repetitive(out)


def test_complex_at_is_the_snapshot_and_refuses_out_of_range(small_corpus):
    for f in small_corpus[:4]:
        g = ZigzagFiltration(f.events[3:], f.complex_at(3))  # K_0 not empty
        for h in (f, g):
            snaps = list(h.snapshots())
            assert [h.complex_at(i) for i in range(len(snaps))] == snaps
            for i in (-1, len(snaps)):
                with pytest.raises(IndexError):
                    h.complex_at(i)


def _padded_reference(f):
    """The padded filtration built event by event from f's two ends, as
    ``standardize`` built it before it read the sweep."""
    prefix = [FiltrationEvent.add(s) for s in sorted(f.initial)]
    suffix = [FiltrationEvent.delete(s) for s in sorted(f.final_complex(), reverse=True)]
    record = StandardizationRecord(len(prefix), len(f.events), len(suffix))
    return ZigzagFiltration(prefix + list(f.events) + suffix), record


def _padded_windows(corpus, seed):
    """Windows of the corpus that start and end non-empty, and a repetitive
    copy of each that adds back the vertex it deleted last."""
    rng = SplitMix64(seed)
    for f in corpus:
        m = len(f)
        lo, hi = 1 + rng.below(m // 3), m - 1 - rng.below(m // 3)
        if lo >= hi:
            continue
        g = ZigzagFiltration(f.events[lo:hi], f.complex_at(lo))
        yield g
        gone = [e.simplex for e in g.events if e.direction == DEL and not e.simplex.dim]
        if gone and gone[-1] not in g.final_complex():
            yield ZigzagFiltration([*g.events, FiltrationEvent.add(gone[-1])], g.initial)


def test_the_padded_sweep_is_the_sweep_of_the_padded_filtration(small_corpus):
    windows = list(_padded_windows(small_corpus, 31))
    assert sum(1 for g in windows if g.initial and g.final_complex()) >= 20
    assert sum(1 for g in windows if find_repetition(g)) >= 5
    for f in small_corpus + windows:
        std, record = _padded_reference(f)
        want = _sweep(std)
        sw = _admitted(f)
        assert _pad(sw, f) == record
        n = len(want.vts)
        assert (sw.vts, sw.dims, sw.dels) == (want.vts, want.dims, want.dels)
        for got, ref in zip(sw[2:5], want[2:5]):  # facets, add_at, del_at, per id
            assert got[:n] == ref[:n]
        assert sw.violations == want.violations == []
        # the repetition keeps f's indices; the padded filtration's are p later
        if sw.repetition is None:
            assert want.repetition is None
        else:
            s, di, ai = sw.repetition
            assert want.repetition == (s, di + record.prefix_length, ai + record.prefix_length)
        assert standardize(f) == (std, record)


def test_violations_and_repetition_keep_the_input_indices_under_an_initial_complex():
    triangle = [sx(0), sx(1), sx(0, 1)]
    f = zz("d 0", "d 0 1", "d 0", "a 1", "a 0 1", "a 2 3", initial=triangle)
    assert [(v.index, v.reason) for v in validate(f)] == [
        (0, "dangling coface Simplex(0,1) of deleted Simplex(0)"),
        (3, "duplicate add of Simplex(1)"),
        (4, "missing facets of Simplex(0,1): Simplex(0)"),
        (5, "missing facets of Simplex(2,3): Simplex(2), Simplex(3)"),
    ]
    assert find_repetition(f) == (sx(0, 1), 1, 4)
    g = zz("d 0 1", "a 0 1", "d 0 1", initial=triangle)
    assert validate(g) == [] and find_repetition(g) == (sx(0, 1), 0, 1)


def test_to_updown_example():
    U, idx = to_updown(zz("a 0", "d 0", "a 1", "d 1"))
    assert U == zz("a 0", "a 1", "d 0", "d 1")
    assert idx.add_index == {sx(0): 0, sx(1): 2}
    assert idx.del_index == {sx(0): 1, sx(1): 3}


def test_to_updown_fixed_point():
    f = zz("a 0", "a 1", "d 0", "d 1")
    U, _ = to_updown(f)
    assert U == f


def test_to_updown_rejects_repetitive():
    with pytest.raises(NotNonRepetitiveError):
        to_updown(zz("a 0", "d 0", "a 0", "d 0"))


def test_outward_switch_example():
    f = zz("a 0", "d 0", "a 1", "d 1")
    assert outward_switch(f, 2) == zz("a 0", "a 1", "d 0", "d 1")


def test_outward_switch_same_simplex_is_diamond_error():
    f = zz("a 0", "d 0", "a 0", "d 0")
    with pytest.raises(InvalidDiamondError):
        outward_switch(f, 2)


def test_outward_switch_face_is_switch_error():
    # moving the addition of an edge before the deletion of its vertex
    f = ZigzagFiltration([ev("a 0"), ev("a 1"), ev("d 0"), ev("a 0 1")])
    with pytest.raises(InvalidSwitchError):
        outward_switch(f, 3)


def test_switch_error_texts():
    cases = [
        (outward_switch, zz("a 0", "d 0"), 2, InvalidSwitchError,
         "switch position 2 out of range"),
        (outward_switch, zz("a 0", "a 1", "d 0"), 1, InvalidSwitchError,
         "events at 0, 1 are not delete-then-add"),
        (outward_switch, zz("a 0", "d 0", "a 0"), 2, InvalidDiamondError,
         "cannot switch deletion and addition of the same Simplex(0)"),
        (outward_switch, zz("a 0", "a 1", "d 0", "a 0 1"), 3, InvalidSwitchError,
         "Simplex(0) is a face of Simplex(0,1); switched order would be invalid"),
        (inward_switch, zz("a 0", "d 0"), 0, InvalidSwitchError,
         "switch position 0 out of range"),
        (inward_switch, zz("a 0", "d 0", "a 1"), 2, InvalidSwitchError,
         "events at 1, 2 are not add-then-delete"),
        (inward_switch, zz("a 0", "d 0"), 1, InvalidDiamondError,
         "cannot switch addition and deletion of the same Simplex(0)"),
        (inward_switch, zz("a 0", "a 1", "a 0 1", "d 0"), 3, InvalidSwitchError,
         "Simplex(0) is a face of Simplex(0,1); switched order would be invalid"),
    ]
    for switch, f, j, error, text in cases:
        with pytest.raises(error) as err:
            switch(f, j)
        assert type(err.value) is error and str(err.value) == text


def test_switch_refuses_a_position_that_is_no_int():
    f = zz("a 0", "d 0", "a 1", "d 1")
    for switch in (outward_switch, inward_switch):
        for j in ("1", 1.0, True, 2.0, None):
            with pytest.raises(InvalidSwitchError) as err:
                switch(f, j)
            assert str(err.value) == f"switch position {j!r} out of range"


def test_inward_switch_and_round_trip():
    f = zz("a 0", "a 1", "d 0", "d 1")
    g = inward_switch(f, 2)
    assert g == zz("a 0", "d 0", "a 1", "d 1")
    assert outward_switch(g, 2) == f
    with pytest.raises(InvalidDiamondError):
        inward_switch(zz("a 0", "a 1", "d 1", "d 0"), 2)


def test_switch_round_trip_on_corpus(small_corpus):
    for f in small_corpus[:10]:
        for j in range(1, len(f)):
            first, second = f.events[j - 1], f.events[j]
            if first.direction == DEL and second.direction == ADD:
                if second.simplex.is_face_of(first.simplex) or first.simplex.is_face_of(
                    second.simplex
                ):
                    continue
                assert inward_switch(outward_switch(f, j), j) == f


def test_walk_zero_steps():
    f = zz("a 0", "a 1", "d 0", "d 1")
    out, taken = random_outward_walk(f, 0, 1)
    assert out == f and taken == 0


def test_walk_unique_legal_move():
    f = zz("a 0", "a 1", "d 0", "d 1")
    for seed in (0, 1, 99):
        out, taken = random_outward_walk(f, 1, seed)
        assert out == zz("a 0", "d 0", "a 1", "d 1")
        assert taken == 1


def test_walk_refuses_a_step_count_or_seed_that_is_no_int():
    f = zz("a 0", "a 1", "d 0", "d 1")
    for steps, seed, text in (("3", 1, "steps must be an int, got '3'"),
                              (1.5, 1, "steps must be an int, got 1.5"),
                              (True, 1, "steps must be an int, got True"),
                              (3, "1", "seed must be an int, got '1'"),
                              (3, 1.5, "seed must be an int, got 1.5"),
                              (3, False, "seed must be an int, got False")):
        with pytest.raises(InvalidInputError) as err:
            random_outward_walk(f, steps, seed)
        assert str(err.value) == text


def test_walk_requires_updown():
    with pytest.raises(NotUpDownError):
        random_outward_walk(zz("a 0", "d 0", "a 1", "d 1"), 1, 0)


def test_walk_determinism_and_validity():
    rng = SplitMix64(31)
    simplices = random_complex(rng)
    U = random_updown(rng, simplices)
    a, ta = random_outward_walk(U, 3 * len(simplices), 777)
    b, tb = random_outward_walk(U, 3 * len(simplices), 777)
    assert a == b and ta == tb
    assert validate(a) == []
    assert is_non_repetitive(a)


def test_updown_form_invariant_under_walk(small_corpus):
    rng = SplitMix64(12)
    for f in small_corpus[:6]:
        U, _ = to_updown(f)
        walked, _ = random_outward_walk(U, rng.below(len(U) + 1), rng.next_u64())
        U2, _ = to_updown(walked)
        assert U2 == U


def test_total_complex_and_event_multiset_preserved(small_corpus):
    for f in small_corpus[:6]:
        U, _ = to_updown(f)
        assert U.total_complex() == f.total_complex()
        assert sorted(map(repr, U.events)) == sorted(map(repr, f.events))


def test_every_arrow_gives_one_birth_or_death(small_corpus):
    # standardized: interval count is half the number of arrows
    for f in small_corpus[:6]:
        bars = oracle_absolute(f)
        assert 2 * len(bars) == len(f)
