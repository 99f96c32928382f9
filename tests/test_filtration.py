import pytest

from zzpers import (
    ADD,
    DEL,
    FiltrationEvent,
    InvalidDiamondError,
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
from zzpers.rng import SplitMix64
from conftest import ev, random_complex, random_updown, sx, zz


def test_trusted_event_equals_hashes_and_prints_like_a_checked_one():
    for d in (ADD, DEL):
        trusted, checked = FiltrationEvent._trusted(d, sx(0, 2)), FiltrationEvent(d, sx(0, 2))
        assert type(trusted) is FiltrationEvent
        assert trusted == checked and hash(trusted) == hash(checked)
        assert repr(trusted) == repr(checked)
    assert FiltrationEvent._trusted(ADD, sx(0)) != FiltrationEvent(DEL, sx(0))


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
