import pickle
from collections import Counter

import pytest

from zzpers import (
    ABSOLUTE,
    Barcode,
    ContextMismatchError,
    ContractViolationError,
    Interval,
    InvalidInputError,
    RELATIVE,
    classify_ends,
    homology_basis,
    multiset_equal,
    oracle_absolute,
    to_updown,
)
from zzpers.barcode import _TEXT_CHUNK
from zzpers.complexes import SimplicialComplex
from zzpers.io import parse_barcode
from conftest import zz


def iv(dim, b, d, tc):
    return Interval(dim, b, d, tc[0], tc[1])


def test_interval_invariants():
    with pytest.raises(ContractViolationError, match=r"^bad interval endpoints \[3, 2\]$"):
        Interval(0, 3, 2, "c", "c")
    with pytest.raises(ContractViolationError, match="^negative interval dimension -1$"):
        Interval(-1, 0, 0, "c", "c")
    with pytest.raises(ContractViolationError, match=r"^end types must be 'c' or 'o'$"):
        Interval(0, 0, 0, "x", "c")


def test_interval_orders_compares_and_hashes_by_fields():
    a = iv(0, 1, 2, "co")
    assert (a.dim, a.b, a.d, a.birth_type, a.death_type, a.type_code) == (0, 1, 2, "c", "o", "co")
    assert repr(a) == "[1,2]^co_0"
    assert a == iv(0, 1, 2, "co") and a != iv(0, 1, 2, "cc")
    assert hash(a) == hash(iv(0, 1, 2, "co")) == hash((0, 1, 2, "c", "o"))
    ordered = [iv(0, 1, 2, "cc"), iv(0, 1, 2, "co"), iv(0, 1, 3, "cc"), iv(0, 2, 2, "cc"),
               iv(1, 0, 0, "cc")]
    assert sorted(reversed(ordered)) == ordered
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.b = 5


def test_barcode_of_field_tuples_matches_intervals():
    rows = [iv(1, 0, 2, "co"), iv(0, 1, 1, "cc"), iv(0, 1, 1, "cc")]
    bar = Barcode(rows, 4, ABSOLUTE)
    fields = Barcode._of_fields([tuple(r) for r in rows], 4, ABSOLUTE)
    assert fields == bar and bar == fields
    assert fields.to_text() == bar.to_text()
    assert fields.items() == bar.items()
    assert all(type(i) is Interval for i, _ in fields.items())
    assert all(type(i) is Interval for i in fields.counts())
    assert fields.triples() == bar.triples()
    assert fields.in_dim(0) == bar.in_dim(0)
    assert multiset_equal(fields, bar).equal


def test_classify_ends_examples():
    directions = zz("a 0", "d 0").directions()
    assert classify_ends(0, 0, directions) == ("c", "o")  # b = 0; death at an addition
    assert classify_ends(1, 2, directions) == ("c", "c")  # d = m
    assert classify_ends(1, 1, directions) == ("c", "c")  # added before, deleted after
    with pytest.raises(ContractViolationError):
        classify_ends(1, 3, directions)


def test_classify_open_ends():
    directions = zz("a 0", "a 1", "d 0", "d 1").directions()
    # birth after a deletion arrow is open; death before an addition arrow is open
    assert classify_ends(3, 3, directions) == ("o", "c")
    assert classify_ends(1, 1, directions) == ("c", "o")


def test_multiset_equal_examples():
    a = Barcode([iv(0, 1, 1, "cc")], 2, ABSOLUTE)
    b = Barcode([iv(0, 1, 1, "cc")], 2, ABSOLUTE)
    assert multiset_equal(a, b).equal
    empty = Barcode([], 2, ABSOLUTE)
    diff = multiset_equal(a, empty)
    assert not diff.equal
    assert diff.missing == ((iv(0, 1, 1, "cc"), 1),) and diff.extra == ()


def test_multiset_equal_permutation_invariant():
    # the same multiset listed in two different orders compares equal
    rows = [iv(0, 0, 0, "co"), iv(0, 8, 8, "oc"), iv(1, 0, 4, "co"), iv(1, 4, 8, "oc"),
            iv(2, 0, 6, "co"), iv(2, 2, 8, "oc"), iv(1, 0, 2, "co"), iv(1, 6, 8, "oc")]
    a = Barcode(rows, 8, RELATIVE)
    b = Barcode(list(reversed(rows)), 8, RELATIVE)
    assert multiset_equal(a, b).equal


def test_multiset_context_mismatch():
    a = Barcode([], 2, ABSOLUTE)
    with pytest.raises(ContextMismatchError):
        multiset_equal(a, Barcode([], 3, ABSOLUTE))
    with pytest.raises(ContextMismatchError):
        multiset_equal(a, Barcode([], 2, RELATIVE))


def test_serialization_deterministic_and_sorted():
    bar = Barcode([iv(1, 0, 2, "co"), iv(0, 1, 1, "cc"), iv(0, 1, 1, "cc")], 4, ABSOLUTE)
    lines = bar.to_lines()
    assert lines[0] == "zzbar v1 m=4 kind=abs"
    assert lines[1:] == ["0 1 1 cc", "0 1 1 cc", "1 0 2 co"]


@pytest.mark.parametrize("size", [0, 1, _TEXT_CHUNK - 1, _TEXT_CHUNK, _TEXT_CHUNK + 1,
                                  2 * _TEXT_CHUNK + 1])
def test_text_in_chunks_is_the_joined_lines(size):
    bar = Barcode([iv(k % 3, k, k + 1, "co") for k in range(size)], size + 1, RELATIVE)
    assert bar.to_text() == "\n".join(bar.to_lines()) + "\n"


def test_multiplicity_roundtrip():
    bar = Barcode([iv(0, 1, 2, "co")] * 3, 4, ABSOLUTE)
    assert len(bar) == 3
    assert bar.counts()[iv(0, 1, 2, "co")] == 3
    # a count map: a repeated interval is one entry per copy, and a zero count none
    counted = Barcode(Counter({iv(1, 0, 0, "cc"): 1, iv(0, 0, 1, "cc"): 0, iv(0, 1, 2, "co"): 3}),
                      4, ABSOLUTE)
    assert counted == Barcode([iv(0, 1, 2, "co"), iv(1, 0, 0, "cc")] + [iv(0, 1, 2, "co")] * 2,
                              4, ABSOLUTE)
    assert counted.items() == [(iv(0, 1, 2, "co"), 3), (iv(1, 0, 0, "cc"), 1)]
    assert len(counted) == 4 and iv(0, 0, 1, "cc") not in counted.counts()
    assert counted.to_lines()[1:] == ["0 1 2 co"] * 3 + ["1 0 0 cc"]


def test_barcode_checks_its_intervals_counts_and_context():
    with pytest.raises(InvalidInputError, match=r"^not an interval: \(0, 1, 1, 'c', 'c'\)$"):
        Barcode([iv(0, 0, 1, "cc"), (0, 1, 1, "c", "c")], 2, ABSOLUTE)
    # an unhashable item, from a list or a one-shot iterator, gets the same text
    for items in ([[0, 1, 2, "c", "o"]], iter([iv(0, 0, 1, "cc"), [0, 1, 2, "c", "o"]])):
        with pytest.raises(InvalidInputError, match=r"^not an interval: \[0, 1, 2, 'c', 'o'\]$"):
            Barcode(items, 5, ABSOLUTE)
    with pytest.raises(ContractViolationError, match=r"^\[1,3\]\^co_0 exceeds module length 2$"):
        Barcode([iv(0, 1, 3, "co")], 2, ABSOLUTE)
    with pytest.raises(InvalidInputError, match="^negative multiplicity$"):
        Barcode(Counter({iv(0, 1, 1, "cc"): 2, iv(0, 1, 2, "cc"): -1}), 2, ABSOLUTE)
    with pytest.raises(InvalidInputError, match="^unknown barcode kind 'x'$"):
        Barcode([], 2, "x")
    with pytest.raises(InvalidInputError, match="^module length must be non-negative$"):
        Barcode([], -1, ABSOLUTE)


def test_barcode_refuses_a_module_length_that_is_no_int():
    for m in (3.5, True, "3", None):
        with pytest.raises(InvalidInputError, match=rf"^module length must be an int, got {m!r}$"):
            Barcode([], m, ABSOLUTE)
    # what is accepted reads back from its own text
    assert parse_barcode(Barcode([], 3, ABSOLUTE).to_text()) == Barcode([], 3, ABSOLUTE)


def test_barcode_refuses_a_count_that_is_no_int_and_a_non_iterable():
    one = iv(0, 1, 2, "co")
    for count in ("x", 1.5):
        with pytest.raises(InvalidInputError,
                           match=rf"^multiplicity of \[1,2\]\^co_0 is not an integer: {count!r}$"):
            Barcode({one: count}, 5, ABSOLUTE)
    with pytest.raises(InvalidInputError, match=r"^not an iterable of intervals: 5$"):
        Barcode(5, 5, ABSOLUTE)
    assert Barcode({one: True}, 5, ABSOLUTE) == Barcode([one], 5, ABSOLUTE)  # bool is an int


def test_interval_count_matches_pointwise_dimension(small_corpus):
    # sum of interval lengths equals the total Betti number over all snapshots
    for f in small_corpus[:4]:
        bars = oracle_absolute(f)
        total_len = sum(ivl.d - ivl.b + 1 for ivl in bars)
        dim_sum = 0
        for snap in f.snapshots():
            K = SimplicialComplex(snap)
            for q in range(K.dim + 1):
                dim_sum += homology_basis(K, q).rank
        assert total_len == dim_sum


def test_updown_barcode_has_no_open_open(small_corpus):
    for f in small_corpus[:6]:
        U, _ = to_updown(f)
        assert all(ivl.type_code != "oo" for ivl in oracle_absolute(U))
