"""Property-based tests: generated filtrations against the staged public route."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from zzpers import (
    ABSOLUTE,
    Barcode,
    FiltrationEvent,
    Simplex,
    ZigzagFiltration,
    boundary,
    build_extended,
    compute_zigzag,
    ext_to_updown,
    find_repetition,
    reduce_twist,
    standardize,
    to_updown,
    updown_to_f,
    validate,
)
from zzpers.reduction import extended_from_reduction

# every simplex on five vertices up to dimension 3, faces before cofaces
CANDIDATES = [Simplex(c) for k in range(1, 5) for c in combinations(range(5), k)]


@st.composite
def nonrepetitive_filtrations(draw):
    """A valid non-repetitive filtration: a window of one that starts and ends
    empty, in which each simplex of a drawn complex K is added once, after its
    facets, and deleted once, after its cofaces. A window that starts inside
    it has a non-empty initial complex."""
    K = []
    for s in CANDIDATES:  # faces first, so a coface's facets are decided
        if all(f in K for f in boundary(s)) and draw(st.integers(0, 3)):  # kept 3 times in 4
            K.append(s)
    add_at = {}
    for s in K:
        add_at[s] = 1 + max((add_at[f] for f in boundary(s)), default=0) + draw(st.integers(0, 9))
    del_at = {}
    for s in reversed(K):  # cofaces first
        last = max((del_at[t] for t in K if t.dim == s.dim + 1 and s.is_face_of(t)), default=0)
        del_at[s] = 1 + max(add_at[s], last) + draw(st.integers(0, 9))
    # distinct simplices sharing a time are never face and coface: times strictly
    # increase along additions and decrease along deletions, and d(s) > a(s)
    timed = [(add_at[s], FiltrationEvent.add(s)) for s in K]
    timed += [(del_at[s], FiltrationEvent.delete(s)) for s in reversed(K)]
    timed.sort(key=lambda pair: pair[0])
    whole = ZigzagFiltration([e for _, e in timed])
    lo = draw(st.integers(0, len(whole)))
    hi = len(whole) - draw(st.integers(0, len(whole) - lo))
    return ZigzagFiltration(whole.events[lo:hi], whole.complex_at(lo))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonrepetitive_filtrations())
def test_compute_zigzag_matches_staged_public_route(f):
    assert validate(f) == [] and find_repetition(f) is None
    std, _ = standardize(f)
    U, id_map = to_updown(std)
    ext = build_extended(U)
    ebar = extended_from_reduction(ext, reduce_twist(ext.events))
    staged = Barcode(
        [updown_to_f(ext_to_updown(e, ebar.n), id_map, U) for e in ebar.intervals],
        len(std),
        ABSOLUTE,
    )
    assert compute_zigzag(f).standardized == staged
