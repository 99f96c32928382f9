"""Property-based tests: generated filtrations against the brute-force oracle,
the staged public route and the full coned matrix, and generated graph zigzags
against the brute-force oracle."""

from itertools import combinations
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zzpers import (
    ABSOLUTE,
    RELATIVE,
    Barcode,
    FiltrationEvent,
    GraphZigzag,
    InvalidInputError,
    Simplex,
    ZigzagFiltration,
    absolute_to_relative,
    boundary,
    build_extended,
    compute_zigzag,
    ext_to_updown,
    find_repetition,
    multiset_equal,
    oracle_absolute,
    recover_absolute_from_relative,
    reduce_twist,
    relative_top_barcode,
    standardize,
    to_updown,
    updown_to_f,
    validate,
    zero_dim_zigzag,
)
from zzpers import manifold
from zzpers.filtration import ADD, DEL, _sweep
from zzpers.io import (
    FILT_HEADER,
    OffMesh,
    ParsedFiltration,
    format_filtration,
    generate,
    parse_filtration,
)
from zzpers.manifold import ADD_EDGE, ADD_VERTEX, DEL_EDGE, DEL_VERTEX, NOOP
from zzpers.pipeline import _solve, _vertex_pairs
from zzpers.reduction import extended_from_reduction
from test_manifold import _graph_route, _oracle_zero_dim, polygon
from test_pipeline import _boundary_pairs, _coned_coboundaries, _record
from conftest import octahedron, torus_mesh_points, zz

# every simplex on five vertices up to dimension 3, faces before cofaces
CANDIDATES = [Simplex(c) for k in range(1, 5) for c in combinations(range(5), k)]


def _timed_filtration(draw, K: List[Simplex]) -> ZigzagFiltration:
    """A filtration that starts and ends empty, in which each simplex of the
    complex K (listed faces first) is added once, after its facets, and
    deleted once, after its cofaces: valid and non-repetitive."""
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
    return ZigzagFiltration([e for _, e in timed])


def _drawn_complex(draw) -> List[Simplex]:
    """A complex of simplices of CANDIDATES, listed faces first."""
    K = []
    for s in CANDIDATES:  # faces first, so a coface's facets are decided
        if all(f in K for f in boundary(s)) and draw(st.integers(0, 3)):  # kept 3 times in 4
            K.append(s)
    return K


@st.composite
def nonrepetitive_filtrations(draw):
    """A valid non-repetitive filtration: a window of one that starts and ends
    empty, in which each simplex of a drawn complex K is added once, after its
    facets, and deleted once, after its cofaces. A window that starts inside
    it has a non-empty initial complex."""
    whole = _timed_filtration(draw, _drawn_complex(draw))
    lo = draw(st.integers(0, len(whole)))
    hi = len(whole) - draw(st.integers(0, len(whole) - lo))
    return ZigzagFiltration(whole.events[lo:hi], whole.complex_at(lo))


def _staged_barcode(f: ZigzagFiltration) -> Barcode:
    """``compute_zigzag(f).standardized`` through the unfused public steps."""
    std, _ = standardize(f)
    U, id_map = to_updown(std)
    ext = build_extended(U)
    ebar = extended_from_reduction(ext, reduce_twist(ext.events))
    return Barcode(
        [updown_to_f(ext_to_updown(e, ebar.n), id_map, U) for e in ebar.intervals],
        len(std),
        ABSOLUTE,
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonrepetitive_filtrations())
def test_compute_zigzag_matches_staged_public_route(f):
    assert validate(f) == [] and find_repetition(f) is None
    assert compute_zigzag(f).standardized == _staged_barcode(f)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonrepetitive_filtrations())
def test_compute_zigzag_matches_the_oracle(f):
    diff = multiset_equal(compute_zigzag(f).barcode, oracle_absolute(f))  # end types too
    assert diff.equal, diff


@example(ZigzagFiltration([]))
@example(zz("a 0", "a 1", "d 0", "a 2"))  # vertices only
@example(zz("a 0", "a 1", "a 2", "a 0 1", "a 3", "d 0 1", "d 2"))  # isolated vertices
@settings(derandomize=True, max_examples=300, deadline=None)
@given(nonrepetitive_filtrations())
def test_vertex_pairs_are_the_full_matrix_pairs_of_dimension_0(f):
    record = _record(f)
    dims = record[1]
    n = len(dims)
    want = [(i, j) for i, j in _boundary_pairs(*_coned_coboundaries(*record))
            if i <= n and not dims[i - 1]]  # born at an up vertex
    assert sorted(_vertex_pairs(*record)) == want


OCTAHEDRON = octahedron()


@st.composite
def moved_event_filtrations(draw):
    """A valid non-repetitive filtration of the octahedron, and a copy of it
    with one event moved to another position: the same simplices, valid or
    not. A valid copy is standardized and non-repetitive too, since each
    simplex is still added once and deleted once."""
    parent = _timed_filtration(draw, sorted(OCTAHEDRON.simplex_set()))
    events = list(parent.events)
    moved = events.pop(draw(st.integers(0, len(events) - 1)))
    events.insert(draw(st.integers(0, len(events))), moved)
    return parent, ZigzagFiltration(events)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(moved_event_filtrations())
def test_every_entry_point_admits_through_the_one_sweep(pair):
    parent, f = pair
    K = OCTAHEDRON
    violations = validate(f)
    # admission comes first: an invalid f meets an empty relative barcode of its length
    rel = Barcode([], len(f), RELATIVE) if violations else relative_top_barcode(f, K, 2)
    calls = (
        lambda: compute_zigzag(f),
        lambda: to_updown(standardize(f)[0]),
        lambda: relative_top_barcode(f, K, 2),
        lambda: recover_absolute_from_relative(rel, f, K, 2),
    )
    if violations:
        messages = set()
        for call in calls:
            with pytest.raises(InvalidInputError) as err:
                call()
            messages.add(str(err.value))
        head = "; ".join(f"event {v.index}: {v.reason}" for v in violations[:5])
        assert messages == {f"invalid filtration ({len(violations)} violations): {head}"}
        return
    result, (U, id_map), got_rel, rec = (call() for call in calls)
    assert got_rel == rel
    adds = [e for e in f.events if e.direction == ADD]
    dels = [e for e in f.events if e.direction == DEL]
    assert U.events == tuple(adds + dels)
    assert id_map.add_index == {e.simplex: i for i, e in enumerate(f.events) if e in adds}
    assert id_map.del_index == {e.simplex: i for i, e in enumerate(f.events) if e in dels}
    assert result.standardized == result.barcode == _staged_barcode(f)
    assert got_rel == absolute_to_relative(result.barcode).in_dim(2)
    assert rec == result.barcode.filter(
        lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
    )


@st.composite
def graph_zigzags(draw):
    """A valid graph zigzag on a simple graph with up to 5 vertices: each
    arrow is an identity or a move allowed in the current subgraph."""
    nv = draw(st.integers(0, 5))
    pairs = list(combinations(range(nv), 2))
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    vs = draw(st.sets(st.integers(0, nv - 1))) if nv else set()
    es = {i for i, (a, b) in enumerate(edges) if a in vs and b in vs and draw(st.booleans())}
    g0 = (frozenset(vs), frozenset(es))
    events = []
    for _ in range(draw(st.integers(0, 24))):
        moves = [(NOOP, None)]
        moves += [(ADD_VERTEX, v) for v in range(nv) if v not in vs]
        moves += [(DEL_VERTEX, v) for v in sorted(vs) if not any(v in edges[i] for i in es)]
        moves += [(ADD_EDGE, i) for i, (a, b) in enumerate(edges)
                  if i not in es and a in vs and b in vs]
        moves += [(DEL_EDGE, i) for i in sorted(es)]
        op, i = draw(st.sampled_from(moves))
        events.append((op, i))
        if op != NOOP:
            {ADD_VERTEX: vs.add, DEL_VERTEX: vs.discard, ADD_EDGE: es.add,
             DEL_EDGE: es.discard}[op](i)
    return GraphZigzag(nv, edges, tuple(events), *g0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_zigzags())
def test_zero_dim_zigzag_matches_oracle_on_generated_graph_zigzags(g):
    assert multiset_equal(zero_dim_zigzag(g), _oracle_zero_dim(g)).equal


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graph_zigzags())
def test_copy_pairs_equal_the_coboundary_solve_on_generated_graph_zigzags(g):
    """A graph zigzag's copy record goes to ``_solve``, whose pairs, its
    dimension-0 union-find's among them, are the full coned matrix's."""
    records = []
    arrow_fields = manifold._arrow_fields

    def capture(facets, dims, dels, *rest):
        records.append((facets, dims, dels))
        return arrow_fields(facets, dims, dels, *rest)

    manifold._arrow_fields = capture
    try:
        zero_dim_zigzag(g)
    finally:
        manifold._arrow_fields = arrow_fields
    (record,) = records
    death = _solve(*record)[0]
    pairs = [(i, d) for i, d in enumerate(death) if d >= 0]
    assert pairs == _boundary_pairs(*_coned_coboundaries(*record))


# closed manifolds and their top dimension p
TOP_MANIFOLDS = {"7-gon": (polygon(7), 1), "octahedron": (OCTAHEDRON, 2)}


@st.composite
def manifold_filtrations(draw):
    """A closed manifold K, its top dimension p and a valid non-repetitive
    filtration of K that starts and ends empty."""
    K, p = TOP_MANIFOLDS[draw(st.sampled_from(sorted(TOP_MANIFOLDS)))]
    return K, p, _timed_filtration(draw, sorted(K.simplex_set()))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(manifold_filtrations())
def test_relative_top_barcode_equals_the_graph_route_on_generated_filtrations(case):
    """The two union-finds of a non-repetitive f against the copy record of
    its ``dual_filtration`` paired by the matrix solve."""
    K, p, f = case
    assert find_repetition(f) is None
    assert relative_top_barcode(f, K, p) == _graph_route(f, K, p)


INDICES = st.sampled_from([-1, 0, 1, 2, 3, 4, 5, None, "a"])
OPS = st.sampled_from([ADD_VERTEX, DEL_VERTEX, ADD_EDGE, DEL_EDGE, NOOP, "+x", ["+v"]])
# an index, an edge or event of any arity up to three, or an event with one field
ITEMS = st.one_of(
    INDICES, st.lists(INDICES, max_size=3).map(tuple), st.tuples(OPS, INDICES), st.tuples(OPS)
)
FIELDS = ("n_vertices", "edges", "events", "initial_vertices", "initial_edges")


@st.composite
def arbitrary_graph_zigzags(draw):
    """A generated graph zigzag with up to three fields changed at random: the
    vertex count replaced, an edge or event replaced or inserted, or an index
    added to an initial set. Most results are malformed; some stay valid."""
    g = draw(graph_zigzags())
    nv, edges, events = g.n_vertices, list(g.edges), list(g.events)
    initial = {"initial_vertices": set(g.initial_vertices), "initial_edges": set(g.initial_edges)}
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(FIELDS))
        if field == "n_vertices":
            nv = draw(INDICES)
        elif field in initial:
            initial[field].add(draw(INDICES))
        else:
            seq = edges if field == "edges" else events
            k = draw(st.integers(0, len(seq)))
            seq[k : k + draw(st.integers(0, 1))] = [draw(ITEMS)]
    return GraphZigzag(nv, tuple(edges), tuple(events), *map(frozenset, initial.values()))


def _is_valid_graph_zigzag(g):
    """Whether g is a graph zigzag as ``GraphZigzag`` defines one, checked
    cell by cell from the definition."""
    nv, edges = g.n_vertices, g.edges
    if type(nv) is not int or nv < 0:
        return False

    def is_pair(x):
        return type(x) is tuple and len(x) == 2

    def is_index(i, n):
        return type(i) is int and 0 <= i < n

    ends = set()
    for e in edges:
        if not is_pair(e) or not all(is_index(v, nv) for v in e) or e[0] == e[1]:
            return False
        if frozenset(e) in ends:
            return False
        ends.add(frozenset(e))
    vs, es = set(g.initial_vertices), set(g.initial_edges)
    if not all(is_index(v, nv) for v in vs) or not all(is_index(i, len(edges)) for i in es):
        return False
    for k in range(-1, g.m):
        if k >= 0:
            if not is_pair(g.events[k]):
                return False
            op, i = g.events[k]
            if op != NOOP:
                if op not in (ADD_VERTEX, DEL_VERTEX, ADD_EDGE, DEL_EDGE):
                    return False
                cells, n = (vs, nv) if op in (ADD_VERTEX, DEL_VERTEX) else (es, len(edges))
                adding = op in (ADD_VERTEX, ADD_EDGE)
                if not is_index(i, n) or (i in cells) == adding:
                    return False
                (cells.add if adding else cells.discard)(i)
        if not all(a in vs and b in vs for a, b in map(edges.__getitem__, es)):
            return False
    return True


@settings(derandomize=True, max_examples=600, deadline=None)
@given(arbitrary_graph_zigzags())
def test_zero_dim_zigzag_rejects_or_matches_oracle_on_arbitrary_input(g):
    if _is_valid_graph_zigzag(g):
        assert multiset_equal(zero_dim_zigzag(g), _oracle_zero_dim(g)).equal
    else:
        with pytest.raises(InvalidInputError):
            zero_dim_zigzag(g)


# The parser as it was before it shared one Simplex per simplex text and
# built events unchecked, kept as the reference for the fuzz below (less the
# block map, which the parse result no longer carries).

def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _repeated_vertex(tokens: List[str]) -> InvalidInputError:
    """The error for a simplex whose interned ids Simplex rejected: ids are
    valid, so a token repeats; name it as the file has it."""
    dup = next(t for i, t in enumerate(tokens) if t in tokens[:i])
    return InvalidInputError(f"duplicate vertex {dup} in simplex")


def reference_parse_filtration(text: str) -> ParsedFiltration:
    lines = text.splitlines()
    body = [(i, _strip(raw)) for i, raw in enumerate(lines)]
    body = [(i, line) for i, line in body if line]
    if not body or body[0][1] != FILT_HEADER:
        raise InvalidInputError(f"filtration file must start with '{FILT_HEADER}'")
    ids: Dict[str, int] = {}  # vertex token -> id, in first-occurrence order
    events: List[FiltrationEvent] = []
    block: Optional[str] = None
    block_simplices: List[Simplex] = []

    def flush_block() -> None:
        nonlocal block
        if block is None:
            return
        ordered = sorted(block_simplices, key=lambda s: (s.dim, s.vertices))
        if block == DEL:
            ordered.reverse()
        direction = block
        for s in ordered:
            events.append(FiltrationEvent(direction, s))
        block = None
        block_simplices.clear()

    for lineno, line in body[1:]:
        try:
            tokens = line.split()
            head = tokens[0]
            if head in ("begin-a", "begin-d"):
                if block is not None:
                    raise InvalidInputError("nested block")
                block = ADD if head == "begin-a" else DEL
                continue
            if head in ("end-a", "end-d"):
                if block != (ADD if head == "end-a" else DEL):
                    raise InvalidInputError(f"unmatched {head}")
                flush_block()
                continue
            if block is not None:
                try:
                    block_simplices.append(Simplex(ids.setdefault(t, len(ids)) for t in tokens))
                except InvalidInputError:
                    raise _repeated_vertex(tokens) from None
                continue
            if head not in (ADD, DEL) or len(tokens) < 2:
                raise InvalidInputError(f"expected 'a|d v1 v2 ...', got {line!r}")
            try:
                s = Simplex(ids.setdefault(t, len(ids)) for t in tokens[1:])
            except InvalidInputError:
                raise _repeated_vertex(tokens[1:]) from None
            events.append(FiltrationEvent(head, s))
        except InvalidInputError as exc:
            raise InvalidInputError(f"line {lineno + 1}: {exc}") from exc
    if block is not None:
        raise InvalidInputError("unterminated coarse block")
    return ParsedFiltration(ZigzagFiltration(events), tuple(ids))


VERTEX_TOKENS = ["0", "1", "2", "x", "é", "頂点", "a", "d", "begin-a", "end-d", "x#y"]
# first tokens of a line that stays a simplex or an event inside a block and out
PLAIN_HEADS = ["0", "1", "x", "é", "a", "d"]
NOISY_HEADS = ["a", "a", "d", "begin-a", "end-a", "begin-d", "end-d", "A", "x", "#"]
SPACES = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\u3000"])
LEADS = st.sampled_from(["", " ", "\t", "\u3000"])
TRAILS = st.sampled_from(["", " ", "\t", "  # a comment", "#", " # d 0"])
BREAKS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"])
# about one text in four has a bad header or none
HEADERS = st.sampled_from(
    ["zzfilt v1"] * 8 + ["zzfilt v1  # header", "\tzzfilt v1 ", "# first\nzzfilt v1"]
    + ["zzfilt\tv1", "zzfilt  v1", "zzfilt v2", None]
)


def _token_line(draw, heads, min_tokens):
    line = draw(st.sampled_from(heads))
    for _ in range(draw(st.integers(min_tokens, 3))):
        line += draw(SPACES) + draw(st.sampled_from(VERTEX_TOKENS))
    return draw(LEADS) + line + draw(TRAILS)


@st.composite
def filtration_texts(draw):
    """A text in or near the filtration format: a header (or none), then
    event lines and blocks whose tokens are joined by varied whitespace,
    with comments, blank lines and varied line breaks. In a noisy text,
    lines may start with any head, block markers included, so blocks nest,
    go unmatched or stay open, and a line may lack its vertices; in a clean
    one, lines are events and blocks are well formed. Either may repeat a
    token within a simplex."""
    noisy = draw(st.booleans())
    lines = []
    header = draw(HEADERS)
    if header is not None:
        lines.append(header)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "   ", "# only a comment", "\t#"])))
        elif kind == 1:
            direction = draw(st.sampled_from(["a", "d"]))
            lines.append(draw(LEADS) + "begin-" + direction + draw(TRAILS))
            inner = VERTEX_TOKENS if noisy else PLAIN_HEADS
            for _ in range(draw(st.integers(0, 3))):
                lines.append(_token_line(draw, inner, 0))
            lines.append("end-" + direction + draw(TRAILS))
        elif noisy:
            lines.append(_token_line(draw, NOISY_HEADS, 0))
        else:
            lines.append(_token_line(draw, ["a", "d"], 1))
    text = ""
    for line in lines:
        text += line + draw(BREAKS)
    return text if draw(st.booleans()) else text.rstrip("\n")


def _parse_outcome(parse, text):
    try:
        parsed = parse(text)
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return parsed.filtration.events, parsed.names


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(filtration_texts())
def test_parse_filtration_matches_the_reference_parser(text):
    """Both parsers return the same events and names, or both
    raise InvalidInputError with the same text; nothing else escapes."""
    assert _parse_outcome(parse_filtration, text) == _parse_outcome(
        reference_parse_filtration, text
    )


NAMES = st.lists(
    st.sampled_from(["0", "1", "17", "x", "é", "頂点", "a", "d", "begin-a", "end-d", "v_9"]),
    min_size=1,
    unique=True,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(NAMES, st.data())
def test_canonical_filtration_files_round_trip_byte_for_byte(names, data):
    """A file format_filtration writes, with vertex ids numbered in order of
    first appearance, parses back to the same events and names and formats
    back to the same bytes."""
    drawn = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from([ADD, DEL]),
                st.sets(st.integers(0, len(names) - 1), min_size=1),
            ),
            max_size=12,
        )
    )
    ids: Dict[int, int] = {}
    for _, vs in drawn:
        for v in sorted(vs):
            ids.setdefault(v, len(ids))
    f = ZigzagFiltration(FiltrationEvent(d, Simplex(ids[v] for v in vs)) for d, vs in drawn)
    used = tuple(sorted(ids, key=ids.get))
    text = format_filtration(f, [names[v] for v in used])
    parsed = parse_filtration(text)
    assert parsed.filtration == f
    assert parsed.names == tuple(names[v] for v in used)
    assert format_filtration(parsed.filtration, parsed.names) == text


def _block_text(draw, f: ZigzagFiltration) -> str:
    """The canonical file of f with some runs of events of one direction
    written as blocks, their lines in a drawn order."""
    lines = format_filtration(f).splitlines()
    out, k = [lines[0]], 1
    while k < len(lines):
        end = k + 1
        while end < len(lines) and lines[end][0] == lines[k][0]:
            end += 1
        run = lines[k:end]
        k = end
        if len(run) > 1 and draw(st.booleans()):
            out += [f"begin-{run[0][0]}", *(line[2:] for line in draw(st.permutations(run))),
                    f"end-{run[0][0]}"]
        else:
            out += run
    return "\n".join(out)


@st.composite
def admitted_texts(draw):
    """Filtration files of five kinds: the parser fuzz's texts; canonical files
    of valid filtrations, either with the tokens of some lines reversed, so
    that one simplex has two texts, or with runs of events in blocks;
    repetitive or invalid files, any events on a few simplices; and seeded
    swept tori."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(filtration_texts())
    if kind == 1:
        lines = format_filtration(_timed_filtration(draw, _drawn_complex(draw)))
        return "\n".join(
            line if line.startswith(FILT_HEADER) or not draw(st.booleans())
            else " ".join([line[0], *reversed(line.split()[1:])])
            for line in lines.splitlines()
        )
    if kind == 2:
        return _block_text(draw, _timed_filtration(draw, _drawn_complex(draw)))
    if kind == 3:
        events = draw(st.lists(st.tuples(st.sampled_from([ADD, DEL]),
                                         st.sampled_from(CANDIDATES[:15])), max_size=20))
        return format_filtration(ZigzagFiltration(FiltrationEvent(d, s) for d, s in events))
    a, b = draw(st.integers(3, 5)), draw(st.integers(3, 4))
    verts, faces = torus_mesh_points(a, b)
    f = generate(OffMesh(tuple(verts), tuple(faces)), draw(st.sampled_from("xyz")),
                 draw(st.integers(0, 3 * a * b)), draw(st.integers(0, 2**32)))
    return format_filtration(f)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(admitted_texts())
def test_a_parsed_filtration_sweeps_as_its_events(text):
    """A parsed filtration whose events were never read has the length,
    directions and total complex of the same events with no record, reads
    them from its record, and equals that copy both ways, with its repr.
    The sweep on the ids the parser gave equals the sweep of the copy,
    field for field: simplices, index, signed ids, dimensions, facets,
    positions, deletions, violations, repetition and standardization."""
    try:
        library = ZigzagFiltration(parse_filtration(text).filtration.events)
    except InvalidInputError:
        return

    def unread():
        return parse_filtration(text).filtration

    def total(g):  # an invalid file's total complex may not be face-closed
        try:
            return g.total_complex().simplex_set()
        except InvalidInputError:
            return InvalidInputError

    f = unread()
    assert (len(f), f.directions(), total(f)) == (
        len(library), library.directions(), total(library))
    assert f._events is None
    assert unread() == library and library == unread() and repr(unread()) == repr(library)
    got, want = _sweep(unread()), _sweep(library)
    assert got._asdict() == want._asdict()
