import copy
import gc
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzpers import (
    ABSOLUTE,
    RELATIVE,
    Barcode,
    Interval,
    InvalidInputError,
    ZigzagFiltration,
    build_extended,
    compute_zigzag,
    ext_to_updown,
    extended_barcode,
    is_non_repetitive,
    manifold_absolute_barcode,
    recover_absolute_from_relative,
    reduce,
    relative_top_barcode,
    standardize,
    to_updown,
    updown_to_f,
    validate,
)
from zzpers.filtration import ADD, _sweep
from zzpers import io as zio
from zzpers.io import (
    BAR_HEADER,
    OffMesh,
    format_filtration,
    generate,
    parse_barcode,
    parse_filtration,
    parse_off,
    write_off,
)
from zzpers.cli import main
from zzpers.manifold import _relative_and_recovered
from conftest import sx, torus_mesh_points, zz


def test_filtration_round_trip():
    text = "zzfilt v1\na 0\na 1\na 0 1\nd 0 1\nd 1\nd 0\n"
    parsed = parse_filtration(text)
    assert format_filtration(parsed.filtration, parsed.names) == text


def test_filtration_names_interned_in_order():
    parsed = parse_filtration("zzfilt v1\na left\na right\na left right\n")
    assert parsed.names == ("left", "right")
    assert parsed.filtration.events[2].simplex == sx(0, 1)
    # writing uses the symbol table
    assert "a left right" in format_filtration(parsed.filtration, parsed.names)


def test_filtration_comments_and_blank_lines():
    parsed = parse_filtration("zzfilt v1\n# hello\n\na 0  # trailing\n")
    assert len(parsed.filtration) == 1


def test_filtration_coarse_block_expansion():
    text = "zzfilt v1\na 0\na 1\nbegin-a\n0 1\n2\n0 2\n1 2\nend-a\nd 0 1\n"
    parsed = parse_filtration(text)
    f = parsed.filtration
    assert validate(f) == []
    # block sorted face-respecting: vertex 2 before the edges
    assert [e.simplex for e in f.events[2:6]] == [sx(2), sx(0, 1), sx(0, 2), sx(1, 2)]


def test_filtration_coarse_delete_block():
    text = "zzfilt v1\na 0\na 1\na 0 1\nbegin-d\n0\n0 1\nend-d\n"
    parsed = parse_filtration(text)
    assert validate(parsed.filtration) == []
    assert [e.simplex for e in parsed.filtration.events[3:]] == [sx(0, 1), sx(0)]


def test_filtration_parse_errors():
    with pytest.raises(InvalidInputError):
        parse_filtration("nope\n")
    with pytest.raises(InvalidInputError):
        parse_filtration("zzfilt v1\nx 0\n")
    with pytest.raises(InvalidInputError):
        parse_filtration("zzfilt v1\nbegin-a\n0\n")
    with pytest.raises(InvalidInputError):
        parse_filtration("zzfilt v1\na\n")
    with pytest.raises(InvalidInputError, match="^line 3: duplicate vertex 1 in simplex$"):
        parse_filtration("zzfilt v1\na 0\na 1 1\n")
    with pytest.raises(InvalidInputError, match="^line 4: duplicate vertex 1 in simplex$"):
        parse_filtration("zzfilt v1\na 0\nbegin-a\n1 1\nend-a\n")
    # the message names the token in the file, not its interned id (7 -> 0)
    with pytest.raises(InvalidInputError, match="^line 3: duplicate vertex 7 in simplex$"):
        parse_filtration("zzfilt v1\nbegin-a\n7 7\nend-a\n")
    with pytest.raises(InvalidInputError, match="^line 2: duplicate vertex x in simplex$"):
        parse_filtration("zzfilt v1\nd x y x\n")
    with pytest.raises(InvalidInputError, match="^line 3: nested block$"):
        parse_filtration("zzfilt v1\nbegin-a\nbegin-d\n")


def test_filtration_lines_with_one_text_share_their_simplex():
    events = parse_filtration("zzfilt v1\na x\na y\na x y\nd x y\nd y\nd x\n").filtration.events
    assert events[2].simplex is events[3].simplex
    assert events[0].simplex is events[5].simplex
    # a block line with the text of an event line reuses it too
    block = parse_filtration("zzfilt v1\na 0\nbegin-d\n0\nend-d\n").filtration.events
    assert block[0].simplex is block[1].simplex


def _swept_torus_text(a=4, b=3, switches=30, seed=11):
    verts, faces = torus_mesh_points(a, b)
    return format_filtration(generate(OffMesh(tuple(verts), tuple(faces)), "x", switches, seed))


def _two_texts(text):
    """A canonical file whose last triangle deletion lists its vertices the
    other way round, so that the file names one simplex with two texts."""
    lines = text.splitlines()
    k = max(i for i, line in enumerate(lines) if line.startswith("d ") and line.count(" ") == 3)
    lines[k] = " ".join(["d", *reversed(lines[k].split()[1:])])
    return "\n".join(lines) + "\n"


def test_parse_gives_dense_ids_in_order_of_first_appearance():
    # a block's events are emitted sorted at its end, and its new texts get their ids then
    text = "zzfilt v1\nbegin-a\nx y\ny\nx\nend-a\nd x y\nbegin-d\nx\ny\nend-d\n"
    f = parse_filtration(text).filtration
    ids, vts = f._ids
    assert ids.typecode == "i" and ids.itemsize == 4
    assert list(ids) == [0, 1, 2, ~2, ~1, ~0]
    assert vts == [(0,), (1,), (0, 1)]
    assert f._simplex_list is None and f._simplices == [sx(0), sx(1), sx(0, 1)]
    for j, e in zip(ids, f.events):
        assert e.simplex is f._simplices[max(j, ~j)] and (e.direction == ADD) == (j >= 0)
    # the constructor interns the same events into the same record
    library = ZigzagFiltration(f.events)
    assert f == library and list(library._ids[0]) == list(ids) and library._ids[1] == vts


def test_admitting_a_parsed_filtration_twice_leaves_its_ids_as_they_were():
    # the file ends non-empty, so each admission pads its sweep (which the record must not see)
    text = "".join(_swept_torus_text().splitlines(keepends=True)[:-5])
    f = parse_filtration(text).filtration
    ids, simplices = f._ids
    before = (ids.tobytes(), list(simplices))
    first, second = compute_zigzag(f), compute_zigzag(f)
    assert first.record.suffix_length == 5
    assert (first.barcode, first.standardized, first.stats) == (
        second.barcode, second.standardized, second.stats)
    assert first.barcode == compute_zigzag(ZigzagFiltration(f.events)).barcode
    assert f._ids[0] is ids and f._ids[1] is simplices
    assert (ids.tobytes(), simplices) == before


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f)),
], ids=["copy", "deepcopy", "pickle"])
def test_a_copied_parsed_filtration_equals_and_admits_as_the_original(clone):
    f = parse_filtration(_swept_torus_text()).filtration
    unread = clone(f)  # before anything has read f's events: the copy has none either
    assert f._events is None and unread._events is None
    assert unread._ids[0] == f._ids[0] and unread._ids[1] == f._ids[1]
    assert _sweep(unread) == _sweep(f)
    assert compute_zigzag(unread).barcode == compute_zigzag(f).barcode
    assert unread == f and unread._events is None and f._events is None  # equality builds none
    assert unread.events == f.events
    g = clone(f)  # f's events are built now, and the copy has them
    assert g._events == f._events and g._events is not None
    assert g == f and g._ids[0] == f._ids[0] and g._ids[1] == f._ids[1]
    assert _sweep(g) == _sweep(f)
    assert compute_zigzag(g).barcode == compute_zigzag(f).barcode


def test_a_canonical_parsed_file_is_admitted_without_the_event_walk(built_events, tmp_path):
    text = _swept_torus_text()
    two_texts_text = _two_texts(text)
    # library-built input, from the empty complex and from a non-empty K_0
    events = parse_filtration(text).filtration.events
    library = ZigzagFiltration(events)
    from_k0 = ZigzagFiltration(events[40:], library.complex_at(40))
    assert from_k0.initial and len(from_k0) == len(events) - 40
    built_events.clear()  # those were built by the test, as a user builds them

    f = parse_filtration(text).filtration
    two_texts = parse_filtration(two_texts_text).filtration
    K = f.total_complex()
    want = compute_zigzag(f).barcode
    for g in (f, two_texts, library):
        assert compute_zigzag(g).barcode == want
        assert validate(g) == [] and standardize(g)[0].is_standardized()
        U, id_map = to_updown(g)
        assert U.is_updown() and build_extended(U).n == len(U) // 2
        reduce(build_extended(U).events)
        ext = extended_barcode(U)  # and the staged route's remap, on U's record
        staged = [updown_to_f(ext_to_updown(iv, ext.n), id_map, U) for iv in ext.intervals]
        assert Barcode(staged, len(U), ABSOLUTE) == want
        rel = relative_top_barcode(g, K, 2)
        assert manifold_absolute_barcode(g, K, 2) == recover_absolute_from_relative(rel, g, K, 2)
        assert _relative_and_recovered(g, K, 2)[0] == rel
    assert validate(from_k0) == []
    padded_k0 = standardize(from_k0)[0]
    assert compute_zigzag(from_k0).standardized == compute_zigzag(padded_k0).barcode
    extended_barcode(to_updown(padded_k0)[0])
    # a file that does not end empty is padded, and its barcode restricted on its directions
    padded = parse_filtration("".join(text.splitlines(keepends=True)[:-5])).filtration
    assert compute_zigzag(padded).record.suffix_length == 5
    # the generator's record is written out as the same text
    verts, faces = torus_mesh_points(4, 3)
    generated = generate(OffMesh(tuple(verts), tuple(faces)), "x", 30, 11)
    assert generated.is_standardized() and format_filtration(generated) == text
    path = tmp_path / "two_texts.zz"
    path.write_text(two_texts_text)
    for to in ("updown", "extended"):
        assert main(["convert", str(path), "--to", to, "--out", str(tmp_path / "out.zz")]) == 0
    assert built_events == []
    assert f._events is None and two_texts._events is None and padded._events is None
    assert generated._events is None
    assert two_texts == f and compute_zigzag(two_texts).barcode == want


def test_a_file_that_names_a_simplex_with_two_texts_has_the_canonical_record():
    text = _swept_torus_text()
    canonical, two = parse_filtration(text), parse_filtration(_two_texts(text))
    f, g = canonical.filtration, two.filtration
    assert g._ids[0] == f._ids[0] and g._ids[1] == f._ids[1] and two.names == canonical.names
    assert _sweep(g)._asdict() == _sweep(f)._asdict()


def test_a_canonical_file_is_parsed_and_computed_without_a_simplex(built_simplices):
    text = _swept_torus_text()
    built_simplices.clear()  # those were built by the generator
    f = parse_filtration(text).filtration
    g = parse_filtration(_two_texts(text)).filtration
    assert f._simplex_list is None
    for h in (f, g):
        compute_zigzag(h), validate(h), standardize(h)
    assert built_simplices == []
    # the manifold path reads the sweep's vertex tuples: it builds the Simplex of each id
    # at most once, and what it builds is kept
    K = parse_filtration(text).filtration.total_complex()
    built_simplices.clear()
    n = len(f._ids[1])
    for _ in range(2):
        rel = relative_top_barcode(f, K, 2)
        recover_absolute_from_relative(rel, f, K, 2)
    assert len(built_simplices) <= n
    assert len(f.events) == len(f) and len(built_simplices) == n


def test_is_standardized_reads_the_record_without_a_simplex(built_simplices, small_corpus):
    text = _swept_torus_text()
    events = parse_filtration(text).filtration.events
    k0 = [ZigzagFiltration(events[40:], parse_filtration(text).filtration.complex_at(40))]
    built_simplices.clear()  # those were built by the test, as a user builds them
    pool = [parse_filtration(t).filtration for t in (
        text,
        "".join(text.splitlines(keepends=True)[:-1]),  # the last vertex is left
        "zzfilt v1\n",
        "zzfilt v1\nd 0\n",  # invalid: a delete of an absent simplex leaves nothing
        "zzfilt v1\na 0\na 0\nd 0\n",  # invalid: a duplicate add, then one delete
        "zzfilt v1\na 0\nd 0\na 0\n",  # repetitive, ends with its vertex
        "zzfilt v1\na 0\na 1\nd 1\na 0 1\nd 0 1\nd 0\n",  # invalid, ends empty
    )]
    got = [g.is_standardized() for g in pool + k0 + small_corpus]
    assert built_simplices == []
    assert got[:len(pool) + 1] == [True, False, True, True, True, False, True, False]
    assert got == [not g.initial and not g.final_complex() for g in pool + k0 + small_corpus]


def test_filtrations_compare_by_their_records_without_building_events(built_events, small_corpus):
    text = _swept_torus_text()
    events = parse_filtration(text).filtration.events
    library = ZigzagFiltration(events)
    k0 = library.complex_at(40)
    built_events.clear()  # those were built by the test, as a user builds them
    f = parse_filtration(text).filtration
    two = parse_filtration(_two_texts(text)).filtration
    assert f == library and library == f and two == f and f == two
    assert f != parse_filtration("".join(text.splitlines(keepends=True)[:-1])).filtration
    # the same events from a differing K_0
    g = ZigzagFiltration(events[40:], k0)
    assert g == ZigzagFiltration(events[40:], k0) and g != library
    assert g != ZigzagFiltration(events[40:], k0 | {sx(99)})
    assert ZigzagFiltration(events[40:], k0 | {sx(98)}) != ZigzagFiltration(events[40:], k0 | {sx(99)})
    assert built_events == [] and f._events is None and two._events is None
    # records that number the same events differently, or the same ids on other tuples
    swapped = ZigzagFiltration._of_record(array("i", [1, 0, ~1]), [(0,), (1,)])
    assert swapped == zz("a 1", "a 0", "d 1") and swapped != zz("a 0", "a 1", "d 1")
    assert swapped != ZigzagFiltration._of_record(array("i", [1, 0, 1]), [(0,), (1,)])
    # the answers of comparing the events and K_0
    pool = small_corpus[:8] + [to_updown(g)[0] for g in small_corpus[:8]] + [swapped]
    pool += [ZigzagFiltration(g.events[3:], g.complex_at(3)) for g in small_corpus[:4]]
    for g in pool:
        for h in pool:
            assert (g == h) == (g.events == h.events and g.initial == h.initial)


_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                "\u2028", "\u2029"]


def _chunk_texts():
    """Filtration texts whose lines end in each of ``str.splitlines``' line
    breaks in turn, with comments, blank lines, blocks, a second text of a
    simplex, and each kind of bad line put in at a few places."""
    body = ["zzfilt v1  # header", "a x", "", "a y # c", "begin-a", "x y", "z", "  ", "x z",
            "end-a", "# only a comment", "a y z", "a x y z", "d z y x", "begin-d", "y z", "x z",
            "end-d", "d z", "d 3"]
    bad = ["q x", "a 3 3", "begin-a", "end-d", "d", "begin-d\nz\nbegin-a"]
    bodies = [body, body[1:], body[:-1] + ["begin-a", "4"]]
    bodies += [body[:k] + [line] + body[k:] for k in (2, 7, 15) for line in bad]
    return ["".join(line + _LINE_BREAKS[(i + r) % len(_LINE_BREAKS)] for i, line in enumerate(b))
            for r in range(3) for b in bodies]


def _record_or_error(text):
    try:
        parsed = parse_filtration(text)
    except InvalidInputError as exc:
        return str(exc)
    return list(parsed.filtration._ids[0]), parsed.filtration._ids[1], parsed.names


def test_parse_filtration_reads_the_same_at_every_chunk_size(monkeypatch):
    texts = _chunk_texts()
    want = [_record_or_error(t) for t in texts]
    assert len({w for w in want if isinstance(w, str)}) >= 12  # refused at many lines
    assert isinstance(want[0], tuple) and sum(isinstance(w, tuple) for w in want) >= 9
    for size in range(1, 8):
        monkeypatch.setattr(zio, "_CHUNK", size)
        for text, expected in zip(texts, want):
            pieces = list(zio._chunks(text))
            assert "".join(pieces) == text and all(p.endswith("\n") for p in pieces[:-1])
            assert [line for p in pieces for line in p.splitlines()] == text.splitlines()
            assert _record_or_error(text) == expected


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_filtration_restores_the_gc_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_filtration("zzfilt v1\na 0\nd 0\n")
        assert gc.isenabled() is enabled
        with pytest.raises(InvalidInputError):
            parse_filtration("zzfilt v1\na 0 0\n")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_barcode_round_trip():
    bar = Barcode(
        [Interval(0, 1, 1, "c", "c"), Interval(1, 0, 2, "c", "o")], 4, ABSOLUTE
    )
    again = parse_barcode(bar.to_text())
    assert again == bar


def test_barcode_parse_errors():
    with pytest.raises(InvalidInputError):
        parse_barcode("zzbar v1 m=x kind=abs\n")
    with pytest.raises(InvalidInputError):
        parse_barcode("zzbar v1 m=2 kind=abs\n0 1\n")
    with pytest.raises(InvalidInputError):
        parse_barcode("zzbar v1 m=2 kind=nope\n")
    for line in ("0 2 1 cc", "0 1 5 cc", "-1 1 2 cc"):
        with pytest.raises(InvalidInputError):
            parse_barcode(f"zzbar v1 m=3 kind=abs\n{line}\n")


def test_off_parse_and_write(tmp_path):
    path = tmp_path / "one.off"
    write_off(str(path), [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)],
              [(0, 1, 2), (0, 1, 3)])
    mesh = parse_off(path.read_text())
    assert len(mesh.vertices) == 4 and len(mesh.faces) == 2
    with pytest.raises(InvalidInputError):
        parse_off("OFF\n1 1 0\n0 0 0\n4 0 0 0 0\n")
    with pytest.raises(InvalidInputError):
        parse_off("OFF\n2 0 0\n0 0 0\n")
    with pytest.raises(InvalidInputError):
        parse_off("OFF\n-3 0 0\n")


def test_generate_zero_switches_is_updown():
    verts, faces = torus_mesh_points(4, 3)
    mesh = OffMesh(tuple(verts), tuple(faces))
    f = generate(mesh, axis="z", switches=0, seed=0)
    assert f.is_updown() and f.is_standardized()
    U, _ = to_updown(f)
    assert U == f
    assert validate(f) == []


def test_generate_properties_and_determinism():
    verts, faces = torus_mesh_points(4, 3)
    mesh = OffMesh(tuple(verts), tuple(faces))
    a = generate(mesh, axis="x", switches=30, seed=11)
    b = generate(mesh, axis="x", switches=30, seed=11)
    assert validate(a) == []
    assert is_non_repetitive(a)
    assert a.is_standardized()
    assert format_filtration(a) == format_filtration(b)
    c = generate(mesh, axis="x", switches=30, seed=12)
    assert format_filtration(c) != format_filtration(a)


def test_generate_rips_supplement_adds_simplices():
    # three nearby points, no faces: the supplement provides edges and a triangle
    mesh = OffMesh(((0, 0, 0), (0.5, 0, 0), (0, 0.5, 0)), ())
    bare = generate(mesh, switches=0, seed=0)
    rips = generate(mesh, switches=0, seed=0, rips_radius=1.0)
    assert bare.total_complex().n == 3
    K = rips.total_complex()
    assert K.of_dim(1) and K.of_dim(2)
    assert validate(rips) == []


def test_generate_rejects_negative_switches_and_radius():
    verts, faces = torus_mesh_points(4, 3)
    mesh = OffMesh(tuple(verts), tuple(faces))
    for kwargs, text in (
        ({"switches": -1}, "switches must be non-negative, got -1"),
        ({"rips_radius": -0.5}, "rips radius must be non-negative, got -0.5"),
        ({"rips_radius": float("nan")}, "rips radius must be non-negative, got nan"),
    ):
        with pytest.raises(InvalidInputError) as err:
            generate(mesh, **kwargs)
        assert str(err.value) == text
    assert validate(generate(mesh, rips_radius=0.0)) == []


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("radius", [None, 1.0])
def test_generate_refuses_a_non_finite_coordinate(bad, radius):
    mesh = OffMesh(((0, 0, 0), (1, 0, 0), (0, 1, bad), (1, 1, 1)), ((0, 1, 2), (1, 2, 3)))
    with pytest.raises(InvalidInputError, match="vertex 2 has a non-finite coordinate"):
        generate(mesh, rips_radius=radius)


# tokens that the two parsers give meaning to, mixed with ones they must refuse
_TOKENS = st.sampled_from([
    BAR_HEADER, "zzbar", "v1", "m=3", "m=-1", "m=x", "m=", "kind=abs", "kind=rel", "kind=",
    "=", "OFF", "0", "1", "2", "3", "4", "-1", "1e3", "nan", "inf", "0.5", "cc", "co", "oc",
    "oo", "xx", "c", "#", "\n", "\n", "\n",
])
_TEXTS = st.one_of(st.lists(_TOKENS, max_size=24).map(" ".join), st.text(max_size=40))
_BAR_HEADS = st.sampled_from(["", f"{BAR_HEADER} m=3 kind=abs\n", f"{BAR_HEADER} m=4 kind=rel\n"])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TEXTS, _BAR_HEADS)
def test_parse_barcode_succeeds_or_raises_invalid_input(text, head):
    try:
        bar = parse_barcode(head + text)
    except InvalidInputError:
        return
    assert parse_barcode(bar.to_text()) == bar


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TEXTS, st.sampled_from(["", "OFF\n", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"]))
def test_parse_off_succeeds_or_raises_invalid_input(text, head):
    try:
        mesh = parse_off(head + text)
    except InvalidInputError:
        return
    assert all(0 <= v < len(mesh.vertices) for face in mesh.faces for v in face)


@st.composite
def barcodes(draw):
    m = draw(st.integers(0, 12))
    ends = st.integers(0, m)
    rows = draw(st.lists(
        st.tuples(st.integers(0, 3), ends, ends, st.sampled_from("co"), st.sampled_from("co")),
        max_size=12,
    ))
    intervals = [Interval(dim, min(b, d), max(b, d), bt, dt) for dim, b, d, bt, dt in rows]
    return Barcode(intervals, m, draw(st.sampled_from([ABSOLUTE, RELATIVE])))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(barcodes())
def test_barcode_text_round_trips(bar):
    assert parse_barcode(bar.to_text()) == bar
