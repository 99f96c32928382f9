import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzpers import (
    ABSOLUTE,
    RELATIVE,
    Barcode,
    Interval,
    InvalidInputError,
    is_non_repetitive,
    to_updown,
    validate,
)
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
    assert parsed.coarse_of == (0, 1, 2, 2, 2, 2, 3)


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
