"""Text formats and the height-sweep experiment generator.

Filtration files (header ``zzfilt v1``) hold one event per line: ``a`` or
``d`` followed by vertex tokens. Tokens are arbitrary strings interned to
integer ids in first-occurrence order; the symbol table is kept so files
round-trip with their own names. ``#`` starts a comment. ``begin-a``/
``end-a`` (and the ``d`` mirror) group a coarse multi-simplex inclusion,
expanded to simplex-wise events in face-respecting order on load.

Barcode files (header ``zzbar v1 m=<m> kind=<abs|rel>``) hold lines
``dim b d <c|o><c|o>`` in sorted order.

Filtration files always start from the empty complex; non-empty initial
complexes exist only at the library level.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .barcode import ABSOLUTE, CLOSED, OPEN, RELATIVE, Barcode, Interval
from .complexes import Simplex
from .errors import InvalidInputError
from .filtration import ADD, DEL, ZigzagFiltration, _gc_paused, _refuse_non_int
from .filtration import random_outward_walk

FILT_HEADER = "zzfilt v1"
BAR_HEADER = "zzbar v1"


class ParsedFiltration(NamedTuple):
    filtration: ZigzagFiltration
    names: Tuple[str, ...]  # vertex id -> original token


def _strip(line: str) -> str:
    hash_pos = line.find("#")
    if hash_pos >= 0:
        line = line[:hash_pos]
    return line.strip()


def _repeated_vertex(tokens: List[str]) -> InvalidInputError:
    """The error for a simplex whose tokens repeat: name the first repeat as
    the file has it."""
    seen = set()
    dup = next(t for t in tokens if t in seen or seen.add(t))  # add returns None
    return InvalidInputError(f"duplicate vertex {dup} in simplex")


class _Interner(dict):
    """Vertex token -> id, given in first-occurrence order on first lookup."""

    __slots__ = ()

    def __missing__(self, token: str) -> int:
        v = self[token] = len(self)
        return v


def _vertices(text: str, get) -> Tuple[int, ...]:
    """Intern the tokens of a simplex's text (``get``, an ``_Interner``'s
    ``__getitem__``) and check them: its vertex tuple. Two- and three-token
    texts (83% of the distinct texts of a triangulated torus, 99% of the
    perfbench Rips torus) are sorted by compares rather than by ``sorted``."""
    tokens = text.split()
    k = len(tokens)
    if k == 2:
        a, b = map(get, tokens)
        if a < b:
            return a, b
        if b < a:
            return b, a
    elif k == 3:
        a, b, c = map(get, tokens)
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        if a < b < c:
            return a, b, c
    vs = tuple(sorted(map(get, tokens)))  # a repeat lands here, its tokens interned already
    if len(vs) > 1 and len(set(vs)) < len(vs):
        raise _repeated_vertex(tokens)
    return vs


_CHUNK = 1 << 16  # characters of a filtration text that parse_filtration splits into lines at once


def _chunks(text: str) -> Iterator[str]:
    """text in pieces of at least ``_CHUNK`` characters, each cut just after a
    newline (the last one at the end of text), so that the pieces' lines are
    the lines of text: no line break, ``\\r\\n`` included, straddles a cut."""
    start, n = 0, len(text)
    while start < n:
        end = text.find("\n", start + _CHUNK - 1) + 1 or n
        yield text[start:end]
        start = end


def parse_filtration(text: str) -> ParsedFiltration:
    """Read a ``zzfilt v1`` file: its events and symbol table.

    The text is split into lines a chunk at a time (``_chunks``), never as
    one list. Each distinct simplex text (the rest of an event line after
    its direction, or a whole block line) is interned and checked once,
    into its sorted vertex tuple, and each distinct vertex tuple gets a
    dense id when its first event is emitted, so ids run in order of first
    appearance in the events, block lines included (a block's events are
    emitted, sorted, at its end). One dict maps both the texts and the
    vertex tuples to their ids: every later line with the same text, such
    as the ``d`` line of a simplex added earlier, reuses its id, and so
    does a second text of one simplex (``d 1 0`` after ``a 0 1``). Each
    event is recorded as one signed id (id for an addition, ~id for a
    deletion) in a 4-byte int array, and that record with the vertex tuple
    of each id is the returned filtration (``ZigzagFiltration._of_record``):
    no ``Simplex`` or event object is built here, only when something first
    reads one, and every reader here reads the record. The cyclic garbage
    collector is paused while the tuples are built (``_gc_paused``; none of
    them forms a reference cycle). Every error is an ``InvalidInputError``
    that names the line.
    """
    with _gc_paused():
        ids = _Interner()
        get = ids.__getitem__
        index: Dict[object, int] = {}  # simplex text or vertex tuple -> its dense id
        vts: List[Tuple[int, ...]] = []  # dense id -> its checked vertex tuple
        record = array("i")  # per event: the id of its simplex, ~id for a deletion
        block: Optional[str] = None
        block_lines: List[Tuple[Tuple[int, ...], str]] = []  # the block's tuples and texts
        header = False
        lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
        for lineno, line in enumerate(lines):
            if "#" in line:
                line = _strip(line)
            parts = line.split(None, 1)
            if not parts:
                continue
            if not header:
                if line.strip() != FILT_HEADER:
                    break
                header = True
                continue
            head = parts[0]
            try:
                if block is None and len(parts) == 2 and head in (ADD, DEL):  # an event line
                    rest = parts[1]
                    j = index.get(rest)
                    if j is None:
                        vs = _vertices(rest, get)
                        j = index[rest] = index.setdefault(vs, len(vts))
                        if j == len(vts):
                            vts.append(vs)
                    record.append(j if head == ADD else ~j)
                    continue
                if head in ("begin-a", "begin-d"):
                    if block is not None:
                        raise InvalidInputError("nested block")
                    block = ADD if head == "begin-a" else DEL
                    continue
                if head in ("end-a", "end-d"):
                    if block != (ADD if head == "end-a" else DEL):
                        raise InvalidInputError(f"unmatched {head}")
                    block_lines.sort(key=lambda e: (len(e[0]), e[0]))
                    if block == DEL:
                        block_lines.reverse()
                    for vs, rest in block_lines:
                        j = index[rest] = index.setdefault(vs, len(vts))
                        if j == len(vts):
                            vts.append(vs)
                        record.append(j if block == ADD else ~j)
                    block = None
                    block_lines.clear()
                    continue
                if block is None:
                    raise InvalidInputError(f"expected 'a|d v1 v2 ...', got {line.strip()!r}")
                j = index.get(line)
                block_lines.append((_vertices(line, get) if j is None else vts[j], line))
            except InvalidInputError as exc:
                raise InvalidInputError(f"line {lineno + 1}: {exc}") from exc
        if not header:
            raise InvalidInputError(f"filtration file must start with '{FILT_HEADER}'")
        if block is not None:
            raise InvalidInputError("unterminated coarse block")
        return ParsedFiltration(ZigzagFiltration._of_record(record, vts), tuple(ids))


def format_filtration(f: ZigzagFiltration, names: Optional[Sequence[str]] = None) -> str:
    """Canonical form: header plus one event per line, no blocks or comments."""
    if f.initial:
        raise InvalidInputError("filtration files cannot carry a non-empty initial complex")

    ids, vts = f._ids
    name = str if names is None else names.__getitem__
    texts = [" ".join(map(name, vs)) for vs in vts]  # one text per id
    lines = [f"{ADD} {texts[j]}" if j >= 0 else f"{DEL} {texts[~j]}" for j in ids]
    return "\n".join([FILT_HEADER, *lines]) + "\n"


def _read_text(path: str) -> str:
    """The text of a file, which must be UTF-8: any other bytes are invalid input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidInputError(
                f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
            ) from None


def load_filtration(path: str) -> ParsedFiltration:
    return parse_filtration(_read_text(path))


def save_filtration(path: str, f: ZigzagFiltration, names: Optional[Sequence[str]] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_filtration(f, names))


def parse_barcode(text: str) -> Barcode:
    body = [_strip(line) for line in text.splitlines()]
    body = [line for line in body if line]
    if not body or not body[0].startswith(BAR_HEADER):
        raise InvalidInputError(f"barcode file must start with '{BAR_HEADER}'")
    fields = dict(part.split("=", 1) for part in body[0].split()[2:] if "=" in part)
    try:
        m = int(fields["m"])
        kind = fields["kind"]
    except (KeyError, ValueError) as exc:
        raise InvalidInputError(f"bad barcode header: {body[0]!r}") from exc
    if kind not in (ABSOLUTE, RELATIVE):
        raise InvalidInputError(f"unknown barcode kind {kind!r}")
    intervals = []
    for line in body[1:]:
        tokens = line.split()
        if len(tokens) != 4 or len(tokens[3]) != 2:
            raise InvalidInputError(f"bad barcode line: {line!r}")
        try:
            dim, b, d = int(tokens[0]), int(tokens[1]), int(tokens[2])
        except ValueError as exc:
            raise InvalidInputError(f"bad barcode line: {line!r}") from exc
        if dim < 0 or not 0 <= b <= d <= m:
            raise InvalidInputError(f"interval out of range for m={m}: {line!r}")
        bt, dt = tokens[3][0], tokens[3][1]
        if bt not in (CLOSED, OPEN) or dt not in (CLOSED, OPEN):
            raise InvalidInputError(f"bad end types in: {line!r}")
        intervals.append(Interval(dim, b, d, bt, dt))
    return Barcode(intervals, m, kind)


def load_barcode(path: str) -> Barcode:
    return parse_barcode(_read_text(path))


class OffMesh(NamedTuple):
    vertices: Tuple[Tuple[float, float, float], ...]
    faces: Tuple[Tuple[int, int, int], ...]


def parse_off(text: str) -> OffMesh:
    tokens: List[str] = []
    for line in text.splitlines():
        line = _strip(line)
        if line:
            tokens.extend(line.split())
    if not tokens or tokens[0] != "OFF":
        raise InvalidInputError("not an OFF file")
    try:
        nv, nf = int(tokens[1]), int(tokens[2])
        if nv < 0 or nf < 0:
            raise InvalidInputError(f"negative vertex or face count in OFF header: {nv} {nf}")
        pos = 4  # skip the edge count
        coords = []
        for _ in range(nv):
            coords.append((float(tokens[pos]), float(tokens[pos + 1]), float(tokens[pos + 2])))
            pos += 3
        faces = []
        for _ in range(nf):
            k = int(tokens[pos])
            if k != 3:
                raise InvalidInputError(f"only triangle faces are supported, got {k}-gon")
            face = tuple(sorted(int(t) for t in tokens[pos + 1 : pos + 4]))
            pos += 1 + k
            faces.append(face)
    except (IndexError, ValueError) as exc:
        raise InvalidInputError("truncated or malformed OFF file") from exc
    for face in faces:
        if len(set(face)) != 3 or any(not 0 <= v < nv for v in face):
            raise InvalidInputError(f"bad face {face}")
    return OffMesh(tuple(coords), tuple(faces))


def load_off(path: str) -> OffMesh:
    return parse_off(_read_text(path))


def write_off(path: str, vertices: Sequence[Tuple[float, float, float]], faces) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(vertices)} {len(faces)} 0\n")
        for x, y, z in vertices:
            fh.write(f"{x:.6f} {y:.6f} {z:.6f}\n")
        for f in faces:
            fh.write("3 " + " ".join(map(str, f)) + "\n")


_AXES = {"x": 0, "y": 1, "z": 2}


def generate(
    mesh: OffMesh,
    axis: str = "z",
    switches: int = 0,
    seed: int = 0,
    rips_radius: Optional[float] = None,
) -> ZigzagFiltration:
    """Non-repetitive filtration from a height sweep over a mesh.

    Builds the complex of the mesh (vertices, edges, triangles; optionally
    supplemented by an edge/triangle Vietoris-Rips layer at the given
    radius), orders additions by ascending maximum vertex height (ties by
    vertex index, then dimension, then vertices) and deletions the same way
    by minimum height, i.e. the reversal of the descending sweep. The
    resulting up-down filtration is then shuffled by a seeded random walk
    of `switches` adjacent swaps. Output is valid, standardized, and
    non-repetitive; a fixed seed reproduces it byte for byte. A mesh with
    a non-finite coordinate raises `InvalidInputError`.
    """
    if axis not in _AXES:
        raise InvalidInputError(f"axis must be one of x, y, z, got {axis!r}")
    _refuse_non_int(switches, "switches")  # the walk refuses a seed that is no int
    if switches < 0:
        raise InvalidInputError(f"switches must be non-negative, got {switches}")
    if rips_radius is not None and not rips_radius >= 0:  # NaN fails every comparison
        raise InvalidInputError(f"rips radius must be non-negative, got {rips_radius}")
    ax = _AXES[axis]
    coords = mesh.vertices
    for v, xyz in enumerate(coords):  # NaN breaks the sweep's order; inf, the Rips grid
        if not all(map(math.isfinite, xyz)):
            raise InvalidInputError(f"vertex {v} has a non-finite coordinate {xyz}")
    height = {v: (coords[v][ax], v) for v in range(len(coords))}

    simplices = {Simplex([v]) for v in range(len(coords))}
    edge_set = set()
    for a, b, c in mesh.faces:
        simplices.add(Simplex((a, b, c)))
        edge_set.update(((a, b), (a, c), (b, c)))
    if rips_radius is not None:
        rips_edges = _rips_edges(coords, rips_radius)
        edge_set.update(rips_edges)
        adjacency: Dict[int, set] = {}
        for a, b in edge_set:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        for a, b in sorted(rips_edges):
            for c in sorted(adjacency.get(a, ()) & adjacency.get(b, ())):
                if c > b:
                    simplices.add(Simplex((a, b, c)))
    simplices.update(Simplex(e) for e in edge_set)

    def max_key(s: Simplex):
        return max(height[v] for v in s.vertices)

    def min_key(s: Simplex):
        return min(height[v] for v in s.vertices)

    adds = sorted(simplices, key=lambda s: (max_key(s), s.dim, s.vertices))
    descending = sorted(
        simplices, key=lambda s: (tuple(-x for x in min_key(s)), s.dim, s.vertices)
    )
    id_of = {s: j for j, s in enumerate(adds)}
    ids = array("i", range(len(adds)))
    ids.extend([~id_of[s] for s in reversed(descending)])
    updown = ZigzagFiltration._of_record(ids, [s.vertices for s in adds])
    walked, _ = random_outward_walk(updown, switches, seed)
    return walked


def _rips_edges(coords, radius: float) -> set:
    """All vertex pairs within the radius (grid-bucketed to stay near-linear)."""
    r2 = radius * radius
    cell = radius if radius > 0 else 1.0
    buckets: Dict[Tuple[int, int, int], List[int]] = {}
    for i, (x, y, z) in enumerate(coords):
        buckets.setdefault((int(x // cell), int(y // cell), int(z // cell)), []).append(i)
    out = set()
    for (cx, cy, cz), members in buckets.items():
        neighborhood: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    neighborhood.extend(buckets.get((cx + dx, cy + dy, cz + dz), ()))
        for i in members:
            xi, yi, zi = coords[i]
            for j in neighborhood:
                if j <= i:
                    continue
                xj, yj, zj = coords[j]
                dx, dy, dz = xi - xj, yi - yj, zi - zj
                if dx * dx + dy * dy + dz * dz <= r2:
                    out.add((i, j))
    return out
