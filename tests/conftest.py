import itertools
import math

import pytest

from zzpers import (
    FiltrationEvent,
    Interval,
    Simplex,
    SimplicialComplex,
    ZigzagFiltration,
    boundary,
    random_outward_walk,
)
from zzpers.rng import SplitMix64


def ev(code: str) -> FiltrationEvent:
    """'a 0 1' -> addition of the simplex {0, 1}."""
    parts = code.split()
    return FiltrationEvent(parts[0], Simplex(int(x) for x in parts[1:]))


def zz(*codes: str, initial=()) -> ZigzagFiltration:
    return ZigzagFiltration([ev(c) for c in codes], initial)


def sx(*vertices: int) -> Simplex:
    return Simplex(vertices)


def random_complex(rng: SplitMix64, max_vertices=8, max_simplices=25, max_dim=3):
    """Random face-closed simplex set (sorted), sometimes disconnected."""
    nv = 3 + rng.below(max_vertices - 2)
    present = {Simplex([v]) for v in range(nv)}
    candidates = []
    for k in (2, 3, 4):
        if k - 1 > max_dim:
            break
        candidates.extend(Simplex(c) for c in itertools.combinations(range(nv), k))
    rng.shuffle(candidates)
    for s in candidates:
        if len(present) >= max_simplices:
            break
        if rng.below(100) < 55 and all(f in present for f in boundary(s)):
            present.add(s)
    return sorted(present)


def random_linear_extension(rng: SplitMix64, simplices):
    remaining = set(simplices)
    present = set()
    out = []
    while remaining:
        addable = sorted(s for s in remaining if all(f in present for f in boundary(s)))
        s = addable[rng.below(len(addable))]
        remaining.remove(s)
        present.add(s)
        out.append(s)
    return out


def random_updown(rng: SplitMix64, simplices) -> ZigzagFiltration:
    adds = random_linear_extension(rng, simplices)
    dels = list(reversed(random_linear_extension(rng, simplices)))
    events = [FiltrationEvent.add(s) for s in adds]
    events += [FiltrationEvent.delete(s) for s in dels]
    return ZigzagFiltration(events)


def random_nonrepetitive(rng: SplitMix64, simplices=None, walk=None) -> ZigzagFiltration:
    if simplices is None:
        simplices = random_complex(rng)
    updown = random_updown(rng, simplices)
    steps = walk if walk is not None else rng.below(2 * len(simplices) + 1)
    walked, _ = random_outward_walk(updown, steps, rng.next_u64())
    return walked


def octahedron() -> SimplicialComplex:
    tris = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4),
            (0, 1, 5), (1, 2, 5), (2, 3, 5), (0, 3, 5)]
    return SimplicialComplex.closure([Simplex(t) for t in tris])


def grid_torus(a: int = 3, b: int = 3) -> SimplicialComplex:
    def vid(i, j):
        return (i % a) * b + (j % b)

    tris = []
    for i in range(a):
        for j in range(b):
            tris.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))
            tris.append((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return SimplicialComplex.closure([Simplex(t) for t in tris])


def octahedra_wedge() -> SimplicialComplex:
    """Two octahedra sharing one vertex (0 of the second is 5 of the first):
    a closed 2-pseudomanifold, connected, with two strong components."""
    tris = [s.vertices for s in octahedron().of_dim(2)]
    return SimplicialComplex.closure(
        [Simplex(t) for t in tris] + [Simplex(v + 5 for v in t) for t in tris]
    )


def moved_edge_torus() -> ZigzagFiltration:
    """A filtration of the 3x3 grid torus with its first edge addition moved
    ahead of its vertices: six violations, the same simplices."""
    events = list(random_nonrepetitive(SplitMix64(6), sorted(grid_torus().simplex_set())).events)
    first_edge = next(i for i, e in enumerate(events) if e.simplex.dim == 1)
    events.insert(0, events.pop(first_edge))
    return ZigzagFiltration(events)


def tetra_boundary(offset: int = 0) -> SimplicialComplex:
    tris = [t for t in itertools.combinations(range(offset, offset + 4), 3)]
    return SimplicialComplex.closure([Simplex(t) for t in tris])


def torus_mesh_points(a: int, b: int, R=2.0, r=1.0, bumpy=False):
    """Vertex coordinates and triangles of an (a x b) grid torus embedding."""
    verts = []
    for i in range(a):
        for j in range(b):
            u = 2 * math.pi * i / a
            v = 2 * math.pi * j / b
            rr = r
            if bumpy:
                rr = r * (1.0 + 0.35 * math.sin(9 * u) * math.cos(7 * v)
                          + 0.25 * math.cos(5 * u + 3 * v))
            verts.append((
                (R + rr * math.cos(v)) * math.cos(u),
                (R + rr * math.cos(v)) * math.sin(u),
                rr * math.sin(v),
            ))

    def vid(i, j):
        return (i % a) * b + (j % b)

    faces = []
    for i in range(a):
        for j in range(b):
            faces.append(tuple(sorted((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)))))
            faces.append(tuple(sorted((vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)))))
    return verts, faces


@pytest.fixture(scope="session")
def small_corpus():
    """A few dozen random non-repetitive filtrations for unit-level checks."""
    rng = SplitMix64(2024)
    return [random_nonrepetitive(rng) for _ in range(25)]


@pytest.fixture(scope="session")
def a3_corpus():
    """The acceptance corpus: 200 seeded random non-repetitive filtrations."""
    rng = SplitMix64(0xA3)
    return [random_nonrepetitive(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def a3_results():
    """Shared store for acceptance results computed once (filled by A3)."""
    return {}


@pytest.fixture()
def built_events(monkeypatch):
    """Every FiltrationEvent built while the test runs, by its constructor,
    which a lazily built ``events`` uses too."""
    built = []
    init = FiltrationEvent.__init__

    def counted_init(self, direction, simplex):
        init(self, direction, simplex)
        built.append(self)

    monkeypatch.setattr(FiltrationEvent, "__init__", counted_init)
    return built


@pytest.fixture()
def built_simplices(monkeypatch):
    """Every Simplex built while the test runs: by the checked constructor, or
    by the trusted one (``Simplex._from_sorted``) that boundaries, cones and a
    filtration's lazily built simplices use."""
    built = []
    init, from_sorted = Simplex.__init__, Simplex._from_sorted.__func__

    def counted_init(self, vertices):
        init(self, vertices)
        built.append(self)

    def counted_from_sorted(cls, vs):
        built.append(from_sorted(cls, vs))
        return built[-1]

    monkeypatch.setattr(Simplex, "__init__", counted_init)
    monkeypatch.setattr(Simplex, "_from_sorted", classmethod(counted_from_sorted))
    return built


@pytest.fixture()
def built_intervals(monkeypatch):
    """Every Interval built while the test runs by the checked constructor;
    a barcode's accessors hand out intervals built without the checks."""
    built = []
    new = Interval.__new__

    def counted_new(cls, *fields):
        built.append(new(cls, *fields))
        return built[-1]

    monkeypatch.setattr(Interval, "__new__", staticmethod(counted_new))
    return built
