"""Metamorphic checks of `compute_zigzag` on swept tori (m = 1.5k-10k), far
above the sizes the brute-force oracle reaches: a relabeling, the reversal
and a diamond switch each change the barcode in a way known in advance."""

from collections import Counter

import pytest

from zzpers import (
    FiltrationEvent, Simplex, ZigzagFiltration, check_diamond, compute_zigzag, outward_switch,
)
from zzpers.filtration import ADD, DEL
from zzpers.io import OffMesh, generate
from zzpers.rng import SplitMix64
from conftest import torus_mesh_points

# (a, b, bumpy, axis, rips radius) of io.generate's height sweep, 3ab switches
TORI = {
    "plain10x13": (10, 13, False, "x", None),
    "plain28x30": (28, 30, False, "y", None),
    "rips12x10": (12, 10, True, "z", 0.9),
    "rips20x16": (20, 16, True, "z", 0.9),
}


@pytest.fixture(scope="module")
def swept():
    out = {}
    for seed, (name, (a, b, bumpy, axis, radius)) in enumerate(sorted(TORI.items())):
        verts, faces = torus_mesh_points(a, b, bumpy=bumpy)
        f = generate(OffMesh(tuple(verts), tuple(faces)), axis=axis, switches=3 * a * b,
                     seed=seed, rips_radius=radius)
        out[name] = f, compute_zigzag(f).barcode
    return out


@pytest.mark.parametrize("name", sorted(TORI))
def test_relabeling_the_vertices_leaves_the_barcode_equal(swept, name):
    f, bar = swept[name]
    n = f.total_complex().n
    label = list(range(n))
    SplitMix64(n).shuffle(label)
    relabeled = ZigzagFiltration(
        FiltrationEvent(e.direction, Simplex(label[v] for v in e.simplex.vertices))
        for e in f.events
    )
    assert compute_zigzag(relabeled).barcode == bar


@pytest.mark.parametrize("name", sorted(TORI))
def test_reversing_the_filtration_reflects_the_intervals(swept, name):
    f, bar = swept[name]
    m = len(f)
    flip = {ADD: DEL, DEL: ADD}
    reversed_f = ZigzagFiltration(
        FiltrationEvent(flip[e.direction], e.simplex) for e in reversed(f.events)
    )
    want = Counter({(dim, m - d, m - b, y, x): c for (dim, b, d, x, y), c in bar.items()})
    assert Counter(dict(compute_zigzag(reversed_f).barcode.items())) == want


@pytest.mark.parametrize("name", ["plain10x13", "rips12x10"])
def test_every_outward_switch_matches_the_diamond(swept, name):
    f, bar = swept[name]
    legal = [
        j for j in range(1, len(f))
        if f.events[j - 1].direction == DEL and f.events[j].direction == ADD
    ]
    assert len(legal) >= 15
    for j in legal:
        assert check_diamond(bar, compute_zigzag(outward_switch(f, j)).barcode, j), j
