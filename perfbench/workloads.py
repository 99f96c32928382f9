"""Workload definitions: seeded height-sweep filtrations of torus meshes.

Each workload is one mesh family swept by ``zzpers.io.generate``. The
benchmark seed drives the random outward walk, so one seed gives one input
byte for byte. ``anchor`` is the same family at desk scale (m of a few
hundred), small enough for the brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Family:
    a: int
    b: int
    bumpy: bool
    axis: str
    rips_radius: Optional[float]

    @property
    def switches(self) -> int:
        return 3 * self.a * self.b

    def params(self) -> dict:
        return {
            "mesh": f"{'bumpy ' if self.bumpy else ''}grid torus {self.a}x{self.b}",
            "axis": self.axis,
            "switches": self.switches,
            "rips_radius": self.rips_radius,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    full: Family
    anchor: Family
    manifold: bool  # solve through the dual-graph path (p = 2) instead of the pipeline
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "torus_sweep",
            Family(130, 130, False, "x", None),
            Family(4, 4, False, "x", None),
            False,
            "The A8 torus, the paper's scale target (m = 202,800). Dense boundary "
            "columns dominate the reduction and 92% of pivots need no column "
            "addition; admission, convert and remap take about half of the warm "
            "solve. ROADMAP items 2 and 3 should move it.",
        ),
        Workload(
            "rips_dense",
            Family(40, 20, True, "z", 0.9),
            Family(4, 4, True, "z", 2.0),
            False,
            "Bumpy 40x20 torus plus a Vietoris-Rips layer (m = 129,326). The "
            "column-addition loop dominates: 1.69M additions, 32% of pivots need "
            "none. A reduction change that helps torus_sweep but costs here shows.",
        ),
        Workload(
            "manifold_dual",
            Family(10, 10, False, "x", None),
            Family(3, 3, False, "x", None),
            True,
            "10x10 grid torus (m = 1,200, p = 2) through the dual-graph path, "
            "which spends nearly all its time in zero_dim_zigzag. It bypasses "
            "ROADMAP items 2 and 3 (prediction: no change) and is the workload "
            "item 4 must move.",
        ),
    )
}


def torus_mesh_points(a: int, b: int, R: float = 2.0, r: float = 1.0, bumpy: bool = False):
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


def make_filtration(family: Family, seed: int):
    """The family's sweep filtration for one seed, through ``zzpers.io.generate``."""
    from zzpers import io as zio

    verts, faces = torus_mesh_points(family.a, family.b, bumpy=family.bumpy)
    mesh = zio.OffMesh(tuple(verts), tuple(faces))
    return zio.generate(
        mesh, axis=family.axis, switches=family.switches, seed=seed,
        rips_radius=family.rips_radius,
    )
