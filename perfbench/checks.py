"""Correctness checks the benchmark applies to every output it times.

Each check returns a list of failure descriptions; an empty list is a
pass. None of them calls the code under test in a way that could share a
defect with the result it judges, except the oracle anchor, which compares
against the repository's brute-force arbiter.
"""

from __future__ import annotations

import hashlib
from typing import List

from zzpers import ADD, Barcode, ZigzagFiltration


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_failures(text: str, expected: str) -> List[str]:
    got = text_digest(text)
    return [] if got == expected else [f"barcode sha256 {got} != expected {expected}"]


def euler_failures(f: ZigzagFiltration, bar: Barcode) -> List[str]:
    """Pointwise Euler characteristic: for every index i, the alternating
    sum over intervals containing i equals chi(K_i). O(m + intervals)."""
    m = len(f)
    if bar.m != m:
        return [f"barcode length {bar.m} != filtration length {m}"]
    chi = sum(-1 if s.dim % 2 else 1 for s in f.initial)
    expected = [chi]
    for e in f.events:
        sign = -1 if e.simplex.dim % 2 else 1
        chi += sign if e.direction == ADD else -sign
        expected.append(chi)
    delta = [0] * (m + 2)
    for iv, c in bar.counts().items():
        signed = -c if iv.dim % 2 else c
        delta[iv.b] += signed
        delta[iv.d + 1] -= signed
    out = []
    running = 0
    for i in range(m + 1):
        running += delta[i]
        if running != expected[i]:
            out.append(f"index {i}: barcode Euler sum {running} != chi(K_i) {expected[i]}")
            if len(out) == 5:
                break
    return out


def manifold_failures(rel: Barcode, recovered: Barcode, absolute: Barcode, p: int) -> List[str]:
    """Agreement of the dual-graph route with pipeline + duality.

    ``rel`` is relative_top_barcode's output, ``recovered`` the absolute
    barcode recovered from it, and ``absolute`` zigzag_barcode(f).
    """
    from zzpers import absolute_to_relative

    out = []
    if rel != absolute_to_relative(absolute).in_dim(p):
        out.append("relative_top_barcode != absolute_to_relative(zigzag_barcode(f)).in_dim(p)")
    expected = absolute.filter(
        lambda iv: iv.dim == p or (iv.dim == p - 1 and iv.type_code != "cc")
    )
    if recovered != expected:
        out.append("recovered absolute barcode != zigzag_barcode(f) in dim p plus non-cc dim p-1")
    return out


def anchor_failures(workload, seed: int) -> List[str]:
    """Run the workload's family at desk scale through the production path
    and compare with the brute-force oracle."""
    from zzpers import (
        oracle_absolute,
        oracle_relative,
        recover_absolute_from_relative,
        relative_top_barcode,
        zigzag_barcode,
    )

    from workloads import make_filtration

    f = make_filtration(workload.anchor, seed)
    name = f"{workload.name} anchor (m={len(f)})"
    truth = oracle_absolute(f)
    out = []
    if zigzag_barcode(f) != truth:
        out.append(f"{name}: pipeline != oracle_absolute")
    if workload.manifold:
        K = f.total_complex()
        rel = relative_top_barcode(f, K, 2)
        if rel != oracle_relative(f).in_dim(2):
            out.append(f"{name}: relative_top_barcode != oracle_relative in dim 2")
        recovered = recover_absolute_from_relative(rel, f, K, 2)
        out += [f"{name}: {msg}" for msg in manifold_failures(rel, recovered, truth, 2)]
    return out
