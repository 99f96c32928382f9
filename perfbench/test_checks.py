"""Self-test of the benchmark's correctness checks, at desk scale.

    python3 -m pytest -q perfbench/test_checks.py
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from zzpers import (  # noqa: E402
    Barcode,
    Interval,
    compute_zigzag,
    recover_absolute_from_relative,
    relative_top_barcode,
    zigzag_barcode,
)

from checks import (  # noqa: E402
    anchor_failures,
    digest_failures,
    euler_failures,
    manifold_failures,
    text_digest,
)
from tracer import Tracer  # noqa: E402
from worker import no_span, staged_route  # noqa: E402
from workloads import WORKLOADS, make_filtration  # noqa: E402


def _shift_one_death(bar: Barcode) -> Barcode:
    counts = bar.counts()
    iv = next(iv for iv in sorted(counts) if iv.d < bar.m)
    counts[iv] -= 1
    counts[Interval(iv.dim, iv.b, iv.d + 1, iv.birth_type, iv.death_type)] += 1
    return Barcode(counts, bar.m, bar.kind)


@pytest.mark.parametrize("name", ["torus_sweep", "rips_dense"])
def test_shifted_death_fails_euler_and_digest(name):
    f = make_filtration(WORKLOADS[name].anchor, 8)
    bar = zigzag_barcode(f)
    digest = text_digest(bar.to_text())
    assert euler_failures(f, bar) == []
    assert digest_failures(bar.to_text(), digest) == []
    shifted = _shift_one_death(bar)
    assert euler_failures(f, shifted)
    assert digest_failures(shifted.to_text(), digest)


def test_swapped_manifold_routes_fail_agreement():
    f = make_filtration(WORKLOADS["manifold_dual"].anchor, 8)
    K = f.total_complex()
    rel = relative_top_barcode(f, K, 2)
    recovered = recover_absolute_from_relative(rel, f, K, 2)
    absolute = zigzag_barcode(f)
    assert manifold_failures(rel, recovered, absolute, 2) == []
    assert len(manifold_failures(recovered, rel, absolute, 2)) == 2


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_anchor_and_staged_route_agree_with_pipeline(name):
    w = WORKLOADS[name]
    assert anchor_failures(w, 3) == []
    f = make_filtration(w.anchor, 3)
    staged, counts = staged_route(f, no_span)
    assert staged == compute_zigzag(f).standardized
    assert counts["reduction.columns"] == len(f) + 1
    assert counts["reduction.pairs"] == len(f) // 2


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            time.sleep(0.01)
    outer, inner = tracer.spans
    assert inner.parent == 0
    assert tracer.self_times()[0] == pytest.approx(outer.duration - inner.duration)
