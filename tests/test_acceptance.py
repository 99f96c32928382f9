"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them live). Expected values marked by hand were
cross-checked against the brute-force oracle before being frozen here."""

import json
import math
import subprocess
import sys
import time

from zzpers import (
    ABSOLUTE,
    Barcode,
    EventIndexMap,
    Interval,
    ZigzagFiltration,
    absolute_to_relative,
    check_diamond,
    extended_barcode,
    manifold_absolute_barcode,
    multiset_equal,
    oracle_absolute,
    oracle_extended,
    oracle_relative,
    outward_switch,
    reduce,
    relative_top_barcode,
    to_updown,
    updown_to_f,
    zigzag_barcode,
)
from zzpers.cli import main
from zzpers.io import OffMesh, generate, write_off
from zzpers.reduction import build_extended, extended_from_reduction
from zzpers.rng import SplitMix64
from conftest import (
    ev,
    grid_torus,
    octahedron,
    random_nonrepetitive,
    sx,
    torus_mesh_points,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def iv(dim, b, d, tc):
    return Interval(dim, b, d, tc[0], tc[1])


def test_a1_weak_duality_table():
    absolute = Barcode(
        [iv(0, 1, 7, "cc"), iv(0, 4, 4, "oo"), iv(1, 2, 6, "oo"), iv(1, 3, 5, "cc")],
        8,
        ABSOLUTE,
    )
    start = time.perf_counter()
    rel = absolute_to_relative(absolute)
    elapsed = time.perf_counter() - start
    expected = sorted(
        [(0, 0, 0), (0, 8, 8), (1, 0, 4), (1, 4, 8), (2, 0, 6), (2, 2, 8), (1, 0, 2), (1, 6, 8)]
    )
    got = sorted((i.dim, i.b, i.d) for i in rel)
    ok = got == expected and elapsed < 1e-3
    _report("A1", ok, f"{len(rel)} intervals in {elapsed * 1e6:.0f} us")
    assert got == expected
    assert elapsed < 1e-3


def test_a2_updown_to_input_worked_example():
    events = [
        ev("a 0 3"), ev("a 0 1"), ev("a 1 3"), ev("a 1 2"),
        ev("d 0 1"), ev("d 1 3"), ev("d 0 3"), ev("d 1 2"),
    ]
    U = ZigzagFiltration(events)
    id_map = EventIndexMap(
        {sx(0, 3): 0, sx(0, 1): 1, sx(1, 3): 2, sx(1, 2): 6},
        {sx(0, 1): 2, sx(1, 3): 3, sx(0, 3): 5, sx(1, 2): 7},
    )
    start = time.perf_counter()
    swap = updown_to_f(iv(1, 4, 5, "cc"), id_map, U)
    plain = updown_to_f(iv(1, 1, 4, "cc"), id_map, U)
    elapsed = time.perf_counter() - start
    ok = swap == iv(0, 4, 6, "oo") and plain == iv(1, 1, 2, "cc") and elapsed < 1e-3
    _report("A2", ok, f"{swap!r}, {plain!r} in {elapsed * 1e6:.0f} us")
    assert swap == iv(0, 4, 6, "oo")
    assert plain == iv(1, 1, 2, "cc")
    assert elapsed < 1e-3


def test_a3_pipeline_matches_oracle(a3_corpus, a3_results):
    start = time.perf_counter()
    mismatches = 0
    for idx, f in enumerate(a3_corpus):
        bar = zigzag_barcode(f)
        truth = oracle_absolute(f)
        a3_results[idx] = truth
        if not multiset_equal(bar, truth).equal:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    _report("A3", ok, f"{len(a3_corpus)} filtrations, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 60.0


def test_a4_diamond_principle():
    rng = SplitMix64(0xA4)
    start = time.perf_counter()
    pairs_checked = 0
    failures = 0
    while pairs_checked < 100:
        f = random_nonrepetitive(rng)
        legal = []
        for j in range(1, len(f)):
            first, second = f.events[j - 1], f.events[j]
            if (
                first.direction == "d"
                and second.direction == "a"
                and not first.simplex.is_face_of(second.simplex)
                and not second.simplex.is_face_of(first.simplex)
            ):
                legal.append(j)
        if not legal:
            continue
        j = legal[rng.below(len(legal))]
        switched = outward_switch(f, j)
        if not check_diamond(oracle_absolute(f), oracle_absolute(switched), j):
            failures += 1
        pairs_checked += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report("A4", ok, f"{pairs_checked} switch pairs, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_a5_manifold_path():
    rng = SplitMix64(0xA5)
    start = time.perf_counter()
    checked = 0
    torus = grid_torus(3, 3)
    assert len(torus.of_dim(2)) >= 16
    for K in (octahedron(), torus):
        simplices = sorted(K.simplex_set())
        for _ in range(20):
            f = random_nonrepetitive(rng, simplices)
            rel = relative_top_barcode(f, K, 2)
            assert multiset_equal(rel, oracle_relative(f).in_dim(2)).equal
            recovered = manifold_absolute_barcode(f, K, 2)
            expected = oracle_absolute(f).filter(
                lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
            )
            assert multiset_equal(recovered, expected).equal
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 40 and elapsed < 120.0
    _report("A5", ok, f"{checked} filtrations on 2 manifolds, {elapsed:.1f}s")
    assert checked == 40
    assert elapsed < 120.0


def test_a6_weak_duality_surjectivity(a3_corpus, a3_results):
    start = time.perf_counter()
    failures = 0
    for idx, f in enumerate(a3_corpus):
        truth = a3_results.get(idx) or oracle_absolute(f)
        if not multiset_equal(absolute_to_relative(truth), oracle_relative(f)).equal:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _report("A6", ok, f"{len(a3_corpus)} filtrations, {failures} failures, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 60.0


def test_a7_coned_filtration_matches_pair_sequence(a3_corpus):
    start = time.perf_counter()
    for f in a3_corpus:
        U, _ = to_updown(f)
        ext = build_extended(U)
        state = reduce(ext.events)
        assert state.essentials == (0,), "exactly one infinite interval expected"
        bar = extended_barcode(U)  # from _solve's coboundary pairs on U's own sweep
        assert bar == extended_from_reduction(ext, state)
        got = sorted((e.dim, e.b, e.d) for e in bar.intervals)
        want = sorted(oracle_extended(U).elements())
        assert got == want
    elapsed = time.perf_counter() - start
    _report("A7", True, f"{len(a3_corpus)} up-down forms, {elapsed:.1f}s")


def test_a8_performance(tmp_path):
    sizes = [(65, 65), (92, 92), (130, 130)]
    targets = [5 * 10**4, 10**5, 2 * 10**5]
    totals = []
    ms = []
    big_file = None
    for (a, b), target in zip(sizes, targets):
        verts, faces = torus_mesh_points(a, b)
        off = tmp_path / f"torus{a}x{b}.off"
        write_off(str(off), verts, faces)
        filt = tmp_path / f"torus{a}x{b}.zz"
        assert main([
            "generate", "--mesh", str(off), "--axis", "x",
            "--switches", str(3 * a * b), "--seed", "8", "--out", str(filt),
        ]) == 0
        m = 12 * a * b
        assert m >= target
        ms.append(m)
        out = tmp_path / f"torus{a}x{b}.zzb"
        start = time.perf_counter()
        assert main(["compute", str(filt), "--out", str(out)]) == 0
        totals.append(time.perf_counter() - start)
        big_file = str(filt)

    big_total = totals[-1]
    exponent = math.log(totals[-1] / totals[0]) / math.log(ms[-1] / ms[0])

    # measure the bench report the way a user sees it: a fresh process
    proc = subprocess.run(
        [sys.executable, "-m", "zzpers.cli", "bench", big_file],
        capture_output=True,
        text=True,
        check=True,
    )
    seconds = json.loads(proc.stdout.splitlines()[0])["seconds"]
    ratio = (seconds["convert"] + seconds["remap"]) / seconds["total"]

    ok = big_total <= 30.0 and ratio <= 0.20 and exponent < 2.0
    _report(
        "A8",
        ok,
        f"m={ms[-1]}: compute {big_total:.1f}s, convert+remap {100 * ratio:.1f}% "
        f"of total, scaling exponent {exponent:.2f} over m={ms}",
    )
    assert big_total <= 30.0, f"compute took {big_total:.1f}s"
    assert ratio <= 0.20, f"conversion overhead {100 * ratio:.1f}%"
    assert exponent < 2.0, f"scaling exponent {exponent:.2f}"


def test_a8_peak_memory_growth(tmp_path):
    """Peak RSS of `zzpers compute` on the 65x65 and 92x92 tori, each in a
    fresh process that reports its own peak. Near-linear memory gives a
    log-log growth exponent near 1; dense bitmask columns, whose total size
    is quadratic in m, read about 2.

    The child reads VmHWM (KiB), the peak of its own image: Linux carries
    the peak of the process that started it into ru_maxrss across exec, so
    under a test runner that has held a large input, ru_maxrss reads the
    runner's peak at every size."""
    report = (
        "import sys\n"
        "from zzpers.cli import main\n"
        "code = main(['compute', sys.argv[1], '--out', sys.argv[2]])\n"
        "with open('/proc/self/status') as fh:\n"
        "    peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "print(code, peak)\n"
    )
    ms = []
    peaks = []
    for a in (65, 92):
        verts, faces = torus_mesh_points(a, a)
        off = tmp_path / f"torus{a}.off"
        write_off(str(off), verts, faces)
        filt = tmp_path / f"torus{a}.zz"
        assert main([
            "generate", "--mesh", str(off), "--axis", "x",
            "--switches", str(3 * a * a), "--seed", "8", "--out", str(filt),
        ]) == 0
        proc = subprocess.run(
            [sys.executable, "-c", report, str(filt), str(tmp_path / f"torus{a}.zzb")],
            capture_output=True,
            text=True,
            check=True,
        )
        code, peak_kib = map(int, proc.stdout.split())
        assert code == 0
        ms.append(12 * a * a)
        peaks.append(peak_kib)
    exponent = math.log(peaks[1] / peaks[0]) / math.log(ms[1] / ms[0])
    _report(
        "A8-memory",
        exponent < 1.3,
        f"peak RSS {peaks[0] / 1024:.0f} -> {peaks[1] / 1024:.0f} MB over m={ms}, "
        f"growth exponent {exponent:.2f}",
    )
    assert exponent < 1.3, f"peak RSS growth exponent {exponent:.2f}"


def _best_time(fn, repeat=3):
    """Fastest of a few runs, which damps scheduler noise on small inputs."""
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def test_a8_manifold_path_scaling():
    """The dual-graph path on grid tori swept like the A8 tori (axis x,
    3ab switches, seed 8), m = 1,200 to 19,200. It must agree with
    pipeline + duality at every size and grow near linearly."""
    ms = []
    times = []
    ratios = {}
    for a in (10, 20, 40):
        verts, faces = torus_mesh_points(a, a)
        f = generate(OffMesh(tuple(verts), tuple(faces)), axis="x", switches=3 * a * a, seed=8)
        K = f.total_complex()
        elapsed, rel = _best_time(lambda: relative_top_barcode(f, K, 2))
        other, want = _best_time(lambda: absolute_to_relative(zigzag_barcode(f)).in_dim(2))
        assert rel == want, f"m={len(f)}: dual-graph path != pipeline + duality"
        ms.append(len(f))
        times.append(elapsed)
        ratios[len(f)] = elapsed / other
    exponent = math.log(times[-1] / times[0]) / math.log(ms[-1] / ms[0])
    _report(
        "A8-manifold",
        exponent < 1.5,
        f"relative_top_barcode {', '.join(f'{t:.3f}s' for t in times)} over m={ms}, "
        f"growth exponent {exponent:.2f}; {ratios[4800]:.2f}x pipeline + duality at m=4800, "
        f"{ratios[19200]:.2f}x at m=19200",
    )
    assert ms == [1200, 4800, 19200]
    assert exponent < 1.5, f"growth exponent {exponent:.2f}"
