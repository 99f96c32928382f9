"""One fresh benchmark process. Started by run.py, never imported.

Usage: python3 -I perfbench/worker.py '<json config>'

Modes:
  gen    generate the workload input file (not timed); for a seed without a
         recorded digest, also compute the reference digest by the staged
         public-call route.
  e2e    untraced: import zzpers, parse, first (cold) solve, then warm
         solves until the deadline. Prints timestamps and durations.
  trace  traced: spans around each public call, staged route and fused
         solve each iteration; prints per-layer medians, writes the spans.

Prints one JSON object on the last line of stdout.
"""

import gc
import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _median(xs):
    # not statistics.median: importing it before the input is parsed would
    # count in setup_s
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def staged_route(f, span):
    """Barcode of a standardized filtration through the unfused public calls.

    validate -> find_repetition -> standardize -> to_updown ->
    build_extended -> reduce_twist -> extended_from_reduction ->
    ext_to_updown / updown_to_f. Returns the barcode in the coordinates of
    the standardized filtration (compute_zigzag's ``standardized``) and the
    reduction's counts.
    """
    from collections import Counter

    from zzpers import (
        ABSOLUTE,
        Barcode,
        build_extended,
        ext_to_updown,
        find_repetition,
        reduce_twist,
        standardize,
        to_updown,
        updown_to_f,
        validate,
    )
    from zzpers.reduction import extended_from_reduction

    with span("filtration.validate"):
        violations = validate(f)
    if violations:
        raise ValueError(f"input has {len(violations)} violations")
    with span("filtration.find_repetition"):
        rep = find_repetition(f)
    if rep is not None:
        raise ValueError(f"input is repetitive: {rep!r}")
    with span("filtration.standardize"):
        std, _ = standardize(f)
    with span("filtration.to_updown"):
        U, id_map = to_updown(std)
    with span("reduction.build_extended"):
        ext = build_extended(U)
    with span("reduction.reduce_twist"):
        state = reduce_twist(ext.events)
    counts = {
        "reduction.columns": len(state.columns),
        "reduction.pairs": len(state.pairs),
        # computed from the bit lengths of the reduced dense columns
        "reduction.reduced_column_bytes": sum((c.bit_length() + 7) // 8 for c in state.columns),
    }
    with span("reduction.extended_from_reduction"):
        ext_bar = extended_from_reduction(ext, state)
    del state, ext
    gc.collect()
    with span("pipeline.staged_remap"):
        n = ext_bar.n
        bar = Barcode(
            Counter(updown_to_f(ext_to_updown(iv, n), id_map, U) for iv in ext_bar.intervals),
            len(std),
            ABSOLUTE,
        )
    return bar, counts


def no_span(name):
    return nullcontext()


def run_gen(cfg):
    sys.path[:0] = [str(SRC), str(HERE)]
    from zzpers import io as zio

    from checks import text_digest
    from workloads import WORKLOADS, make_filtration

    f = make_filtration(WORKLOADS[cfg["workload"]].full, cfg["seed"])
    if not f.is_standardized():
        raise ValueError("generated filtration is not standardized")
    zio.save_filtration(cfg["input"], f)
    out = {"m": len(f)}
    if cfg["need_reference"]:
        bar, _ = staged_route(f, no_span)
        out["reference_digest"] = text_digest(bar.to_text())
    return out


def _solver(manifold, f, K):
    from zzpers import compute_zigzag, recover_absolute_from_relative, relative_top_barcode

    if manifold:
        def solve():
            rel = relative_top_barcode(f, K, 2)
            rec = recover_absolute_from_relative(rel, f, K, 2)
            return (rel, rec), rec.to_text()
    else:
        def solve():
            bar = compute_zigzag(f).barcode
            return bar, bar.to_text()
    return solve


def _checker(cfg, f):
    """Returns check(output, text) -> list of failures; runs outside timing."""
    from zzpers import zigzag_barcode

    from checks import digest_failures, euler_failures, manifold_failures

    if cfg["manifold"]:
        absolute = zigzag_barcode(f)

        def check(out, text):
            rel, rec = out
            return manifold_failures(rel, rec, absolute, 2)
    else:
        def check(bar, text):
            return euler_failures(f, bar) + digest_failures(text, cfg["expected_digest"])
    return check


def _calibration_kernel():
    d = {}
    for i in range(30000):
        d[(i, i + 1, i + 2)] = i
    x = 0
    big = (1 << 200000) - 1
    for i in range(200):
        x ^= big >> (i % 64)
    return len(d) + x.bit_length()


def calibrate() -> float:
    """Median time of a fixed pure-Python kernel (tuple keys in a dict, big
    integer xors: the operations the library spends its time on). It tracks
    how fast the machine runs right now."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - t0)
    return _median(times)


def run_e2e(cfg):
    sys.path[:0] = [str(SRC), str(HERE)]
    from zzpers import io as zio

    f = zio.load_filtration(cfg["input"]).filtration
    K = f.total_complex() if cfg["manifold"] else None
    t_ready = time.monotonic()
    setup_cal = calibrate()
    if cfg["setup_only"]:
        return {"t_ready": t_ready, "setup_cal_s": setup_cal, "attempted": 1, "failed": 0,
                "failures": []}

    import resource

    solve = _solver(cfg["manifold"], f, K)
    failures = []
    durations = []
    cals = []
    attempted = 1  # the set-up itself
    failed = 0
    check = None
    while True:
        # start another warm solve if it would be half done by the deadline
        if len(durations) >= 2:
            if time.monotonic() + 0.5 * _median(durations[1:]) > cfg["deadline"]:
                break
        attempted += 1
        gc.collect()
        before = calibrate()
        t0 = time.perf_counter()
        try:
            out, text = solve()
        except Exception:  # a failed solve is counted, not fatal
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            break
        durations.append(time.perf_counter() - t0)
        cals.append(0.5 * (before + calibrate()))
        if check is None:
            check = _checker(cfg, f)
        problems = check(out, text)
        if problems:
            failed += 1
            failures.extend(problems)
        del out, text
    return {
        "t_ready": t_ready,
        "setup_cal_s": setup_cal,
        "cold_s": durations[0] if durations else None,
        "warm_s": durations[1:],
        "cold_cal_s": cals[0] if cals else None,
        "warm_cal_s": cals[1:],
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "m": len(f),
    }


# per-layer metric name -> span name, for the spans timed once or per iteration
SPAN_METRICS = {
    "zzpers.import_s": "zzpers.import",
    "io.load_filtration_s": "io.load_filtration",
    "filtration.total_complex_s": "filtration.total_complex",
    "filtration.validate_s": "filtration.validate",
    "filtration.find_repetition_s": "filtration.find_repetition",
    "filtration.standardize_s": "filtration.standardize",
    "filtration.to_updown_s": "filtration.to_updown",
    "reduction.build_extended_s": "reduction.build_extended",
    "reduction.reduce_twist_s": "reduction.reduce_twist",
    "reduction.extended_from_reduction_s": "reduction.extended_from_reduction",
    "pipeline.staged_remap_s": "pipeline.staged_remap",
    "pipeline.compute_zigzag_s": "pipeline.compute_zigzag",
    "pipeline.validate_s": "pipeline.validate",
    "pipeline.convert_s": "pipeline.convert",
    "pipeline.reduce_s": "pipeline.reduce",
    "pipeline.remap_s": "pipeline.remap",
    "barcode.to_text_s": "barcode.to_text",
    "complexes.dual_graph_s": "complexes.dual_graph",
    "manifold.dual_filtration_s": "manifold.dual_filtration",
    "manifold.zero_dim_zigzag_s": "manifold.zero_dim_zigzag",
    "manifold.relative_top_barcode_s": "manifold.relative_top_barcode",
    "duality.recover_absolute_from_relative_s": "duality.recover_absolute_from_relative",
    "pipeline.zigzag_barcode_s": "pipeline.zigzag_barcode",
    "duality.absolute_to_relative_s": "duality.absolute_to_relative",
}
SELF_METRICS = {"pipeline.compute_zigzag.self_s": "pipeline.compute_zigzag"}


def _warm_median(tracer, values, name):
    """Median over warm iterations (run id >= 1) when there are any."""
    picked = [(s.run_id, v) for s, v in zip(tracer.spans, values) if s.name == name]
    if not picked:
        return None
    warm = [v for r, v in picked if r >= 1]
    return _median(warm or [v for _, v in picked])


def _traced_compute(tracer, f):
    """compute_zigzag in a span, with its own phase timings as child spans.

    The phases run back to back from the start of the call, so each child
    is placed after the previous one; the fused remap has no public entry.
    """
    from zzpers import compute_zigzag

    parent = len(tracer.spans)
    with tracer.span("pipeline.compute_zigzag"):
        result = compute_zigzag(f)
    start = tracer.spans[parent].start
    for phase in ("validate", "convert", "reduce", "remap"):
        end = start + result.timings[phase]
        tracer.add_child(parent, "pipeline." + phase, start, end)
        start = end
    return result


def run_trace(cfg):
    sys.path[:0] = [str(SRC), str(HERE)]
    from tracer import Tracer, maxrss_mb

    tracer = Tracer()
    span = tracer.span
    with span("zzpers.import"):
        import zzpers
        from zzpers import io as zio
    with span("io.load_filtration"):
        f = zio.load_filtration(cfg["input"]).filtration
    K = None
    if cfg["manifold"]:
        with span("filtration.total_complex"):
            K = f.total_complex()

    manifold = cfg["manifold"]
    check = _checker(cfg, f)
    failures = []
    attempted = failed = 0
    counts = intervals = None
    iteration_s = []
    rss_growth = None
    while len(iteration_s) < 2 or time.monotonic() + _median(iteration_s) <= cfg["deadline"]:
        tracer.run_id = len(iteration_s)
        attempted += 1
        problems = []
        gc.collect()
        t0 = time.monotonic()
        try:
            with span("route.staged"):
                staged, got = staged_route(f, span)
            if rss_growth is None:
                rss_growth = next(
                    s.maxrss_growth_mb for s in tracer.spans if s.name == "reduction.reduce_twist"
                )
            if counts is None:
                counts = got
            elif got != counts:
                problems.append(f"reduction counts differ between iterations: {got} != {counts}")
            gc.collect()
            if manifold:
                result = _traced_compute(tracer, f)
                with span("complexes.dual_graph"):
                    zzpers.dual_graph(K, 2)
                with span("manifold.dual_filtration"):
                    g = zzpers.dual_filtration(f, K, 2)
                with span("manifold.zero_dim_zigzag"):
                    zzpers.zero_dim_zigzag(g)
                with span("solve"):
                    with span("manifold.relative_top_barcode"):
                        rel = zzpers.relative_top_barcode(f, K, 2)
                    with span("duality.recover_absolute_from_relative"):
                        rec = zzpers.recover_absolute_from_relative(rel, f, K, 2)
                    with span("barcode.to_text"):
                        text = rec.to_text()
                out = (rel, rec)
                with span("pipeline.zigzag_barcode"):
                    z = zzpers.zigzag_barcode(f)
                with span("duality.absolute_to_relative"):
                    zzpers.absolute_to_relative(z)
            else:
                with span("solve"):
                    result = _traced_compute(tracer, f)
                    with span("barcode.to_text"):
                        text = result.barcode.to_text()
                out = result.barcode
            if staged != result.standardized:
                problems.append("staged public-call route != compute_zigzag barcode")
            problems += check(out, text)
            intervals = len(out[1] if manifold else out)
        except Exception:  # a failed iteration is counted, not fatal
            problems.append(traceback.format_exc(limit=3))
        if problems:
            failed += 1
            failures.extend(problems)
            break
        iteration_s.append(time.monotonic() - t0)

    durations = [s.duration for s in tracer.spans]
    metrics = {k: _warm_median(tracer, durations, v) for k, v in SPAN_METRICS.items()}
    self_times = tracer.self_times()
    metrics.update({k: _warm_median(tracer, self_times, v) for k, v in SELF_METRICS.items()})
    if counts:
        metrics.update(counts)
        metrics["reduction.reduce_twist.maxrss_growth_mb"] = rss_growth
        metrics["barcode.intervals"] = intervals
    if manifold and not failed:
        metrics["manifold.route_ratio"] = metrics["manifold.relative_top_barcode_s"] / (
            metrics["pipeline.zigzag_barcode_s"] + metrics["duality.absolute_to_relative_s"]
        )
    tracer.write(cfg["spans"])
    return {
        "metrics": metrics,
        "maxrss_mb": maxrss_mb(),
        "traced_solve_s": _warm_median(tracer, durations, "solve"),
        "iterations": len(iteration_s),
        "spans": len(tracer.spans),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
    }


def main() -> int:
    cfg = json.loads(sys.argv[1])
    run = {"gen": run_gen, "e2e": run_e2e, "trace": run_trace}[cfg["mode"]]
    print(json.dumps(run(cfg)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
