"""Benchmark of zzpers on three seeded workloads.

    python3 perfbench/run.py --workload torus_sweep --seed 8 --seconds 30 --trace 0

Run from the repository root. Inputs are made from ``--seed`` through
``zzpers.io.generate`` in a separate process (not timed) and reach the
measured processes only as a filtration file. Every measured process is a
fresh single-threaded interpreter (``worker.py``).

``--trace 0`` (end to end, tracing off) prints:
  setup_s      fresh process start -> zzpers imported and the input parsed
               (plus total_complex on manifold_dual); median over processes
  solve_s      median over warm repetitions of parsed input -> barcode text
  cold_solve_s the first solve in each fresh process; median over processes
  peak_rss_mb  ru_maxrss of each measured process; median over processes
The three times are scaled to a reference machine speed measured during
the run (see CALIBRATION_REF_S); the unscaled medians are in the
environment record. Operations that raise or fail a check count in
``failed``; the error rate is failed / attempted and is written to the
environment record.

``--trace 1`` first measures the untraced solve, then runs one traced
process with spans around the calls into each public layer, and prints
the per-layer medians (see PER_LAYER, unscaled) and the tracing overhead
(traced solve minus untraced solve). Spans are written to
``.perfbench_work/<workload>-seed<n>/spans.jsonl`` when the run ends.

Before timing, the workload's family is run at desk scale against the
brute-force oracle; a mismatch aborts the run. Every timed output is
checked: Euler characteristic and recorded digest on the pipeline
workloads, route agreement on manifold_dual. The last stdout line is the
JSON result; the line before it is the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HARD_LIMIT_S = 170.0  # every run must end well within 180 s
MIN_PROCESSES = 2  # fresh processes per untraced run, for set-up and cold medians
# The host's speed drifts by up to 1.6x within minutes (other tenants on the
# machine), which dominates the spread of raw wall times between runs. Each
# timed operation is therefore scaled by CALIBRATION_REF_S / (time of
# worker.calibrate() measured in the same process right around it): seconds
# on a machine where the calibration kernel takes 12.5 ms. The unscaled
# medians are kept in the environment record.
CALIBRATION_REF_S = 0.0125
SETUP_SHARE = 0.15  # of the budget, for set-up-only processes
MAX_SETUP_SAMPLES = 15

END_TO_END = {"setup_s": "s", "solve_s": "s", "cold_solve_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> the end-to-end metric it should move, and where.
PER_LAYER = {
    "zzpers.import_s": "setup_s, mostly on manifold_dual where parse is tiny",
    "io.load_filtration_s": "setup_s on torus_sweep and rips_dense",
    "filtration.total_complex_s": "setup_s on manifold_dual",
    "filtration.validate_s": "solve_s; with the next four about half the warm solve on torus_sweep",
    "filtration.find_repetition_s": "solve_s on torus_sweep and rips_dense",
    "filtration.standardize_s": "solve_s on torus_sweep and rips_dense",
    "filtration.to_updown_s": "solve_s on torus_sweep and rips_dense",
    "reduction.build_extended_s": "solve_s on torus_sweep and rips_dense",
    "reduction.reduce_twist_s": "solve_s and cold_solve_s: dense columns on torus_sweep, "
                                "column additions on rips_dense",
    "reduction.reduce_twist.maxrss_growth_mb": "peak_rss_mb and cold_solve_s on torus_sweep",
    "reduction.columns": "peak_rss_mb on torus_sweep (count, repeats exactly)",
    "reduction.pairs": "peak_rss_mb on torus_sweep (count, repeats exactly)",
    "reduction.reduced_column_bytes": "peak_rss_mb on torus_sweep (computed from bit lengths)",
    "reduction.extended_from_reduction_s": "none: unfused specification route, reference only",
    "pipeline.staged_remap_s": "none: ext_to_updown + updown_to_f, reference only",
    "pipeline.compute_zigzag_s": "solve_s on torus_sweep and rips_dense",
    "pipeline.compute_zigzag.self_s": "solve_s: compute_zigzag time outside its four phases",
    "pipeline.validate_s": "solve_s on torus_sweep and rips_dense (PipelineResult.timings)",
    "pipeline.convert_s": "solve_s on torus_sweep and rips_dense (PipelineResult.timings)",
    "pipeline.reduce_s": "solve_s and cold_solve_s on torus_sweep and rips_dense (timings)",
    "pipeline.remap_s": "solve_s on torus_sweep and rips_dense (timings; fused, no public entry)",
    "barcode.to_text_s": "solve_s on all three workloads",
    "barcode.intervals": "solve_s on all three workloads (count)",
    "complexes.dual_graph_s": "solve_s on manifold_dual only",
    "manifold.dual_filtration_s": "solve_s on manifold_dual only",
    "manifold.zero_dim_zigzag_s": "solve_s on manifold_dual only (ROADMAP item 4)",
    "manifold.relative_top_barcode_s": "solve_s on manifold_dual only",
    "duality.recover_absolute_from_relative_s": "solve_s on manifold_dual only",
    "pipeline.zigzag_barcode_s": "none: the other route for manifold_dual's item 4 target",
    "duality.absolute_to_relative_s": "none: the other route for manifold_dual's item 4 target",
    "manifold.route_ratio": "none: dual-graph route / (pipeline + duality) on manifold_dual",
    "trace.overhead_s": "none: traced solve minus untraced solve in the same run",
}

NOT_DERIVED = (
    "column-addition and apparent-pivot counts wait for in-program reduction counters "
    "(ROADMAP item 1's PipelineResult.stats); this benchmark does not derive them"
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Failed(Exception):
    """The benchmark cannot run; no result is printed."""


def child(cfg: dict, hard_deadline: float):
    """Run one fresh worker process; returns (result or None, spawn time, error)."""
    timeout = max(1.0, hard_deadline - time.monotonic())
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), json.dumps(cfg)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, t_spawn, f"{cfg['mode']} process killed after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        err = proc.stderr[-2000:]
        return None, t_spawn, f"{cfg['mode']} process exited {proc.returncode}: {err}"
    return json.loads(lines[-1]), t_spawn, None


def measure_untraced(base: dict, budget_s: float, min_processes: int, hard_deadline: float) -> dict:
    """Fresh processes, each: set-up, cold solve, then warm solves.

    The machine's speed drifts over seconds, so the samples are spread over
    the whole run: set-up-only processes (cheap next to a solve on most
    workloads) fill a slot before each solve process and one after the
    last. The first solve process takes an even share of the budget; its
    wall time sizes the rest, which split what remains evenly.
    """
    start = time.monotonic()
    slot_s = SETUP_SHARE * budget_s / (min_processes + 1)
    samples, setups, failures = [], [], []
    counts = {"attempted": 0, "failed": 0}

    def spawn(cfg):
        res, t_spawn, err = child({**base, "mode": "e2e", **cfg}, hard_deadline)
        if res is None:
            counts["attempted"] += 1
            counts["failed"] += 1
            failures.append(err)
            return None
        counts["attempted"] += res["attempted"]
        counts["failed"] += res["failed"]
        failures.extend(res["failures"])
        setups.append((res["t_ready"] - t_spawn, res["setup_cal_s"]))
        return res

    def setup_slot():
        end = time.monotonic() + slot_s
        while len(setups) < MAX_SETUP_SAMPLES and not counts["failed"]:
            if spawn({"setup_only": True}) is None:
                return
            if time.monotonic() + statistics.median(r for r, _ in setups) > min(end, hard_deadline):
                return

    per_process = None
    while time.monotonic() < hard_deadline and not counts["failed"]:
        setup_slot()
        now = time.monotonic()
        left = start + budget_s - slot_s - now
        if len(samples) >= min_processes and (per_process is None or left < per_process):
            break
        fit = min_processes if per_process is None else max(1, int(left // per_process))
        deadline = now + max(0.0, left) / fit
        t0 = time.monotonic()
        res = spawn({"setup_only": False, "deadline": deadline})
        if res is None or res["cold_s"] is None:
            break
        if per_process is None:
            per_process = time.monotonic() - t0 + slot_s
        samples.append({
            "setup_s": setups[-1][0],
            **{k: res[k] for k in ("cold_s", "warm_s", "cold_cal_s", "warm_cal_s", "maxrss_mb")},
        })
    warm = [(w, c) for s in samples for w, c in zip(s["warm_s"], s["warm_cal_s"])]
    colds = [(s["cold_s"], s["cold_cal_s"]) for s in samples]
    metrics, raw = {}, {}
    if samples and warm:
        raw["calibration_s"] = statistics.median(c for _, c in setups + warm + colds)
        for name, pairs in (("setup_s", setups), ("solve_s", warm), ("cold_solve_s", colds)):
            raw[name] = statistics.median(t for t, _ in pairs)
            metrics[name] = statistics.median(t * CALIBRATION_REF_S / c for t, c in pairs)
        metrics["peak_rss_mb"] = statistics.median(s["maxrss_mb"] for s in samples)
    return {
        "metrics": metrics,
        "raw": raw,
        "samples": samples,
        "setup_samples": setups,
        "failures": failures,
        **counts,
    }


def run(args):
    t_start = time.monotonic()
    hard_deadline = t_start + HARD_LIMIT_S
    if not (SRC / "zzpers" / "__init__.py").is_file():
        raise Failed(f"no zzpers package under {SRC}; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import zzpers

    if Path(zzpers.__file__).resolve().parent != (SRC / "zzpers").resolve():
        raise Failed(f"imported zzpers from {zzpers.__file__}, not from {SRC}")
    from checks import anchor_failures
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise Failed(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)

    problems = anchor_failures(w, args.seed)
    if problems:
        raise Failed("desk-scale oracle anchor failed: " + "; ".join(problems))

    expected = None
    digest_source = "none: checked by route agreement"
    if not w.manifold:
        table = json.loads((HERE / "digests.json").read_text())
        expected = table.get(w.name, {}).get(str(args.seed))
        digest_source = "recorded table digests.json"
    base = {"workload": w.name, "manifold": w.manifold, "input": str(work / "input.zz")}
    gen, _, err = child(
        {**base, "mode": "gen", "seed": args.seed,
         "need_reference": not w.manifold and expected is None},
        hard_deadline,
    )
    if gen is None:
        raise Failed("input generation failed: " + err)
    if expected is None and not w.manifold:
        expected = gen["reference_digest"]
        digest_source = "staged public-call route in this run (seed not in digests.json)"
    base["expected_digest"] = expected

    budget = float(args.seconds)
    if args.trace:
        untraced = measure_untraced(base, 0.5 * budget, 1, hard_deadline)
        traced, _, err = child(
            {**base, "mode": "trace", "spans": str(work / "spans.jsonl"),
             "deadline": time.monotonic() + 0.5 * budget},
            hard_deadline,
        )
    else:
        untraced = measure_untraced(base, budget, MIN_PROCESSES, hard_deadline)
        traced = None

    attempted, failed = untraced["attempted"], untraced["failed"]
    failures = list(untraced["failures"])
    if args.trace:
        if traced is None:
            attempted += 1
            failed += 1
            failures.append(err)
            traced = {"metrics": {}, "traced_solve_s": None, "iterations": 0}
        else:
            attempted += traced["attempted"]
            failed += traced["failed"]
            failures += traced["failures"]
        layer = dict(traced["metrics"])
        solve_s = untraced["raw"].get("solve_s")
        if traced["traced_solve_s"] is not None and solve_s is not None:
            layer["trace.overhead_s"] = traced["traced_solve_s"] - solve_s
        not_run = sorted(k for k in PER_LAYER if layer.get(k) is None)
        metrics = {k: {"value": layer.get(k) or 0.0, "unit": unit_of(k)} for k in PER_LAYER}
    else:
        not_run = []
        metrics = {
            k: {"value": untraced["metrics"].get(k, 0.0), "unit": u} for k, u in END_TO_END.items()
        }
    if not untraced["metrics"] and not failed:
        failed, attempted = 1, max(attempted, 1)
        failures.append("no complete measurement")

    samples = untraced["samples"]
    environment = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "m": gen["m"],
        "generation": w.full.params(),
        "anchor": {**w.anchor.params(), "oracle": "oracle_absolute", "passed": True},
        "digest_source": digest_source,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "processes": len(samples),
        "warm_per_process": [len(s["warm_s"]) for s in samples],
        "warm_samples": sum(len(s["warm_s"]) for s in samples),
        "setup_samples": len(untraced["setup_samples"]),
        "trace_iterations": traced["iterations"] if args.trace else 0,
        "traced_process_maxrss_mb": traced.get("maxrss_mb") if args.trace else None,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:10],
        "layers_not_run": not_run,
        "not_derived": NOT_DERIVED,
        "unscaled_medians": untraced["raw"],
        "elapsed_s": time.monotonic() - t_start,
    }
    if args.trace:
        environment["metric_moves"] = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "environment": environment,
        "samples": samples,
        "setup_samples_s": untraced["setup_samples"],
        "result": result,
    }
    (work / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    return environment, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        environment, result = run(args)
    except Failed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
