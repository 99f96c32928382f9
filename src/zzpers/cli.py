"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 contract violation,
4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import sys
import time
from typing import List, Optional

from . import io as zio
from .duality import absolute_to_relative, recover_absolute_from_relative
from .errors import InvalidInputError, ZigzagError
from .filtration import FiltrationEvent, ZigzagFiltration, _admitted, _pad, _sweep, _updown
from .manifold import relative_top_barcode
from .pipeline import compute_zigzag
from .complexes import Simplex, SimplicialComplex
from .oracle import oracle_absolute, oracle_relative
from .reduction import _extended

# version of the JSON object `compute --stats` prints; bump it when a key changes
STATS_SCHEMA = "zzpers.stats/2"
# version of the JSON object `bench --json` prints per run; bump it when a key changes
BENCH_SCHEMA = "zzpers.bench/1"


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_validate(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    sweep = _sweep(parsed.filtration)  # one pass for both the violations and the repetition
    violations = sweep.violations
    for v in violations:
        print(f"event {v.index}: {v.reason}")
    if violations:
        print(f"invalid: {len(violations)} violations")
        return 2
    print(f"valid ({len(parsed.filtration)} events); non-repetitive: "
          f"{'yes' if sweep.repetition is None else 'no'}")
    return 0


def _cmd_compute(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    result = compute_zigzag(parsed.filtration)
    bar = result.standardized if args.standardized else result.barcode
    text = bar.to_text()
    extras = []
    if not args.standardized and (result.record.prefix_length or result.record.suffix_length):
        extras.append(
            f"# standardized length {result.standardized.m} "
            f"(prefix {result.record.prefix_length}, suffix {result.record.suffix_length})\n"
        )
    for iv in result.synthetic:
        extras.append(f"# synthetic (standardized coords): {iv.dim} {iv.b} {iv.d} {iv.type_code}\n")
    _write_out(text + "".join(extras), args.out)
    if args.stats:
        print(json.dumps({"schema": STATS_SCHEMA, **result.stats}), file=sys.stderr)
    return 0


def _cmd_convert(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    sw = _admitted(parsed.filtration)
    _pad(sw, parsed.filtration)  # the one sweep becomes that of the padded filtration
    U, id_map = _updown(sw)
    if args.to == "updown":
        text = zio.format_filtration(U, parsed.names)
        lines = [
            f"# id {d} {' '.join(parsed.names[v] for v in s.vertices)} -> {i}"
            for d, index in (("a", id_map.add_index), ("d", id_map.del_index))
            for s, i in sorted(index.items())
        ]
        _write_out(text + "\n".join(lines) + ("\n" if lines else ""), args.out)
        return 0
    ext = _extended(sw)
    apex, taken = f"w{ext.omega}", set(parsed.names)
    while apex in taken:  # an input token may already have the apex's name
        apex = "w" + apex
    names = [*parsed.names, apex]
    mono = ZigzagFiltration([FiltrationEvent.add(s) for s in ext.events])
    text = zio.format_filtration(mono, names)
    table = "".join(f"# {line}\n" for line in ext.column_table())
    _write_out(text + table, args.out)
    return 0


def _cmd_duality(args) -> int:
    bar = zio.load_barcode(args.barcode)
    if args.m is not None and args.m != bar.m:
        raise InvalidInputError(f"--m {args.m} does not match file header m={bar.m}")
    rel = absolute_to_relative(bar)
    _write_out(rel.to_text(), args.out)
    return 0


def _load_complex(path: str, names) -> SimplicialComplex:
    ids = {nm: i for i, nm in enumerate(names)}
    maximal = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#")[0].strip()
            if not line:
                continue
            verts = []
            for token in line.split():
                if token not in ids:
                    raise InvalidInputError(f"unknown vertex {token!r} in complex file")
                verts.append(ids[token])
            maximal.append(Simplex(verts))
    return SimplicialComplex.closure(maximal)


def _cmd_manifold(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    f = parsed.filtration
    if args.complex:
        K = _load_complex(args.complex, parsed.names)
    else:
        K = f.total_complex()
    rel = relative_top_barcode(f, K, args.p)
    text = rel.to_text()
    if args.recover:
        text += recover_absolute_from_relative(rel, f, K, args.p).to_text()
    _write_out(text, args.out)
    return 0


def _cmd_oracle(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    bar = oracle_relative(parsed.filtration) if args.relative else oracle_absolute(parsed.filtration)
    _write_out(bar.to_text(), args.out)
    return 0


def _cmd_generate(args) -> int:
    mesh = zio.load_off(args.mesh)
    filt = zio.generate(
        mesh, axis=args.axis, switches=args.switches, seed=args.seed,
        rips_radius=args.rips_supplement,
    )
    _write_out(zio.format_filtration(filt), args.out)
    return 0


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB.

    Reads VmHWM from /proc/self/status: on Linux, ru_maxrss carries the
    peak of the process that started this one across exec, so it reads
    the parent's peak when the parent was larger. Falls back to ru_maxrss
    (KiB on Linux) where that file does not exist.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cmd_bench(args) -> int:
    if args.json:
        host = {"python": platform.python_version(), "cpus": os.cpu_count()}
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(
            ["file", "m", "run", "parse", "validate", "convert", "reduce", "remap", "total",
             "peak_rss_mb"]
        )
    for path in args.filtration:
        start = time.perf_counter()
        parsed = zio.load_filtration(path)
        parse = time.perf_counter() - start
        m = len(parsed.filtration)
        for run in range(args.repeat):
            start = time.perf_counter()
            result = compute_zigzag(parsed.filtration)
            total = time.perf_counter() - start
            t = result.timings
            if args.json:
                start = time.perf_counter()
                result.barcode.to_text()
                seconds = {"parse": parse, **t, "total": total,
                           "format": time.perf_counter() - start}
                print(json.dumps({
                    "schema": BENCH_SCHEMA, "file": path, "m": m, "run": run,
                    "seconds": {k: round(v, 6) for k, v in seconds.items()},
                    "peak_rss_mb": round(_peak_rss_mb(), 1), "stats": result.stats, **host,
                }), flush=True)
            else:
                writer.writerow(
                    [path, m, run, f"{parse:.6f}", f"{t['validate']:.6f}",
                     f"{t['convert']:.6f}", f"{t['reduce']:.6f}", f"{t['remap']:.6f}",
                     f"{total:.6f}", f"{_peak_rss_mb():.1f}"]
                )
            del result  # else the next run's peak counts two results
        del parsed  # else the next file's parse counts two inputs
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zzpers", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a filtration file")
    p.add_argument("filtration")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("compute", help="zigzag barcode of a non-repetitive filtration")
    p.add_argument("filtration")
    p.add_argument("--out")
    p.add_argument("--standardized", action="store_true",
                   help="report in the coordinates of the padded filtration")
    p.add_argument("--stats", action="store_true",
                   help="print the reduction counters as one JSON line on stderr")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("convert", help="emit the up-down or coned monotone form")
    p.add_argument("filtration")
    p.add_argument("--to", choices=("updown", "extended"), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("duality", help="map an absolute barcode to the relative one")
    p.add_argument("barcode")
    p.add_argument("--m", type=int, default=None, help="expected module length (checked)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("manifold", help="dimension-p relative barcode via the dual graph")
    p.add_argument("filtration")
    p.add_argument("--complex", help="file of maximal simplices (default: total complex)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--recover", action="store_true",
                   help="also recover the reachable absolute intervals")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_manifold)

    p = sub.add_parser("oracle", help="brute-force barcode (small inputs only)")
    p.add_argument("filtration")
    p.add_argument("--relative", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("generate", help="height-sweep filtration from an OFF mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--axis", choices=("x", "y", "z"), default="z")
    p.add_argument("--switches", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rips-supplement", type=float, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("bench", help="per-phase timings and peak memory as CSV", description=(
        "Per-phase timings of compute as CSV. parse: reading the file (once per file, "
        "repeated in each of its rows); validate: the admission sweep; convert: padding "
        "that sweep with the last complex's deletions (near zero on a standardized input); "
        "reduce: sparse coboundary columns of the coned filtration and their reduction "
        "(bitmasks only for columns that need an addition); remap: pairs to intervals and "
        "restriction. peak_rss_mb: this process's own peak resident set size after the run "
        "(VmHWM). --json prints one object per run instead (schema zzpers.bench/1), adding "
        "the seconds of formatting the barcode (format; peak_rss_mb is read after it), the "
        "reduction counters, the Python version and the CPU count."))
    p.add_argument("filtration", nargs="+")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--json", action="store_true", help="one JSON object per run instead of CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZigzagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
