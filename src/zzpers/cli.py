"""Command-line interface.

Exit codes: 0 success, 2 invalid input, 3 contract violation,
4 internal inconsistency, 5 out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from . import io as zio
from .duality import _refuse_unfilled, absolute_to_relative
from .errors import InvalidInputError, ZigzagError
from .filtration import ZigzagFiltration, _additions, _admitted, _pad, _sweep, _updown
from .manifold import _relative_and_recovered, relative_top_barcode
from .pipeline import _peak_rss_mb, compute_zigzag
from .complexes import Simplex, SimplicialComplex, _faces
from .reduction import _extended

# version of the JSON record `compute --stats` and `bench` print per run; bump it when a key changes
BENCH_SCHEMA = "zzpers.bench/4"


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
    loaded = _load(args.filtration)
    result, text, record = _run(*loaded, args.filtration, 0, args.standardized)
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
        print(_record_line(record), file=sys.stderr)
    return 0


def _cmd_convert(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    sw = _admitted(parsed.filtration)
    _pad(sw, parsed.filtration)  # the one sweep becomes that of the padded filtration
    U, id_map = _updown(sw, parsed.filtration)
    if args.to == "updown":
        text = zio.format_filtration(U, parsed.names)
        lines = [
            f"# id {d} {' '.join(parsed.names[v] for v in s.vertices)} -> {i}"
            for d, index in (("a", id_map.add_index), ("d", id_map.del_index))
            for s, i in sorted(index.items())
        ]
        _write_out(text + "\n".join(lines) + ("\n" if lines else ""), args.out)
        return 0
    ext = _extended(sw, U._simplices)
    apex, taken = f"w{ext.omega}", set(parsed.names)
    while apex in taken:  # an input token may already have the apex's name
        apex = "w" + apex
    names = [*parsed.names, apex]
    text = zio.format_filtration(_additions(ext.events), names)
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


def _load_complex(path: str, names, f: ZigzagFiltration) -> SimplicialComplex:
    """The closure of a file's maximal simplices, one per line in the vertex
    names of the filtration f. The closure, exponential in a simplex's size,
    walks only simplices of f's record, so its work is bounded by f's size.
    At a face the record lacks, f cannot fill the complex, and admitting f
    raises the error the manifold path would; else f's one admission is the
    manifold path's."""
    ids = {nm: i for i, nm in enumerate(names)}
    maximal = []
    for raw in zio._read_text(path).split("\n"):  # the lines a text-mode file iterates
        line = raw.split("#")[0].strip()
        if not line:
            continue
        verts = []
        for token in line.split():
            if token not in ids:
                raise InvalidInputError(f"unknown vertex {token!r} in complex file")
            verts.append(ids[token])
        maximal.append(Simplex(verts).vertices)
    record, closed = set(f._ids[1]), set()  # f's vertex tuples; the closure's
    while maximal:
        vs = maximal.pop()
        if vs not in closed:
            if vs not in record:
                _refuse_unfilled(_admitted(f), "manifold path", False)
            closed.add(vs)
            maximal.extend(_faces(vs))
    return SimplicialComplex(map(Simplex._from_sorted, closed))


def _cmd_manifold(args) -> int:
    parsed = zio.load_filtration(args.filtration)
    f = parsed.filtration
    if args.complex:
        K = _load_complex(args.complex, parsed.names, f)
    else:
        K = f.total_complex()
    if args.recover:  # one admission sweep for both barcodes
        rel, rec = _relative_and_recovered(f, K, args.p)
        text = rel.to_text() + rec.to_text()
    else:
        text = relative_top_barcode(f, K, args.p).to_text()
    _write_out(text, args.out)
    return 0


def _cmd_oracle(args) -> int:
    from .oracle import oracle_absolute, oracle_relative  # no other command loads the oracle

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


def _load(path: str):
    """A filtration file parsed, the seconds the parse took and the peak RSS
    (MB) read right after it."""
    start = time.perf_counter()
    parsed = zio.load_filtration(path)
    return parsed, time.perf_counter() - start, _peak_rss_mb()


def _run(parsed, parse: float, parse_peak: float, path: str, run: int,
         standardized: bool = False):
    """Compute a parsed file and format the barcode a command prints, timing both.

    Returns (result, text, record); the record is the run's `BENCH_SCHEMA`
    object but for the platform's keys (`_record_line` adds them), with
    `peak_rss_mb` read after formatting and `phase_peak_rss_mb` after the
    parse (`parse_peak`, from `_load`) and each phase of `compute_zigzag`.
    """
    start = time.perf_counter()
    result = compute_zigzag(parsed.filtration)
    total = time.perf_counter() - start
    start = time.perf_counter()
    text = (result.standardized if standardized else result.barcode).to_text()
    seconds = {"parse": parse, **result.timings, "total": total,
               "format": time.perf_counter() - start}
    peaks = {"parse": parse_peak, **result.peak_rss_mb}
    record = {
        "schema": BENCH_SCHEMA, "file": path, "m": len(parsed.filtration), "run": run,
        "seconds": {k: round(v, 6) for k, v in seconds.items()},
        "peak_rss_mb": round(_peak_rss_mb(), 1), "stats": result.stats,
        "phase_peak_rss_mb": {k: round(v, 1) for k, v in peaks.items()},
    }
    return result, text, record


def _record_line(record: dict) -> str:
    """A run's record as the JSON line `compute --stats` and `bench` print."""
    import json  # imported here, with platform: no other command prints a record
    import platform

    return json.dumps({**record, "python": platform.python_version(), "cpus": os.cpu_count()})


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise InvalidInputError(f"--repeat must be at least 1, got {args.repeat}")
    if len(args.filtration) > 1:
        return _bench_each_in_a_child(args.filtration, args.repeat)
    path = args.filtration[0]
    loaded = _load(path)
    for run in range(args.repeat):
        # the result and its text go with the tuple, else the next run's peak counts two
        print(_record_line(_run(*loaded, path, run)[2]), flush=True)
    return 0


def _bench_each_in_a_child(paths: List[str], repeat: int) -> int:
    """`bench` of several files: each file in a child `python -m zzpers.cli
    bench FILE --repeat N` on this process's package, since a process's peak
    never falls. The child's lines are printed unchanged; returns the first
    non-zero exit code, after every file has run."""
    import subprocess  # imported here: no other command starts a process

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    code = 0
    for path in paths:
        proc = subprocess.run(
            [sys.executable, "-m", "zzpers.cli", "bench", path, "--repeat", str(repeat)],
            capture_output=True, text=True, env=env,
        )
        print(proc.stdout, end="", flush=True)
        print(proc.stderr, end="", file=sys.stderr)
        code = code or proc.returncode
    return code


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
                   help="print the run's bench record (timings, peak RSS, counters) on stderr")
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

    p = sub.add_parser("bench", help="per-phase timings and peak memory as JSON lines", description=(
        f"One JSON object per run, the record compute --stats prints (schema {BENCH_SCHEMA}). "
        "seconds: parse (once per file), validate (the admission sweep), convert (padding "
        "that sweep), reduce (dimension 0 of the coned filtration paired by union-find, the "
        "coboundary of the others reduced one dimension at a time), remap (pairs to "
        "intervals), total (those four) and format (the barcode's text). peak_rss_mb: this "
        "process's own peak resident set size (VmHWM) after formatting; phase_peak_rss_mb: "
        "the same after the parse (once per file) and after each of the four phases. Each "
        "file of several runs in its own child process, so its peaks are its own. stats: the "
        "reduction counters."))
    p.add_argument("filtration", nargs="+")
    p.add_argument("--repeat", type=int, default=1)
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
    except MemoryError:
        pass  # reported below, once the traceback is gone and its frames' data freed
    print("error: out of memory", file=sys.stderr)
    return 5


if __name__ == "__main__":
    sys.exit(main())
