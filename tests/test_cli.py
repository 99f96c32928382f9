import json
import platform
import subprocess
import sys
import time
import weakref
from itertools import combinations, islice
from pathlib import Path

import pytest

from zzpers import (
    Simplex,
    SimplicialComplex,
    ZigzagError,
    cli,
    manifold_absolute_barcode,
    multiset_equal,
    oracle_absolute,
    oracle_relative,
    recover_absolute_from_relative,
    relative_top_barcode,
    validate,
)
from zzpers.cli import main
from zzpers.io import (
    OffMesh,
    format_filtration,
    generate,
    parse_barcode,
    parse_filtration,
    write_off,
)
from zzpers.pipeline import compute_zigzag
from zzpers.rng import SplitMix64
from conftest import moved_edge_torus, octahedra_wedge, random_nonrepetitive, torus_mesh_points


SMALL = "zzfilt v1\na 0\nd 0\na 1\nd 1\n"
REPETITIVE = "zzfilt v1\na 0\nd 0\na 0\nd 0\n"
INVALID = "zzfilt v1\na 0 1\n"


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.zz"
    path.write_text(SMALL)
    return str(path)


def test_validate_ok(small_file, capsys):
    assert main(["validate", small_file]) == 0
    out = capsys.readouterr().out
    assert "valid" in out and "non-repetitive: yes" in out


def test_validate_invalid_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.zz"
    path.write_text(INVALID)
    assert main(["validate", str(path)]) == 2
    assert "missing facets" in capsys.readouterr().out


def test_compute_writes_barcode(small_file, tmp_path):
    out = tmp_path / "bar.zzb"
    assert main(["compute", small_file, "--out", str(out)]) == 0
    bar = parse_barcode(out.read_text())
    assert sorted((i.dim, i.b, i.d, i.type_code) for i in bar) == [
        (0, 1, 1, "cc"),
        (0, 3, 3, "cc"),
    ]


def test_compute_standardized_flag(tmp_path, capsys):
    # an input needing padding: starts non-empty because of a leading delete
    path = tmp_path / "t.zz"
    path.write_text("zzfilt v1\na 0\na 1\na 0 1\nd 0 1\n")
    assert main(["compute", str(path)]) == 0
    plain = capsys.readouterr().out
    assert "m=4" in plain.splitlines()[0]
    assert main(["compute", str(path), "--standardized"]) == 0
    std = capsys.readouterr().out
    assert "m=6" in std.splitlines()[0]  # two padding deletions appended


def test_compute_repetitive_exit_code(tmp_path, capsys):
    path = tmp_path / "rep.zz"
    path.write_text(REPETITIVE)
    assert main(["compute", str(path)]) == 3
    assert "added again" in capsys.readouterr().err


def test_convert_updown(small_file, capsys):
    assert main(["convert", small_file, "--to", "updown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("zzfilt v1\na 0\na 1\nd 0\nd 1\n")
    assert "# id a 0 -> 0" in out


def test_convert_extended(small_file, capsys):
    assert main(["convert", small_file, "--to", "extended"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "zzfilt v1"
    assert sum(1 for ln in lines if ln and not ln.startswith("#")) == 6  # header + 5 adds
    assert any("apex vertex" in ln for ln in lines)


def test_convert_extended_names_the_apex_apart_from_every_input_token(tmp_path, capsys):
    # three vertices, so the apex is vertex 3, and one input token is already "w3"
    path = tmp_path / "w3.zz"
    path.write_text("zzfilt v1\na x\na w3\na x w3\na y\nd x w3\nd x\nd w3\nd y\n")
    assert main(["convert", str(path), "--to", "extended"]) == 0
    out = parse_filtration(capsys.readouterr().out)
    assert validate(out.filtration) == []
    assert len(out.names) == len(parse_filtration(path.read_text()).names) + 1


@pytest.mark.parametrize("to", ["updown", "extended"])
@pytest.mark.parametrize(
    "text", [SMALL, "zzfilt v1\na 0\na 1\na 0 1\nd 0 1\n"], ids=["standardized", "padded"]
)
def test_convert_sweeps_once(text, to, tmp_path, monkeypatch):
    # as compute_zigzag: the input's one sweep, padded in place if it ends non-empty
    import zzpers.filtration

    path = tmp_path / "f.zz"
    path.write_text(text)
    calls = []

    def spy(f, inner=zzpers.filtration._sweep):
        calls.append(f)
        return inner(f)

    monkeypatch.setattr(zzpers.filtration, "_sweep", spy)
    monkeypatch.setattr(cli, "_sweep", spy)
    assert main(["convert", str(path), "--to", to, "--out", str(tmp_path / "out.zz")]) == 0
    assert len(calls) == 1


def test_duality_command(small_file, tmp_path, capsys):
    bar_path = tmp_path / "bar.zzb"
    assert main(["compute", small_file, "--out", str(bar_path)]) == 0
    assert main(["duality", str(bar_path), "--m", "4"]) == 0
    rel = parse_barcode(capsys.readouterr().out)
    f = parse_filtration(SMALL).filtration
    assert multiset_equal(rel, oracle_relative(f)).equal
    assert main(["duality", str(bar_path), "--m", "5"]) == 2


def test_oracle_command_matches_compute(small_file, capsys):
    assert main(["oracle", small_file]) == 0
    oracle_text = capsys.readouterr().out
    assert main(["compute", small_file]) == 0
    compute_text = capsys.readouterr().out
    assert parse_barcode(oracle_text) == parse_barcode(compute_text)


def test_generate_and_manifold_commands(tmp_path, capsys):
    verts, faces = torus_mesh_points(4, 3)
    off = tmp_path / "torus.off"
    write_off(str(off), verts, faces)
    filt = tmp_path / "torus.zz"
    assert main([
        "generate", "--mesh", str(off), "--axis", "x",
        "--switches", "40", "--seed", "5", "--out", str(filt),
    ]) == 0
    # determinism: running again produces the identical file
    second = tmp_path / "torus2.zz"
    assert main([
        "generate", "--mesh", str(off), "--axis", "x",
        "--switches", "40", "--seed", "5", "--out", str(second),
    ]) == 0
    assert filt.read_text() == second.read_text()

    assert main(["manifold", str(filt), "--p", "2", "--recover"]) == 0
    out = capsys.readouterr().out
    assert out.count("zzbar v1") == 2  # relative plus recovered absolute

    parsed = parse_filtration(filt.read_text())
    rel = oracle_relative(parsed.filtration).in_dim(2)
    first_block = out.split("zzbar")[1]
    got = parse_barcode("zzbar" + first_block)
    assert multiset_equal(got, rel).equal


def test_manifold_recover_on_a_closed_pseudomanifold(tmp_path, capsys):
    f = random_nonrepetitive(SplitMix64(3), sorted(octahedra_wedge().simplex_set()))
    path = tmp_path / "wedge.zz"
    path.write_text(format_filtration(f))
    assert main(["manifold", str(path), "--p", "2", "--recover"]) == 0
    recovered = parse_barcode("zzbar" + capsys.readouterr().out.split("zzbar")[2])
    want = oracle_absolute(parse_filtration(path.read_text()).filtration).filter(
        lambda i: i.dim == 2 or (i.dim == 1 and i.type_code != "cc")
    )
    assert multiset_equal(recovered, want).equal


INVALID_INPUTS = {
    "edge_before_its_vertices": "zzfilt v1\na 0 1\na 0\na 1\nd 0 1\nd 0\nd 1\n",
    "moved_edge_torus": format_filtration(moved_edge_torus()),
}
READERS = [
    ["compute"],
    ["oracle"],
    ["oracle", "--relative"],
    ["convert", "--to", "updown"],
    ["convert", "--to", "extended"],
    ["manifold", "--p", "2"],
    ["manifold", "--p", "2", "--recover"],
]


@pytest.mark.parametrize("name", sorted(INVALID_INPUTS))
def test_every_command_that_reads_a_filtration_rejects_an_invalid_one(name, tmp_path, capsys):
    path = tmp_path / "bad.zz"
    path.write_text(INVALID_INPUTS[name])
    assert main(["validate", str(path)]) == 2
    capsys.readouterr()
    errors = set()
    for command, *options in READERS:
        assert main([command, str(path), *options]) == 2, (command, *options)
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.add(captured.err)
    # one shared admission: the same message from every command
    assert len(errors) == 1 and errors.pop().startswith("error: invalid filtration (")


@pytest.mark.parametrize("flag, value", [
    ("--switches", "-3"), ("--rips-supplement", "-0.5"), ("--rips-supplement", "nan"),
])
def test_generate_rejects_negative_switches_and_radius(flag, value, tmp_path, capsys):
    verts, faces = torus_mesh_points(4, 3)
    off = tmp_path / "torus.off"
    write_off(str(off), verts, faces)
    out = tmp_path / "torus.zz"
    assert main(["generate", "--mesh", str(off), flag, value, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("rips", [[], ["--rips-supplement", "1"]])
def test_generate_refuses_a_non_finite_coordinate(bad, rips, tmp_path, capsys):
    off = tmp_path / "bad.off"
    off.write_text(f"OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 {bad}\n1 1 1\n3 0 1 2\n3 1 2 3\n")
    out = tmp_path / "bad.zz"
    assert main(["generate", "--mesh", str(off), *rips, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: vertex 2 has a non-finite coordinate")


def test_manifold_with_explicit_complex_file(tmp_path, capsys):
    verts, faces = torus_mesh_points(4, 3)
    off = tmp_path / "t.off"
    write_off(str(off), verts, faces)
    filt = tmp_path / "t.zz"
    assert main(["generate", "--mesh", str(off), "--switches", "10",
                 "--seed", "3", "--out", str(filt)]) == 0
    cx = tmp_path / "t.cx"
    cx.write_text("".join(" ".join(str(v) for v in f) + "\n" for f in faces))
    assert main(["manifold", str(filt), "--complex", str(cx), "--p", "2"]) == 0
    assert "zzbar" in capsys.readouterr().out
    # a complex file that does not match the filtration's total complex fails
    cx_bad = tmp_path / "bad.cx"
    cx_bad.write_text(" ".join(str(v) for v in faces[0]) + "\n")
    assert main(["manifold", str(filt), "--complex", str(cx_bad), "--p", "2"]) == 2


# the keys of each schema version; /2 added the peak RSS after each phase, /3 the
# union_find_pairs counter to stats, and /4 the peak RSS after the parse
BENCH_KEYS_1 = {"schema", "file", "m", "run", "seconds", "peak_rss_mb", "stats", "python", "cpus"}
BENCH_KEYS = BENCH_KEYS_1 | {"phase_peak_rss_mb"}
SCHEMA_KEYS = {"zzpers.bench/1": BENCH_KEYS_1, "zzpers.bench/2": BENCH_KEYS,
               "zzpers.bench/3": BENCH_KEYS, "zzpers.bench/4": BENCH_KEYS}
BENCH_SECONDS = {"parse", "validate", "convert", "reduce", "remap", "total", "format"}
PHASES = ["parse", "validate", "convert", "reduce", "remap"]
SCHEMA_PHASES = {"zzpers.bench/2": PHASES[1:], "zzpers.bench/3": PHASES[1:],
                 "zzpers.bench/4": PHASES}


def test_bench_json(small_file, capsys):
    assert main(["bench", small_file, "--repeat", "2"]) == 0
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["run"] for r in runs] == [0, 1]
    stats = compute_zigzag(parse_filtration(SMALL).filtration).stats
    for r in runs:
        assert r["schema"] == "zzpers.bench/4"
        assert set(r) == BENCH_KEYS and set(r["seconds"]) == BENCH_SECONDS
        assert all(v >= 0 for v in r["seconds"].values())
        assert (r["file"], r["m"], r["stats"]) == (small_file, 4, stats)
        assert r["peak_rss_mb"] > 0 and r["cpus"] >= 1 and r["python"] == platform.python_version()
        # a high-water mark read after the parse and each phase in turn, then after formatting
        peaks = [r["phase_peak_rss_mb"][phase] for phase in PHASES]
        assert list(r["phase_peak_rss_mb"]) == PHASES
        assert 0 < peaks[0] and peaks == sorted(peaks) and peaks[-1] <= r["peak_rss_mb"]


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_refuses_fewer_than_one_run(small_file, capsys, repeat):
    assert main(["bench", small_file, "--repeat", repeat]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --repeat must be at least 1, got {repeat}\n"


def _schema_tagged(node):
    """Every object with a `schema` key in a parsed JSON document."""
    if isinstance(node, dict):
        if "schema" in node:
            yield node
            return
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _schema_tagged(child)


def test_committed_bench_runs_follow_the_schema():
    stats = set(compute_zigzag(parse_filtration(SMALL).filtration).stats)
    counts = {}
    for path in sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json")):
        runs = list(_schema_tagged(json.loads(path.read_text())))
        counts[path.name] = len(runs)
        for r in runs:
            assert set(r) == SCHEMA_KEYS[r["schema"]], path.name
            assert set(r["seconds"]) == BENCH_SECONDS, path.name
            old = r["schema"] in ("zzpers.bench/1", "zzpers.bench/2")
            assert set(r["stats"]) == stats - ({"union_find_pairs"} if old else set()), path.name
            if r["schema"] != "zzpers.bench/1":
                assert list(r["phase_peak_rss_mb"]) == SCHEMA_PHASES[r["schema"]], path.name
    # BENCH_main.json's runs, the parent and change runs of BENCH_padding.json and
    # BENCH_coboundary_by_dim.json (three inputs, three runs each), of
    # BENCH_dim0_union_find.json (four inputs, three runs each) and of
    # BENCH_remap_table.json, BENCH_parse_ids.json, BENCH_lazy_events.json and
    # BENCH_parse_tuples.json (four inputs, and the largest again in swapped order)
    assert counts["BENCH_main.json"] and counts["BENCH_padding.json"] == 18
    assert counts["BENCH_coboundary_by_dim.json"] == 18
    assert counts["BENCH_dim0_union_find.json"] == 24
    assert counts["BENCH_remap_table.json"] == counts["BENCH_parse_ids.json"] == 30
    assert counts["BENCH_lazy_events.json"] == counts["BENCH_parse_tuples.json"] == 30


# one file run three times, and three files run once each; the ids are the ones
# these cases had when bench had a CSV and a JSON format
@pytest.mark.parametrize("files, repeat", [(1, "3"), (3, "1")], ids=["fmt0", "fmt1"])
def test_bench_frees_each_result_before_the_next_run(
    small_file, monkeypatch, capsys, files, repeat
):
    previous, children = [], []

    def compute_after_the_last_result_is_gone(f):
        assert not previous or previous[-1]() is None
        result = compute_zigzag(f)
        previous.append(weakref.ref(result))
        return result

    def child_run_here(argv, **kwargs):  # each file of several goes to a child: run it here
        assert argv[:3] == [sys.executable, "-m", "zzpers.cli"]
        children.append(argv[3:])
        return subprocess.CompletedProcess(argv, main(argv[3:]), "", "")

    monkeypatch.setattr(cli, "compute_zigzag", compute_after_the_last_result_is_gone)
    monkeypatch.setattr(subprocess, "run", child_run_here)
    assert main(["bench", *[small_file] * files, "--repeat", repeat]) == 0
    assert len(previous) == 3
    assert children == ([] if files == 1 else [["bench", small_file, "--repeat", "1"]] * 3)


def test_bench_reads_each_file_of_several_with_its_own_peak(tmp_path):
    """A 60x60 swept torus, then the 10x10 one (io.generate, axis x, 3a^2
    switches, seed 8): each file runs in its own process, so the second
    reads its own, lower, peak and not the first's."""
    paths = []
    for a in (60, 10):
        verts, faces = torus_mesh_points(a, a)
        paths.append(tmp_path / f"torus{a}.zz")
        paths[-1].write_text(
            format_filtration(generate(OffMesh(tuple(verts), tuple(faces)), "x", 3 * a * a, 8)))
    proc = subprocess.run([sys.executable, "-m", "zzpers.cli", "bench", *map(str, paths),
                           "--repeat", "2"], capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["file"], r["m"], r["run"]) for r in runs] == [
        (str(paths[0]), 43200, 0), (str(paths[0]), 43200, 1),
        (str(paths[1]), 1200, 0), (str(paths[1]), 1200, 1)]
    big, small = runs[1], runs[2]
    assert small["peak_rss_mb"] < big["peak_rss_mb"]
    assert small["phase_peak_rss_mb"]["parse"] < big["phase_peak_rss_mb"]["parse"]


def test_bench_of_several_files_returns_the_first_failure_after_running_them_all(
    small_file, tmp_path, capsys
):
    bad = tmp_path / "bad.zz"
    bad.write_text(INVALID)
    repetitive = tmp_path / "repetitive.zz"
    repetitive.write_text(REPETITIVE)
    assert main(["bench", str(bad), small_file, str(repetitive)]) == 2
    captured = capsys.readouterr()
    assert [json.loads(line)["file"] for line in captured.out.splitlines()] == [small_file]
    assert captured.err.count("error: ") == 2 and captured.err.startswith("error: ")


def test_bench_peak_rss_is_its_own_under_a_large_parent(small_file):
    """A parent that has touched 256 MB starts `zzpers bench`. On Linux the
    parent's peak reaches the child's ru_maxrss across exec; the run must
    report the child's own peak."""
    parent = (
        "import subprocess, sys\n"
        "held = b'x' * (256 << 20)\n"
        "out = subprocess.run([sys.executable, '-m', 'zzpers.cli', 'bench', sys.argv[1]],\n"
        "                     capture_output=True, text=True, check=True).stdout\n"
        "print(out, end='')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", parent, small_file], capture_output=True, text=True, check=True
    )
    run = json.loads(proc.stdout.splitlines()[0])
    assert 0 < run["peak_rss_mb"] < 128


def test_compute_under_a_memory_cap_ends_in_one_line_and_exit_code_5(tmp_path):
    """The child caps its own address space (RLIMIT_AS, for that process
    only) at its size after start-up plus a margin the run outgrows: a
    60x60 swept torus grows it by about 11 MB, past 3 MB in the parse and
    past 7 MB in the solve. A run stuck past the timeout fails the test."""
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("no procfs to read the child's own size from")
    path = tmp_path / "torus.zz"
    verts, faces = torus_mesh_points(60, 60)
    path.write_text(format_filtration(generate(OffMesh(tuple(verts), tuple(faces)), "x", 180, 8)))
    child = (
        "import resource, sys\n"
        "from zzpers.cli import main\n"
        "margin = int(sys.argv[2]) << 20\n"
        "if margin:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith('VmSize:'))\n"
        "    resource.setrlimit(resource.RLIMIT_AS, ((kb << 10) + margin,) * 2)\n"
        "sys.exit(main(['compute', sys.argv[1], '--out', sys.argv[3]]))\n"
    )
    runs = {}
    for mb in (0, 3, 7):  # no cap, then two caps the run outgrows at different points
        proc = subprocess.run([sys.executable, "-c", child, str(path), str(mb),
                               str(tmp_path / "out.zzb")], capture_output=True, text=True,
                              timeout=60)
        runs[mb] = proc.returncode, proc.stdout, proc.stderr
    assert runs[0] == (0, "", "")
    assert runs[3] == runs[7] == (5, "", "error: out of memory\n")


def test_importing_the_package_and_cli_loads_none_of_the_slow_modules():
    # a fresh isolated interpreter; what it loaded before the import (site's) does not count
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import zzpers, zzpers.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    loaded = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "zzpers.cli" in loaded
    assert not {"dataclasses", "inspect", "json", "platform", "subprocess", "zzpers.oracle",
                "zzpers.z2"} & set(loaded)


EDGE = "zzfilt v1\na 0\na 1\na 0 1\nd 0 1\nd 0\nd 1\n"


def test_compute_stats_flag(tmp_path, capsys):
    path = tmp_path / "edge.zz"
    path.write_text(EDGE)
    assert main(["compute", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["compute", str(path), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("zzbar v1 m=6")
    lines = captured.err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["schema"] == "zzpers.bench/4"
    assert set(record) == BENCH_KEYS and set(record["seconds"]) == BENCH_SECONDS
    assert (record["file"], record["m"], record["run"]) == (str(path), 6, 0)
    stats = record["stats"]
    # columns: the apex 0, the up columns 1, 2, 3 of 0, 1 and {0,1}, and the cones 4, 5,
    # 6 over 1, 0 and {0,1}. Dimension 0 goes by union-find: edge 3 joins vertices 2 and
    # 1, pairing the younger, 2; cone 4 joins 1 to the apex, pairing 1; cone 5 over 0
    # closes a cycle. The rest are reduced as coboundaries by increasing simplex
    # dimension: of the edge-dimension columns, 3 and 4 are cleared (dimension 0's
    # deaths) and 5 (cofaces: cone 6) pairs at once; cone 6 is cleared in its turn
    assert (stats["columns"], stats["pairs"], stats["cleared_columns"]) == (4, 1, 3)
    assert (stats["pivots_without_addition"], stats["column_additions"]) == (1, 0)
    assert (stats["max_column_additions"], stats["masks_kept"]) == (0, 0)
    assert stats["union_find_pairs"] == 2
    assert set(stats) == {
        "columns", "cleared_columns", "pairs", "pivots_without_addition",
        "column_additions", "max_column_additions", "masks_kept", "union_find_pairs",
    }


def test_compute_stats_and_bench_print_the_same_record(tmp_path, capsys):
    path = tmp_path / "edge.zz"
    path.write_text(EDGE)
    assert main(["compute", str(path), "--stats"]) == 0
    computed = json.loads(capsys.readouterr().err)
    assert main(["bench", str(path), "--repeat", "2"]) == 0
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(runs) == 2

    def fixed(record):  # all but the run's index and its measurements
        return {k: v for k, v in record.items() if k not in ("run", "seconds", "peak_rss_mb")}

    for run in runs:
        assert set(run) == set(computed) and set(run["seconds"]) == set(computed["seconds"])
        assert fixed(run) == fixed(computed)


def test_duality_malformed_barcode_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.zzb"
    path.write_text("zzbar v1 m=3 kind=abs\n0 2 1 cc\n")
    assert main(["duality", str(path)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["compute", "/nonexistent/file.zz"]) == 2


EDGE = "zzfilt v1\na 0\na 1\na 0 1\nd 0 1\nd 0\nd 1\n"
TETRAHEDRON = "zzfilt v1\n" + "".join(
    f"a {' '.join(map(str, s))}\n" for q in range(1, 5) for s in combinations(range(4), q)
) + "".join(f"d {' '.join(map(str, s))}\n" for q in range(4, 0, -1)
            for s in combinations(range(4), q))
# a triangle's boundary with a pendant edge at vertex 2
PENDANT = "zzfilt v1\n" + "".join(
    f"a {s}\n" for s in ("0", "1", "2", "3", "0 1", "0 2", "1 2", "2 3")
) + "".join(f"d {s}\n" for s in ("2 3", "0 1", "0 2", "1 2", "0", "1", "2", "3"))
THREE_VERTICES = "zzfilt v1\na 0\na 1\na 2\na 0 1\nd 0 1\nd 0\nd 1\nd 2\n"


def _closure(complex_text, names):
    """The complex that the lines of a complex file close to, in a filtration's vertex names."""
    ids = {nm: i for i, nm in enumerate(names)}
    return SimplicialComplex.closure(
        [Simplex(ids[t] for t in line.split()) for line in complex_text.splitlines()])


# the texts and exit codes of the Simplex-keyed dual-graph route, which the walk
# on the sweep's ids keeps: each check in its order, naming the first offender in K's order
@pytest.mark.parametrize("text, p, complex_text, code, message", [
    (EDGE, 0, None, 2, "dual graph needs p >= 1"),
    (EDGE, -1, None, 2, "dual graph needs p >= 1"),
    (EDGE, 5, None, 2, "Simplex(0) is not a face of any 5-simplex"),
    (EDGE, 1, None, 2, "Simplex(0) has 1 cofaces of dimension 1, expected 2"),
    (PENDANT, 1, None, 2, "Simplex(2) has 3 cofaces of dimension 1, expected 2"),
    (TETRAHEDRON, 2, None, 2, "Simplex(0,1,2,3) has dimension 3 > p = 2"),
    (TETRAHEDRON, 3, None, 2, "Simplex(0,1,2) has 1 cofaces of dimension 3, expected 2"),
    (THREE_VERTICES, 2, "0 1 2\n", 2, "filtration does not fill the given complex"),
    ("zzfilt v1\na 0\na 1\na 0 1\n", 1, None, 3, "manifold path needs a standardized filtration"),
    (REPETITIVE, 1, None, 2, "Simplex(0) has 0 cofaces of dimension 1, expected 2"),
    (REPETITIVE, 0, None, 2, "dual graph needs p >= 1"),
], ids=["p0", "p-1", "p5", "p1", "pendant", "dim-above-p", "one-coface", "not-filled",
        "not-standardized", "repetitive-p1", "repetitive-p0"])
def test_manifold_refusals_keep_their_texts(text, p, complex_text, code, message, tmp_path,
                                            capsys):
    path = tmp_path / "f.zz"
    path.write_text(text)
    parsed = parse_filtration(text)
    K, options = parsed.filtration.total_complex(), ["--p", str(p)]
    if complex_text is not None:
        cx = tmp_path / "k.cx"
        cx.write_text(complex_text)
        K, options = _closure(complex_text, parsed.names), [*options, "--complex", str(cx)]
    for recover in ([], ["--recover"]):
        assert main(["manifold", str(path), *options, *recover]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
    raised = []  # a repetitive f is refused only after these checks, by every entry alike
    for call in (relative_top_barcode, manifold_absolute_barcode):
        with pytest.raises(ZigzagError) as err:
            call(parsed.filtration, K, p)
        assert str(err.value) == message and err.value.exit_code == code
        raised.append(type(err.value))
    assert raised[0] is raised[1]


def _manifold_refusal(f, K, p):
    """Exit code and error line of the manifold path on f and K."""
    with pytest.raises(ZigzagError) as err:
        relative_top_barcode(f, K, p)
    return err.value.exit_code, f"error: {err.value}\n"


def _torus_10_text():
    verts, faces = torus_mesh_points(10, 10)
    return format_filtration(generate(OffMesh(tuple(verts), tuple(faces)), "x", 20, 8))


def _vertices_then_simplex(k):
    """An invalid filtration: k vertices, then the simplex on them without its facets."""
    vertices = [str(v) for v in range(k)]
    return "zzfilt v1\n" + "".join(f"a {v}\n" for v in vertices) + f"a {' '.join(vertices)}\n"


TORUS_10 = _torus_10_text()
NOT_STANDARDIZED_10 = "".join(TORUS_10.splitlines(keepends=True)[:-1])


# a line of k vertices closes to 2^k - 1 simplices: the refusal comes before the closure,
# with the text and exit code of the manifold path on the closed complex (checked up to k = 12)
@pytest.mark.parametrize("text, k, code, message", [
    (TORUS_10, 3, 2, "filtration does not fill the given complex"),
    (TORUS_10, 12, 2, "filtration does not fill the given complex"),
    (TORUS_10, 40, 2, "filtration does not fill the given complex"),
    (NOT_STANDARDIZED_10, 12, 3, "manifold path needs a standardized filtration"),
    (NOT_STANDARDIZED_10, 40, 3, "manifold path needs a standardized filtration"),
    # an invalid f holding the simplex itself: its admission's text
    *[(_vertices_then_simplex(k), k, 2, None) for k in (5, 12, 30)],
], ids=["torus-3", "torus-12", "torus-40", "not-standardized-12", "not-standardized-40",
        "invalid-5", "invalid-12", "invalid-30"])
def test_manifold_complex_refuses_a_large_simplex_before_closing_it(text, k, code, message,
                                                                   tmp_path, capsys):
    path, cx = tmp_path / "f.zz", tmp_path / "k.cx"
    path.write_text(text)
    cx.write_text(" ".join(map(str, range(k))) + "\n")
    parsed = parse_filtration(text)
    if message is None:
        with pytest.raises(ZigzagError) as err:
            compute_zigzag(parsed.filtration)
        message = str(err.value)
    want = (code, f"error: {message}\n")
    if k <= 12:
        assert _manifold_refusal(parsed.filtration, _closure(cx.read_text(), parsed.names),
                                 2) == want
    for recover in ([], ["--recover"]):
        assert main(["manifold", str(path), "--complex", str(cx), "--p", "2", *recover]) == code
        captured = capsys.readouterr()
        assert (code, captured.err) == want and captured.out == ""


@pytest.mark.parametrize("recover", [[], ["--recover"]], ids=["relative", "recover"])
def test_manifold_complex_sweeps_once(recover, tmp_path, monkeypatch, capsys):
    # the complex file closes along f's record, so f's one admission is the manifold path's
    import zzpers.filtration

    path, cx = tmp_path / "f.zz", tmp_path / "k.cx"
    path.write_text(TORUS_10)
    parsed = parse_filtration(TORUS_10)
    triangles = parsed.filtration.total_complex().of_dim(2)
    cx.write_text("".join(" ".join(parsed.names[v] for v in s.vertices) + "\n" for s in triangles))
    calls = []

    def spy(f, inner=zzpers.filtration._sweep):
        calls.append(f)
        return inner(f)

    monkeypatch.setattr(zzpers.filtration, "_sweep", spy)
    monkeypatch.setattr(cli, "_sweep", spy)
    assert main(["manifold", str(path), "--complex", str(cx), "--p", "2", *recover]) == 0
    assert len(calls) == 1
    given = capsys.readouterr().out
    assert main(["manifold", str(path), "--p", "2", *recover]) == 0
    assert len(calls) == 2 and capsys.readouterr().out == given


def _violations(text, lines):
    """A file and what validate and compute print for it, given its violations."""
    return text, {"validate": ("\n".join(lines) + f"\ninvalid: {len(lines)} violations\n", ""),
                  "compute": ("", f"error: invalid filtration ({len(lines)} violations): "
                                  f"{'; '.join(lines[:5])}\n")}


def _long_line(k):
    """One event adding a k-vertex simplex, none of whose facets the file holds, and the
    violation validate prints for it: five missing facets named, then "..."."""
    facets = map(Simplex, islice(combinations(range(k), k - 1), 5))  # in ascending order
    text = f"zzfilt v1\na {' '.join(map(str, range(k)))}\n"
    named = ", ".join(map(repr, facets))
    return _violations(text, [f"event 0: missing facets of {Simplex(range(k))!r}: {named}, ..."])


def _dangling_path(n):
    """A path of n vertices and n - 1 edges, then every vertex deleted under its edges, and
    the violations validate prints: each deletion names its present coface added last."""
    text = ("zzfilt v1\n" + "".join(f"a {v}\n" for v in range(n))
            + "".join(f"a {v} {v + 1}\n" for v in range(n - 1))
            + "".join(f"d {v}\n" for v in range(n)))
    last = [min(v, n - 2) for v in range(n)]  # the first vertex of each one's last edge
    return _violations(text, [f"event {2 * n - 1 + v}: dangling coface Simplex({a},{a + 1}) of "
                              f"deleted Simplex({v})" for v, a in enumerate(last)])


def _repeated_last_vertex(k):
    """One event adding k vertices, the last one twice, which the parse refuses."""
    refusal = ("", f"error: line 2: duplicate vertex {k - 1} in simplex\n")
    return (f"zzfilt v1\na {' '.join(map(str, range(k)))} {k - 1}\n",
            {"validate": refusal, "compute": refusal})


def _refused_in_bounds(argv, text, err, capsys):
    """Run the CLI on a file it must refuse: exit code 2, the error text err alone, at most
    8x the file's bytes of output, within 5 s."""
    start = time.perf_counter()
    assert main(argv) == 2
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == err
    assert len(captured.out) + len(captured.err) <= 8 * len(text)
    assert elapsed < 5.0


# a refusal costs time and text linear in the file; naming every missing facet, scanning
# every present simplex for a coface, or testing each token against those before it takes
# 8-14 s at the large sizes and prints megabytes
@pytest.mark.parametrize("make, size", [(_long_line, 2000), (_long_line, 8000),
                                        (_dangling_path, 2000), (_dangling_path, 8000),
                                        (_repeated_last_vertex, 8000),
                                        (_repeated_last_vertex, 32000)],
                         ids=["line-2000", "line-8000", "path-2000", "path-8000",
                              "repeat-8000", "repeat-32000"])
@pytest.mark.parametrize("command", ["validate", "compute"])
def test_a_hostile_file_is_refused_in_bounded_time_and_text(make, size, command, tmp_path,
                                                            capsys):
    text, want = make(size)
    path = tmp_path / "f.zz"
    path.write_text(text)
    _refused_in_bounds([command, str(path)], text, want[command], capsys)


_LONG_BARCODE_LINE = "0 " * 200_000  # 400 KB on one line
_M_DIGITS = "9" * 5000  # more digits than int() reads from a string


# the barcode and mesh readers: a body line is echoed once, a count is never trusted
@pytest.mark.parametrize("command, text, error", [
    ("duality", f"zzbar v1 m=4 kind=abs\n{_LONG_BARCODE_LINE}\n",
     f"bad barcode line: {_LONG_BARCODE_LINE.strip()!r}"),
    ("duality", f"zzbar v1 m={_M_DIGITS} kind=abs\n",
     f"bad barcode header: 'zzbar v1 m={_M_DIGITS} kind=abs'"),
    ("generate", "OFF\n1000000000 0 0\n", "truncated or malformed OFF file"),
    ("generate", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n1000000000 0 1 2\n",
     "only triangle faces are supported, got 1000000000-gon"),
    ("generate", "OFF\n200001 0 0\n" + "0 0 0\n" * 200_000, "truncated or malformed OFF file"),
], ids=["barcode-long-line", "barcode-long-m", "off-huge-count", "off-huge-face",
        "off-600k-tokens"])
def test_a_hostile_barcode_or_mesh_is_refused_in_bounded_time_and_text(command, text, error,
                                                                       tmp_path, capsys):
    path = tmp_path / "input"
    path.write_text(text)
    argv = ["duality", str(path)] if command == "duality" else ["generate", "--mesh", str(path)]
    _refused_in_bounds(argv, text, ("", f"error: {error}\n"), capsys)


def _relative_then_recovered(f, K, p):
    """Exit code, output and error of the two public calls `manifold --recover` makes in
    turn: relative_top_barcode, then recover_absolute_from_relative of its barcode."""
    try:
        rel = relative_top_barcode(f, K, p)
        return 0, rel.to_text() + recover_absolute_from_relative(rel, f, K, p).to_text(), ""
    except ZigzagError as exc:
        return exc.exit_code, "", f"error: {exc}\n"


def _swept_torus_text():
    verts, faces = torus_mesh_points(4, 3)
    return format_filtration(generate(OffMesh(tuple(verts), tuple(faces)), "x", 40, 5))


REPEATED_VERTEX = "a 0\nd 0\n"  # a standardized f stays standardized and becomes repetitive
WEDGE = random_nonrepetitive(SplitMix64(3), sorted(octahedra_wedge().simplex_set()))


@pytest.mark.parametrize("text, p", [
    (_swept_torus_text(), 2),
    (format_filtration(WEDGE), 2),
    (_swept_torus_text() + REPEATED_VERTEX, 2),
    (PENDANT + REPEATED_VERTEX, 1),
    (EDGE, 1),
    ("zzfilt v1\na 0\nd 0\nd 0\n", 1),
], ids=["torus", "pseudomanifold", "repetitive", "repetitive-non-manifold", "non-manifold",
        "invalid"])
def test_manifold_recover_admits_once_as_the_two_public_calls(text, p, tmp_path, capsys,
                                                               monkeypatch):
    import zzpers.filtration
    from zzpers import manifold

    path = tmp_path / "f.zz"
    path.write_text(text)
    f = parse_filtration(text).filtration
    want = _relative_then_recovered(f, f.total_complex(), p)
    calls, passes = [], []

    def spy(g, inner=zzpers.filtration._sweep):
        calls.append(g)
        return inner(g)

    def passes_spy(*args, inner=manifold._top_fields):
        passes.append("passes")
        return inner(*args)

    def walk_spy(*args, inner=manifold._copies):
        passes.append("walk")
        return inner(*args)

    monkeypatch.setattr(zzpers.filtration, "_sweep", spy)
    monkeypatch.setattr(manifold, "_top_fields", passes_spy)
    monkeypatch.setattr(manifold, "_copies", walk_spy)
    code = main(["manifold", str(path), "--p", str(p), "--recover"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == want
    assert len(calls) == 1
    # an admitted f is paired once, by the passes; a refused f, the repetitive one
    # too, is neither paired nor walked
    assert passes == (["passes"] if code == 0 else [])


def test_manifold_of_the_empty_file_is_the_empty_relative_barcode(tmp_path, capsys):
    path = tmp_path / "empty.zz"
    path.write_text("zzfilt v1\n")
    assert main(["manifold", str(path), "--p", "2"]) == 0
    assert capsys.readouterr().out == "zzbar v1 m=0 kind=rel\n"


NOT_UTF8 = b"zzfilt v1\na 0\n\xff\n"


@pytest.mark.parametrize("argv", [
    ["validate", "{bad}"],
    ["compute", "{bad}"],
    ["convert", "{bad}", "--to", "updown"],
    ["oracle", "{bad}"],
    ["bench", "{bad}"],
    ["manifold", "{bad}", "--p", "1"],
    ["manifold", "{edge}", "--p", "1", "--complex", "{bad}"],
    ["duality", "{bad}"],
    ["generate", "--mesh", "{bad}"],
], ids=["validate", "compute", "convert", "oracle", "bench", "manifold", "manifold-complex",
        "duality", "generate-mesh"])
def test_a_file_that_is_not_utf8_is_invalid_input(argv, tmp_path, capsys):
    bad, edge = tmp_path / "bad.txt", tmp_path / "edge.zz"
    bad.write_bytes(NOT_UTF8)
    edge.write_text(EDGE)
    assert main([a.format(bad=bad, edge=edge) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad} is not UTF-8 text: invalid start byte at byte 14\n"
