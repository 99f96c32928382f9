import csv
import io as stdio
import json
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from zzpers import cli, multiset_equal, oracle_absolute, oracle_relative, validate
from zzpers.cli import main
from zzpers.io import format_filtration, parse_barcode, parse_filtration, write_off
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


def test_bench_csv(small_file, capsys):
    assert main(["bench", small_file, "--repeat", "2"]) == 0
    rows = list(csv.reader(stdio.StringIO(capsys.readouterr().out)))
    assert rows[0] == [
        "file", "m", "run", "parse", "validate", "convert", "reduce", "remap", "total",
        "peak_rss_mb",
    ]
    assert len(rows) == 3
    assert all(float(row[-1]) > 0 for row in rows[1:])


BENCH_KEYS = {"schema", "file", "m", "run", "seconds", "peak_rss_mb", "stats", "python", "cpus"}
BENCH_SECONDS = {"parse", "validate", "convert", "reduce", "remap", "total", "format"}


def test_bench_json(small_file, capsys):
    assert main(["bench", small_file, "--repeat", "2", "--json"]) == 0
    runs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["run"] for r in runs] == [0, 1]
    stats = compute_zigzag(parse_filtration(SMALL).filtration).stats
    for r in runs:
        assert r["schema"] == "zzpers.bench/1"
        assert set(r) == BENCH_KEYS and set(r["seconds"]) == BENCH_SECONDS
        assert all(v >= 0 for v in r["seconds"].values())
        assert (r["file"], r["m"], r["stats"]) == (small_file, 4, stats)
        assert r["peak_rss_mb"] > 0 and r["cpus"] >= 1 and r["python"] == platform.python_version()


def test_committed_bench_runs_follow_the_schema():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCH_main.json").read_text())
    assert doc["runs"]
    for r in doc["runs"]:
        assert r["schema"] == "zzpers.bench/1"
        assert set(r) == BENCH_KEYS and set(r["seconds"]) == BENCH_SECONDS
        assert set(r["stats"]) == set(compute_zigzag(parse_filtration(SMALL).filtration).stats)


@pytest.mark.parametrize("fmt", [[], ["--json"]])
def test_bench_frees_each_result_before_the_next_run(small_file, monkeypatch, capsys, fmt):
    previous = []

    def compute_after_the_last_result_is_gone(f):
        assert not previous or previous[-1]() is None
        result = compute_zigzag(f)
        previous.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "compute_zigzag", compute_after_the_last_result_is_gone)
    assert main(["bench", small_file, "--repeat", "3", *fmt]) == 0
    assert len(previous) == 3


def test_bench_peak_rss_is_its_own_under_a_large_parent(small_file):
    """A parent that has touched 256 MB starts `zzpers bench`. On Linux the
    parent's peak reaches the child's ru_maxrss across exec; the row must
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
    row = list(csv.DictReader(stdio.StringIO(proc.stdout)))[0]
    assert 0 < float(row["peak_rss_mb"]) < 128


def test_compute_stats_flag(tmp_path, capsys):
    path = tmp_path / "edge.zz"
    path.write_text("zzfilt v1\na 0\na 1\na 0 1\nd 0 1\nd 0\nd 1\n")
    assert main(["compute", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["compute", str(path), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("zzbar v1 m=6")
    lines = captured.err.splitlines()
    assert len(lines) == 1
    stats = json.loads(lines[0])
    assert stats["schema"] == "zzpers.stats/2"
    # apex, three up columns, three cones, reduced as coboundaries (column 6 - c is the
    # coboundary of coned column c) by increasing simplex dimension. The coboundary of
    # vertex 1 (up {0,1}, cone over 1) pairs at once; vertex 0's (up {0,1}, cone over 0)
    # collides with it and needs one addition; the apex's (the cones over 0 and 1) then
    # cancels against vertex 0's reduced mask, the only one kept, in one more. Of the
    # edge-dimension columns the cone over 0 pairs at once; {0,1} and the cone over 1
    # are cleared, and so is the cone over {0,1}
    assert (stats["columns"], stats["pairs"], stats["cleared_columns"]) == (7, 3, 3)
    assert (stats["pivots_without_addition"], stats["column_additions"]) == (2, 2)
    assert (stats["max_column_additions"], stats["masks_kept"]) == (1, 1)
    assert set(stats) == {
        "schema", "columns", "cleared_columns", "pairs", "pivots_without_addition",
        "column_additions", "max_column_additions", "masks_kept",
    }


def test_duality_malformed_barcode_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.zzb"
    path.write_text("zzbar v1 m=3 kind=abs\n0 2 1 cc\n")
    assert main(["duality", str(path)]) == 2
    assert "out of range" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["compute", "/nonexistent/file.zz"]) == 2
