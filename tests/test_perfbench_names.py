"""The benchmark harness under perfbench/ reaches into zzpers by name: a name
it imports or reads that no longer resolves would end a benchmark run as a
failure, so every such name is checked here."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _reached_names():
    """(module, name) for each name a perfbench source imports from a zzpers
    module, and for each attribute it reads off such a module by the name it
    was imported as (``zzpers.dual_graph``, ``zio.generate``)."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> the zzpers module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name.split(".")[0] == "zzpers" and "." not in a.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zzpers":
                for a in node.names:
                    found.add((node.module, a.name))
                    modules[a.asname or a.name] = f"{node.module}.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    return found


def _resolves(module, name):
    """Does ``module.name`` resolve, each dotted part an attribute of the one
    before or a submodule it imports (``from zzpers import io``)?"""
    obj, path = None, ""
    for part in (*module.split("."), name):
        path = f"{path}.{part}" if path else part
        if obj is not None and hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(path)
        except ImportError:
            return False
    return True


def test_every_zzpers_name_perfbench_reaches_resolves():
    found = _reached_names()
    # the names of the staged route, checks.py and run_trace are among those found
    assert {
        ("zzpers", "compute_zigzag"), ("zzpers", "build_extended"), ("zzpers", "ADD"),
        ("zzpers", "absolute_to_relative"), ("zzpers.reduction", "extended_from_reduction"),
        ("zzpers", "dual_graph"), ("zzpers", "dual_filtration"), ("zzpers", "zero_dim_zigzag"),
        ("zzpers", "relative_top_barcode"), ("zzpers", "recover_absolute_from_relative"),
        ("zzpers", "zigzag_barcode"), ("zzpers.io", "load_filtration"),
        ("zzpers.io", "generate"),
    } <= found
    missing = sorted(f"{module}.{name}" for module, name in found if not _resolves(module, name))
    assert missing == []


def test_the_guard_sees_a_name_that_is_gone():
    assert not _resolves("zzpers", "no_such_name")
    assert not _resolves("zzpers.no_such_module", "reduce")
