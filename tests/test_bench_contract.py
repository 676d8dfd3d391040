"""The benchmark's hooks into the program still resolve.

``hermesbench/layers.py`` wraps program names by attribute (``patched``)
and groups profiler time by ``(file, function)`` (``KERNEL_GROUPS``).  A
renamed or moved name would break ``run.py --trace 1`` or silently read a
per-layer metric as zero; these checks catch that without starting Spark.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "hermesbench" / "layers.py"
SRC = ROOT / "src" / "repro"


def _imported_names(tree: ast.AST) -> dict[str, object]:
    """Every ``from repro... import name [as alias]`` in the file, resolved."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            mod = importlib.import_module(node.module)
            for a in node.names:
                names[a.asname or a.name] = (
                    getattr(mod, a.name, None)
                    or importlib.import_module(f"{node.module}.{a.name}")
                )
    return names


def _patched_targets() -> list[tuple[str, str]]:
    tree = ast.parse(LAYERS.read_text())
    return [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "patched"
    ]


def _owners() -> dict[str, object]:
    return _imported_names(ast.parse(LAYERS.read_text()))


def test_layers_patches_at_least_the_known_hooks():
    targets = set(_patched_targets())
    assert ("tree_mod", "s2t_clustering") in targets
    assert ("PartitionStore", "_build_rtree") in targets


@pytest.mark.parametrize("owner,name", _patched_targets())
def test_patched_attribute_exists_on_owner(owner, name):
    obj = _owners()[owner]
    assert name in vars(obj), f"layers.py patches {owner}.{name}, which no longer exists"


def _kernel_groups() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return sorted((metric, f, fn) for metric, funcs in layers.KERNEL_GROUPS.items()
                  for f, fn in funcs)


def _defined_functions(path: Path) -> set[str]:
    return {n.name for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}


@pytest.mark.parametrize("metric,fname,func", _kernel_groups())
def test_kernel_group_function_is_defined(metric, fname, func):
    files = list(SRC.rglob(fname))
    assert files, f"{metric}: no {fname} under src/repro"
    assert any(func in _defined_functions(p) for p in files), (
        f"{metric}: {func} is no longer defined in {fname}"
    )
