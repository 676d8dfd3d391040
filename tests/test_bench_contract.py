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
import inspect
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "hermesbench" / "layers.py"
WORKLOADS = ROOT / "hermesbench" / "workloads.py"
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


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _kernel_groups() -> list[tuple[str, str, str]]:
    return sorted((metric, f, fn) for metric, funcs in _layers().KERNEL_GROUPS.items()
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


def _build_calls() -> list[ast.Call]:
    return [node for node in ast.walk(ast.parse(WORKLOADS.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "build" and getattr(node.func.value, "id", None) == "ReTraTree"]


def test_build_accepts_the_workload_call_shape():
    """``workloads.py`` calls ``ReTraTree.build(spark, points, root, params,
    chunk_width=...)``; the build no longer uses ``spark`` but must keep
    accepting every call there, argument for argument."""
    from repro.retratree.tree import ReTraTree

    calls = _build_calls()
    assert calls, "workloads.py no longer calls ReTraTree.build"
    sig = inspect.signature(ReTraTree.build)
    for call in calls:
        sig.bind(*(None for _ in call.args), **{kw.arg: None for kw in call.keywords})


def _bundle(n_trajs: int) -> pd.DataFrame:
    """Co-moving trajectories sampled every 10 s, as a pandas points frame."""
    ts = np.arange(30.0) * 10.0
    return pd.concat([
        pd.DataFrame({"traj_id": k, "t": ts, "x": ts * 0.05 + 0.1 * k, "y": 50.0 + 0.1 * k})
        for k in range(n_trajs)
    ], ignore_index=True)


def test_qut_boundary_path_reaches_tree_s2t_clustering(tmp_path, monkeypatch):
    """A window half a chunk off re-clusters its boundary slabs through
    ``tree_mod.s2t_clustering``, the name ``layers.py`` wraps, on the
    in-process engine, whose timings hold every phase
    ``layers.retratree_wrappers`` adds up."""
    from repro.core.s2t import S2TParams
    from repro.retratree import tree as tree_mod
    from repro.retratree.storage import MEMBER_COLS, OUTLIER_PARTITION

    tree = tree_mod.ReTraTree(tmp_path, S2TParams(sigma=1.0), chunk_width=150.0)
    pts = _bundle(4)
    for cid in (0, 1):
        piece = pts[(pts["t"] >= 150.0 * cid) & (pts["t"] < 150.0 * (cid + 1))]
        tree.store.write(cid, OUTLIER_PARTITION, pd.DataFrame([
            {"traj_id": tid, "subtraj_id": 0, "t_start": g["t"].iloc[0],
             "t_end": g["t"].iloc[-1], "sum_vote": 0.0, "ts": g["t"].to_numpy(),
             "xs": g["x"].to_numpy(), "ys": g["y"].to_numpy()}
            for tid, g in piece.groupby("traj_id")
        ], columns=MEMBER_COLS))
        tree._chunk_entry(cid)
    calls, real = [], tree_mod.s2t_clustering

    def counting(points, params):
        res = real(points, params)
        calls.append((type(points), set(res.timings)))
        return res

    monkeypatch.setattr(tree_mod, "s2t_clustering", counting)
    qr = tree.qut(75.0, 225.0)
    assert qr.n_partial == 2 and len(calls) == 1
    kind, timings = calls[0]
    assert kind is pd.DataFrame and set(_layers().S2T_PHASES) | {"total"} <= timings
    assert qr.rows["cluster"].notna().any()
    assert set(qr.rows["traj_id"]) == {0, 1, 2, 3}
