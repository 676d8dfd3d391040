"""Hermes@PostgreSQL SQL facade — "progressive cluster analysis via
simple SQL".

The demo exposes clustering through the MOD engine's SQL interface:

    SELECT QUT(D, Wi, We, tau, delta, t, d, gamma);

This module is the PySpark-side equivalent: a tiny dispatcher that (a)
recognises the ``QUT(...)`` call and routes it through
:func:`repro.core.qut.qut_clustering` to a registered
:class:`~repro.retratree.tree.ReTraTree`, and (b) passes every other
statement to Spark SQL over the registered MOD views, where the "legacy
operands" (trajectory datatype helpers registered as Spark SQL
functions) are available:

- ``seg_length(x1, y1, x2, y2)`` — segment length (km);
- ``seg_speed(t1, x1, y1, t2, x2, y2)`` — segment speed (km/s);
- ``point_dist(x1, y1, x2, y2)`` — Euclidean distance.

``register_dataset`` publishes ``<name>_points`` and ``<name>_segments``
temp views; tests oracle-check the operands against DuckDB SQL.
"""
from __future__ import annotations

import re

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.qut import qut_clustering
from repro.mod.model import points_to_segments
from repro.retratree.tree import QuTResult, ReTraTree

_QUT_RE = re.compile(
    r"^\s*select\s+qut\s*\(\s*'?(?P<d>\w+)'?\s*,\s*(?P<args>[^)]*)\)\s*;?\s*$",
    re.IGNORECASE,
)


class Hermes:
    """The MOD engine facade: datasets, indexes and the SQL entry point."""

    def __init__(self, spark: SparkSession):
        self.spark = spark
        self.datasets: dict[str, DataFrame] = {}
        self.trees: dict[str, ReTraTree] = {}
        self._register_operands()

    # ------------------------------------------------------------- datatypes
    def _register_operands(self) -> None:
        def dist(x1, y1, x2, y2):
            return float(((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5)

        for name in ("seg_length", "point_dist"):
            self.spark.udf.register(name, dist, "double")
        self.spark.udf.register(
            "seg_speed",
            lambda t1, x1, y1, t2, x2, y2: dist(x1, y1, x2, y2) / (t2 - t1) if t2 > t1 else 0.0,
            "double",
        )

    # --------------------------------------------------------------- catalog
    def register_dataset(self, name: str, points: DataFrame) -> None:
        """Publish a MOD as ``<name>_points`` / ``<name>_segments`` views."""
        if not re.fullmatch(r"\w+", name):
            raise ValueError("dataset names must be word characters only")
        self.datasets[name] = points
        points.createOrReplaceTempView(f"{name}_points")
        points_to_segments(points).createOrReplaceTempView(f"{name}_segments")

    def attach_index(self, name: str, tree: ReTraTree) -> None:
        """Attach a built ReTraTree so ``QUT('<name>', ...)`` can run."""
        if name not in self.datasets:
            raise KeyError(f"unknown dataset {name!r}; register_dataset first")
        self.trees[name] = tree

    # ------------------------------------------------------------------- SQL
    def sql(self, query: str):
        """Execute SQL.  ``SELECT QUT(...)`` routes to QuT-Clustering and
        returns a :class:`QuTResult`; anything else returns a Spark
        DataFrame from ``spark.sql``."""
        m = _QUT_RE.match(query)
        if not m:
            return self.spark.sql(query)
        return self._run_qut(m.group("d"), m.group("args"))

    def _run_qut(self, dataset: str, argstr: str) -> QuTResult:
        """Parameter order per the paper: QUT(D, Wi, We, tau, delta, t, d, gamma).

        Parses the arguments and calls :func:`qut_clustering`, which maps
        them: ``delta``/``t``/``gamma`` override the S2T parameters used
        for boundary re-clustering and ``d`` is the cross-chunk merge
        distance.  ``tau`` is the attached ReTraTree's build/insert-time
        re-cluster threshold; the query does not change it.
        """
        if dataset not in self.trees:
            raise KeyError(f"no ReTraTree attached for dataset {dataset!r}")
        args = [a.strip() for a in argstr.split(",") if a.strip()]
        if len(args) != 7:
            raise ValueError(
                "QUT expects 8 arguments: D, Wi, We, tau, delta, t, d, gamma"
            )
        wi, we, tau, delta, t_min, d_merge, gamma = (float(a) for a in args)
        return qut_clustering(self.trees[dataset], wi, we, tau=int(tau), delta=delta,
                              t=t_min, d=d_merge, gamma=int(gamma))

