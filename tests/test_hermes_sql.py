"""Hermes SQL facade: legacy operands (oracle-checked), dataset/catalog
semantics, and the SELECT QUT(...) entry point."""
from __future__ import annotations

import numpy as np
import pytest

from repro.mod.hermes import Hermes
from repro.oracle import assert_equivalent
from repro.retratree.tree import QuTResult


@pytest.fixture(scope="module")
def hermes(spark, mod_points, retratree):
    h = Hermes(spark)
    h.register_dataset("mod", mod_points)
    h.attach_index("mod", retratree)
    return h


def test_points_view_matches_oracle(hermes, mod_pdf):
    got = hermes.sql(
        "SELECT traj_id, count(*) AS n FROM mod_points GROUP BY traj_id"
    )
    assert_equivalent(
        got, "SELECT traj_id, count(*) AS n FROM pts GROUP BY traj_id", pts=mod_pdf
    )


def test_seg_length_operand_matches_oracle(hermes, mod_pdf):
    got = hermes.sql(
        "SELECT traj_id, seg_id, seg_length(x1, y1, x2, y2) AS len FROM mod_segments"
    )
    assert_equivalent(
        got,
        """
        WITH s AS (
          SELECT traj_id, t AS t1, x AS x1, y AS y1,
                 lead(t) OVER w AS t2, lead(x) OVER w AS x2, lead(y) OVER w AS y2
          FROM pts WINDOW w AS (PARTITION BY traj_id ORDER BY t)
        )
        SELECT traj_id,
               CAST(row_number() OVER (PARTITION BY traj_id ORDER BY t1) - 1 AS BIGINT) AS seg_id,
               sqrt((x2-x1)*(x2-x1) + (y2-y1)*(y2-y1)) AS len
        FROM s WHERE t2 IS NOT NULL AND t2 > t1
        """,
        pts=mod_pdf,
    )


def test_seg_speed_operand(hermes):
    row = hermes.sql(
        "SELECT seg_speed(0.0D, 0.0D, 0.0D, 10.0D, 3.0D, 4.0D) AS v"
    ).first()
    assert row["v"] == pytest.approx(0.5)


def test_point_dist_operand(hermes):
    row = hermes.sql("SELECT point_dist(0.0D, 0.0D, 3.0D, 4.0D) AS d").first()
    assert row["d"] == pytest.approx(5.0)


def test_register_rejects_bad_name(spark, mod_points):
    h = Hermes(spark)
    with pytest.raises(ValueError):
        h.register_dataset("bad name!", mod_points)


def test_attach_requires_dataset(spark, retratree):
    h = Hermes(spark)
    with pytest.raises(KeyError):
        h.attach_index("ghost", retratree)


def test_qut_requires_index(spark, mod_points):
    h = Hermes(spark)
    h.register_dataset("mod", mod_points)
    with pytest.raises(KeyError):
        h.sql("SELECT QUT(mod, 0, 3600, 5, 3.0, 0, 3.0, 2)")


def test_qut_wrong_arity(hermes):
    with pytest.raises(ValueError, match="8 arguments"):
        hermes.sql("SELECT QUT(mod, 0, 3600)")


def test_qut_via_sql_runs(hermes, retratree):
    tau = retratree.tau
    res = hermes.sql(f"SELECT QUT('mod', 900, 6300, {tau + 4}, 3.0, 0, 3.0, 2);")
    assert retratree.tau == tau  # a query leaves the tree's insert-time tau alone
    assert isinstance(res, QuTResult)
    assert len(res.rows) > 0
    assert res.n_full + res.n_partial >= 2


def test_qut_sql_overrides_gamma(hermes):
    """A huge gamma dissolves every boundary cluster into outliers."""
    res = hermes.sql("SELECT QUT('mod', 1000, 2600, 5, 3.0, 0, 3.0, 999)")
    bkeys = [c for c in res.rows["cluster"] if c is not None and c.startswith("b")]
    assert bkeys == []


def test_non_qut_sql_passthrough(hermes, mod_points):
    assert hermes.sql("SELECT count(*) AS n FROM mod_points").first()["n"] == mod_points.count()
