"""Sanity of the provided substrate: the DuckDB oracle catches wrong
results, and the trajectory generator is deterministic and well-typed."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.oracle import assert_equivalent

_PER_LABEL = "SELECT gt_label, count(*) AS n, max(t) AS t_max FROM mod GROUP BY gt_label"


# ------------------------------------------------------------------- oracle
def test_oracle_accepts_identical_aggregation(mod_points, mod_pdf):
    got = mod_points.groupBy("gt_label").agg(
        F.count(F.lit(1)).alias("n"), F.max("t").alias("t_max")
    )
    assert_equivalent(got, _PER_LABEL, mod=mod_pdf)


def test_oracle_rejects_wrong_result(mod_points, mod_pdf):
    wrong = mod_points.groupBy("gt_label").agg(
        (F.count(F.lit(1)) + 1).alias("n"), F.max("t").alias("t_max")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, _PER_LABEL, mod=mod_pdf)


def test_oracle_rejects_column_mismatch(mod_points, mod_pdf):
    got = mod_points.groupBy("gt_label").agg(
        F.count(F.lit(1)).alias("n_points"), F.max("t").alias("t_max")
    )
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, _PER_LABEL, mod=mod_pdf)


# ------------------------------------------------------- trajectory generator
def test_trajectories_deterministic(spark):
    a = synth_data.trajectories(spark, sf=0.01, seed=0).toPandas()
    b = synth_data.trajectories(spark, sf=0.01, seed=0).toPandas()
    pd.testing.assert_frame_equal(
        a.sort_values(["traj_id", "t"]).reset_index(drop=True),
        b.sort_values(["traj_id", "t"]).reset_index(drop=True),
    )


def test_trajectories_pdf_matches_spark(spark, mod_points, mod_pdf):
    got = mod_points.toPandas().sort_values(["traj_id", "t"]).reset_index(drop=True)
    exp = mod_pdf.sort_values(["traj_id", "t"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_trajectories_schema(mod_points):
    assert set(mod_points.columns) == {"obj_id", "traj_id", "t", "x", "y", "gt_label"}
    dtypes = dict(mod_points.dtypes)
    assert dtypes["traj_id"] == "bigint"
    assert dtypes["t"] == "double"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trajectories_seed_changes_data(spark, seed):
    a = synth_data.trajectories(spark, sf=0.01, seed=seed).toPandas()
    b = synth_data.trajectories(spark, sf=0.01, seed=seed + 100).toPandas()
    assert not a[["x", "y"]].head(50).equals(b[["x", "y"]].head(50))


@pytest.mark.parametrize("sf_lo,sf_hi", [(0.01, 0.02), (0.02, 0.05), (0.05, 0.1)])
def test_sf_scaling_monotone(sf_lo, sf_hi):
    lo = synth_data.trajectories_pdf(sf=sf_lo, seed=0)
    hi = synth_data.trajectories_pdf(sf=sf_hi, seed=0)
    assert len(hi) > len(lo)
    assert hi["traj_id"].nunique() > lo["traj_id"].nunique()


def test_time_strictly_increasing_per_trajectory(mod_pdf):
    for _, g in mod_pdf.groupby("traj_id"):
        assert (np.diff(g.sort_values("t")["t"].to_numpy()) > 0).all()


def test_ground_truth_labels_present(mod_pdf):
    labs = set(mod_pdf["gt_label"].unique())
    assert -1 in labs  # planted noise
    assert len([l for l in labs if l >= 0]) >= 2  # planted groups
