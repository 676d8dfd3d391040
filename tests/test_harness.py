"""Integration smoke of the Table A-D harnesses at miniature scale —
the same code paths the jobs/ entrypoints and benchmarks execute."""
from __future__ import annotations

import numpy as np
import pytest

from repro.eval.harness import run_table_a, run_table_b, run_table_c, run_table_d
from tests.conftest import TEST_PARAMS


@pytest.mark.slow
def test_table_a_miniature(spark, tmp_path):
    df = run_table_a(
        spark, sf=0.01, seed=0, fractions=(0.5, 1.0), n_chunks=4,
        workdir=str(tmp_path / "rtt"), params=TEST_PARAMS,
    )
    assert list(df["W_frac"]) == [0.5, 1.0, 0.5]
    assert list(df["aligned"]) == [True, True, False]
    assert (df["qut_s"] > 0).all() and (df["baseline_s"] > 0).all()
    assert (df["baseline_inproc_s"] > 0).all()
    assert np.allclose(df["speedup_inproc"], df["baseline_inproc_s"] / df["qut_s"])
    # chunk-aligned windows are answered purely by reuse -> large speedup
    aligned = df[df.aligned]
    assert (aligned["n_partial"] == 0).all()
    full = aligned[aligned.W_frac == 1.0].iloc[0]
    assert full["speedup"] > 2.0
    assert full["parity_ari"] > 0.5
    # the unaligned window pays exactly one boundary re-clustering pass
    assert df[~df.aligned].iloc[0]["n_partial"] >= 1
    assert df.attrs["build_s"] > 0


@pytest.mark.slow
def test_table_b_miniature(spark):
    df = run_table_b(spark, n_objects=(16, 24), seed=0, params=TEST_PARAMS)
    assert (df["max_vote_diff"] < 1e-9).all()   # indexed == naive, always
    assert (df["n_segments"].diff().dropna() > 0).all()
    assert (df["indexed_s"] > 0).all() and (df["naive_s"] > 0).all()


@pytest.mark.slow
def test_table_c_miniature(spark):
    df = run_table_c(spark, sfs=(0.01, 0.02), seed=0, params=TEST_PARAMS)
    assert (df["n_points"].diff().dropna() > 0).all()
    for c in ("voting_s", "segmentation_s", "sampling_s", "clustering_s"):
        assert (df[c] >= 0).all()
    assert np.allclose(
        df["total_s"],
        df[["voting_s", "segmentation_s", "sampling_s", "clustering_s"]].sum(axis=1),
        rtol=0.5,  # total also includes the prepare phase
        atol=10.0,
    )


@pytest.mark.slow
def test_table_d_miniature(spark):
    df = run_table_d(spark, sf=0.01, seed=5, params=TEST_PARAMS)
    assert set(df["method"]) == {"S2T-Clustering", "TRACLUS", "T-OPTICS", "Convoys"}
    s2t = df[df.method == "S2T-Clustering"].iloc[0]
    others = df[df.method != "S2T-Clustering"]
    # the reproduction's headline shape: S2T leads on cluster recovery
    assert s2t["ari_clustered"] >= others["ari_clustered"].max() - 0.05
    assert s2t["purity"] >= 0.8
