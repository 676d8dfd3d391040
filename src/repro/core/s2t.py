"""S2T-Clustering — the two-phase pipeline of the paper (§II.A).

Phase 1, NaTS: voting (``core.voting``) then segmentation
(``core.segmentation``), which cuts each trajectory and assembles its
sub-trajectory rows (``core.subtraj``) in one pass: once per trajectory
partition in a Spark job, over the whole frame in the driver process.
Phase 2, SaCO: sampling (``core.sampling``), greedy clustering with
outlier isolation (``core.clustering``); it runs on the driver over the
sub-trajectory table, with one distance matrix, for either engine.

:func:`s2t_clustering` orchestrates the phases over a points frame and
returns everything downstream consumers need: votes, sub-trajectories
(as a frame and as the driver-side table sampling ran on),
representatives, cluster assignment and the run's trace, whose phase
spans give the timing breakdown (:class:`S2TResult`).  The input
type picks the engine of the NaTS phase; both run the same kernels:

- a Spark DataFrame runs it as Spark jobs (voting as one broadcast
  index join, a ``mapInPandas`` over the segments' own partitions;
  ``mod.model.by_trajectory`` per trajectory partition for segments and
  segmentation), caching and forcing each intermediate so
  per-phase wall times are real (Table C reports them), then collects
  the sub-trajectory table for SaCO, from which :func:`point_labels`
  labels the points.  The batch paths use it: a whole MOD, the QuT
  baseline;
- a pandas frame runs it in the driver process.  Every
  ReTraTree run uses it: the bulk load's chunks, the QuT boundary slabs
  and the outlier re-clusters hold a few thousand to a few tens of
  thousands of points each, where a Spark run would cost ~20 jobs of
  fixed overhead for little work.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.clustering import OUTLIER, assign_clusters
from repro.core.sampling import Representative, sample_representatives
from repro.core.segmentation import segment_trajectories
from repro.core.subtraj import subtrajs_to_pandas
from repro.core.voting import vote_segments
from repro.mod.model import explode_polylines, points_to_segments
from repro.trace import Span, count, span


@dataclass
class S2TParams:
    """All knobs of the pipeline, with the QUT-parameter mapping noted.

    ``sigma`` — voting kernel bandwidth (km);
    ``cutoff`` — voting spatial cutoff, default 3*sigma;
    ``min_len``/``lam``/``max_gap`` — segmentation knobs;
    ``eps`` — clustering radius / sampling similarity bandwidth,
        default 3*sigma (QUT ``delta``);
    ``max_reps``/``min_gain`` — sampling budget and stop threshold;
    ``min_duration`` — minimum sub-trajectory duration in s (QUT ``t``);
    ``min_cluster_size`` — dissolve smaller clusters (QUT ``gamma``);
    ``n_samples``/``min_overlap`` — time-sync distance resolution and
        minimum common-time requirement.

    ``bucket_width`` (s) is not a knob and not a constructor field: no
    S2T path reads it.  Only the benchmark's voting replay
    (``hermesbench/layers.py`` ``replay_voting``) does, to bucket the
    segments it re-votes on the driver.
    """

    sigma: float = 1.0
    cutoff: float | None = None
    bucket_width: ClassVar[float] = 300.0
    min_len: int = 4
    lam: float = 12.0
    max_gap: float = 120.0
    eps: float | None = None
    max_reps: int = 48
    min_gain: float = 0.2
    min_duration: float = 0.0
    min_cluster_size: int = 2
    n_samples: int = 32
    min_overlap: float = 0.0

    @property
    def eps_eff(self) -> float:
        return self.eps if self.eps is not None else 3.0 * self.sigma


@dataclass
class S2TResult:
    """Outputs of one S2T run.  The NaTS frames are of the input's kind
    (Spark DataFrames are cached and materialised); the SaCO outputs are
    driver-side on both engines.

    ``segments`` and ``voted`` — the segments, without and with ``vote``;
    ``subtrajs`` — the sub-trajectory rows (``core.subtraj.SUBTRAJ_SCHEMA``);
    ``sub_pdf`` — the same rows on the driver, sorted by (traj_id,
    subtraj_id), polylines as float64 numpy arrays (``subtrajs_to_pandas``;
    on the in-process engine it is the ``subtrajs`` frame); ``reps`` —
    the sampled representatives; ``clusters`` — pandas (traj_id,
    subtraj_id, cluster_id, dist) in ``sub_pdf``'s row order;
    ``trace`` — the run's ``s2t`` span (``repro.trace``), one child per
    phase, each counting the ``rows`` it made (``segments``, ``voted``,
    ``subtrajs``, ``sub_pdf`` plus the ``reps`` picked, ``clusters``);
    ``timings`` — seconds per phase and ``total``, their sum, from ``trace``.
    """

    segments: DataFrame | pd.DataFrame
    voted: DataFrame | pd.DataFrame
    subtrajs: DataFrame | pd.DataFrame
    sub_pdf: pd.DataFrame
    reps: list[Representative]
    clusters: pd.DataFrame
    trace: Span

    @property
    def timings(self) -> dict[str, float]:
        return self.trace.timings()

    def unpersist(self) -> None:
        for df in (self.segments, self.voted, self.subtrajs):
            if isinstance(df, DataFrame):
                df.unpersist()


def _materialise(df: DataFrame | pd.DataFrame) -> DataFrame | pd.DataFrame:
    """Cache and force a Spark DataFrame (a pandas frame already is), and
    count its ``rows`` into the open phase span."""
    if isinstance(df, DataFrame):
        df = df.cache()
        count("rows", df.count())
    else:
        count("rows", len(df))
    return df


def s2t_clustering(
    points: DataFrame | pd.DataFrame, params: S2TParams | None = None
) -> S2TResult:
    """Run the full S2T-Clustering pipeline on a points frame: as Spark
    jobs for a Spark DataFrame, in the driver process for a pandas frame
    (columns ``traj_id``, ``t``, ``x``, ``y``)."""
    p = params or S2TParams()
    with span("s2t") as trace:
        with span("prepare"):
            segments = _materialise(points_to_segments(points))
        with span("voting"):
            voted = _materialise(vote_segments(segments, sigma=p.sigma, cutoff=p.cutoff))
        with span("segmentation"):
            subtrajs = _materialise(segment_trajectories(
                voted, min_len=p.min_len, lam=p.lam, max_gap=p.max_gap
            ))
        with span("sampling"):
            sub_pdf = subtrajs_to_pandas(subtrajs)
            reps, dist = sample_representatives(
                sub_pdf, eps=p.eps_eff, max_reps=p.max_reps, min_gain=p.min_gain,
                min_duration=p.min_duration, n_samples=p.n_samples,
                min_overlap=p.min_overlap,
            )
            count("rows", len(sub_pdf))
            count("reps", len(reps))
        with span("clustering"):
            clusters = assign_clusters(
                sub_pdf, dist, eps=p.eps_eff, min_cluster_size=p.min_cluster_size
            )
            count("rows", len(clusters))

    return S2TResult(
        segments=segments,
        voted=voted,
        subtrajs=subtrajs,
        sub_pdf=sub_pdf,
        reps=reps,
        clusters=clusters,
        trace=trace,
    )


def point_labels(points: DataFrame, result: S2TResult) -> DataFrame:
    """Per-point cluster labels of a Spark run: points columns +
    ``subtraj_id`` + ``cluster_id``.

    A point inherits the cluster of the sub-trajectory of the segment it
    starts (last point: its trajectory's final sub-trajectory) — the
    labelling the VA map display colour-codes, and the input to the
    Table D quality metrics.  A point lies on the polyline of that
    sub-trajectory and at most on the one before it (as its end), so it
    takes the largest ``subtraj_id`` whose polyline holds its ``t``.
    Points on no polyline (one-point trajectories) are outliers.  The
    labels are made on the driver, from ``sub_pdf``'s exploded polylines
    and ``clusters`` (same row order, sorted, so the last row of a
    ``(traj_id, t)`` has the largest ``subtraj_id``), and shipped once.
    """
    row, ts, _, _ = explode_polylines(result.sub_pdf)
    labels = (result.clusters.iloc[row][["traj_id", "subtraj_id", "cluster_id"]].assign(t=ts)
              .drop_duplicates(["traj_id", "t"], keep="last"))
    # an explicit schema, so an empty table converts too
    labels = points.sparkSession.createDataFrame(
        labels, schema="traj_id long, subtraj_id long, cluster_id long, t double")
    out = points.join(labels, ["traj_id", "t"], "left")
    return out.withColumn(
        "cluster_id", F.coalesce(F.col("cluster_id"), F.lit(OUTLIER))
    )
