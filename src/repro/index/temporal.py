"""Temporal bucketing of segments, kept for the benchmark's voting replay.

No S2T path uses it: voting is one index join over the whole MOD
(``repro.core.voting``).  ``hermesbench/layers.py`` ``replay_voting``
buckets the segments with it (``S2TParams.bucket_width`` wide) and
re-votes each bucket on the driver with the self-join kernel, then
de-duplicates by max per (segment, voter).  Slicing time into buckets
keeps any two temporally-overlapping segments in at least one common
bucket: a segment spanning a boundary is replicated into every bucket it
overlaps (``explode``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def with_time_buckets(segments: DataFrame, bucket_width: float) -> DataFrame:
    """Replicate each segment row into every temporal bucket it overlaps.

    Adds an integer ``bucket`` column; a segment with ``[t1, t2]``
    crossing a boundary appears once per overlapped bucket.  Correct for
    any segment duration (``sequence`` covers multi-bucket spans).
    """
    if bucket_width <= 0:
        raise ValueError("bucket_width must be positive")
    b1 = F.floor(F.col("t1") / F.lit(float(bucket_width)))
    b2 = F.floor(F.col("t2") / F.lit(float(bucket_width)))
    return segments.withColumn("bucket", F.explode(F.sequence(b1, b2)))
