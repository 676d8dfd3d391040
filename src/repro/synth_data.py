"""Synthetic Moving Object Databases at a configurable scale factor.

The generator itself lives in :mod:`repro.mod.generator`; these are its
entry points as a Spark or a pandas frame.  Tests use SF<=0.01;
benchmarks use SF~=0.1.  Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def trajectories(spark: SparkSession, *, sf: float = 0.01, seed: int = 0, **overrides) -> DataFrame:
    """Synthetic Moving Object Database at a scale factor (paper substrate).

    Substitution for the paper's real aircraft MOD (see DESIGN.md):
    route corridors, temporally co-moving planted groups, multi-leg
    objects and random-walk outliers.  Columns:
    ``obj_id, traj_id, t, x, y, gt_label`` (gt_label = planted group id,
    -1 for noise).  Deterministic in ``seed``; ``overrides`` are passed
    through to :class:`repro.mod.generator.MODConfig`.
    """
    from repro.mod.generator import generate_mod, mod_config_for_sf
    from repro.mod.model import make_points_df

    cfg = mod_config_for_sf(sf, seed=seed, **overrides)
    return make_points_df(spark, generate_mod(cfg))


def trajectories_pdf(*, sf: float = 0.01, seed: int = 0, **overrides) -> pd.DataFrame:
    """Pandas variant of :func:`trajectories` (for the DuckDB oracle side)."""
    from repro.mod.generator import generate_mod, mod_config_for_sf

    return generate_mod(mod_config_for_sf(sf, seed=seed, **overrides))
