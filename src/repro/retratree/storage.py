"""ReTraTree level 4 — disk partitions of member rows.

Mirrors Fig. 2 of the paper: "trajectories assigned to an existing
representative trajectory are archived on disk in dedicated R-tree
indexed partitions (called 'pg3D-Rtree-k'); outlier trajectories are
organized on disk in a separate partition".

One directory per (chunk, partition-name) holding only ``data.parquet``:
the member sub-trajectory rows (polylines as list columns, written with
pyarrow).  A partition's pg3D-Rtree is derived state — a function of its
rows — so it is not stored: :meth:`PartitionStore.read_rtree` STR-bulk-
loads it over the members' 3D bounding boxes on demand.

Partition contents are small (one representative's members within one
temporal chunk), so pandas-level IO is the faithful cost model — in
Hermes these are single-relation scans inside the DBMS process.
Reads and writes count partitions and rows (``partitions_read``, ``rows_read``,
``partitions_written``, ``rows_written``) into the open span (``repro.trace``).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

from repro.index.rtree3d import Rtree3D
from repro.trace import count

#: Canonical member-row columns stored in every partition.
MEMBER_COLS = [
    "traj_id", "subtraj_id", "t_start", "t_end", "sum_vote", "ts", "xs", "ys",
]

OUTLIER_PARTITION = "outliers"


@dataclass
class PartitionMeta:
    """Directory-entry stats for one on-disk partition."""

    chunk_id: int
    name: str
    path: str
    n_members: int
    t_min: float
    t_max: float


class PartitionStore:
    """Filesystem layout + IO for level-4 partitions.

    Layout: ``<root>/chunk=<id>/<name>/data.parquet`` with ``<name>``
    either ``rep-<k>`` or ``outliers``.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dir(self, chunk_id: int, name: str) -> Path:
        return self.root / f"chunk={chunk_id}" / name

    # ------------------------------------------------------------------ write
    def write(self, chunk_id: int, name: str, members: pd.DataFrame) -> PartitionMeta:
        """(Over)write a partition's Parquet rows."""
        d = self._dir(chunk_id, name)
        d.mkdir(parents=True, exist_ok=True)
        members = members[MEMBER_COLS].reset_index(drop=True)
        members.to_parquet(d / "data.parquet", engine="pyarrow", index=False)
        count("partitions_written")
        count("rows_written", len(members))
        return self._meta(chunk_id, name, members)

    def append(self, chunk_id: int, name: str, members: pd.DataFrame) -> PartitionMeta:
        """Append member rows (read-modify-write; partitions are small, and
        :meth:`ReTraTree.insert` appends once per touched partition)."""
        if self.exists(chunk_id, name):
            cur = self.read(chunk_id, name)
            members = pd.concat([cur, members[MEMBER_COLS]], ignore_index=True)
        return self.write(chunk_id, name, members)

    # ------------------------------------------------------------------- read
    def exists(self, chunk_id: int, name: str) -> bool:
        return (self._dir(chunk_id, name) / "data.parquet").exists()

    def read(self, chunk_id: int, name: str) -> pd.DataFrame:
        """The partition's rows; pyarrow returns each polyline as a
        float64 numpy array."""
        pdf = pd.read_parquet(self._dir(chunk_id, name) / "data.parquet", engine="pyarrow")
        count("partitions_read")
        count("rows_read", len(pdf))
        return pdf

    def read_rtree(self, chunk_id: int, name: str) -> Rtree3D:
        """The partition's pg3D-Rtree, bulk-loaded from its rows; entry ids
        are row positions in :meth:`read`'s frame."""
        return self._build_rtree(self.read(chunk_id, name))

    def list_partitions(self, chunk_id: int) -> list[str]:
        cd = self.root / f"chunk={chunk_id}"
        if not cd.exists():
            return []
        return sorted(p.name for p in cd.iterdir() if (p / "data.parquet").exists())

    # ------------------------------------------------------------------ misc
    @staticmethod
    def _build_rtree(members: pd.DataFrame) -> Rtree3D:
        if len(members) == 0:
            return Rtree3D.bulk_load(np.empty((0, 6)))
        boxes = np.stack(
            [
                members["xs"].apply(lambda a: np.min(a)).to_numpy(dtype=np.float64),
                members["ys"].apply(lambda a: np.min(a)).to_numpy(dtype=np.float64),
                members["t_start"].to_numpy(dtype=np.float64),
                members["xs"].apply(lambda a: np.max(a)).to_numpy(dtype=np.float64),
                members["ys"].apply(lambda a: np.max(a)).to_numpy(dtype=np.float64),
                members["t_end"].to_numpy(dtype=np.float64),
            ],
            axis=1,
        )
        return Rtree3D.bulk_load(boxes)

    def _meta(self, chunk_id: int, name: str, members: pd.DataFrame) -> PartitionMeta:
        return PartitionMeta(
            chunk_id=chunk_id,
            name=name,
            path=str(self._dir(chunk_id, name)),
            n_members=len(members),
            t_min=float(members["t_start"].min()) if len(members) else float("nan"),
            t_max=float(members["t_end"].max()) if len(members) else float("nan"),
        )
