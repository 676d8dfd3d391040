"""ReTraTree level 4 — disk partitions of member rows.

Mirrors Fig. 2 of the paper: "trajectories assigned to an existing
representative trajectory are archived on disk in dedicated R-tree
indexed partitions (called 'pg3D-Rtree-k'); outlier trajectories are
organized on disk in a separate partition".

One directory per (chunk, partition-name) holding only ``data.arrow``:
the member sub-trajectory rows as one record batch of an uncompressed
Arrow IPC file, in :data:`MEMBER_SCHEMA` (polylines as ``list<double>``
columns).  A partition's pg3D-Rtree is derived state — a function of its
rows — so it is not stored: :meth:`PartitionStore.read_rtree` STR-bulk-
loads it over the members' 3D bounding boxes on demand.

Partition contents are small (one representative's members within one
temporal chunk), so whole-file IO is the faithful cost model — in
Hermes these are single-relation scans inside the DBMS process.
Reads and writes count partitions and rows (``partitions_read``, ``rows_read``,
``partitions_written``, ``rows_written``) into the open span (``repro.trace``).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

from repro.index.rtree3d import Rtree3D
from repro.trace import count

#: The Arrow schema of every partition file, empty ones included.
MEMBER_SCHEMA = pa.schema([
    ("traj_id", pa.int64()), ("subtraj_id", pa.int64()),
    ("t_start", pa.float64()), ("t_end", pa.float64()), ("sum_vote", pa.float64()),
    ("ts", pa.list_(pa.float64())), ("xs", pa.list_(pa.float64())),
    ("ys", pa.list_(pa.float64())),
])

#: Canonical member-row columns stored in every partition.
MEMBER_COLS = MEMBER_SCHEMA.names

DATA_FILE = "data.arrow"

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

    Layout: ``<root>/chunk=<id>/<name>/data.arrow`` with ``<name>``
    either ``rep-<k>`` or ``outliers``.  A write goes to a temporary file
    in the partition directory, renamed onto ``data.arrow`` once complete,
    so a failed write leaves the previous rows (or no partition) behind.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _dir(self, chunk_id: int, name: str) -> Path:
        return self.root / f"chunk={chunk_id}" / name

    # ------------------------------------------------------------------ write
    def write(self, chunk_id: int, name: str, members: pd.DataFrame) -> PartitionMeta:
        """(Over)write a partition's rows."""
        d = self._dir(chunk_id, name)
        d.mkdir(parents=True, exist_ok=True)
        batch = _to_batch(members)
        tmp = d / (DATA_FILE + ".tmp")
        try:
            with pa.OSFile(str(tmp), "wb") as f, pa.ipc.new_file(f, MEMBER_SCHEMA) as w:
                w.write_batch(batch)
            os.replace(tmp, d / DATA_FILE)
        finally:
            tmp.unlink(missing_ok=True)
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
        return (self._dir(chunk_id, name) / DATA_FILE).exists()

    def read(self, chunk_id: int, name: str) -> pd.DataFrame:
        """The partition's rows in stored order: int64 ``traj_id`` and
        ``subtraj_id``, float64 ``t_start``, ``t_end`` and ``sum_vote``, and
        each polyline a read-only float64 view of its column's Arrow buffer.

        The file is read into memory, not memory-mapped, so no frame
        depends on the file once ``read`` returns."""
        with pa.OSFile(str(self._dir(chunk_id, name) / DATA_FILE)) as f:
            pdf = _from_batch(pa.ipc.open_file(f).get_batch(0))
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
        return sorted(p.name for p in cd.iterdir() if (p / DATA_FILE).exists())

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


def _to_batch(members: pd.DataFrame) -> pa.RecordBatch:
    """Member rows as one record batch of :data:`MEMBER_SCHEMA`: a
    polyline column is its points concatenated plus the list offsets.
    NaN stays a float, never an Arrow null."""
    cols = []
    for field in MEMBER_SCHEMA:
        col = members[field.name]
        if pa.types.is_list(field.type):
            offsets = np.cumsum([0, *map(len, col)], dtype=np.int64)
            flat = np.concatenate([np.empty(0), *col])
            # the int32 cast of list offsets raises rather than wraps past 2**31 points
            cols.append(pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(flat)))
        else:
            cols.append(pa.array(col.to_numpy(field.type.to_pandas_dtype()), field.type))
    return pa.RecordBatch.from_arrays(cols, schema=MEMBER_SCHEMA)


def _from_batch(batch: pa.RecordBatch) -> pd.DataFrame:
    """The inverse of :func:`_to_batch`: scalar columns from their buffers,
    each polyline column one split of its flat values at its offsets
    (views, read-only like the buffer)."""
    cols = {}
    for field, col in zip(batch.schema, batch.columns):
        if pa.types.is_list(field.type):
            n, off = len(col), col.offsets.to_numpy()
            flat = col.values.to_numpy()[off[0]:off[-1]]  # a sliced array's offsets need not start at 0
            parts = np.split(flat, off[1:-1] - off[0]) if n else ()
            # fromiter keeps an object array 1-D even when all parts have one length
            cols[field.name] = np.fromiter(parts, dtype=object, count=n)
        else:
            cols[field.name] = col.to_numpy()
    return pd.DataFrame(cols)
