"""ReTraTree — the 4-level hierarchical index behind QuT-Clustering.

Paper §II.B/§II.C: "the first two levels operate on the temporal
dimension, the third level builds clusters upon the spatio-temporal
characteristics of the trajectories, and the fourth level is the actual
data storage along with the corresponding indexes (3D-RTree)".

Mapping here:

- **Level 1** — disjoint temporal *chunks* of width ``chunk_width``
  (aligned to multiples of the width).
- **Level 2** — the row-level time predicate of the boundary re-cluster:
  the member rows of the chunks the window W cuts are flattened to points
  once, clipped to W, and only rows keeping at least two points there
  are re-clustered (:func:`_members_to_points`).  Clipping to W alone is
  exact: build and insert both put a point in chunk ``floor(t /
  chunk_width)``, so every row of a chunk lies inside it.
- **Level 3** — per chunk, the list of *representative sub-trajectories*
  (the in-memory part of the structure in Fig. 2) produced by running
  S2T-Clustering on the chunk.
- **Level 4** — one Arrow IPC partition (``chunk=<id>/<name>/data.arrow``)
  per representative plus an ``outliers`` partition per chunk
  (``repro.retratree.storage``); a partition's pg3D-Rtree is bulk-loaded
  from its rows on demand, not stored.

The incremental path of Fig. 2 is :meth:`ReTraTree.insert`: new
trajectories are cut into per-chunk pieces, each assigned to an existing
representative (archived into its partition) or buffered as an outlier,
with one append per touched partition; when a chunk's outlier partition
exceeds ``tau``, S2T re-clusters it, new representatives are
back-propagated into the in-memory level 3, members are archived, and
the residue stays outlier.

:meth:`ReTraTree.qut` is QuT-Clustering: chunks fully inside the window
W are answered by *reusing* their stored clusters (partition reads, no
clustering); boundary chunks are re-clustered on just their clipped
slice; clusters of adjacent regions are merged when their
representatives are spatio-temporally continuous (QUT's ``d``).  Its
:class:`QuTResult` keeps the ``qut`` span (``repro.trace``): per step the
partitions and rows it read, and the boundary run's ``s2t`` span under
``recluster``.  ``build`` and ``insert`` each open one span too.

Which S2T engine runs where: every S2T run of the tree is in the driver
process, on a pandas frame.  The bulk load collects the MOD's points once
and clusters each chunk's rows; the outlier re-cluster and the QuT
boundary slabs start from partition rows read into the driver, whose
float64 polylines :func:`_members_to_points` flattens once into S2T's
points frame.  Points and rows convert by ``mod.model``'s
``split_polylines`` (insert's pieces) and ``explode_polylines`` (the
rest).  The tree holds no Spark session.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.distance import sync_distance_to_many
from repro.core.s2t import S2TParams, s2t_clustering
from repro.core.sampling import Representative
from repro.mod.model import explode_polylines, split_polylines
from repro.retratree.storage import MEMBER_COLS, OUTLIER_PARTITION, PartitionStore
from repro.trace import Span, span

OUTLIER_KEY = None  # cluster key of outlier rows in QuT results


@dataclass
class RepEntry:
    """Level-3 entry: one representative sub-trajectory of one chunk."""

    chunk_id: int
    rep_idx: int
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    score: float
    n_members: int = 0

    @property
    def partition(self) -> str:
        return f"rep-{self.rep_idx}"

    @property
    def key(self) -> str:
        return f"c{self.chunk_id}:{self.partition}"


@dataclass
class ChunkEntry:
    """Level-1 entry: a temporal chunk and its directory state."""

    chunk_id: int
    t_lo: float
    t_hi: float
    reps: list[RepEntry] = field(default_factory=list)
    outlier_count: int = 0


@dataclass
class QuTResult:
    """Answer of one QuT query.

    ``rows`` — pandas frame: traj_id, cluster (canonical merged key or
    None for outliers), ts/xs/ys polyline arrays (clipped to W);
    ``trace`` — the ``qut`` span, children ``reuse``, ``recluster``, ``merge``;
    ``timings`` — their seconds and ``total``, read from ``trace``;
    ``n_full`` / ``n_partial`` — chunks answered by reuse vs re-clustered.
    """

    rows: pd.DataFrame
    trace: Span
    n_full: int
    n_partial: int

    @property
    def timings(self) -> dict[str, float]:
        return self.trace.timings()

    def point_labels(self) -> pd.DataFrame:
        """Explode polylines to per-point labels (traj_id, t, cluster_id
        int; outliers -1) — the frame Table A's parity check consumes."""
        clusters = self.rows["cluster"]
        keys = {k: i for i, k in enumerate(sorted({c for c in clusters if c is not None}))}
        labels = np.array([keys.get(c, -1) for c in clusters], dtype=np.int64)
        row, ts, _, _ = explode_polylines(self.rows)
        return pd.DataFrame({
            "traj_id": self.rows["traj_id"].to_numpy(dtype=np.int64)[row],
            "t": ts,
            "cluster_id": labels[row],
        })


class _DSU:
    """Union-find over cluster keys (for the cross-region merge)."""

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # canonical = lexicographically smallest, for determinism
            lo, hi = sorted((ra, rb))
            self.parent[hi] = lo


class ReTraTree:
    """The index. Construct via :meth:`build`, extend via :meth:`insert`,
    query via :meth:`qut`."""

    def __init__(
        self,
        root: str | Path,
        params: S2TParams,
        *,
        chunk_width: float,
        tau: int = 50,
    ):
        self.store = PartitionStore(root)
        self.params = params
        self.chunk_width = float(chunk_width)
        self.tau = int(tau)
        self.chunks: dict[int, ChunkEntry] = {}

    # ------------------------------------------------------------------ build
    @classmethod
    @span("build")
    def build(
        cls,
        spark: SparkSession,
        points: DataFrame | pd.DataFrame,
        root: str | Path,
        params: S2TParams,
        *,
        chunk_width: float,
        tau: int = 50,
    ) -> "ReTraTree":
        """Bulk-load: collect the MOD's points to the driver once, split
        them into chunks by :meth:`insert`'s rule (``floor(t /
        chunk_width)``) and run S2T-Clustering on each chunk's rows in the
        driver process, archiving members and outliers.  Every chunk id
        from the first to the last gets an entry, empty ones included.
        ``spark`` is unused: it is accepted only for the call signature
        that callers holding a Spark DataFrame already use.

        Segments crossing a chunk boundary are split at the boundary by
        construction (each chunk clusters only its own samples) — the
        temporal partitioning of ReTraTree level 1.
        """
        tree = cls(root, params, chunk_width=chunk_width, tau=tau)
        chunks = dict(iter(tree._points_by_chunk(points).groupby("chunk")))
        for cid in range(min(chunks, default=0), max(chunks, default=-1) + 1):
            entry = tree._chunk_entry(cid)
            if cid in chunks:
                tree._archive(entry, *_run_s2t(chunks[cid], params))
        return tree

    def _points_by_chunk(self, points: DataFrame | pd.DataFrame) -> pd.DataFrame:
        """Caller points, a Spark or pandas frame, as a pandas frame of
        ``traj_id, t, x, y`` plus each point's ``chunk``."""
        cols = ["traj_id", "t", "x", "y"]
        if isinstance(points, DataFrame):
            pdf = points.select(*cols).toPandas()
        else:
            pdf = points[cols].copy()
        pdf["chunk"] = np.floor(pdf["t"].to_numpy() / self.chunk_width).astype(np.int64)
        return pdf

    def _chunk_entry(self, cid: int) -> ChunkEntry:
        if cid not in self.chunks:
            self.chunks[cid] = ChunkEntry(
                chunk_id=cid,
                t_lo=cid * self.chunk_width,
                t_hi=(cid + 1) * self.chunk_width,
            )
        return self.chunks[cid]

    def _archive(
        self, entry: ChunkEntry, members: pd.DataFrame, reps: list[Representative]
    ) -> None:
        """Write each representative's members to a new partition and the
        rest to the chunk's outlier partition.  New partitions are named
        past the chunk's highest ``rep_idx``, so they never overwrite a
        live one."""
        base_idx = max((r.rep_idx for r in entry.reps), default=-1) + 1
        for r in reps:
            mine = members[members["cluster_id"] == r.rep_id]
            rep = RepEntry(
                chunk_id=entry.chunk_id, rep_idx=base_idx + r.rep_id,
                ts=r.ts, xs=r.xs, ys=r.ys, score=r.score, n_members=len(mine),
            )
            self.store.write(entry.chunk_id, rep.partition, mine[MEMBER_COLS])
            entry.reps.append(rep)
        outl = members[members["cluster_id"] == -1]
        self.store.write(entry.chunk_id, OUTLIER_PARTITION, outl[MEMBER_COLS])
        entry.outlier_count = len(outl)

    # ----------------------------------------------------------------- insert
    @span("insert")
    def insert(self, points: DataFrame | pd.DataFrame) -> dict:
        """Incrementally insert new trajectories (Fig. 2's left-to-right
        flow).  Pieces, one per ``(traj_id, chunk)`` of two or more points
        sorted by ``(t, x, y)``, are assigned to an existing representative
        when within ``eps`` (time-synchronized distance), else buffered as
        chunk outliers; each touched partition then gets one append of its
        pieces, in ``(traj_id, chunk)`` order.  Exceeding ``tau`` triggers
        S2T on the outlier partition with representative back-propagation.

        Returns counters: assigned / outliers / reclustered_chunks.
        """
        pieces = split_polylines(self._points_by_chunk(points), ["traj_id", "chunk"])
        pieces = pieces[pieces["ts"].map(len) >= 2]
        stats = {"assigned": 0, "outliers": 0, "reclustered_chunks": 0}
        names = []
        for cid, ts, xs, ys in zip(pieces["chunk"], pieces["ts"], pieces["xs"], pieces["ys"]):
            entry = self._chunk_entry(int(cid))
            name = OUTLIER_PARTITION
            reps = entry.reps
            if reps:
                d = sync_distance_to_many(
                    ts, xs, ys, [(r.ts, r.xs, r.ys) for r in reps],
                    n_samples=self.params.n_samples,
                    min_overlap=self.params.min_overlap,
                )
                j = int(np.argmin(d))
                if np.isfinite(d[j]) and d[j] <= self.params.eps_eff:
                    name = reps[j].partition
                    reps[j].n_members += 1
                    stats["assigned"] += 1
            if name == OUTLIER_PARTITION:
                entry.outlier_count += 1
                stats["outliers"] += 1
            names.append(name)
        members = pieces.assign(
            subtraj_id=np.int64(0),
            t_start=[ts[0] for ts in pieces["ts"]],
            t_end=[ts[-1] for ts in pieces["ts"]],
            sum_vote=0.0,
            partition=names,
        )
        for (cid, name), rows in members.groupby(["chunk", "partition"], sort=False):
            self.store.append(int(cid), name, rows)
        buffered = members.loc[members["partition"] == OUTLIER_PARTITION, "chunk"]
        for cid in sorted(set(buffered)):
            if self.chunks[cid].outlier_count > self.tau:
                self._recluster_outliers(cid)
                stats["reclustered_chunks"] += 1
        return stats

    def _recluster_outliers(self, cid: int) -> None:
        """S2T over a chunk's outlier partition; new representatives are
        back-propagated, their members archived, residue stays outlier."""
        outl = self.store.read(cid, OUTLIER_PARTITION)
        if len(outl) < 2:
            return
        pts, id_map = _members_to_points(outl)
        self._archive(self.chunks[cid], *_run_s2t(pts, self.params, id_map))

    # -------------------------------------------------------------------- qut
    def qut(
        self,
        wi: float,
        we: float,
        *,
        d_merge: float | None = None,
        params: "S2TParams | None" = None,
    ) -> QuTResult:
        """QuT-Clustering for temporal window ``[wi, we]``.

        Full chunks: cluster *reuse* (partition reads only).  Partial
        boundary chunks: S2T on just the clipped slice.  Then clusters of
        temporally adjacent regions whose representatives are continuous
        (endpoint gap <= ``d_merge`` within a quarter chunk width) are merged.
        """
        if we <= wi:
            raise ValueError("window must satisfy wi < we")
        qparams = params or self.params  # boundary re-clustering knobs (SQL API overrides)
        d_merge = d_merge if d_merge is not None else qparams.eps_eff
        full = [c for c in self.chunks.values() if c.t_lo >= wi and c.t_hi <= we]
        partial = [c for c in self.chunks.values()
                   if c.t_lo < we and c.t_hi > wi and c not in full]
        # regions: {t_lo, t_hi, reps: {key: (ts,xs,ys)}, rows: pdf}
        with span("qut") as trace:
            with span("reuse"):
                regions = [self._reuse_chunk(c) for c in sorted(full, key=lambda c: c.t_lo)]
            with span("recluster"):
                regions += self._recluster_boundary(partial, wi, we, qparams)
            with span("merge"):
                dsu = _merge_regions(regions, d_merge, 0.25 * self.chunk_width)
                frames = [r["rows"] for r in regions if len(r["rows"])]
                rows = pd.concat(frames, ignore_index=True) if frames else _empty_members()
                rows["cluster"] = [dsu.find(c) if c is not None else None
                                   for c in rows["cluster"]]
        return QuTResult(rows=rows[["traj_id", "cluster", "ts", "xs", "ys"]], trace=trace,
                         n_full=len(full), n_partial=len(partial))

    def _reuse_chunk(self, c: ChunkEntry) -> dict:
        """A chunk inside W: its stored clusters, read back."""
        rows, reps = [], {}
        for rep in c.reps:
            mem = self.store.read(c.chunk_id, rep.partition)
            mem["cluster"] = rep.key
            rows.append(mem)
            reps[rep.key] = (rep.ts, rep.xs, rep.ys)
        if self.store.exists(c.chunk_id, OUTLIER_PARTITION):
            mem = self.store.read(c.chunk_id, OUTLIER_PARTITION)
            mem["cluster"] = OUTLIER_KEY
            rows.append(mem)
        pdf = pd.concat(rows, ignore_index=True) if rows else _empty_members()
        return {"t_lo": c.t_lo, "t_hi": c.t_hi, "reps": reps, "rows": pdf}

    def _recluster_boundary(
        self, partial: list[ChunkEntry], wi: float, we: float, params: S2TParams
    ) -> list[dict]:
        """The chunks W cuts, re-clustered in ONE combined S2T run: their
        slices are (at least) temporally disjoint or contiguous, so the
        combined run is semantically equivalent while paying the fixed
        per-run cost once."""
        partial = sorted(partial, key=lambda c: c.t_lo)
        frames = [self.store.read(c.chunk_id, name)
                  for c in partial for name in self.store.list_partitions(c.chunk_id)]
        if frames:
            pts, id_map = _members_to_points(pd.concat(frames, ignore_index=True), wi, we)
        if not (frames and len(pts)):
            return []
        members, live_reps = _run_s2t(pts, params, id_map)
        members["cluster"] = [f"b:rep-{int(k)}" if k >= 0 else OUTLIER_KEY
                              for k in members["cluster_id"]]
        live = {f"b:rep-{r.rep_id}": r for r in live_reps}
        # split rows/reps back into per-boundary regions (a rep lives
        # in the region containing its polyline start); a region of
        # no rows and no reps changes no merge
        regions = []
        for c in partial:
            lo, hi = max(c.t_lo, wi), min(c.t_hi, we)
            mask = (members["t_start"] >= lo - 1e-9) & (members["t_start"] < hi)
            reps = {key: (r.ts, r.xs, r.ys) for key, r in live.items() if lo - 1e-9 <= r.ts[0] < hi}
            regions.append({"t_lo": lo, "t_hi": hi, "reps": reps,
                            "rows": members[mask][MEMBER_COLS + ["cluster"]]})
        return regions


def _empty_members() -> pd.DataFrame:
    pdf = pd.DataFrame(columns=MEMBER_COLS + ["cluster"])
    return pdf


def _members_to_points(
    members: pd.DataFrame, lo: float = -np.inf, hi: float = np.inf
) -> tuple[pd.DataFrame, np.ndarray]:
    """Explode member polylines back into a pandas points frame, which S2T
    clusters in the driver process: the points with ``lo <= t <= hi`` of
    the rows that keep at least two of them (a QuT boundary passes its
    window; the outlier re-cluster keeps every point).

    Distinct sub-trajectories of the same trajectory get distinct
    synthetic traj_ids (their row positions in ``members``) so S2T treats
    them independently (they may be separated by data the window
    excluded).  Returns the points plus the synthetic-id -> original-
    traj-id array, which callers MUST apply to any traj_id column derived
    from the S2T result (see :func:`_run_s2t`).
    """
    row, ts, xs, ys = explode_polylines(members, lo, hi)
    keep = np.bincount(row, minlength=len(members))[row] >= 2
    traj = members["traj_id"].to_numpy(dtype=np.int64)
    pdf = pd.DataFrame({"obj_id": traj[row[keep]], "traj_id": row[keep],
                        "t": ts[keep], "x": xs[keep], "y": ys[keep]})
    return pdf, traj


def _run_s2t(
    points: pd.DataFrame, params: S2TParams, id_map: np.ndarray | None = None
) -> tuple[pd.DataFrame, list[Representative]]:
    """S2T over a pandas points frame, in the driver process: its
    sub-trajectories as member rows with their ``cluster_id`` (-1 for
    outliers), and the representatives that kept members.  ``id_map`` maps
    synthetic traj_ids back to the original ones (from
    :func:`_members_to_points`)."""
    res = s2t_clustering(points, params)
    members = res.sub_pdf.assign(cluster_id=res.clusters["cluster_id"].to_numpy())
    if id_map is not None:
        members["traj_id"] = id_map[members["traj_id"].to_numpy()]
    live = set(members["cluster_id"])
    return members, [r for r in res.reps if r.rep_id in live]


def _merge_regions(regions: list[dict], d_merge: float, t_gap: float) -> _DSU:
    """Union clusters of temporally adjacent regions whose representatives
    are continuous: representative endpoints within ``d_merge`` km and
    ``t_gap`` seconds across the shared boundary."""
    dsu = _DSU()
    for r in regions:
        for key in r["reps"]:
            dsu.find(key)
    regions = sorted(regions, key=lambda r: r["t_lo"])
    for a, b in zip(regions[:-1], regions[1:]):
        if b["t_lo"] - a["t_hi"] > 1e-6:
            continue  # not adjacent (hole in the window coverage)
        for ka, (ats, axs, ays) in a["reps"].items():
            for kb, (bts, bxs, bys) in b["reps"].items():
                dt = bts[0] - ats[-1]
                if not (-t_gap <= dt <= t_gap):
                    continue
                gap = float(np.hypot(axs[-1] - bxs[0], ays[-1] - bys[0]))
                if gap <= d_merge:
                    dsu.union(ka, kb)
    return dsu
