"""The benchmark's workloads: set-up, one op, and the op's untimed check.

Each workload makes its inputs from the seed alone, times calls into the
public functions of ``repro``, and checks every op's output after the
timer stops.  ``layers`` returns the per-op metrics the program hands back
anyway (phase timings, QuT timings, insert counters); ``trace`` wraps the
op for the traced run.
"""
from __future__ import annotations

import copy
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pandas as pd

from repro import synth_data
from repro.core.s2t import S2TParams, point_labels, s2t_clustering
from repro.eval.quality import adjusted_rand_index
from repro.mod.hermes import Hermes
from repro.mod.model import make_points_df
from repro.retratree.tree import ReTraTree

from layers import S2T_PHASES, replay_voting, retratree_wrappers, votes_match

#: The S2T parameters of every table in EXPERIMENTS.md.
PARAMS = S2TParams(sigma=1.0)


class S2TBatch:
    """S2T-Clustering plus per-point labels over the whole MOD."""

    name = "s2t_batch"
    warmup = 2

    def __init__(self, spark, seed: int, sf: float, work: Path):
        self.spark, self.seed, self.sf, self.work = spark, seed, sf, work
        self.ref_counts = None

    def setup(self) -> dict:
        self.pdf = synth_data.trajectories_pdf(sf=self.sf, seed=self.seed)
        self.points = make_points_df(self.spark, self.pdf).cache()
        self.points.count()
        return {}

    def op(self):
        res = s2t_clustering(self.points, PARAMS)
        t0 = time.perf_counter()
        labels = point_labels(self.points, res).toPandas()
        return res, labels, time.perf_counter() - t0

    def check(self, out) -> bool:
        """Every point gets exactly one label; the rep and sub-trajectory
        counts equal those of the run's first op."""
        res, labels, _ = out
        counts = (len(res.reps), res.subtrajs.count())
        if self.ref_counts is None:
            self.ref_counts = counts
        return (
            len(labels) == len(self.pdf)
            and not labels.duplicated(["traj_id", "t"]).any()
            and bool(labels["cluster_id"].notna().all())
            and counts == self.ref_counts
        )

    def layers(self, out) -> dict:
        res, labels, labels_s = out
        m = {f"s2t.{k}_s": res.timings[k] for k in S2T_PHASES}
        m["s2t.labels_s"] = labels_s
        m["quality.ari_planted"] = adjusted_rand_index(
            labels["gt_label"].to_numpy(), labels["cluster_id"].to_numpy()
        )
        return m

    def trace(self, counters: dict):
        return nullcontext()

    def after_trace(self, out, counters: dict) -> bool:
        """Replay voting on the driver; its votes must equal the op's."""
        res = out[0]
        c, votes = replay_voting(res.segments, PARAMS.sigma, PARAMS.cutoff, PARAMS.bucket_width)
        counters.update(c)
        return votes_match(votes, res.voted)

    def release(self, out) -> None:
        out[0].unpersist()


class IngestQuT:
    """ReTraTree ingest followed by QUT windows, reused and re-clustered.

    The MOD is one fixed geography, generated from ``mod_seed`` as the
    paper uses one real MOD, and the run's seed draws which whole
    trajectories are held out, ``held_pieces`` pieces together.  Op time
    follows the inserted pieces and the tree's rows and partitions; with
    a seeded MOD and a share of its trajectories held out, the op's median
    moved by a third between seeds.  Set-up builds the tree on the rest.

    One op inserts the held-out trajectories, then runs ``SELECT QUT``
    statements over the first chunk and over both, answered by reuse, and
    over a window half a chunk off, whose two boundary slabs are
    re-clustered by one S2T run; each answer is passed through
    ``point_labels``.  The boundary window keeps the op from being pure
    driver-side Python, whose speed drifted by up to two fifths between
    runs on a shared host, against about an eighth for S2T-bound ops.  The
    tree is restored to its post-build state after each op, untimed.
    """

    name = "ingest_qut"
    warmup = 1  # the tree build has already run S2T in this session
    n_chunks = 2
    mod_seed = 0
    held_pieces = 30

    def __init__(self, spark, seed: int, sf: float, work: Path):
        self.spark, self.seed, self.sf, self.work = spark, seed, sf, work
        self.counters = None  # set by the runner around a traced op

    def setup(self) -> dict:
        pdf = synth_data.trajectories_pdf(sf=self.sf, seed=self.mod_seed)
        # chunks are aligned to multiples of their width, so a width of
        # t_max / n_chunks (times start at 0) gives exactly n_chunks chunks
        self.chunk_width = float(np.ceil(pdf["t"].max() / self.n_chunks / 100.0) * 100.0)
        # a piece is one trajectory's points in one chunk; ReTraTree keeps
        # the pieces of at least two points
        chunk = np.floor(pdf["t"].to_numpy() / self.chunk_width).astype(np.int64)
        piece = pdf.groupby([pdf["traj_id"], chunk])["t"].transform("size").to_numpy()
        self.expected_points = _point_keys(pdf["traj_id"][piece >= 2], pdf["t"][piece >= 2])

        # hold out whole trajectories, in a seeded order, while their pieces
        # fit the target (a quarter of the pieces on a tiny MOD)
        pieces = pd.DataFrame({"traj_id": pdf["traj_id"], "chunk": chunk})[piece >= 2]
        per_traj = pieces.drop_duplicates().groupby("traj_id").size()
        want = min(self.held_pieces, per_traj.sum() // 4)
        held = []
        rng = np.random.default_rng([self.seed, 20])
        for tid in rng.permutation(per_traj.index.to_numpy()):
            if per_traj[tid] <= want:
                held.append(tid)
                want -= per_traj[tid]
        mask = pdf["traj_id"].isin(held)
        self.pdf, self.held = pdf, pdf[mask].reset_index(drop=True)
        base = make_points_df(self.spark, pdf[~mask]).cache()
        base.count()

        self.root = self.work / "tree"
        t0 = time.perf_counter()
        self.tree = ReTraTree.build(self.spark, base, self.root, PARAMS,
                                    chunk_width=self.chunk_width)
        build_s = time.perf_counter() - t0

        held_piece = piece[mask.to_numpy()]
        held_chunk = chunk[mask.to_numpy()]
        self.n_pieces = len({(tid, c) for tid, c, n in
                             zip(self.held["traj_id"], held_chunk, held_piece) if n >= 2})
        # raw bytes of the inserted rows: three float64 per point plus the
        # five scalar columns per piece
        self.insert_bytes = 8 * (3 * int((held_piece >= 2).sum()) + 5 * self.n_pieces)

        # tau above any chunk's outliers plus the whole batch: no re-cluster fires
        self.tau = max(c.outlier_count for c in self.tree.chunks.values()) + self.n_pieces + 1
        self.tree.tau = self.tau
        self.hermes = Hermes(self.spark)
        self.hermes.register_dataset("mod", base)
        self.hermes.attach_index("mod", self.tree)
        base.unpersist()

        self.cids = sorted(self.tree.chunks)
        lo = self.tree.chunks[self.cids[0]].t_lo
        self.sweep = sorted({1, 2, len(self.cids)})
        self.windows = [(lo, lo + k * self.chunk_width) for k in self.sweep]
        self.boundary = (lo + 0.5 * self.chunk_width, lo + 1.5 * self.chunk_width)
        self.snapshot = self.work / "tree-snapshot"
        shutil.copytree(self.root, self.snapshot)
        self.chunks0 = copy.deepcopy(self.tree.chunks)

        store = self.tree.store
        n_points = sum(len(ts) for cid in self.cids for name in store.list_partitions(cid)
                       for ts in store.read(cid, name)["ts"])
        n_bytes = sum(p.stat().st_size for p in self.root.rglob("*") if p.is_file())
        return {"retratree.build_s": build_s, "storage.bytes_per_point": n_bytes / n_points}

    def _qut_sql(self, wi: float, we: float) -> str:
        p = PARAMS
        return (f"SELECT QUT('mod', {wi!r}, {we!r}, {self.tau}, {p.eps_eff!r}, "
                f"{p.min_duration!r}, {p.eps_eff!r}, {p.min_cluster_size})")

    def op(self):
        t0 = time.perf_counter()
        stats = self.tree.insert(self.held)
        insert_s = time.perf_counter() - t0
        if self.counters is not None:
            self.counters["insert.rows_read"] = self.counters["storage.rows_read"]
        answers = []
        for wi, we in self.windows + [self.boundary]:
            q = self.hermes.sql(self._qut_sql(wi, we))
            t1 = time.perf_counter()
            labels = q.point_labels()
            answers.append((q, labels, time.perf_counter() - t1))
        return stats, insert_s, answers

    def check(self, out) -> bool:
        """The insert places every held-out piece without re-clustering;
        each answer's points get one label each; each reused answer's rows
        equal the covered chunks' stored partitions, and the all-chunk one
        holds every built and inserted piece's points; the boundary answer
        holds every stored point in its window."""
        stats, _, answers = out
        ok = (stats["reclustered_chunks"] == 0
              and stats["assigned"] + stats["outliers"] == self.n_pieces)
        for q, labels, _ in answers:
            ok = (ok and len(labels) == sum(len(ts) for ts in q.rows["ts"])
                  and bool(labels["cluster_id"].notna().all()))
        store = self.tree.store
        stored = [pd.concat([store.read(cid, name) for name in store.list_partitions(cid)])
                  for cid in self.cids]
        for k, (q, _, _) in zip(self.sweep, answers):
            ok = (ok and q.n_full == k and q.n_partial == 0
                  and _row_keys(q.rows) == sum(map(_row_keys, stored[:k]), Counter()))
        q = answers[-1][0]
        return (ok and q.n_full == 0 and q.n_partial == 2
                and _points_once(answers[-2][0].rows, self.expected_points)
                and _points_once(q.rows, _window_points(pd.concat(stored), *self.boundary)))

    def layers(self, out) -> dict:
        stats, insert_s, answers = out
        m = {
            "insert.s": insert_s,
            "insert.pieces": stats["assigned"] + stats["outliers"],
            "insert.assigned": stats["assigned"],
            "insert.outliers": stats["outliers"],
            "insert.reclustered": stats["reclustered_chunks"],
        }
        for k in ("reuse", "recluster", "merge"):
            m[f"qut.{k}_s"] = sum(q.timings[k] for q, _, _ in answers)
        m["qut.n_full"] = sum(q.n_full for q, _, _ in answers)
        m["qut.n_partial"] = sum(q.n_partial for q, _, _ in answers)
        m["qut.labels_s"] = sum(s for _, _, s in answers)
        m["qut.rows_returned"] = sum(len(q.rows) for q, _, _ in answers)
        labels = answers[-2][1].drop_duplicates(["traj_id", "t"])
        truth = labels.merge(self.pdf[["traj_id", "t", "gt_label"]], on=["traj_id", "t"])
        m["quality.ari_planted"] = adjusted_rand_index(
            truth["gt_label"].to_numpy(), truth["cluster_id"].to_numpy()
        )
        return m

    def trace(self, counters: dict):
        self.counters = counters
        return retratree_wrappers(counters)

    def after_trace(self, out, counters: dict) -> bool:
        self.counters = None
        sweep_rows = counters["storage.rows_read"] - counters.pop("insert.rows_read")
        counters["qut.useful_ratio"] = sum(len(q.rows) for q, _, _ in out[2]) / max(sweep_rows, 1)
        counters["storage.write_amp"] = counters["storage.bytes_written"] / self.insert_bytes
        return True

    def release(self, out) -> None:
        shutil.rmtree(self.root)
        shutil.copytree(self.snapshot, self.root)
        self.tree.chunks = copy.deepcopy(self.chunks0)


def _point_keys(traj: np.ndarray, t: np.ndarray) -> pd.DataFrame:
    keys = pd.DataFrame({"traj_id": np.asarray(traj, dtype=np.int64),
                         "t": np.asarray(t, dtype=np.float64)})
    return keys.sort_values(["traj_id", "t"], ignore_index=True)


def _row_keys(rows: pd.DataFrame) -> Counter:
    """Multiset of (traj_id, first t, last t, length) over member rows."""
    return Counter((int(tid), float(ts[0]), float(ts[-1]), len(ts))
                   for tid, ts in zip(rows["traj_id"], rows["ts"]))


def _window_points(rows: pd.DataFrame, wi: float, we: float) -> pd.DataFrame:
    """Points of ``rows`` inside ``[wi, we]``, of the rows with at least
    two there: what a QuT window re-clusters."""
    inside = [(tid, ts[(ts >= wi) & (ts <= we)]) for tid, ts in zip(rows["traj_id"], rows["ts"])]
    inside = [(tid, ts) for tid, ts in inside if len(ts) >= 2]
    keys = _point_keys(np.concatenate([np.full(len(ts), tid) for tid, ts in inside]),
                       np.concatenate([ts for _, ts in inside]))
    return keys.drop_duplicates(ignore_index=True)


def _points_once(rows: pd.DataFrame, expected: pd.DataFrame) -> bool:
    """The rows' points are exactly ``expected``; a point repeats only as
    an end of every row that holds it, where sub-trajectories meet."""
    n = np.array([len(ts) for ts in rows["ts"]])
    traj = np.repeat(rows["traj_id"].to_numpy(dtype=np.int64), n)
    t = np.concatenate([np.asarray(ts, dtype=np.float64) for ts in rows["ts"]])
    end = np.zeros(len(t), dtype=bool)
    end[np.cumsum(n) - 1] = True
    end[np.cumsum(n) - n] = True
    pts = pd.DataFrame({"traj_id": traj, "t": t, "end": end})
    g = pts.groupby(["traj_id", "t"])["end"].agg(["size", "sum"])
    repeats_ok = bool(((g["size"] == 1) | (g["sum"] == g["size"])).all())
    got = _point_keys(g.index.get_level_values(0), g.index.get_level_values(1))
    return repeats_ok and got.equals(expected)


WORKLOADS = {w.name: w for w in (S2TBatch, IngestQuT)}

#: Scale factor of each workload's MOD, and of the smoke mode's tiny one.
SCALE = {"s2t_batch": 0.1, "ingest_qut": 0.1}
SMOKE_SCALE = 0.01
