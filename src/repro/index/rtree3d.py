"""pg3D-Rtree — a 3D (x, y, t) R-tree for trajectory segments, built on GiST.

The paper: "the underlying R-tree index, coined pg3D-Rtree, has also
been implemented from scratch on top of GiST".  This module is that
instantiation: the GiST extension callbacks for 3D boxes (overlap
consistency, bounding-box union, volume-enlargement penalty, quadratic
picksplit) plus STR (Sort-Tile-Recursive) bulk loading, which is how the
disk partitions of ReTraTree level 4 are indexed after each S2T run.

Boxes are ``(n, 6)`` float64 rows ``[xmin, ymin, tmin, xmax, ymax, tmax]``.
"""
from __future__ import annotations

import numpy as np

from repro.index.gist import GiST, GiSTExtension

_DIM = 3


def _box_consistent(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Closed-interval overlap of ``(m, 6)`` keys with ``(q, 6)`` query
    boxes, as the ``(m, q)`` mask.  The per-axis tests are one ``(3, m, q)``
    bool array (no ``(m, q, 6)`` float intermediate); the queries are
    transposed to contiguous rows so each comparison streams them."""
    k = keys.T[:, :, None]
    q = np.ascontiguousarray(queries.T)[:, None, :]
    axis_ok = (k[:_DIM] <= q[_DIM:]) & (k[_DIM:] >= q[:_DIM])
    return axis_ok[0] & axis_ok[1] & axis_ok[2]


def _box_union(keys: np.ndarray) -> np.ndarray:
    return np.concatenate([keys[:, :_DIM].min(axis=0), keys[:, _DIM:].max(axis=0)])


def _volume(box: np.ndarray) -> float:
    ext = np.maximum(box[_DIM:] - box[:_DIM], 0.0)
    return float(np.prod(ext))


def _box_penalty(key: np.ndarray, new: np.ndarray) -> float:
    """Guttman's enlargement penalty: volume growth of ``key`` to cover ``new``."""
    merged = np.concatenate(
        [np.minimum(key[:_DIM], new[:_DIM]), np.maximum(key[_DIM:], new[_DIM:])]
    )
    return _volume(merged) - _volume(key)


def _box_picksplit(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear-cost split: choose the axis with the widest centre spread,
    sort by centre on that axis, and cut in half.  (Guttman's linear
    split; adequate because bulk loads dominate and inserts trickle.)"""
    centres = (keys[:, :_DIM] + keys[:, _DIM:]) / 2.0
    spread = centres.max(axis=0) - centres.min(axis=0)
    axis = int(np.argmax(spread))
    order = np.argsort(centres[:, axis], kind="stable")
    half = len(order) // 2
    return order[:half], order[half:]


BOX3D_EXTENSION = GiSTExtension(
    consistent=_box_consistent,
    union=_box_union,
    penalty=_box_penalty,
    picksplit=_box_picksplit,
)


def str_order(boxes: np.ndarray, leaf_size: int) -> np.ndarray:
    """Sort-Tile-Recursive ordering of 3D boxes.

    Returns a permutation such that consecutive runs of ``leaf_size``
    boxes form spatially/temporally compact leaves: slabs by x centre,
    within each slab strips by y centre, within each strip sort by t.
    """
    n = len(boxes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    centres = (boxes[:, :_DIM] + boxes[:, _DIM:]) / 2.0
    n_leaves = int(np.ceil(n / leaf_size))
    s = int(np.ceil(n_leaves ** (1.0 / 3.0)))  # slabs per axis
    order = np.argsort(centres[:, 0], kind="stable")
    slab = int(np.ceil(n / s))
    out = []
    for i in range(0, n, slab):
        xs = order[i : i + slab]
        xs = xs[np.argsort(centres[xs, 1], kind="stable")]
        strip = int(np.ceil(len(xs) / s))
        for j in range(0, len(xs), strip):
            ys = xs[j : j + strip]
            out.append(ys[np.argsort(centres[ys, 2], kind="stable")])
    return np.concatenate(out)


class Rtree3D:
    """The pg3D-Rtree: a thin trajectory-flavoured wrapper over GiST.

    ``bulk_load`` STR-packs boxes (voting's index of the whole MOD, and a
    level-4 partition's index, built from its rows on demand by
    ``PartitionStore.read_rtree``); ``insert`` routes single boxes
    through GiST's ``penalty``/``picksplit`` callbacks; ``query_box``
    returns payload ids of boxes overlapping the query, and
    ``query_boxes`` every (query, id) overlap of a batch in one descent.
    Instances pickle with Python's default pickling.
    """

    def __init__(self, max_entries: int = 32):
        self._gist = GiST(BOX3D_EXTENSION, max_entries=max_entries)
        self.max_entries = max_entries

    # -- construction -------------------------------------------------------
    @classmethod
    def bulk_load(cls, boxes: np.ndarray, ids: np.ndarray | None = None, *, max_entries: int = 32) -> "Rtree3D":
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 2 * _DIM:
            raise ValueError("boxes must be (n, 6): [xmin,ymin,tmin,xmax,ymax,tmax]")
        if ids is None:
            ids = np.arange(len(boxes), dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        t = cls(max_entries=max_entries)
        order = str_order(boxes, max_entries)
        t._gist.bulk_load(boxes[order], ids[order])
        return t

    @classmethod
    def from_segments(cls, seg: np.ndarray, *, pad: float = 0.0, max_entries: int = 32) -> "Rtree3D":
        """Index segment rows ``[t1, x1, y1, t2, x2, y2]`` (ids = row index).

        ``pad`` expands the x/y sides — indexing segments padded by the
        voting cutoff turns "segments within distance eps" into a plain
        box-overlap query, which is exactly how Hermes uses the index
        during the voting phase.
        """
        boxes = segment_boxes(seg, pad=pad)
        return cls.bulk_load(boxes, max_entries=max_entries)

    def insert(self, box: np.ndarray, id_: int) -> None:
        self._gist.insert(np.asarray(box, dtype=np.float64), int(id_))

    # -- queries ------------------------------------------------------------
    def query_box(self, box: np.ndarray) -> np.ndarray:
        """Ids of indexed boxes overlapping ``box`` ([xmin,ymin,tmin,xmax,ymax,tmax])."""
        return self._gist.search(np.asarray(box, dtype=np.float64))

    def query_boxes(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(query_idx, id)`` of every indexed box overlapping a row of the
        ``(q, 6)`` ``boxes``: a batched self or cross join on the tree."""
        return self._gist.search_many(np.asarray(boxes, dtype=np.float64))

    # -- stats / misc -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._gist)

    def height(self) -> int:
        return self._gist.height()

    def node_count(self) -> int:
        return self._gist.node_count()


def segment_boxes(seg: np.ndarray, *, pad: float = 0.0) -> np.ndarray:
    """3D bounding boxes of segment rows ``[t1, x1, y1, t2, x2, y2]``.

    x/y sides are padded by ``pad`` (the spatial query cutoff); time is
    never padded — temporal overlap is exact in the voting semantics.
    """
    seg = np.asarray(seg, dtype=np.float64)
    t1, x1, y1, t2, x2, y2 = (seg[:, i] for i in range(6))
    return np.stack(
        [
            np.minimum(x1, x2) - pad,
            np.minimum(y1, y2) - pad,
            np.minimum(t1, t2),
            np.maximum(x1, x2) + pad,
            np.maximum(y1, y2) + pad,
            np.maximum(t1, t2),
        ],
        axis=1,
    )
