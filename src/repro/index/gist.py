"""GiST — a Generalized Search Tree substrate (Hellerstein et al., VLDB'95).

Hermes@PostgreSQL builds its trajectory index "from scratch on top of
GiST", PostgreSQL's extensibility interface: a height-balanced tree that
is specialised to a concrete access method by supplying a handful of key
callbacks (``consistent``, ``union``, ``penalty``, ``picksplit``).  This
module is the faithful substrate: :class:`GiST` implements the generic
tree mechanics (descent, search, insert with penalty-guided routing and
node splits, bulk load from pre-ordered keys) and knows *nothing* about
boxes or trajectories; :mod:`repro.index.rtree3d` instantiates it into
the pg3D-Rtree exactly the way Hermes instantiates PostgreSQL's GiST.

Keys are rows of a numpy ``(n, k)`` matrix and queries rows of a
``(q, k')`` matrix, so ``consistent`` is evaluated over all entries of a
node *and* all queries still routed to it in one call.  Search is the
batched descent of Brinkhoff, Kriegel & Seeger's R-tree spatial join
(*Efficient Processing of Spatial Joins Using R-trees*, SIGMOD 1993):
:meth:`GiST.search_many` walks the tree once for a whole query batch,
carrying each visited node's surviving query subset, and
:meth:`GiST.search` is its one-query case.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class GiSTExtension:
    """The extension interface a concrete access method must provide.

    ``consistent(keys, queries) -> (m, q) bool mask``
        Entry ``[i, j]`` says whether key ``i`` of the ``(m, k)`` keys
        may contain entries matching query ``j`` of the ``(q, k')``
        queries.  Called on internal *and* leaf keys (as in PostgreSQL,
        where the same support function serves both), once per visited
        node for every query routed to it — the batched node test of
        Brinkhoff et al.'s R-tree join (SIGMOD 1993).
    ``union(keys) -> (k,) key``
        The bounding key of a set of keys (a node's key in its parent).
    ``penalty(key, new) -> float``
        Cost of inserting ``new`` under ``key`` (route to min penalty).
    ``picksplit(keys) -> (left_idx, right_idx)``
        Partition an overfull node's keys into two groups.
    """

    consistent: Callable[[np.ndarray, np.ndarray], np.ndarray]
    union: Callable[[np.ndarray], np.ndarray]
    penalty: Callable[[np.ndarray, np.ndarray], float]
    picksplit: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(eq=False)  # identity equality: nodes are unique tree positions
class _Node:
    keys: np.ndarray                 # (m, k) float64
    children: list | None = None     # internal: list[_Node]; leaf: None
    values: np.ndarray | None = None # leaf: (m,) int64 payload ids
    parent: "_Node | None" = field(default=None, repr=False)

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def bound(self, ext: GiSTExtension) -> np.ndarray:
        return ext.union(self.keys)


class GiST:
    """The generic tree.  Specialise by passing a :class:`GiSTExtension`.

    ``max_entries`` is the node fanout M; ``min_entries`` defaults to
    M // 3 (standard R-tree practice, also PostgreSQL's default ratio).
    """

    def __init__(self, ext: GiSTExtension, max_entries: int = 32, min_entries: int | None = None):
        if max_entries < 4:
            raise ValueError("max_entries must be >= 4")
        self.ext = ext
        self.M = max_entries
        self.m = min_entries if min_entries is not None else max(2, max_entries // 3)
        self.root: _Node | None = None
        self._key_dim: int | None = None
        self._size = 0

    # ------------------------------------------------------------------ search
    def search(self, query) -> np.ndarray:
        """All leaf payload ids whose keys are ``consistent`` with ``query``."""
        return self.search_many(np.asarray(query)[None])[1]

    def search_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Every (query, payload) match of a ``(q, k')`` query batch.

        Returns aligned int64 arrays ``(query_idx, payload)``.  One
        descent serves all queries: each frontier entry is a node and the
        indices of the queries still consistent with its key, so a node
        costs one ``consistent`` call however many queries reach it.
        """
        queries = np.asarray(queries)
        q_out = [np.empty(0, dtype=np.int64)]
        p_out = [np.empty(0, dtype=np.int64)]
        stack = []
        if self.root is not None and len(queries):
            stack.append((self.root, np.arange(len(queries), dtype=np.int64)))
        while stack:
            node, qi = stack.pop()
            mask = self.ext.consistent(node.keys, queries[qi])
            if node.is_leaf:
                e, j = np.nonzero(mask)
                q_out.append(qi[j])
                p_out.append(node.values[e])
            else:
                for i in np.flatnonzero(mask.any(axis=1)):
                    stack.append((node.children[i], qi[mask[i]]))
        return np.concatenate(q_out), np.concatenate(p_out)

    # ------------------------------------------------------------------ insert
    def insert(self, key: np.ndarray, value: int) -> None:
        """Insert one entry, routing by minimum ``penalty`` and splitting
        overfull nodes with ``picksplit`` (splits propagate to the root,
        keeping the tree height-balanced)."""
        key = np.asarray(key, dtype=np.float64)
        if self.root is None:
            self._key_dim = key.shape[0]
            self.root = _Node(keys=key[None, :], values=np.array([value], dtype=np.int64))
            self._size = 1
            return
        node = self.root
        while not node.is_leaf:
            pens = [self.ext.penalty(node.keys[i], key) for i in range(len(node.children))]
            i = int(np.argmin(pens))
            node.keys[i] = self.ext.union(np.vstack([node.keys[i][None, :], key[None, :]]))
            node = node.children[i]
        node.keys = np.vstack([node.keys, key[None, :]])
        node.values = np.append(node.values, np.int64(value))
        self._size += 1
        self._split_upward(node)

    def _split_upward(self, node: _Node) -> None:
        while len(node.keys) > self.M:
            li, ri = self.ext.picksplit(node.keys)
            if node.is_leaf:
                left = _Node(keys=node.keys[li], values=node.values[li])
                right = _Node(keys=node.keys[ri], values=node.values[ri])
            else:
                ch = np.asarray(node.children, dtype=object)
                left = _Node(keys=node.keys[li], children=list(ch[li]))
                right = _Node(keys=node.keys[ri], children=list(ch[ri]))
                for c in left.children:
                    c.parent = left
                for c in right.children:
                    c.parent = right
            parent = node.parent
            if parent is None:
                new_root = _Node(
                    keys=np.vstack([left.bound(self.ext), right.bound(self.ext)]),
                    children=[left, right],
                )
                left.parent = right.parent = new_root
                self.root = new_root
                return
            idx = parent.children.index(node)
            parent.children[idx] = left
            left.parent = parent
            parent.keys[idx] = left.bound(self.ext)
            parent.children.append(right)
            right.parent = parent
            parent.keys = np.vstack([parent.keys, right.bound(self.ext)[None, :]])
            node = parent

    # --------------------------------------------------------------- bulk load
    def bulk_load(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Pack pre-ordered entries bottom-up (the access method is
        responsible for the ordering — e.g. STR for R-trees).  Produces a
        fully-packed height-balanced tree; replaces current contents."""
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.int64)
        if keys.ndim != 2 or len(keys) != len(values):
            raise ValueError("keys must be (n, k) aligned with values (n,)")
        self._key_dim = keys.shape[1]
        self._size = len(keys)
        if len(keys) == 0:
            self.root = None
            return
        level = [
            _Node(keys=keys[i : i + self.M], values=values[i : i + self.M])
            for i in range(0, len(keys), self.M)
        ]
        while len(level) > 1:
            nxt = []
            for i in range(0, len(level), self.M):
                group = level[i : i + self.M]
                node = _Node(
                    keys=np.vstack([c.bound(self.ext) for c in group]),
                    children=group,
                )
                for c in group:
                    c.parent = node
                nxt.append(node)
            level = nxt
        self.root = level[0]
        self.root.parent = None

    # ------------------------------------------------------------------- stats
    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        h, node = 0, self.root
        while node is not None:
            h += 1
            node = None if node.is_leaf else node.children[0]
        return h

    def node_count(self) -> int:
        if self.root is None:
            return 0
        n, stack = 0, [self.root]
        while stack:
            node = stack.pop()
            n += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return n
