"""Sampling step of SaCO: select cluster representatives (seeds).

Paper §II.A: "the sampling set should contain highly voted trajectories
of the MOD which, at the same time, would cover the 3D space occupied by
the entire dataset as much as possible".  That is a
representativeness-times-novelty greedy maximum-coverage selection
(as in [8][9]):

- candidate score = voting mass (``sum_vote``) x novelty, where novelty
  is 1 minus the candidate's maximum similarity to any already-selected
  representative;
- similarity is a Gaussian kernel of the *time-synchronized* distance,
  so two sub-trajectories traversing the same corridor at disjoint
  times have similarity 0 and can both be selected — this is what makes
  the clustering time-aware;
- selection stops when the best remaining marginal score falls below
  ``min_gain`` times the best initial score, or at ``max_reps``.

The greedy loop runs on the driver over the (small) sub-trajectory
summary table.  Picking a representative computes its distance to every
row of the table, not only to the eligible seeds; those columns form the
distance matrix that clustering (``core.clustering``) assigns from.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.distance import sync_distance_to_many


@dataclass
class Representative:
    """A selected cluster seed: identity + polyline + selection stats."""

    rep_id: int
    traj_id: int
    subtraj_id: int
    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    score: float


def sample_representatives(
    subtrajs_pdf: pd.DataFrame,
    *,
    eps: float,
    max_reps: int,
    min_gain: float,
    min_duration: float,
    n_samples: int,
    min_overlap: float,
) -> tuple[list[Representative], np.ndarray]:
    """Greedy coverage sampling over the collected subtraj table.

    ``eps`` — similarity bandwidth (the clustering radius);
    ``min_duration`` — the QUT ``t`` parameter: shorter sub-trajectories
    are not eligible seeds;
    ``min_gain`` — stop threshold relative to the best initial score.
    Deterministic: ties break on (traj_id, subtraj_id) order.

    Returns the representatives and the ``len(subtrajs_pdf) x len(reps)``
    matrix whose column k holds ``sync_distance(row, rep k)`` for every
    row, short ones included (filled as ``sync_distance_to_many`` of rep
    k; the distance is symmetric bit for bit).
    """
    if not eps > 0.0:  # the similarity kernel divides by eps
        raise ValueError(f"eps must be positive, got {eps}")
    # polylines once (bracket access: "xs" shadows Series.xs)
    arrs = list(zip(subtrajs_pdf["ts"], subtrajs_pdf["xs"], subtrajs_pdf["ys"]))
    dists: list[np.ndarray] = []
    picked: list[Representative] = []
    duration = (subtrajs_pdf["t_end"] - subtrajs_pdf["t_start"]).to_numpy()
    cand = np.flatnonzero(duration >= min_duration)  # rows eligible as seeds
    base = subtrajs_pdf["sum_vote"].to_numpy(dtype=np.float64)[cand]
    novelty = np.ones(len(cand), dtype=np.float64)
    best0 = float(base.max()) if len(cand) else 0.0
    while best0 > 0.0 and len(picked) < max_reps:
        scores = base * novelty
        i = int(np.argmax(scores))
        s = float(scores[i])
        if s <= 0.0 or s < min_gain * best0:
            break
        row = int(cand[i])
        ts, xs, ys = arrs[row]
        picked.append(Representative(
            rep_id=len(picked),
            traj_id=int(subtrajs_pdf["traj_id"].iloc[row]),
            subtraj_id=int(subtrajs_pdf["subtraj_id"].iloc[row]),
            ts=ts, xs=xs, ys=ys, score=s,
        ))
        d = sync_distance_to_many(ts, xs, ys, arrs, n_samples=n_samples, min_overlap=min_overlap)
        dists.append(d)
        # update novelties against the newly picked representative
        dc = d[cand]
        novelty = np.minimum(novelty, 1.0 - np.exp(-(dc * dc) / (2.0 * eps * eps)))
        novelty[i] = 0.0
    return picked, np.stack(dists, axis=1) if dists else np.empty((len(arrs), 0))
