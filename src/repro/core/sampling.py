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
summary table; distances are vectorized numpy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.distance import sync_distance


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


def _similarity(arrs_a, rep: Representative, *, eps: float, n_samples: int, min_overlap: float) -> float:
    d = sync_distance(
        arrs_a[0], arrs_a[1], arrs_a[2], rep.ts, rep.xs, rep.ys,
        n_samples=n_samples, min_overlap=min_overlap,
    )
    if not np.isfinite(d):
        return 0.0
    return float(np.exp(-(d * d) / (2.0 * eps * eps)))


def sample_representatives(
    subtrajs_pdf: pd.DataFrame,
    *,
    eps: float,
    max_reps: int = 64,
    min_gain: float = 0.05,
    min_duration: float = 0.0,
    n_samples: int = 32,
    min_overlap: float = 0.0,
) -> list[Representative]:
    """Greedy coverage sampling over the collected subtraj table.

    ``eps`` — similarity bandwidth (the clustering radius);
    ``min_duration`` — the QUT ``t`` parameter: shorter sub-trajectories
    are not eligible seeds;
    ``min_gain`` — stop threshold relative to the best initial score.
    Deterministic: ties break on (traj_id, subtraj_id) order.
    """
    cand = subtrajs_pdf[
        (subtrajs_pdf["t_end"] - subtrajs_pdf["t_start"]) >= min_duration
    ].reset_index(drop=True)
    if len(cand) == 0:
        return []
    # pre-extract polylines once (bracket access: "xs" shadows Series.xs)
    arrs = [
        (
            np.asarray(cand["ts"].iloc[k], dtype=np.float64),
            np.asarray(cand["xs"].iloc[k], dtype=np.float64),
            np.asarray(cand["ys"].iloc[k], dtype=np.float64),
        )
        for k in range(len(cand))
    ]
    base = cand["sum_vote"].to_numpy(dtype=np.float64)
    novelty = np.ones(len(cand), dtype=np.float64)
    picked: list[Representative] = []
    best0 = float((base * novelty).max())
    if best0 <= 0.0:
        return []
    while len(picked) < max_reps:
        scores = base * novelty
        i = int(np.argmax(scores))
        s = float(scores[i])
        if s <= 0.0 or s < min_gain * best0:
            break
        rep = Representative(
            rep_id=len(picked),
            traj_id=int(cand["traj_id"].iloc[i]),
            subtraj_id=int(cand["subtraj_id"].iloc[i]),
            ts=arrs[i][0],
            xs=arrs[i][1],
            ys=arrs[i][2],
            score=s,
        )
        picked.append(rep)
        # update novelties against the newly picked representative
        for j in range(len(cand)):
            if novelty[j] <= 0.0:
                continue
            sim = _similarity(
                arrs[j], rep, eps=eps, n_samples=n_samples, min_overlap=min_overlap
            )
            novelty[j] = min(novelty[j], 1.0 - sim)
        novelty[i] = 0.0
    return picked
