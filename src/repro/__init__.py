"""Reproduction of "Time-aware Sub-Trajectory Clustering in
Hermes@PostgreSQL" (Tampakis et al., ICDE 2018) in PySpark.

Subpackages
-----------
``repro.mod``
    Moving Object Database substrate: trajectory data model, synthetic
    MOD generator with planted co-movement ground truth, and the Hermes
    SQL facade (``SELECT QUT(...)``).
``repro.index``
    GiST (generalized search tree) substrate and the pg3D-Rtree
    instantiated on it, plus the temporal bucketing the benchmark's
    voting replay uses.
``repro.core``
    The paper's algorithms: S2T-Clustering (voting, segmentation,
    sampling, greedy clustering) and QuT-Clustering over ReTraTree.
``repro.retratree``
    The ReTraTree 4-level hierarchical index (temporal chunks ->
    representative groups -> Arrow IPC partitions with R-trees).
``repro.baselines``
    Comparators from the demo scenarios: TRACLUS, T-OPTICS, Convoy
    discovery, and the range-query + rebuild + S2T QuT baseline.
``repro.eval``
    Ground-truth quality metrics and the Table A-D harnesses.
"""
