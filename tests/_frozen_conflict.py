"""A frozen, tests-only copy of the conflict graph's original dense
build: the full ``n x n`` gap matrix of ``LinkSet.link_distances``
(three ``cross_distances`` calls) compared against the threshold.

``tests/test_conflict_differential.py`` checks that
:class:`repro.conflict.graph.ConflictGraph` returns byte-identical CSR
``indptr`` and ``indices`` to this build.  Do not edit the logic below:
it is the reference the link-level candidate search is held to.
``frozen_csr(..., block=k)`` evaluates the same entries in row blocks,
for sizes whose ``n x n`` matrices do not fit in memory (benchmarks).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["frozen_adjacency", "frozen_csr"]


def _cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] == 1:
        # Overflow-safe 1-D path (see pairwise_distances).
        return np.abs(a[:, 0, None] - b[None, :, 0])
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _link_distances(senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
    ss = _cross_distances(senders, senders)
    rr = _cross_distances(receivers, receivers)
    sr = _cross_distances(senders, receivers)
    gap = np.minimum(np.minimum(ss, rr), np.minimum(sr, sr.T))
    np.fill_diagonal(gap, 0.0)
    return gap


def frozen_adjacency(links, threshold) -> np.ndarray:
    """Dense boolean adjacency of ``G_f(links)``."""
    lengths = links.lengths
    gap = _link_distances(links.senders, links.receivers)
    lmin = np.minimum(lengths[:, None], lengths[None, :])
    lmax = np.maximum(lengths[:, None], lengths[None, :])
    adjacent = gap <= lmin * threshold(lmax / lmin)
    np.fill_diagonal(adjacent, False)
    return adjacent


def _frozen_rows(links, threshold, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of :func:`frozen_adjacency`, entry for entry: the
    transposed ``sr`` block is ``cross(receivers[rows], senders)``."""
    s, r, lengths = links.senders, links.receivers, links.lengths
    ss = _cross_distances(s[rows], s)
    rr = _cross_distances(r[rows], r)
    sr = _cross_distances(s[rows], r)
    rs = _cross_distances(r[rows], s)
    gap = np.minimum(np.minimum(ss, rr), np.minimum(sr, rs))
    local = np.arange(rows.size)
    gap[local, rows] = 0.0
    lmin = np.minimum(lengths[rows][:, None], lengths[None, :])
    lmax = np.maximum(lengths[rows][:, None], lengths[None, :])
    adjacent = gap <= lmin * threshold(lmax / lmin)
    adjacent[local, rows] = False
    return adjacent


def frozen_csr(links, threshold, *, block=None) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the frozen adjacency, as int64 CSR.

    ``block`` evaluates it in row blocks of that many links, for sizes
    whose ``n x n`` matrices do not fit in memory.
    """
    n = len(links)
    if block is None:
        blocks = [frozen_adjacency(links, threshold)]
    else:
        blocks = (
            _frozen_rows(links, threshold, np.arange(a, min(a + block, n)))
            for a in range(0, n, block)
        )
    degrees, indices = [], []
    for adjacent in blocks:
        degrees.append(adjacent.sum(axis=1))
        indices.append(np.nonzero(adjacent)[1].astype(np.int64))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(degrees), out=indptr[1:])
    return indptr, np.concatenate(indices)
