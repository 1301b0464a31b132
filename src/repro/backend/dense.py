"""``dense-numpy`` — the reference backend (seed behaviour, verbatim).

The block and full-matrix builders here are the exact expressions the
seed :class:`~repro.sinr.kernels.KernelCache` used inline; every other
backend is defined (and tested) as byte-identical to this one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.backend.base import NumericBackend
from repro.geometry.distances import cross_distances

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.links.linkset import LinkSet

__all__ = ["DenseNumpyBackend"]


class DenseNumpyBackend(NumericBackend):
    """Plain vectorised numpy; dense memoization allowed."""

    name = "dense-numpy"
    allows_dense = True

    # ------------------------------------------------------------------
    # Geometry blocks
    # ------------------------------------------------------------------
    def gap_block(
        self, links: "LinkSet", rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        s, r = links.senders, links.receivers
        gap = cross_distances(s[rows], s[cols])
        np.minimum(gap, cross_distances(r[rows], r[cols]), out=gap)
        np.minimum(gap, cross_distances(s[rows], r[cols]), out=gap)
        np.minimum(gap, cross_distances(r[rows], s[cols]), out=gap)
        gap[rows[:, None] == cols[None, :]] = 0.0
        return gap

    def srdist_block(
        self, links: "LinkSet", rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        return cross_distances(links.senders[rows], links.receivers[cols])

    # ------------------------------------------------------------------
    # Additive kernel  I[j, i] = min(1, l_j^alpha / d(i, j)^alpha)
    # ------------------------------------------------------------------
    def additive_full(self, links: "LinkSet", alpha: float) -> np.ndarray:
        gap = links.link_distances()
        lengths = links.lengths
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (lengths[:, None] / gap) ** alpha
        m = np.minimum(1.0, ratio)
        np.fill_diagonal(m, 0.0)
        return m

    def additive_block(
        self, links: "LinkSet", alpha: float, rows: np.ndarray, cols: np.ndarray
    ) -> np.ndarray:
        gap = self.gap_block(links, rows, cols)
        lengths = links.lengths
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (lengths[rows][:, None] / gap) ** alpha
        m = np.minimum(1.0, ratio)
        m[rows[:, None] == cols[None, :]] = 0.0
        return m

    # ------------------------------------------------------------------
    # Relative kernel  R[j, i] = (P_j/P_i) (l_i/d_ji)^alpha
    # ------------------------------------------------------------------
    def relative_full(
        self, links: "LinkSet", vec: np.ndarray, alpha: float
    ) -> np.ndarray:
        dist = links.sender_receiver_distances()
        lengths = links.lengths
        with np.errstate(divide="ignore", over="ignore"):
            r = (vec[:, None] / vec[None, :]) * (lengths[None, :] / dist) ** alpha
        np.fill_diagonal(r, 0.0)
        return r

    def relative_block(
        self,
        links: "LinkSet",
        vec: np.ndarray,
        alpha: float,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        dist = self.srdist_block(links, rows, cols)
        lengths = links.lengths
        with np.errstate(divide="ignore", over="ignore"):
            rel = (vec[rows][:, None] / vec[cols][None, :]) * (
                lengths[cols][None, :] / dist
            ) ** alpha
        rel[rows[:, None] == cols[None, :]] = 0.0
        return rel

    # ------------------------------------------------------------------
    # Affectance kernel  A[i, j] = beta * l_i^alpha / d_ji^alpha
    # ------------------------------------------------------------------
    def affectance_full(
        self, links: "LinkSet", alpha: float, beta: float
    ) -> np.ndarray:
        dist = links.sender_receiver_distances()
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (links.lengths[None, :] / dist) ** alpha
        a = beta * ratio.T
        np.fill_diagonal(a, 0.0)
        return a

    def affectance_block(
        self,
        links: "LinkSet",
        alpha: float,
        beta: float,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> np.ndarray:
        dist = self.srdist_block(links, cols, rows)  # [j, i]
        lengths = links.lengths
        with np.errstate(divide="ignore", over="ignore"):
            ratio = (lengths[rows][None, :] / dist) ** alpha  # [j, i]
        a = beta * ratio.T  # [i, j]
        a[rows[:, None] == cols[None, :]] = 0.0
        return a
