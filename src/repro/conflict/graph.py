"""Conflict-graph construction and queries.

A :class:`ConflictGraph` is the graph ``G_f(L)`` over a link set: links
are vertices, and ``i ~ j`` iff they are *f-conflicting* (Appendix A),
``d(i, j) <= l_min * f(l_max / l_min)``.

Every edge is local, at the scale of its shorter link.  The build
bounds each link's reach by its own conflict radius
(:meth:`~repro.conflict.functions.ThresholdFunction.link_radii`),
buckets the links into the paper's doubling length classes ``L_t``
(:func:`~repro.links.classes.length_class_index`) and gives each class
one uniform grid over both endpoints of its members, with the class's
largest radius as the cell size.  Each grid is queried by the endpoints
of every link in its class or a longer one, and of the dense-block
links, within :data:`CELL_SAFETY_MARGIN` cells per axis; only those
candidate pairs run the exact test.  A class no grid can help —
coordinates beyond :data:`MAX_CELLS_PER_AXIS` cells (the 1e119-scale
exponential chains), a cell at least a fifth of its members' extent
(the log threshold at alpha = 2.5), or too few links to repay a grid —
joins one exact dense block, which costs what an all-pairs build
costs.  The result is a CSR
:class:`~repro.conflict.adjacency.SparseAdjacency`, the graph's only
representation, and it does not depend on the numeric backend.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import networkx as nx
import numpy as np

from repro.conflict.adjacency import SparseAdjacency
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
    ThresholdFunction,
)
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.geometry.distances import cross_distances
from repro.links.classes import length_class_index
from repro.links.linkset import LinkSet

__all__ = ["ConflictGraph", "g1_graph", "oblivious_graph", "arbitrary_graph"]

#: Largest coordinate magnitude, in cells, a class grid represents in
#: one or two dimensions (fewer in three, so packed keys fit int64).
#: Below it the float64 quotient ``x / cell`` is off by far less than a
#: cell; beyond it the class joins the dense block.
MAX_CELLS_PER_AXIS: int = 2**30

#: Neighbourhood reach in cells per axis.  One suffices in exact
#: arithmetic (cell >= radius); the second absorbs floor rounding at
#: cell boundaries.
CELL_SAFETY_MARGIN: int = 2

#: A class whose cell is at least this fraction of its members' extent
#: gains nothing from a grid: the neighbourhood already spans them all.
_MIN_EXTENT_CELLS: int = 5

#: A class whose rows hold fewer link pairs than this is cheaper to
#: evaluate in the dense block than to grid (a grid has a fixed cost).
_MIN_GRID_PAIRS: int = 2**16

#: Largest side of the square tiles the dense block is evaluated in.
#: A 2-D tile's coordinate differences (90^2 x 2 float64) stay under
#: the usual 128 KiB allocator threshold, so tiles recycle heap memory
#: instead of faulting in fresh pages on every build.
_DENSE_TILE: int = 90


def _point_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``|a[p] - b[p]|``, bit for bit the entries of
    :func:`~repro.geometry.distances.cross_distances`."""
    if a.shape[1] == 1:
        return np.abs(a[:, 0] - b[:, 0])
    diff = a - b
    return np.sqrt(np.einsum("pk,pk->p", diff, diff))


def _grid_candidates(
    ends: np.ndarray, cell: float, members: np.ndarray, queriers: np.ndarray, n: int
) -> np.ndarray:
    """Packed ``lo * n + hi`` keys of the link pairs (member, querier)
    with an endpoint of each within ``CELL_SAFETY_MARGIN`` cells per
    axis on a grid of cell size ``cell``."""
    margin = CELL_SAFETY_MARGIN
    mends = np.concatenate([members, members + n])
    qends = np.concatenate([queriers, queriers + n])
    with np.errstate(over="ignore"):
        mcells = np.floor(ends[mends] / cell)
        qcells = np.floor(ends[qends] / cell)
    # Only querier endpoints in the margin-padded box of the members'
    # cells can be near one; the rest may lie beyond int64 range.
    lo = mcells.min(axis=0) - margin
    hi = mcells.max(axis=0) + margin
    inside = np.all((qcells >= lo) & (qcells <= hi), axis=1)
    qends, qcells = qends[inside], qcells[inside]
    # Row-major packing over the box: every neighbour of a member cell
    # stays inside it, so keys never collide or wrap.
    spans = (hi - lo + 1).astype(np.int64)
    mult = np.ones(spans.size, dtype=np.int64)
    for axis in range(spans.size - 2, -1, -1):
        mult[axis] = mult[axis + 1] * spans[axis + 1]
    reach = np.arange(-margin, margin + 1)
    grids = np.meshgrid(*([reach] * spans.size), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1) @ mult
    mkeys = (mcells - lo).astype(np.int64) @ mult
    qkeys = (qcells - lo).astype(np.int64) @ mult

    near = (mkeys[:, None] + offsets[None, :]).ravel()
    order = np.argsort(near, kind="stable")
    near = near[order]
    owner = np.repeat(mends % n, offsets.size)[order]
    start = np.searchsorted(near, qkeys, side="left")
    count = np.searchsorted(near, qkeys, side="right") - start
    # Expand each querier endpoint's [start, start + count) slice.
    first = np.repeat(start - np.cumsum(count) + count, count)
    found = owner[first + np.arange(int(count.sum()))]
    other = np.repeat(qends % n, count)
    keep = found != other
    lo_link = np.minimum(found[keep], other[keep])
    hi_link = np.maximum(found[keep], other[keep])
    return lo_link * n + hi_link


class ConflictGraph:
    """The conflict graph ``G_f(L)``.

    Parameters
    ----------
    links:
        The link set (vertex ``i`` is ``links`` entry ``i``).
    threshold:
        The function ``f`` defining independence.
    """

    def __init__(self, links: LinkSet, threshold: ThresholdFunction) -> None:
        self.links = links
        self.threshold = threshold
        self._csr, self._candidate_pairs = self._build()

    def _conflicting(
        self, gap: np.ndarray, li: np.ndarray, lj: np.ndarray
    ) -> np.ndarray:
        # Conflict iff d(i, j) <= l_min * f(l_max / l_min).  LinkSet
        # construction guarantees strictly positive lengths
        # (DegenerateLinkError otherwise), so the ratio is always finite
        # and warning-free.
        lmin = np.minimum(li, lj)
        lmax = np.maximum(li, lj)
        return gap <= lmin * self.threshold(lmax / lmin)

    def _search(self) -> Tuple[np.ndarray, np.ndarray]:
        """The candidate search: grid pairs packed as sorted, unique
        ``i * n + j`` keys with ``i < j``, and the dense-block links.

        Every conflicting pair is a grid pair or lies inside the dense
        block; the two sets of pairs are disjoint.
        """
        links = self.links
        n = len(links)
        if n * n < _MIN_GRID_PAIRS:  # no class can repay a grid
            return np.empty(0, dtype=np.int64), np.arange(n)
        ends = np.concatenate([links.senders, links.receivers])  # row k: link k % n
        labels, inverse, sizes = np.unique(
            length_class_index(links.lengths), return_inverse=True, return_counts=True
        )
        cells = np.zeros(labels.size)
        np.maximum.at(cells, inverse, self.threshold.link_radii(links.lengths))
        # Bounding box of each class's endpoints.
        lo = np.full((labels.size, ends.shape[1]), np.inf)
        hi = np.full((labels.size, ends.shape[1]), -np.inf)
        np.minimum.at(lo, np.tile(inverse, 2), ends)
        np.maximum.at(hi, np.tile(inverse, 2), ends)
        extent = (hi - lo).max(axis=1)
        coords = np.maximum(np.abs(lo), np.abs(hi)).max(axis=1)
        cap = min(MAX_CELLS_PER_AXIS, 2 ** (62 // ends.shape[1] - 1))
        with np.errstate(over="ignore"):
            gridded = (
                np.isfinite(cells)
                & (cells * _MIN_EXTENT_CELLS < extent)
                & (coords / cells <= cap)
                & (sizes * n >= _MIN_GRID_PAIRS)
            )
        dense = ~gridded[inverse]
        found = [np.empty(0, dtype=np.int64)]
        for t in np.flatnonzero(gridded):
            # Class t's grid finds every conflict of its members with a
            # link of class t or longer, and with the dense-block links.
            members = np.flatnonzero(inverse == t)
            queriers = np.flatnonzero((inverse >= t) | dense)
            found.append(_grid_candidates(ends, float(cells[t]), members, queriers, n))
        # Sort-based dedup: several times faster than np.unique's hash
        # path on these heavily duplicated int64 keys.
        pairs = np.sort(np.concatenate(found))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        return pairs, np.flatnonzero(dense)

    def _build(self) -> Tuple[SparseAdjacency, int]:
        """The CSR adjacency and the number of pairs tested."""
        n = len(self.links)
        lengths = self.links.lengths
        s, r = self.links.senders, self.links.receivers
        pairs, rows = self._search()
        f = int(rows.size)

        i, j = pairs // n, pairs % n
        gap = _point_distances(s[i], s[j])
        np.minimum(gap, _point_distances(r[i], r[j]), out=gap)
        np.minimum(gap, _point_distances(s[i], r[j]), out=gap)
        np.minimum(gap, _point_distances(r[i], s[j]), out=gap)
        hit = self._conflicting(gap, lengths[i], lengths[j])
        edge_keys = [i[hit] * n + j[hit], j[hit] * n + i[hit]]

        # The dense block, in square tiles of its upper triangle: gaps and
        # thresholds are symmetric bit for bit, so tile (a, b) also gives
        # tile (b, a).
        tiles = np.array_split(rows, -(-f // _DENSE_TILE)) if f else []
        for a, ra in enumerate(tiles):
            for rb in tiles[a:]:
                gap = cross_distances(s[ra], s[rb])
                np.minimum(gap, cross_distances(r[ra], r[rb]), out=gap)
                sr = cross_distances(s[ra], r[rb])
                np.minimum(gap, sr, out=gap)
                rs = sr.T if rb is ra else cross_distances(r[ra], s[rb])
                np.minimum(gap, rs, out=gap)
                adjacent = self._conflicting(
                    gap, lengths[ra][:, None], lengths[rb][None, :]
                )
                if rb is ra:
                    adjacent = np.triu(adjacent, 1)
                flat = np.flatnonzero(adjacent)  # cheaper than 2-D nonzero
                i, j = ra[flat // rb.size], rb[flat % rb.size]
                edge_keys += [i * n + j, j * n + i]

        keys = np.sort(np.concatenate(edge_keys))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        csr = SparseAdjacency(indptr, keys % n)
        csr.indptr.setflags(write=False)
        csr.indices.setflags(write=False)
        return csr, int(pairs.size) + f * (f - 1) // 2

    # ------------------------------------------------------------------
    @property
    def adjacency(self) -> np.ndarray:
        """Read-only dense boolean adjacency matrix.

        Materialised from the CSR on first access (guarded by a byte
        budget) and cached.  Scale-sensitive code should prefer
        :meth:`neighbors` / :meth:`degree` / :meth:`is_independent`,
        which never densify.
        """
        return self._csr.to_dense()

    @property
    def candidate_pairs(self) -> int:
        """Link pairs the build ran the exact test on (grid candidates
        plus the pairs of the dense block)."""
        return self._candidate_pairs

    @property
    def n(self) -> int:
        """Number of vertices (= links)."""
        return len(self.links)

    @property
    def edge_count(self) -> int:
        """Number of conflict edges."""
        return self._csr.edge_count

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted indices adjacent to vertex ``i``."""
        return self._csr.neighbors(i)

    def degree(self, i: int) -> int:
        """Degree of vertex ``i``."""
        return self._csr.degree(i)

    def max_degree(self) -> int:
        """Maximum degree."""
        return self._csr.max_degree()

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether links ``i`` and ``j`` conflict."""
        return self._csr.are_adjacent(i, j)

    def is_independent(self, subset: Sequence[int]) -> bool:
        """Whether ``subset`` is pairwise f-independent."""
        return not self._csr.has_internal_edge(np.asarray(subset, dtype=int))

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every edge ``(i, j)`` with ``i < j`` as two index arrays, in
        row-major order."""
        rows = np.repeat(np.arange(self.n), self._csr.degrees())
        upper = rows < self._csr.indices
        return rows[upper], self._csr.indices[upper]

    def to_networkx(self) -> nx.Graph:
        """Export as a :mod:`networkx` graph (vertex = link index)."""
        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        rows, cols = self.edges()
        g.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return g

    def subgraph(self, indices: Sequence[int]) -> "ConflictGraph":
        """Induced conflict graph on a subset of links."""
        return ConflictGraph(self.links.subset(indices), self.threshold)

    def __repr__(self) -> str:
        return f"ConflictGraph({self.threshold.name}, n={self.n}, m={self.edge_count})"


def g1_graph(links: LinkSet, gamma: float = DEFAULT_GAMMA) -> ConflictGraph:
    """The constant-threshold graph ``G_gamma`` (Theorem 2's ``G1``)."""
    return ConflictGraph(links, ConstantThreshold(gamma))


def oblivious_graph(
    links: LinkSet, gamma: float = DEFAULT_GAMMA, delta: float = DEFAULT_DELTA
) -> ConflictGraph:
    """``G_obl = G^delta_gamma``: independent sets are ``P_tau``-feasible
    for suitable constants; chromatic number is
    ``O(log log Delta) * chi(G1)``."""
    return ConflictGraph(links, PowerLawThreshold(gamma, delta))


def arbitrary_graph(
    links: LinkSet, gamma: float = DEFAULT_GAMMA, alpha: float = 3.0
) -> ConflictGraph:
    """``G_arb = G_{gamma log}``: independent sets are feasible under
    global power control; chromatic number is
    ``O(log* Delta) * chi(G1)``."""
    return ConflictGraph(links, LogThreshold(gamma, alpha))
