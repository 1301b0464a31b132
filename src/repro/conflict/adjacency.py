"""CSR adjacency — the one representation of a conflict graph.

The conflict adjacency is sparse (bounded degree by the paper's
diversity argument), so :class:`~repro.conflict.graph.ConflictGraph`
keeps only the ``O(n * max_degree)`` index arrays.  The CSR is
hand-rolled so there is no hard scipy dependency;
:meth:`SparseAdjacency.to_scipy` exports a ``csr_matrix`` when scipy is
installed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SparseAdjacency"]


#: Largest dense boolean adjacency (in bytes) that
#: :meth:`SparseAdjacency.to_dense` will materialise on demand.
_DENSE_ADJACENCY_BUDGET_BYTES = 256 * 1024 * 1024


class SparseAdjacency:
    """A symmetric boolean adjacency in CSR form.

    Parameters
    ----------
    indptr:
        ``(n + 1,)`` int64 row pointers.
    indices:
        Column indices, row-major; each row's slice is sorted.
    """

    __slots__ = ("indptr", "indices", "n", "_matrix")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.n = int(self.indptr.size - 1)
        self._matrix: Any = None

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.size // 2)

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbour indices of vertex ``i``."""
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as one vector."""
        return np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def are_adjacent(self, i: int, j: int) -> bool:
        row = self.neighbors(i)
        pos = np.searchsorted(row, j)
        return bool(pos < row.size and row[pos] == j)

    def has_internal_edge(self, subset: np.ndarray) -> bool:
        """Whether any edge connects two vertices of ``subset``."""
        subset = np.asarray(subset, dtype=int)
        if subset.size < 2:
            return False
        members = np.zeros(self.n, dtype=bool)
        members[subset] = True
        for i in subset:
            row = self.neighbors(i)
            if row.size and members[row].any():
                return True
        return False

    def to_dense(self) -> np.ndarray:
        """The dense boolean matrix (cached; guarded by a byte budget)."""
        if self._matrix is None:
            if self.n * self.n > _DENSE_ADJACENCY_BUDGET_BYTES:
                raise ConfigurationError(
                    f"dense adjacency for n={self.n} would exceed the "
                    f"{_DENSE_ADJACENCY_BUDGET_BYTES} byte budget; use "
                    "neighbors()/degrees() on the sparse structure instead"
                )
            dense = np.zeros((self.n, self.n), dtype=bool)
            rows = np.repeat(np.arange(self.n), self.degrees())
            dense[rows, self.indices] = True
            dense.setflags(write=False)
            self._matrix = dense
        return self._matrix

    def to_scipy(self):
        """Export as ``scipy.sparse.csr_matrix`` (requires scipy)."""
        try:
            from scipy.sparse import csr_matrix
        except ImportError as exc:  # pragma: no cover - scipy is bundled
            raise ConfigurationError("scipy is required for to_scipy()") from exc
        data = np.ones(self.indices.size, dtype=bool)
        return csr_matrix((data, self.indices, self.indptr), shape=(self.n, self.n))

    def __repr__(self) -> str:
        return f"SparseAdjacency(n={self.n}, edges={self.edge_count})"
