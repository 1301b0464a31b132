"""``blocked-sparse`` — streamed kernel blocks, never a dense memo.

In the near-threshold regime most affectance entries are negligible,
so the dense ``O(n^2)`` memoized kernel matrices that dominate large
instances are avoidable.  Kernel blocks use the exact ``dense-numpy``
expressions (bit-identity contract: no entry is ever dropped, however
small), but the backend sets ``allows_dense = False`` so the kernel
cache never promotes a full ``n x n`` matrix — ``dense_builds == 0`` by
construction, and column sums stream over row blocks.
"""

from __future__ import annotations

from repro.backend.dense import DenseNumpyBackend

__all__ = ["BlockedSparseBackend"]


class BlockedSparseBackend(DenseNumpyBackend):
    """Identical block math, but never-dense memos."""

    name = "blocked-sparse"
    allows_dense = False
