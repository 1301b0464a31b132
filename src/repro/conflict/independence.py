"""Inductive independence of conflict graphs (Appendix A, [27]).

``G_f`` has *constant inductive independence*: for every link ``i``,
any independent subset of the longer-or-equal neighbours ``N+_i`` has
bounded cardinality.  That constant is what makes greedy first-fit a
constant-factor coloring approximation.  This module measures it.
"""

from __future__ import annotations

import numpy as np

from repro.conflict.graph import ConflictGraph

__all__ = ["inductive_independence_number"]


def _induced(graph: ConflictGraph, vertices: np.ndarray) -> np.ndarray:
    """Dense adjacency among ``vertices`` (local indices), from the CSR."""
    return np.array([np.isin(vertices, graph.neighbors(v)) for v in vertices])


def _greedy_independent_size(adjacency: np.ndarray) -> int:
    """Size of a maximal independent set grown greedily in index order."""
    chosen: list[int] = []
    for v in range(adjacency.shape[0]):
        if not any(adjacency[v, u] for u in chosen):
            chosen.append(v)
    return len(chosen)


def inductive_independence_number(graph: ConflictGraph, *, exact_limit: int = 16) -> int:
    """Measured inductive independence of a conflict graph.

    For each vertex ``i``, considers the neighbours that are not shorter
    than ``i`` and computes the largest independent set among them —
    exactly when the neighbourhood is small (``<= exact_limit``),
    greedily (a lower bound) otherwise.  Returns the maximum over ``i``.
    """
    lengths = graph.links.lengths
    worst = 0
    for i in range(graph.n):
        nbrs = graph.neighbors(i)
        nbrs = nbrs[lengths[nbrs] >= lengths[i]]
        if nbrs.size == 0:
            continue
        adjacency = _induced(graph, nbrs)
        if nbrs.size <= exact_limit:
            worst = max(worst, _exact_independent_size(adjacency))
        else:
            worst = max(worst, _greedy_independent_size(adjacency))
    return worst


def _exact_independent_size(adjacency: np.ndarray) -> int:
    """Exact maximum independent set by branch and bound on few vertices."""
    verts = list(range(adjacency.shape[0]))

    def recurse(remaining: list[int]) -> int:
        if not remaining:
            return 0
        v, rest = remaining[0], remaining[1:]
        # Branch 1: skip v.
        best = recurse(rest)
        # Branch 2: take v, drop its neighbours.
        kept = [u for u in rest if not adjacency[v, u]]
        best = max(best, 1 + recurse(kept))
        return best

    return recurse(verts)
