"""Tests for grid-bucket spatial pruning (repro.geometry.spatial).

The two properties that make pruning safe to turn on by default:

* **conservative** — every edge of the unpruned conflict graph lies in
  some candidate block pair (locked by a hypothesis property over all
  three threshold functions and uniform/clustered deployments);
* **bit-identical** — the pruned adjacency is byte-equal to the
  unpruned build, per backend, including under ``block_workers``
  parallelism.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import numeric_backends
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
)
from repro.conflict.graph import ConflictGraph
from repro.errors import GeometryError
from repro.geometry.spatial import (
    GridBucketIndex,
    GridCandidateGenerator,
    conflict_candidates,
)
from repro.links.linkset import LinkSet

THRESHOLDS = [
    ConstantThreshold(1.5),
    PowerLawThreshold(1.0, 0.3),
    LogThreshold(1.0, 3.0),
]


def _deployment(n: int, seed: int, topology: str) -> LinkSet:
    rng = np.random.default_rng(seed)
    if topology == "clustered":
        centers = rng.uniform(0.0, 200.0, size=(max(2, n // 20), 2))
        senders = centers[rng.integers(0, centers.shape[0], size=n)]
        senders = senders + rng.normal(0.0, 2.0, size=(n, 2))
    else:
        senders = rng.uniform(0.0, 100.0, size=(n, 2))
    offsets = rng.uniform(0.2, 2.0, size=(n, 1)) * _unit_dirs(rng, n)
    return LinkSet(senders, senders + offsets)


def _unit_dirs(rng, n: int) -> np.ndarray:
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


class TestGridBucketIndex:
    def test_members_and_cell_of(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.3], [5.5, 5.5]])
        idx = GridBucketIndex(pts, cell_size=1.0)
        assert idx.cell_of([0.1, 0.1]) == (0, 0)
        assert set(idx.members((0, 0)).tolist()) == {0, 1}
        assert idx.members((5, 5)).tolist() == [2]
        assert idx.members((9, 9)).size == 0
        assert idx.n_cells == 2

    def test_neighborhood_reaches_adjacent_cells(self):
        pts = np.array([[0.5, 0.5], [1.5, 0.5], [3.5, 0.5]])
        idx = GridBucketIndex(pts, cell_size=1.0)
        near = idx.neighborhood((0, 0), reach=1)
        assert 0 in near and 1 in near and 2 not in near

    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            GridBucketIndex(np.zeros((1, 2)), cell_size=0.0)
        with pytest.raises(GeometryError):
            GridBucketIndex(np.zeros((1, 2)), cell_size=np.inf)

    def test_empty_points(self):
        with pytest.raises(GeometryError):
            GridBucketIndex(np.empty((0, 2)), cell_size=1.0)

    def test_precision_unsafe_coordinates(self):
        with pytest.raises(GeometryError):
            GridBucketIndex(np.array([[1e200, 0.0]]), cell_size=1.0)


class TestMaxRadius:
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_bounds_every_pair(self, threshold, seed):
        """max_radius dominates l_min * f(l_max/l_min) for every pair."""
        rng = np.random.default_rng(seed)
        lengths = rng.uniform(0.05, 50.0, size=20)
        bound = threshold.max_radius(lengths)
        li = lengths[:, None]
        lj = lengths[None, :]
        lmin = np.minimum(li, lj)
        lmax = np.maximum(li, lj)
        pair_radii = lmin * threshold(lmax / lmin)
        assert np.all(pair_radii <= bound + 1e-9 * bound)

    def test_constant_is_gamma_lmax(self):
        lengths = np.array([1.0, 4.0, 2.0])
        assert ConstantThreshold(2.0).max_radius(lengths) == 8.0

    def test_power_law_independent_of_diversity(self):
        f = PowerLawThreshold(1.0, 0.5)
        assert f.max_radius(np.array([1e-6, 10.0])) == 10.0


class TestConservativeness:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 80),
        block_size=st.integers(1, 16),
        threshold=st.sampled_from(THRESHOLDS),
        topology=st.sampled_from(["uniform", "clustered"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_edge_is_a_candidate(self, seed, n, block_size, threshold, topology):
        """Every unpruned edge appears in some candidate block pair."""
        links = _deployment(n, seed, topology)
        gen = conflict_candidates(links, threshold, block_size=block_size)
        assert gen is not None
        unpruned = ConflictGraph(links, threshold, prune=False).adjacency
        covered = np.zeros((n, n), dtype=bool)
        for rows, cols in gen.pairs():
            covered[np.ix_(rows, cols)] = True
        missed = unpruned & ~covered
        assert not missed.any(), f"edges missed by candidates: {np.argwhere(missed)}"

    def test_pairs_cover_each_tile_once(self):
        links = _deployment(60, 3, "uniform")
        gen = conflict_candidates(links, ConstantThreshold(1.5), block_size=8)
        seen = set()
        for rows, cols in gen.pairs():
            key = (rows.tobytes(), cols.tobytes())
            assert key not in seen
            seen.add(key)
        assert len(seen) == gen.pair_count <= gen.total_pairs


class TestBitIdentity:
    @pytest.mark.parametrize("backend", numeric_backends.names())
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @pytest.mark.parametrize("topology", ["uniform", "clustered"])
    def test_pruned_equals_unpruned(self, backend, threshold, topology):
        n = 220
        pruned_links = _deployment(n, 7, topology)
        pruned_links.kernel(backend=backend, force_chunked=True, block_size=32)
        plain_links = _deployment(n, 7, topology)
        plain_links.kernel(backend=backend, force_chunked=True, block_size=32)
        pruned = ConflictGraph(pruned_links, threshold)
        plain = ConflictGraph(plain_links, threshold, prune=False)
        if pruned._sparse is not None:
            assert pruned._sparse.indptr.tobytes() == plain._sparse.indptr.tobytes()
            assert pruned._sparse.indices.tobytes() == plain._sparse.indices.tobytes()
        assert pruned.adjacency.tobytes() == plain.adjacency.tobytes()

    def test_dense_seed_path_matches_forced_blockwise(self):
        links = _deployment(100, 11, "uniform")
        seed_path = ConflictGraph(links, ConstantThreshold(1.5))
        forced = ConflictGraph(
            _deployment(100, 11, "uniform"), ConstantThreshold(1.5), prune=True
        )
        assert seed_path.adjacency.tobytes() == forced.adjacency.tobytes()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_block_workers_parity(self, workers):
        serial_links = _deployment(200, 13, "clustered")
        serial_links.kernel(backend="blocked-sparse", block_size=32)
        par_links = _deployment(200, 13, "clustered")
        par_links.kernel(
            backend="blocked-sparse", block_size=32, block_workers=workers
        )
        serial = ConflictGraph(serial_links, ConstantThreshold(1.5))
        parallel = ConflictGraph(par_links, ConstantThreshold(1.5))
        assert serial._sparse.indptr.tobytes() == parallel._sparse.indptr.tobytes()
        assert serial._sparse.indices.tobytes() == parallel._sparse.indices.tobytes()


class TestPruningEffect:
    def test_block_evals_drop_on_clustered(self):
        """Clustered deployments skip most tiles, deterministically."""
        n, bs = 600, 64
        pruned_links = _deployment(n, 17, "clustered")
        pruned_links.kernel(backend="blocked-sparse", block_size=bs)
        plain_links = _deployment(n, 17, "clustered")
        plain_links.kernel(backend="blocked-sparse", block_size=bs)
        graph = ConflictGraph(pruned_links, ConstantThreshold(1.5))
        ConflictGraph(plain_links, ConstantThreshold(1.5), prune=False)
        pruned_evals = pruned_links.kernel().stats.block_evals
        plain_evals = plain_links.kernel().stats.block_evals
        assert pruned_evals < plain_evals
        assert graph.candidates is not None
        assert graph.candidates.pair_count == pruned_evals
        assert graph.candidates.total_pairs == plain_evals

    def test_unprunable_geometry_falls_back(self):
        """1e154-scale chains exceed the grid's precision-safe range:
        the generator declines and the exact unpruned build runs."""
        coords = np.array([[0.0], [1e150], [1e154]])
        links = LinkSet(coords, coords + np.array([[1.0], [1e140], [1e144]]))
        assert (
            conflict_candidates(links, ConstantThreshold(1.0), block_size=2) is None
        )
        graph = ConflictGraph(links, ConstantThreshold(1.0), prune=True)
        assert graph.candidates is None
        unpruned = ConflictGraph(
            LinkSet(coords, coords + np.array([[1.0], [1e140], [1e144]])),
            ConstantThreshold(1.0),
            prune=False,
        )
        assert graph.adjacency.tobytes() == unpruned.adjacency.tobytes()

    def test_build_declines_on_nonpositive_radius(self):
        links = _deployment(10, 1, "uniform")
        assert GridCandidateGenerator.build(links, 0.0, 4) is None
        assert GridCandidateGenerator.build(links, np.inf, 4) is None

    def test_subgraph_inherits_prune_mode(self):
        links = _deployment(50, 19, "uniform")
        graph = ConflictGraph(links, ConstantThreshold(1.5), prune=False)
        assert graph.subgraph(np.arange(10)).prune is False
