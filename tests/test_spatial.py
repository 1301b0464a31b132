"""Tests for the conflict graph's link-level candidate search
(:mod:`repro.conflict.graph`).

The two properties that make the search the only build:

* **conservative** — every edge of the frozen dense all-pairs build
  (``tests/_frozen_conflict.py``) is a candidate pair or lies in the
  dense block (a hypothesis property over all three threshold
  functions and uniform/clustered deployments), because per-link radii
  bound every pair;
* **bit-identical** — the CSR is byte-equal to the frozen build under
  every backend and kernel configuration.  The wider differential lives
  in ``tests/test_conflict_differential.py``.
"""

import numpy as np
import pytest
from _frozen_conflict import frozen_adjacency, frozen_csr
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import numeric_backends
from repro.conflict.functions import (
    ConstantThreshold,
    LogThreshold,
    PowerLawThreshold,
)
from repro.conflict.graph import ConflictGraph
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


class TestMaxRadius:
    """Per-link conflict radii (``ThresholdFunction.link_radii``)."""

    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @given(seed=st.integers(0, 10_000), log_spread=st.floats(0.0, 12.0))
    @settings(max_examples=30, deadline=None)
    def test_bounds_every_pair(self, threshold, seed, log_spread):
        """l_min * f(l_max/l_min) <= min(r_i, r_j) for every pair."""
        rng = np.random.default_rng(seed)
        lengths = 10.0 ** rng.uniform(0.0, log_spread, size=20)
        radii = threshold.link_radii(lengths)
        lmin = np.minimum(lengths[:, None], lengths[None, :])
        lmax = np.maximum(lengths[:, None], lengths[None, :])
        pair_radii = lmin * threshold(lmax / lmin)
        bound = np.minimum(radii[:, None], radii[None, :])
        assert np.all(pair_radii <= bound * (1.0 + 1e-12))

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
    def test_log_slope_bound_dominates_f_over_x(self, alpha):
        f = LogThreshold(1.0, alpha)
        x = np.geomspace(1.0, 1e30, 20_001)
        assert np.all(f(x) / x <= f.slope_bound * (1.0 + 1e-12))

    def test_constant_is_gamma_lmax(self):
        lengths = np.array([1.0, 4.0, 2.0])
        radii = ConstantThreshold(2.0).link_radii(lengths)
        assert radii.tolist() == [2.0, 8.0, 4.0]
        assert radii.max() == 8.0

    def test_power_law_independent_of_diversity(self):
        f = PowerLawThreshold(1.0, 0.5)
        # The longest link's radius is gamma * L_max however short the
        # other links are; a short link reaches gamma * sqrt(l * L_max).
        radii = f.link_radii(np.array([1e-6, 10.0]))
        assert radii[1] == 10.0
        assert radii[0] == pytest.approx(np.sqrt(1e-5))


def _covered(graph: ConflictGraph) -> np.ndarray:
    """Dense mask of the pairs the build ran the exact test on."""
    n = graph.n
    pairs, rows = graph._search()
    covered = np.zeros((n, n), dtype=bool)
    covered[pairs // n, pairs % n] = True
    covered[np.ix_(rows, rows)] = True
    return covered | covered.T


class TestConservativeness:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 1200),
        threshold=st.sampled_from(THRESHOLDS),
        topology=st.sampled_from(["uniform", "clustered"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_edge_is_a_candidate(self, seed, n, threshold, topology):
        """Every edge of the frozen dense build is a candidate pair."""
        links = _deployment(n, seed, topology)
        graph = ConflictGraph(links, threshold)
        unpruned = frozen_adjacency(links, threshold)
        missed = unpruned & ~_covered(graph)
        assert not missed.any(), f"edges missed by candidates: {np.argwhere(missed)}"

    def test_pairs_cover_each_tile_once(self):
        """Grid pairs are unique, ordered ``i < j`` and disjoint from the
        dense block; ``candidate_pairs`` counts both exactly once."""
        links = _deployment(1200, 3, "uniform")
        graph = ConflictGraph(links, ConstantThreshold(1.5))
        pairs, rows = graph._search()
        n = graph.n
        assert np.all(np.diff(pairs) > 0)
        assert np.all(pairs // n < pairs % n)
        in_dense = np.isin(pairs // n, rows) & np.isin(pairs % n, rows)
        assert not in_dense.any()
        f = rows.size
        assert graph.candidate_pairs == pairs.size + f * (f - 1) // 2
        assert 0 < graph.candidate_pairs < n * (n - 1) // 2


def _assert_frozen(graph: ConflictGraph, links, threshold) -> None:
    indptr, indices = frozen_csr(links, threshold)
    assert graph._csr.indptr.tobytes() == indptr.tobytes()
    assert graph._csr.indices.tobytes() == indices.tobytes()


class TestBitIdentity:
    """The candidate-search build ("pruned") against the frozen dense
    all-pairs build ("unpruned"), under every backend and kernel
    configuration: the graph no longer depends on either."""

    @pytest.mark.parametrize("backend", numeric_backends.names())
    @pytest.mark.parametrize("threshold", THRESHOLDS, ids=lambda t: t.name)
    @pytest.mark.parametrize("topology", ["uniform", "clustered"])
    def test_pruned_equals_unpruned(self, backend, threshold, topology):
        links = _deployment(1000, 7, topology)
        links.kernel(backend=backend, force_chunked=True, block_size=32)
        graph = ConflictGraph(links, threshold)
        assert graph.candidate_pairs < 1000 * 999 // 2
        _assert_frozen(graph, links, threshold)

    def test_dense_seed_path_matches_forced_blockwise(self):
        dense_kernel = _deployment(100, 11, "uniform")
        chunked_kernel = _deployment(100, 11, "uniform")
        chunked_kernel.kernel(force_chunked=True, block_size=7)
        seed_path = ConflictGraph(dense_kernel, ConstantThreshold(1.5))
        forced = ConflictGraph(chunked_kernel, ConstantThreshold(1.5))
        assert seed_path._csr.indptr.tobytes() == forced._csr.indptr.tobytes()
        assert seed_path._csr.indices.tobytes() == forced._csr.indices.tobytes()

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
        assert serial._csr.indptr.tobytes() == parallel._csr.indptr.tobytes()
        assert serial._csr.indices.tobytes() == parallel._csr.indices.tobytes()


class TestPruningEffect:
    def test_block_evals_drop_on_clustered(self):
        """Clustered deployments test a small fraction of all pairs, and
        the build evaluates no kernel block at all."""
        n = 3000
        links = _deployment(n, 17, "clustered")
        links.kernel(backend="blocked-sparse", block_size=64)
        graph = ConflictGraph(links, ConstantThreshold(1.5))
        assert links.kernel().stats.block_evals == 0
        assert graph.candidate_pairs * 20 < n * (n - 1) // 2
        assert graph.candidate_pairs >= graph.edge_count

    def test_unprunable_geometry_falls_back(self):
        """1e154-scale chains exceed the grid's precision-safe range:
        every link joins the exact dense block."""
        coords = np.array([[0.0], [1e150], [1e154]])
        links = LinkSet(coords, coords + np.array([[1.0], [1e140], [1e144]]))
        graph = ConflictGraph(links, ConstantThreshold(1.0))
        pairs, rows = graph._search()
        assert pairs.size == 0 and rows.tolist() == [0, 1, 2]
        assert graph.candidate_pairs == 3
        _assert_frozen(graph, links, ConstantThreshold(1.0))

    def test_wide_cells_fall_back_to_the_dense_block(self):
        """At alpha = 2.5 the log threshold's cells span a fifth of the
        deployment: no grid can prune, so all pairs run as one block."""
        links = _deployment(400, 5, "uniform")
        threshold = LogThreshold(1.0, 2.5)
        graph = ConflictGraph(links, threshold)
        assert graph._search()[0].size == 0
        assert graph.candidate_pairs == 400 * 399 // 2
        _assert_frozen(graph, links, threshold)
