"""Differential check of the conflict-graph build.

:class:`repro.conflict.graph.ConflictGraph` finds candidate pairs with
one grid per length class and runs the exact test only on them, or on
one dense block for the classes no grid can help;
:mod:`_frozen_conflict` is the original dense all-pairs build, kept
verbatim in tests.  Over threshold functions x deployments x length
diversity, the CSR ``indptr`` and ``indices`` must be byte-identical.

Run deeper with ``HYPOTHESIS_PROFILE=ci`` (200 examples).
"""

from __future__ import annotations

import numpy as np
import pytest
from _frozen_conflict import frozen_csr
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conflict.functions import ConstantThreshold, LogThreshold, PowerLawThreshold
from repro.conflict.graph import ConflictGraph
from repro.geometry.generators import make_deployment
from repro.links.linkset import LinkSet
from repro.spanning.tree import AggregationTree

KINDS = [
    "uniform",
    "clustered",
    "mst-square",
    "mst-grid",
    "mst-exponential",
    "geometric-line",
    "chain-1e154",
    "shared-endpoints",
    "uniform-3d",
]


def _lengths(
    gen: np.random.Generator, n: int, log_delta: float, tail: float
) -> np.ndarray:
    """Bulk lengths within one doubling class, plus a log-uniform tail
    reaching diversity ``10**log_delta``."""
    lengths = gen.uniform(0.5, 1.0, size=n)
    diverse = gen.random(n) < tail
    lengths[diverse] = 10.0 ** gen.uniform(0.0, log_delta, size=int(diverse.sum()))
    return lengths


def _directions(gen: np.random.Generator, n: int, dim: int) -> np.ndarray:
    dirs = gen.normal(size=(n, dim))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _links(kind: str, n: int, seed: int, log_delta: float, tail: float) -> LinkSet:
    gen = np.random.default_rng(seed)
    if kind.startswith("mst-"):
        if kind == "mst-exponential":
            n = min(n, 400)  # 2^1024 overflows float64
        points = make_deployment(kind[4:], n, rng=seed)
        return AggregationTree.mst(points).links()
    if kind == "geometric-line":
        ratio = 1.0 + gen.uniform(0.01, 2.0)
        n = min(n, int(150.0 / np.log10(ratio)))
        coords = np.cumsum(ratio ** np.arange(n + 1))[:, None]
        return LinkSet(coords[:-1], coords[1:])
    if kind == "chain-1e154":
        coords = 10.0 ** np.linspace(0.0, 154.0, n + 1)[:, None]
        return LinkSet(coords[:-1], coords[1:])
    dim = 3 if kind == "uniform-3d" else 2
    side = 4.0 * np.sqrt(n)
    if kind == "clustered":
        centers = gen.uniform(0.0, side * 4.0, size=(max(2, n // 40), dim))
        senders = centers[gen.integers(0, centers.shape[0], size=n)]
        senders = senders + gen.normal(0.0, 2.0, size=(n, dim))
    else:
        senders = gen.uniform(0.0, side, size=(n, dim))
    lengths = _lengths(gen, n, log_delta, tail)
    receivers = senders + lengths[:, None] * _directions(gen, n, dim)
    if kind == "shared-endpoints":
        # Stars (several links leave one sender), reversed links (the
        # receiver of one is the sender of another) and exact duplicates.
        hubs = gen.integers(0, n, size=n // 3)
        senders[gen.integers(0, n, size=hubs.size)] = senders[hubs]
        flip = gen.integers(0, n, size=n // 6)
        senders[flip], receivers[flip] = receivers[flip - 1], senders[flip - 1]
        dup = gen.integers(0, n, size=n // 6)
        senders[dup], receivers[dup] = senders[dup - 1], receivers[dup - 1]
        keep = np.linalg.norm(receivers - senders, axis=1) > 0
        senders, receivers = senders[keep], receivers[keep]
    return LinkSet(senders, receivers)


@st.composite
def _thresholds(draw):
    gamma = draw(st.floats(0.5, 3.0))
    kind = draw(st.sampled_from(["constant", "power", "log"]))
    if kind == "constant":
        return ConstantThreshold(gamma)
    if kind == "power":
        return PowerLawThreshold(gamma, draw(st.floats(0.05, 0.95)))
    return LogThreshold(gamma, draw(st.floats(2.5, 6.0)))


def _assert_identical(links: LinkSet, threshold) -> ConflictGraph:
    graph = ConflictGraph(links, threshold)
    indptr, indices = frozen_csr(links, threshold)
    assert graph._csr.indptr.tobytes() == indptr.tobytes()
    assert graph._csr.indices.tobytes() == indices.tobytes()
    return graph


class TestFrozenDifferential:
    @given(
        kind=st.sampled_from(KINDS),
        n=st.integers(2, 1200),
        seed=st.integers(0, 2**16),
        log_delta=st.floats(0.0, 12.0),
        tail=st.floats(0.0, 0.3),
        threshold=_thresholds(),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_csr_byte_identical(self, kind, n, seed, log_delta, tail, threshold):
        _assert_identical(_links(kind, n, seed, log_delta, tail), threshold)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "threshold",
        [ConstantThreshold(1.0), PowerLawThreshold(1.0, 0.25), LogThreshold(1.0, 3.0)],
        ids=lambda t: t.name,
    )
    def test_large_instances(self, kind, threshold):
        """Sizes at which class grids, not the dense block, carry the
        build on 2-D and 3-D deployments (the property above mostly
        draws smaller ones); 1-D chains run as one dense block."""
        graph = _assert_identical(_links(kind, 1200, 7, 2.0, 0.05), threshold)
        all_pairs = graph.n * (graph.n - 1) // 2
        if kind in ("mst-exponential", "geometric-line", "chain-1e154"):
            assert graph.candidate_pairs == all_pairs
        elif kind.startswith("mst-") or not isinstance(threshold, LogThreshold):
            # The log threshold's radius at diversity 100 spans a fifth
            # of these small uniform deployments.
            assert 0 < graph.candidate_pairs * 4 < all_pairs
