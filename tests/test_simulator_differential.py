"""Differential check of the incremental convergecast simulator.

:class:`AggregationSimulator` keeps a running backlog and per-node ready
heaps; :class:`_frozen_simulator.FrozenAggregationSimulator` is the
original rescanning implementation, kept verbatim in tests.  Over random
trees x schedules x injection periods x aggregates, the two must return
equal :class:`SimulationResult` objects: latencies, max and final
backlog, ``values_correct``, ``slots_elapsed`` and frame counts.

Run deeper with ``HYPOTHESIS_PROFILE=ci`` (200 examples).
"""

from __future__ import annotations

import numpy as np
import pytest
from _frozen_simulator import FrozenAggregationSimulator
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.aggregation.functions import COUNT, MAX, MEAN, SUM, threshold_count
from repro.aggregation.median import median_via_counting
from repro.aggregation.simulator import AggregationSimulator
from repro.api import Pipeline, PipelineConfig
from repro.geometry.generators import line_points, uniform_square
from repro.geometry.point import PointSet
from repro.scheduling.builder import ScheduleBuilder
from repro.scheduling.schedule import Schedule, Slot
from repro.sinr.model import SINRModel
from repro.spanning.tree import AggregationTree

MODEL = SINRModel(alpha=3.0, beta=1.0)
FUNCTIONS = [SUM, MAX, COUNT, MEAN, threshold_count(50.0)]


def _tree(kind: str, n: int, seed: int, sink: int) -> AggregationTree:
    gen = np.random.default_rng(seed)
    sink %= n
    if kind == "square":
        return AggregationTree.mst(uniform_square(n, rng=seed), sink=sink)
    if kind == "line":
        return AggregationTree.mst(line_points(gen.permutation(n * 4)[:n]), sink=sink)
    if kind == "star":
        angles = np.linspace(0.0, 2 * np.pi, n - 1, endpoint=False)
        radii = gen.uniform(1.0, 2.0, size=n - 1)
        spokes = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        points = PointSet(np.vstack([[0.0, 0.0], spokes]))
        return AggregationTree(points, [(0, v) for v in range(1, n)], sink=sink)
    # A deep chain: height up to n - 1, depending on where the sink sits.
    points = line_points(np.arange(n, dtype=float))
    return AggregationTree(points, [(v, v + 1) for v in range(n - 1)], sink=sink)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(["square", "line", "star", "chain"]))
    n = draw(st.integers(2, 30))
    tree = _tree(kind, n, draw(st.integers(0, 2**16)), draw(st.integers(0, n - 1)))
    links = tree.links()
    if draw(st.booleans()):
        schedule = ScheduleBuilder(MODEL, "global").build_for_tree(tree)
    else:
        # A random partition of the links into slots, in random order
        # within each slot (order matters: a child sending earlier in a
        # slot can make its parent ready for the same slot).
        order = draw(st.permutations(range(len(links))))
        labels = draw(
            st.lists(st.integers(0, len(links) - 1), min_size=len(links), max_size=len(links))
        )
        groups = {}
        for index in order:
            groups.setdefault(labels[index], []).append(index)
        slots = [Slot(tuple(g), (1.0,) * len(g)) for _, g in sorted(groups.items())]
        schedule = Schedule(links, slots, MODEL, validate=False)
    period = schedule.num_slots
    kwargs = {"injection_period": draw(st.integers(1, 3 * period))}
    if draw(st.booleans()):
        kwargs["max_slots"] = draw(st.integers(0, 6 * period * (tree.height() + 2)))
    return (
        tree,
        schedule,
        draw(st.sampled_from(FUNCTIONS)),
        draw(st.integers(1, 12)),
        draw(st.integers(0, 2**16)),
        kwargs,
    )


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_matches_frozen_simulator(case):
    tree, schedule, function, frames, seed, kwargs = case
    new = AggregationSimulator(tree, schedule, function).run(frames, rng=seed, **kwargs)
    old = FrozenAggregationSimulator(tree, schedule, function).run(
        frames, rng=seed, **kwargs
    )
    assert new == old


def _pipeline_cell(topology: str, n: int, power: str):
    pipe = Pipeline(PipelineConfig(topology=topology, n=n, power=power))
    tree = pipe.build_tree(pipe.deploy())
    return tree, pipe.build_schedule(tree.links())[0]


def test_grid_1024_uniform_200_frames():
    """The ROADMAP baseline cell: grid n=1024, uniform power, seed 1."""
    tree, schedule = _pipeline_cell("grid", 1024, "uniform")
    new = AggregationSimulator(tree, schedule).run(200, rng=1)
    assert new.stable and new.values_correct
    assert new == FrozenAggregationSimulator(tree, schedule).run(200, rng=1)


def test_exponential_chain_400():
    """Tree height ~ n: the deepest pipelines the simulator sees."""
    tree, schedule = _pipeline_cell("exponential", 400, "global")
    assert tree.height() == 399
    new = AggregationSimulator(tree, schedule).run(20, rng=2)
    assert new.stable and new.values_correct
    assert new == FrozenAggregationSimulator(tree, schedule).run(20, rng=2)


class TestGenericInterface:
    """Non-float carriers still aggregate correctly on the new path."""

    @pytest.fixture
    def setup(self):
        tree = AggregationTree.mst(uniform_square(25, rng=4), sink=3)
        return tree, ScheduleBuilder(MODEL, "global").build_for_tree(tree)

    def test_mean_tuple_carrier(self, setup):
        tree, schedule = setup
        result = AggregationSimulator(tree, schedule, MEAN).run(6, rng=5)
        assert result.stable and result.values_correct

    def test_median_by_counting(self, setup):
        tree, schedule = setup
        readings = np.random.default_rng(6).uniform(0.0, 100.0, size=len(tree.points))
        result = median_via_counting(readings, tree=tree, schedule=schedule)
        assert result.median == pytest.approx(
            np.sort(readings)[(len(readings) - 1) // 2], abs=1e-5
        )
        assert result.slots_used > 0
