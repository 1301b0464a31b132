"""The measurement registry: named metric extractors for sweep cells.

A measurement takes a :class:`MeasurementContext` (the built instance:
points, tree, links, and a lazily built schedule) and writes its fields
onto a record — in practice a
:class:`~repro.runner.results.CellResult`, but anything with the right
attributes works.  The sweep engine iterates ``cell.measure`` through
this registry, so new metrics become sweep axes by registration:

>>> from repro.api.measurements import measurements
>>> sorted(measurements.names())
['g1', 'schedule']
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.api.registry import Registry

__all__ = ["MeasurementContext", "measurements", "register_measurement"]


class MeasurementContext:
    """Everything a measurement may inspect for one built instance.

    The schedule is built lazily (and cached), so measurements that do
    not need it — e.g. the Theorem-2 coloring quantities — never pay for
    the scheduling pipeline.
    """

    def __init__(
        self,
        pipeline: Any,
        points: Any,
        tree: Any,
        *,
        num_frames: int = 0,
        rng: Any = 0,
    ) -> None:
        self.pipeline = pipeline
        self.points = points
        self.tree = tree
        self.links = tree.links()
        self.model = pipeline.model
        self.num_frames = int(num_frames)
        self.rng = rng
        self._built: Optional[Tuple[Any, Any]] = None

    def schedule(self) -> Tuple[Any, Any]:
        """The ``(schedule, report)`` pair, built on first use."""
        if self._built is None:
            self._built = self.pipeline.build_schedule(self.links)
        return self._built


#: Metric extractors, by name (the sweep's ``measure`` axis).
measurements: Registry[Callable[[MeasurementContext, Any], None]] = Registry(
    "measurement"
)


def register_measurement(name: str) -> Callable:
    """Decorator registering a ``(ctx, record) -> None`` extractor."""

    def decorator(fn: Callable[[MeasurementContext, Any], None]) -> Callable:
        measurements.register(name, fn)
        return fn

    return decorator


@register_measurement("schedule")
def _measure_schedule(ctx: MeasurementContext, record: Any) -> None:
    """The scheduling pipeline's outcome: slots, rate, repair stats, and
    (when ``num_frames > 0``) the frame-level simulation."""
    schedule, report = ctx.schedule()
    record.slots = int(schedule.num_slots)
    record.rate = float(schedule.rate)
    if report is not None:
        record.initial_colors = int(report.initial_colors)
        record.split_classes = int(report.split_classes)
    if ctx.num_frames > 0:
        from repro.aggregation.simulator import AggregationSimulator

        sim = AggregationSimulator(ctx.tree, schedule).run(ctx.num_frames, rng=ctx.rng)
        record.frames_injected = sim.frames_injected
        record.frames_completed = sim.frames_completed
        # No completed frame means no latency: record None, never NaN.
        record.mean_latency = float(sim.mean_latency) if sim.latencies else None
        record.max_latency = int(sim.max_latency)
        record.stable = bool(sim.stable)


@register_measurement("g1")
def _measure_g1(ctx: MeasurementContext, record: Any) -> None:
    """The Theorem-2 quantities: ``chi(G1)`` and the refinement count."""
    from repro.coloring.greedy import greedy_coloring
    from repro.coloring.refinement import refine_by_interference
    from repro.conflict.graph import g1_graph

    record.g1_colors = int(greedy_coloring(g1_graph(ctx.links)).max()) + 1
    record.refine_t = len(refine_by_interference(ctx.links, ctx.model.alpha))
