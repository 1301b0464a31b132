"""Frame-level convergecast simulation (the executable version of Fig. 1).

Semantics
---------
Time proceeds in synchronized slots.  A periodic schedule with period
``C`` activates its slots cyclically.  Every ``injection_period`` slots,
each node takes a fresh *reading* belonging to a new *frame*.  When a
tree link ``v -> parent(v)`` is activated, ``v`` transmits the partial
aggregate of the **oldest frame that is ready at v**.  A frame ``f`` is
ready at ``v`` exactly when ``f`` is in ``v``'s buffer and ``v`` has
received ``num_children(v)`` reports for ``f``.  (The node's own reading
enters the buffer at injection, before any child can report, so it
adds no condition.)  The sink completes a frame when all its children
have reported.

With ``injection_period = C`` each link serves one frame per period, so
buffers stay bounded (the schedule *sustains* rate ``1/C``); with
``injection_period < C`` backlog grows linearly — the overflow the
paper's Fig. 1 discussion describes.  The simulator measures both, plus
per-frame latency, and verifies every completed aggregate against the
centralised reference value.

Cost
----
:meth:`AggregationSimulator.run` keeps its state incrementally, so no
slot rescans the network:

* a frame is pushed on its node's ready min-heap at the one event that
  makes it ready (injection at a leaf, or the report that brings the
  count to ``num_children``), and an activation pops the heap minimum;
* backlog is a running count of buffered (node, frame) partials.

That is ``O(activations · log F + frames · n)`` for ``F`` frames in
flight and ``n`` nodes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.aggregation.functions import SUM, AggregationFunction
from repro.errors import SimulationError
from repro.scheduling.schedule import Schedule
from repro.spanning.tree import AggregationTree
from repro.util.rng import RngLike, as_generator

__all__ = ["AggregationSimulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Measurements from one simulation run."""

    frames_injected: int
    frames_completed: int
    frames_requested: int = 0
    latencies: List[int] = field(default_factory=list)
    max_backlog: int = 0
    final_backlog: int = 0
    slots_elapsed: int = 0
    values_correct: bool = True

    @property
    def throughput(self) -> float:
        """Completed frames per slot."""
        if self.slots_elapsed == 0:
            return 0.0
        return self.frames_completed / self.slots_elapsed

    @property
    def mean_latency(self) -> float:
        """Average injection-to-completion latency (slots)."""
        return float(np.mean(self.latencies)) if self.latencies else float("nan")

    @property
    def max_latency(self) -> int:
        """Worst-case frame latency (slots)."""
        return max(self.latencies) if self.latencies else 0

    @property
    def truncated(self) -> bool:
        """Whether ``max_slots`` stopped the run before all requested
        frames were even injected."""
        return self.frames_injected < self.frames_requested

    @property
    def stable(self) -> bool:
        """Whether the run drained: every **requested** frame was
        injected and completed.

        A run that hits ``max_slots`` before injecting all frames must
        not report stability just because the few frames it did inject
        happened to complete — that is a truncated run, not a drained
        one.
        """
        return (
            not self.truncated and self.frames_completed == self.frames_injected
        )


class AggregationSimulator:
    """Runs frame-level convergecast over a tree and a periodic schedule.

    Parameters
    ----------
    tree:
        The rooted aggregation tree.
    schedule:
        A periodic schedule of the tree's links
        (:meth:`AggregationTree.links` order).
    function:
        The aggregate to compute (default: sum).
    """

    def __init__(
        self,
        tree: AggregationTree,
        schedule: Schedule,
        function: AggregationFunction = SUM,
    ) -> None:
        if len(schedule.links) != len(tree.links()):
            raise SimulationError("schedule does not cover the tree's links")
        self.tree = tree
        self.schedule = schedule
        self.function = function

    # ------------------------------------------------------------------
    def run(
        self,
        num_frames: int,
        *,
        injection_period: Optional[int] = None,
        max_slots: Optional[int] = None,
        rng: RngLike = 0,
        readings: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Simulate ``num_frames`` frames.

        Parameters
        ----------
        injection_period:
            Slots between frame injections (default: the schedule
            period, i.e. operating exactly at the schedule's rate).
        max_slots:
            Hard stop; defaults to enough slots to drain at the stable
            rate (injections + full tree depth periods + slack).
        readings:
            Optional ``(num_frames, n_nodes)`` reading matrix; random
            uniform readings otherwise.
        """
        if num_frames <= 0:
            raise SimulationError("need at least one frame")
        period = self.schedule.num_slots
        if injection_period is None:
            injection_period = period
        if injection_period <= 0:
            raise SimulationError("injection_period must be positive")
        n = len(self.tree.points)
        gen = as_generator(rng)
        if readings is None:
            readings = gen.uniform(0.0, 100.0, size=(num_frames, n))
        readings = np.asarray(readings, dtype=float)
        if readings.shape != (num_frames, n):
            raise SimulationError(
                f"readings must have shape ({num_frames}, {n}), got {readings.shape}"
            )
        if max_slots is None:
            # Stable operation drains within depth+2 periods of the last
            # injection; the margin costs little and avoids flaky stops.
            drain = (self.tree.height() + 2) * period
            max_slots = num_frames * injection_period + drain + period

        lift, combine = self.function.lift, self.function.combine
        sink = self.tree.sink
        children = self.tree.children()
        num_children = [len(children[v]) for v in range(n)]
        leaves = [v for v in range(n) if num_children[v] == 0]
        links = self.tree.links()
        link_nodes = list(zip(links.sender_ids.tolist(), links.receiver_ids.tolist()))
        slot_pairs = [
            tuple(link_nodes[i] for i in slot.link_indices)
            for slot in self.schedule.slots
        ]
        # Per node: frame -> partial aggregate, frame -> reports received
        # (kept only while 0 < reports < num_children), and the min-heap
        # of ready frames.  The sink never sends, so its heap stays empty.
        acc: List[Dict[int, object]] = [{} for _ in range(n)]
        reports: List[Dict[int, int]] = [{} for _ in range(n)]
        ready: List[List[int]] = [[] for _ in range(n)]
        completed: Dict[int, int] = {}
        # Buffered (node, frame) partials.  A completed frame stays in the
        # sink's buffer forever (the sink never sends), and nothing else
        # stays there, so backlog == entries - len(completed).
        entries = 0
        max_backlog = 0
        injected = 0
        slots_elapsed = max_slots

        for slot_time in range(max_slots):
            if slot_time % injection_period == 0 and injected < num_frames:
                frame = injected
                # No node can hold a frame before its injection, so every
                # reading opens a fresh buffer entry.
                for node, reading in zip(acc, readings[frame].tolist()):
                    node[frame] = lift(reading)
                entries += n
                injected += 1
                for v in leaves:
                    heapq.heappush(ready[v], frame)
            for sender, parent in slot_pairs[slot_time % period]:
                heap = ready[sender]
                if not heap:
                    continue
                frame = heapq.heappop(heap)  # oldest ready frame moves first
                value = acc[sender].pop(frame)
                # The parent holds this frame until all its children,
                # the sender included, have reported it.
                receiver = acc[parent]
                receiver[frame] = combine(receiver[frame], value)
                entries -= 1
                count = reports[parent].pop(frame, 0) + 1
                if count < num_children[parent]:
                    reports[parent][frame] = count
                elif parent == sink:
                    completed[frame] = slot_time + 1
                else:
                    heapq.heappush(ready[parent], frame)
            backlog = entries - len(completed)
            if backlog > max_backlog:
                max_backlog = backlog
            if len(completed) == num_frames and injected == num_frames:
                slots_elapsed = slot_time + 1
                break

        result = SimulationResult(
            frames_injected=injected,
            frames_completed=len(completed),
            frames_requested=num_frames,
            latencies=[
                completed[f] - f * injection_period for f in sorted(completed)
            ],
            max_backlog=max_backlog,
            final_backlog=entries - len(completed),
            slots_elapsed=slots_elapsed,
        )
        for f in completed:
            got = self.function.finalize(acc[sink][f])
            want = self.function.aggregate(readings[f])
            if isinstance(got, float) and isinstance(want, float):
                if not np.isclose(got, want, rtol=1e-9, atol=1e-9):
                    result.values_correct = False
            elif got != want:
                result.values_correct = False
        return result
