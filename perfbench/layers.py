"""Wrappers around the public entry points of the ``repro`` layers.

Two kinds of wrapper are installed from here, never from inside the
program:

* :class:`Capture` is always on.  It wraps ``run_cell`` (and records
  what the output checks need: each cell's certified schedule as plain
  slot tuples, every simulation's ``values_correct``/``stable``, the
  ``RuntimeWarning`` messages raised, and the cell's ``KernelStats``
  delta).  It starts no timer, so the untraced run measures the program
  as users run it.
* :class:`Tracer` is added only for the traced passes of ``--trace 1``
  (:meth:`Capture.start_tracing`).  It records a
  span around each layer's entry points and reports **self time**: a
  span's duration minus the part covered by the spans nested inside
  it, so the per-layer times of one cell add up to its wall time.
  Counters are taken at the same boundaries.

A function that callers import by name (``from x import f``) is
replaced in every ``repro`` module that holds it, and in the keyword
defaults that captured it (``SweepEngine(cell_runner=run_cell)``), so
each caller reaches the wrapper through the name it looks up.  Pool
workers are forked from the benchmark process after installation and
inherit the wrappers; each cell's records travel back to the
coordinator as an attribute of its pickled ``CellResult``, which the
row serialisation (``dataclasses.asdict``) ignores.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import warnings
import weakref
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Attribute carrying a cell's capture record on its ``CellResult``.
RECORD_ATTR = "_perfbench"


# ----------------------------------------------------------------------
# Patching: replace a function at every site a caller looks it up
# ----------------------------------------------------------------------
def _resolve(target: str) -> tuple:
    """``"pkg.mod:Class.attr"`` -> ``(owner, attr name, original)``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    original = inspect.getattr_static(owner, name)
    return owner, name, original


def _replace_defaults(
    fn: Any, original: Any, wrapper: Any, undo: List[Callable[[], None]]
) -> None:
    kwdefaults = getattr(fn, "__kwdefaults__", None)
    for key, value in (kwdefaults or {}).items():
        if value is original:
            kwdefaults[key] = wrapper
            undo.append(functools.partial(kwdefaults.__setitem__, key, original))
    defaults = getattr(fn, "__defaults__", None)
    if defaults and any(value is original for value in defaults):
        fn.__defaults__ = tuple(wrapper if v is original else v for v in defaults)
        undo.append(functools.partial(setattr, fn, "__defaults__", defaults))


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Wrap ``target`` where it is defined and wherever it was imported.

    Class attributes are replaced on the class.  Module functions are
    replaced in every loaded ``repro`` module whose globals hold the
    original, and in function defaults that captured it.  Returns a
    function that puts the original back everywhere.
    """
    owner, name, original = _resolve(target)
    wrapper = make_wrapper(original)
    undo: List[Callable[[], None]] = []
    if inspect.isclass(owner):
        setattr(owner, name, wrapper)
        undo.append(functools.partial(setattr, owner, name, original))
    else:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    undo.append(functools.partial(namespace.__setitem__, key, original))
                elif inspect.isfunction(value):
                    _replace_defaults(value, original, wrapper, undo)
                elif inspect.isclass(value) and value.__module__ == module_name:
                    for member in vars(value).values():
                        if inspect.isfunction(member):
                            _replace_defaults(member, original, wrapper, undo)

    def restore() -> None:
        for action in reversed(undo):
            action()

    return restore


# ----------------------------------------------------------------------
# Tracer: per-layer self time and counters
# ----------------------------------------------------------------------
class Tracer:
    """Self-time spans and counters, harvested once per cell."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        self._open: List[float] = []  # child time of each open span

    def harvest(self) -> Dict[str, Any]:
        """This cell's totals; the accumulators start again from zero."""
        out = {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
        }
        self.self_s.clear()
        self.counts.clear()
        self.maxima.clear()
        return out

    def span(
        self,
        name: str,
        after: Optional[Callable[["Tracer", Any, tuple], None]] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory timing calls of ``fn`` as span ``name``.

        ``after(tracer, result, args)`` runs once the span has closed,
        to take counters from the call's arguments or result.
        """

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    child = self._open.pop()
                    self.self_s[name] += elapsed - child
                    if self._open:
                        self._open[-1] += elapsed
                if after is not None:
                    after(self, result, args)
                return result

            return wrapper

        return make


def _after_eig(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["backend.eig.calls"] += 1
    k = int(getattr(args[1], "shape", (0,))[0])
    tracer.maxima["backend.eig.max_k"] = max(tracer.maxima["backend.eig.max_k"], k)


def _after_probe(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["sinr.feasible.probes"] += 1
    tracer.counts["sinr.feasible.accepted"] += bool(result)


def _after_graph(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["conflict.graphs"] += 1
    tracer.counts["conflict.edges"] += int(args[0].edge_count)


def _after_coloring(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["coloring.colors"] += int(result.max()) + 1 if len(result) else 0


def _after_simulate(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.counts["aggregation.slots_stepped"] += int(result.slots_elapsed)


#: Span name -> entry points whose self time it collects, with the
#: counters taken at that boundary.  Every ``*_s`` span is self time.
LAYER_SPANS = (
    ("geometry.deploy_s", [
        "repro.geometry.generators:uniform_square",
        "repro.geometry.generators:uniform_disk",
        "repro.geometry.generators:grid_points",
        "repro.geometry.generators:exponential_line",
        "repro.geometry.generators:cluster_points_total",
    ], None),
    ("spanning.tree_s", [
        "repro.spanning.mst:mst_edges",
        "repro.spanning.tree:AggregationTree.__init__",
    ], None),
    ("links.build_s", [
        "repro.spanning.tree:AggregationTree.links",
        "repro.links.linkset:LinkSet.__init__",
    ], None),
    ("conflict.graph_s", ["repro.conflict.graph:ConflictGraph.__init__"], _after_graph),
    ("coloring.greedy_s", ["repro.coloring.greedy:greedy_coloring"], _after_coloring),
    ("power.assign_s", [
        "repro.power.oblivious:ObliviousPower.powers",
        "repro.power.oblivious:ObliviousPower.rescaled_for_noise",
    ], None),
    ("sinr.feasible.probe_s", ["repro.sinr.powercontrol:is_feasible_some_power"], _after_probe),
    ("sinr.witness_s", ["repro.sinr.powercontrol:feasible_power_assignment"], None),
    ("backend.eig.s", ["repro.backend.base:NumericBackend.spectral_radius"], _after_eig),
    ("scheduling.build_s", [
        "repro.scheduling.builder:ScheduleBuilder.build_with_report",
        "repro.scheduling.incremental:IncrementalScheduler.schedule",
    ], None),
    ("scheduling.repair_s", [
        "repro.scheduling.repair:split_into_feasible_slots",
        "repro.scheduling.repair:split_into_feasible_slots_fixed_power",
    ], None),
    ("scheduling.verify_s", ["repro.scheduling.schedule:Schedule.validate"], None),
    ("aggregation.simulate_s", [
        "repro.aggregation.simulator:AggregationSimulator.run",
    ], _after_simulate),
    ("store.lookup_s", ["repro.store.store:StageStore.get_or_build"], None),
    ("scenarios.epoch_s", ["repro.scenarios.runner:ScenarioRunner.run"], None),
)

#: ``run_cell``'s own self time: what no deeper span covers (the
#: pipeline and measurement glue of the runner and api layers).
RUNNER_SPAN = "runner.unattributed_s"


# ----------------------------------------------------------------------
# Capture: what the output checks need, recorded per cell
# ----------------------------------------------------------------------
class Capture:
    """Per-cell capture of schedules, simulations, warnings and kernel
    counters, attached to each ``CellResult`` under :data:`RECORD_ATTR`.

    Once :meth:`start_tracing` has run, the tracer is harvested at the
    end of every cell, so per-layer numbers travel with the row from
    pool workers too.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.kernel_stats: List[Any] = []
        self._cell: Optional[Dict[str, Any]] = None
        self._run_cell: Optional[Callable] = None
        self._untraced_run_cell: Optional[Callable] = None
        self._restore: List[Callable[[], None]] = []

    def start_tracing(self) -> None:
        """Wrap every layer entry point of :data:`LAYER_SPANS`.

        ``run_cell`` itself is traced beneath this capture's wrapper,
        so the capture's bookkeeping is not charged to any layer.
        """
        tracer = Tracer()
        for name, targets, after in LAYER_SPANS:
            for target in targets:
                self._restore.append(patch(target, tracer.span(name, after)))
        self._untraced_run_cell = self._run_cell
        self._run_cell = tracer.span(RUNNER_SPAN)(self._run_cell)
        self.tracer = tracer

    def stop_tracing(self) -> None:
        """Put every layer entry point back as it was."""
        for restore in reversed(self._restore):
            restore()
        self._restore.clear()
        self._run_cell = self._untraced_run_cell
        self.tracer = None

    def _kernel_totals(self, *, prune: bool) -> Counter:
        """Summed ``KernelStats`` of the kernel caches seen so far.

        ``prune`` first forgets caches that no longer exist.  Their
        counters are final, so this is safe at the start of a cell, but
        not at its end (a cache freed during the cell still counts).
        """
        if prune:
            self.kernel_stats = [(c, s) for c, s in self.kernel_stats if c() is not None]
        totals: Counter = Counter()
        for _cache, stats in self.kernel_stats:
            totals.update(stats.snapshot())
        return totals

    def install(self) -> None:
        capture = self

        def wrap_run_cell(fn: Callable) -> Callable:
            capture._run_cell = fn

            @functools.wraps(fn)
            def run_cell(*args: Any, **kwargs: Any) -> Any:
                capture._cell = {"schedules": [], "sims": []}
                kernel_before = capture._kernel_totals(prune=True)
                if capture.tracer is not None:
                    capture.tracer.harvest()  # drop anything recorded between cells
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = capture._run_cell(*args, **kwargs)
                record = capture._cell
                capture._cell = None
                # Plain slot tuples, so the record pickles without the
                # link set when it leaves a pool worker.
                record["schedules"] = [
                    {
                        "config": config.to_dict(),
                        "slots": [
                            (tuple(s.link_indices), tuple(s.powers))
                            for s in schedule.slots
                        ],
                    }
                    for config, schedule in record["schedules"]
                ]
                kernel = capture._kernel_totals(prune=False)
                kernel.subtract(kernel_before)
                record["kernel"] = {k: int(v) for k, v in kernel.items()}
                record["warnings"] = [
                    f"{w.category.__name__}: {w.message}"
                    for w in caught
                    if issubclass(w.category, RuntimeWarning)
                ]
                record["trace"] = (
                    capture.tracer.harvest() if capture.tracer is not None else None
                )
                vars(result)[RECORD_ATTR] = record
                return result

            return run_cell

        def wrap_build_schedule(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def build_schedule(pipeline: Any, links: Any) -> Any:
                built = fn(pipeline, links)
                if capture._cell is not None:
                    capture._cell["schedules"].append((pipeline.config, built[0]))
                return built

            return build_schedule

        def wrap_simulate(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def run(*args: Any, **kwargs: Any) -> Any:
                sim = fn(*args, **kwargs)
                if capture._cell is not None:
                    capture._cell["sims"].append({
                        "values_correct": bool(sim.values_correct),
                        "stable": bool(sim.stable),
                        "slots_elapsed": int(sim.slots_elapsed),
                    })
                return sim

            return run

        def wrap_kernel_init(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def __init__(cache: Any, *args: Any, **kwargs: Any) -> None:
                fn(cache, *args, **kwargs)
                capture.kernel_stats.append((weakref.ref(cache), cache.stats))

            return __init__

        patch("repro.runner.engine:run_cell", wrap_run_cell)
        patch("repro.api.pipeline:Pipeline.build_schedule", wrap_build_schedule)
        patch("repro.aggregation.simulator:AggregationSimulator.run", wrap_simulate)
        patch("repro.sinr.kernels:KernelCache.__init__", wrap_kernel_init)

