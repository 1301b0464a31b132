"""End-to-end benchmark of the aggregation-schedule pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload global-mst --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no timers inside
the program.  ``--trace 1`` runs an untraced pass, traced passes with a
span around each layer's entry points (see ``layers.py``) and another
untraced pass, and reports the per-layer metrics plus the tracing
overhead.  Workloads and
the reason for each are described in ``workloads.py``.

A run repeats whole passes of its workload while another pass still
fits in ``--seconds`` (always at least one), from a fresh stage store
each time, and reports medians over them.  After the timed passes it
checks the outputs:

* every certified schedule is rebuilt from its slots and re-verified
  with ``Schedule.validate()``;
* every simulation produced correct aggregate values, and every
  simulated cell drained (``stable``);
* scenario epochs report no SINR violations;
* the rows, minus ``TIMING_FIELDS``, hash to the same digest on every
  pass and on every earlier run of the same code with the same seed in
  this checkout, and ``sweep-inline`` and ``sweep-pool`` rows are equal;
* each error row is on a cell of a documented known defect, with that
  defect's error; any other error row fails the check and counts as a
  failed operation.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Cold interpreters started to time set-up; the median is reported.
SETUP_PROBES = 5

#: Where digests of earlier runs are kept, inside the checkout, keyed by
#: workload, seed and a hash of the code under test (:func:`code_hash`).
STATE_FILE = ROOT / ".perfbench-state" / "digests.json"

#: Cells per pass from which the p90 has at least ten samples beyond it.
P90_MIN_CELLS = 100


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from starting a cold interpreter to being ready for the
    first cell: ``import repro``, the benchmark's workload module and
    the registry lookups of :func:`workloads.resolve`."""
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "import repro, workloads\n"
        f"workloads.resolve({workload!r}, {seed!r})\n"
        "print(time.monotonic())\n"
    )
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return times


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One timed pass over a workload's cells."""

    wall_s: float
    rows: List[Any]
    store_stats: Dict[str, Dict[str, int]]
    traced: bool
    #: Per-cell capture records (``layers.Capture``), aligned with ``rows``.
    records: List[Dict[str, Any]]


def run_pass(workload: Any, plan: List[Any], traced: bool) -> Pass:
    """Run every cell of ``plan`` once, from a fresh stage store."""
    from repro.runner import engine
    from repro.store.store import StageStore, StoreStats, reset_default_store

    gc.collect()  # free the previous pass's artifacts before timing
    store_stats: Dict[str, Dict[str, int]] = {}
    if workload.jobs == 0:
        store = StageStore()
        start = time.perf_counter()
        rows = [engine.run_cell(cell, store=store) for cell in plan]
        wall = time.perf_counter() - start
        store_stats = store.stats.snapshot()
    else:
        reset_default_store()
        rows = []
        start = time.perf_counter()
        for spec in plan:
            report = engine.SweepEngine(spec, jobs=workload.jobs).run()
            rows.extend(report.results)
            StoreStats.merge(store_stats, report.store_stats)
        wall = time.perf_counter() - start
        reset_default_store()
    records = [vars(row).pop(layers.RECORD_ATTR) for row in rows]
    return Pass(wall, rows, store_stats, traced, records)


def run_passes(
    workload: Any, plan: List[Any], budget_s: float, traced: bool
) -> List[Pass]:
    """Whole passes while another one fits in ``budget_s`` (at least one)."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) + passes[-1].wall_s <= budget_s:
        passes.append(run_pass(workload, plan, traced))
    return passes


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def rows_digest(rows: List[Any]) -> str:
    """SHA-256 of the rows as the sweep engine persists them, minus
    ``TIMING_FIELDS`` (the repo's byte-identity contract)."""
    from repro.runner.results import TIMING_FIELDS

    digest = hashlib.sha256()
    for row in rows:
        data = row.to_json_dict()
        for name in TIMING_FIELDS:
            data.pop(name, None)
        digest.update((json.dumps(data, sort_keys=True) + "\n").encode())
    return digest.hexdigest()


def verify_schedules(passes: List[Pass]) -> List[str]:
    """Rebuild each captured schedule on its link set and validate it."""
    from repro.api.config import PipelineConfig
    from repro.api.pipeline import Pipeline
    from repro.errors import ReproError
    from repro.scheduling.schedule import Schedule, Slot
    from repro.sinr.model import SINRModel
    from repro.store.store import StageStore

    problems = []
    store = StageStore()
    for p in passes:
        for row, record in zip(p.rows, p.records):
            if row.ok and row.slots is not None and not record["schedules"]:
                problems.append(f"{row.cell_id}: no schedule captured")
            for captured in record["schedules"]:
                config = PipelineConfig.from_dict(captured["config"])
                pipeline = Pipeline(config, store=store)
                links = pipeline.build_tree(pipeline.deploy()).links()
                slots = [Slot(tuple(i), tuple(pw)) for i, pw in captured["slots"]]
                model = SINRModel(alpha=config.alpha, beta=config.beta)
                try:
                    Schedule(links, slots, model, validate=False).validate()
                except ReproError as exc:
                    problems.append(f"{row.cell_id}: {type(exc).__name__}: {exc}")
    return problems


def verify_simulations(passes: List[Pass]) -> List[str]:
    problems = []
    for p in passes:
        for row, record in zip(p.rows, p.records):
            for sim in record["sims"]:
                if not sim["values_correct"]:
                    problems.append(f"{row.cell_id}: wrong aggregate values")
            if row.ok and row.frames_injected is not None and not row.stable:
                problems.append(f"{row.cell_id}: simulation did not drain")
            for epoch in row.epoch_metrics or ():
                if epoch["feasibility_violations"]:
                    problems.append(
                        f"{row.cell_id}: epoch {epoch['epoch']} has "
                        f"{epoch['feasibility_violations']} infeasible slots"
                    )
    return problems


def check_errors(passes: List[Pass]) -> Tuple[List[str], int]:
    """Print every error row; return the problems and the number of
    error rows that are not a known defect on its own cell."""
    from workloads import known_defect

    problems = []
    unexpected = 0
    for i, p in enumerate(passes):
        for row in p.rows:
            if row.ok:
                continue
            defect = known_defect(row)
            known = defect is not None and defect.matches(row.error or "")
            if i == 0:
                label = f"known defect: {defect.where}" if known else "UNEXPECTED"
                print(f"error row: {row.cell_id}: {row.error} [{label}]")
            if not known:
                unexpected += 1
                problems.append(f"{row.cell_id}: unexpected error: {row.error}")
    return problems, unexpected


def code_hash() -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    for base in (SRC, BENCH_DIR):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_digests(workload: Any, seed: int, digests: List[str]) -> List[str]:
    """Compare this run's row digest with every pass and with earlier
    runs of the same rows by the same code in this checkout, then
    record it."""
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"row digest changed between passes: {digests}")
    # Both sweeps run the same cells, so they share one key.  Only runs
    # of the same sources are compared: a change may change the rows.
    key = f"{'sweep' if workload.jobs else workload.name}:{seed}:{code_hash()}"
    state = json.loads(STATE_FILE.read_text()) if STATE_FILE.exists() else {}
    earlier = state.get(key)
    if earlier is None:
        print(f"digest: first run of {key} in this checkout")
        state[key] = {"digest": digests[0], "workload": workload.name}
        STATE_FILE.parent.mkdir(exist_ok=True)
        tmp = STATE_FILE.with_suffix(".tmp")
        tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
        os.replace(tmp, STATE_FILE)
    elif earlier["digest"] != digests[0]:
        problems.append(
            f"rows differ from the earlier {earlier['workload']} run with seed {seed}"
        )
    else:
        print(f"digest: equal to the earlier {earlier['workload']} run with seed {seed}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child so
    far.  Read right after the timed passes, before the output checks
    and the set-up probes, so the only children are pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(passes: List[Pass], setup: List[float], rss_mb: float) -> Dict[str, Any]:
    """The metrics a user sees; ``None`` where one does not apply.

    ``slots_total`` leaves out the cells of known defects, so that
    fixing one does not read as a loss; an error on any other cell
    fails the output checks instead of dropping out of the sum.
    """
    from workloads import known_defect

    cells = [row.wall_time_s for p in passes for row in p.rows]
    rows = passes[0].rows
    ok = [r for r in rows if r.ok]
    certified = [r for r in ok if known_defect(r) is None]
    simulated = [r.mean_latency for r in ok if r.mean_latency is not None]
    warned = sum(len(rec["warnings"]) for p in passes for rec in p.records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "cell_s.p50": (statistics.median(cells), "s"),
        "cell_s.p90": (
            statistics.quantiles(cells, n=10)[-1]
            if len(rows) >= P90_MIN_CELLS else None,
            "s",
        ),
        "peak_rss_mb": (rss_mb, "MB"),
        "failed_frac": (sum(not r.ok for r in rows) / len(rows), "ratio"),
        "numeric_warnings": (warned / len(passes), "count"),
        "slots_total": (
            sum(r.slots for r in certified if r.slots is not None), "count"
        ),
        "latency_mean_slots": (
            statistics.fmean(simulated) if simulated else None, "slots"
        ),
    }


def work_counters(p: Pass) -> Dict[str, int]:
    """Deterministic work counts of one pass, from the stats the program
    exposes: ``BuildReport`` (via rows), ``RepairCost``, ``KernelStats``,
    ``SimulationResult`` and the store's counters."""
    counts: Counter = Counter()
    for row, record in zip(p.rows, p.records):
        counts["scheduling.split_classes"] += row.split_classes or 0
        counts["scheduling.initial_colors"] += row.initial_colors or 0
        for epoch in row.epoch_metrics or ():
            for name, value in (epoch.get("schedule_repair") or {}).items():
                if not isinstance(value, bool):
                    counts[f"scheduling.incremental.{name}"] += value
        for name, value in record["kernel"].items():
            counts[f"sinr.kernel.{name}"] += value
        counts["aggregation.slots_stepped"] += sum(
            s["slots_elapsed"] for s in record["sims"]
        )
    for stage, stats in p.store_stats.items():
        for name, value in stats.items():
            counts[f"store.{name}.{stage}"] += value
    return dict(sorted(counts.items()))


def per_layer(workload: Any, untraced: Pass, traced: List[Pass]) -> Dict[str, Any]:
    """Per-layer metrics: the median over the traced passes of each
    layer's self time and counters (counters repeat exactly)."""

    def layer_pass(p: Pass) -> Dict[str, float]:
        self_s: Counter = Counter()
        counts: Counter = Counter()
        k_max = 0
        for record in p.records:
            self_s.update(record["trace"]["self_s"])
            counts.update(record["trace"]["counts"])
            k_max = max(k_max, record["trace"]["maxima"].get("backend.eig.max_k", 0))
        work = work_counters(p)
        store = p.store_stats.values()
        served = sum(s["hits"] + s["shm_hits"] + s["disk_hits"] for s in store)
        lookups = served + sum(s["builds"] for s in store)
        probes = counts["sinr.feasible.probes"]
        cell_total = sum(row.wall_time_s for row in p.rows)
        out = {name: self_s[name] for name in SELF_TIMES}
        out.update({
            "backend.eig.calls": counts["backend.eig.calls"],
            "backend.eig.max_k": k_max,
            "sinr.feasible.probes": probes,
            "sinr.feasible.accept_ratio": (
                counts["sinr.feasible.accepted"] / probes if probes else 0.0
            ),
            "aggregation.slots_stepped": counts["aggregation.slots_stepped"],
            "conflict.edges": counts["conflict.edges"],
            "coloring.colors": counts["coloring.colors"],
            "store.hit_ratio": served / lookups if lookups else 0.0,
            "jobs.overhead_frac": 1.0 - cell_total / (max(workload.jobs, 1) * p.wall_s),
            "jobs.shm_hits": sum(s["shm_hits"] for s in store),
        })
        for name in WORK_COUNTERS:
            out[name] = work.get(name, 0)
        return out

    layers_by_pass = [layer_pass(p) for p in traced]
    metrics = {
        name: statistics.median(layer[name] for layer in layers_by_pass)
        for name in layers_by_pass[0]
    }
    metrics["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / untraced.wall_s - 1.0
    )
    return metrics


#: Per-layer self-time spans (seconds), as named in ``layers``.
SELF_TIMES = tuple(name for name, _, _ in layers.LAYER_SPANS) + (layers.RUNNER_SPAN,)

#: Per-layer metrics taken from :func:`work_counters`.
WORK_COUNTERS = (
    "sinr.kernel.block_evals",
    "sinr.kernel.entries_served",
    "sinr.kernel.dense_builds",
    "scheduling.split_classes",
    "scheduling.incremental.links_reexamined",
    "scheduling.incremental.feasibility_evals",
    "scheduling.incremental.links_evicted",
    "scheduling.incremental.slots_opened",
    "store.builds.deploy",
    "store.builds.tree",
    "store.builds.links",
    "store.builds.schedule",
)


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; valid workloads: "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.resolve(workload.name, args.seed)
    capture = layers.Capture()
    capture.install()

    if args.trace:
        # Untraced, traced, untraced: the tracing overhead compares the
        # traced passes with the later untraced one, as the first pass
        # of a process also pays its warm-up.
        first = run_pass(workload, plan, traced=False)
        capture.start_tracing()
        traced = run_passes(workload, plan, args.seconds - 2 * first.wall_s, True)
        capture.stop_tracing()
        passes = [first] + traced + [run_pass(workload, plan, traced=False)]
    else:
        passes = run_passes(workload, plan, args.seconds, False)
    rss_mb = peak_rss_mb()
    setup = measure_setup(workload.name, args.seed)

    digests = [rows_digest(p.rows) for p in passes]
    problems = verify_schedules(passes) + verify_simulations(passes)
    problems += check_digests(workload, args.seed, digests)
    error_problems, unexpected = check_errors(passes)
    problems += error_problems
    warned = Counter(w for record in passes[0].records for w in record["warnings"])
    for message, count in sorted(warned.items()):
        print(f"warning x{count}: {message}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    untraced = [p for p in passes if not p.traced]
    print(
        f"workload {workload.name}: seed {args.seed}, {len(passes)} passes "
        f"({len(passes) - len(untraced)} traced), {len(passes[0].rows)} cells "
        f"per pass, {sum(len(p.rows) for p in untraced)} untraced cell samples, "
        f"row digest {digests[0][:16]}"
    )
    print("pass wall_s: " + ", ".join(
        f"{p.wall_s:.3f}{' (traced)' if p.traced else ''}" for p in passes
    ))
    e2e = end_to_end(untraced, setup, rss_mb)
    for name, (value, unit) in e2e.items():
        shown = f"{value:.6g} {unit}" if value is not None else "n/a"
        print(f"end_to_end {name} = {shown}")
    for name, value in work_counters(passes[0]).items():
        print(f"counter {name} = {value}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values = per_layer(workload, passes[-1], [p for p in passes if p.traced])
        for name, value in values.items():
            print(f"per_layer {name} = {value:.6g}")
        declared = spec["per_layer"]
    else:
        values = {name: value for name, (value, _unit) in e2e.items()}
        declared = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.rows) for p in passes),
        "failed": unexpected,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
