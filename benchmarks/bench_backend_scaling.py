"""BACKEND — numeric-backend scaling and the shared-memory transport.

Two claims from the pluggable-backend layer (``repro.backend``):

* **Scaling** — the ``blocked-sparse`` backend schedules link networks
  far past the dense frontier: it colors the oblivious conflict graph
  of a 100 000-link instance without ever materialising a dense
  ``n x n`` kernel (``dense_builds == 0`` is asserted on every
  blocked-sparse row).  Where several backends run at the same ``n``
  their colorings must be bit-identical — the backend contract at
  benchmark scale.
* **Transport** — publishing warm stage artifacts over
  ``multiprocessing.shared_memory`` serves them to cold stores at
  >= 2x the disk tier's throughput (zero-copy ndarray views vs file
  unpickling), while process-pool sweep results stay identical to the
  inline run across every transport.

Writes the machine-readable record ``BENCH_backend_scaling.json``.
Set ``BENCH_SMOKE=1`` for the small CI grid (which keeps the
blocked-sparse n=5000 row so CI still proves a never-dense schedule).

Caveats recorded rather than hidden: ``rss_mb_high_water`` is the
process-wide ``ru_maxrss`` high-water (monotonic across rows — rows
run smallest-to-largest, so each row's value bounds that row's own
footprint from above), and on single-core hosts the end-to-end pool
legs are dominated by per-job dispatch, so the honest >= 2x transport
assertion lives on the serve-throughput section, not the sweep legs.
"""

import json
import os
import resource
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.coloring.greedy import greedy_coloring
from repro.conflict.functions import PowerLawThreshold
from repro.conflict.graph import ConflictGraph, oblivious_graph
from repro.constants import DEFAULT_DELTA, DEFAULT_GAMMA
from repro.jobs import JobService, ShmArtifactPool, ShmArtifactReader
from repro.jobs.shm import shared_memory_available
from repro.links import LinkSet
from repro.store import StageStore, reset_default_store

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
OUT = Path(os.environ.get("BENCH_OUT_DIR", ".")) / "BENCH_backend_scaling.json"
BASELINE = Path("BENCH_stage_store.json")

# (n, backends) rows, smallest first.  Dense-family backends stop at
# 20k (the dense bool adjacency alone is n^2 bytes); only blocked-sparse
# attempts 100k.
SCALING_ROWS = (
    [(300, ("dense-numpy", "blocked-sparse")),
     (800, ("dense-numpy", "blocked-sparse")),
     (5_000, ("blocked-sparse",))]
    if SMOKE
    else [(1_000, ("dense-numpy", "blocked-sparse")),
          (5_000, ("dense-numpy", "blocked-sparse")),
          (20_000, ("dense-numpy", "blocked-sparse")),
          (100_000, ("blocked-sparse",))]
)

# Spatial-pruning rows: (n, topology).  The n=5000 clustered row is
# present in both grids so CI's pruning leg can ratchet against the
# committed record; the >= 5x headline claim is asserted on the full
# n=20k rows only (smoke asserts strict improvement).
PRUNE_ROWS = (
    [(800, "clustered"), (5_000, "clustered")]
    if SMOKE
    else [(5_000, "clustered"), (20_000, "clustered"), (20_000, "grid")]
)
PRUNE_HEADLINE_RATIO = 5.0

SERVE_COUNT, SERVE_N = (16, 4_000) if SMOKE else (32, 20_000)
SWEEP_N = 50 if SMOKE else 150
SWEEP_ALPHAS = (3.0,) if SMOKE else (2.5, 3.0, 4.0)

#: Sections accumulate here; the last test writes the combined record.
RECORD = {"bench": "backend_scaling", "smoke": SMOKE}

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unusable on this platform",
)


def _random_links(n: int, rng: int = 0, spacing: float = 4.0) -> LinkSet:
    """n random unit-ish links spread over a square (no shared nodes)."""
    gen = np.random.default_rng(rng)
    side = spacing * np.sqrt(n)
    senders = gen.uniform(0.0, side, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.5, 1.5, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


def _clustered_links(n: int, rng: int = 0) -> LinkSet:
    """n short links in Gaussian clusters — the topology where spatial
    pruning shines (most block pairs are cluster-pair far)."""
    gen = np.random.default_rng(rng)
    n_centers = max(4, n // 200)
    side = 40.0 * np.sqrt(n_centers)
    centers = gen.uniform(0.0, side, size=(n_centers, 2))
    senders = centers[gen.integers(0, n_centers, size=n)]
    senders = senders + gen.normal(0.0, 3.0, size=(n, 2))
    angles = gen.uniform(0.0, 2 * np.pi, size=n)
    lengths = gen.uniform(0.5, 1.5, size=n)
    offsets = lengths[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return LinkSet(senders, senders + offsets)


def _grid_links(n: int, spacing: float = 4.0) -> LinkSet:
    """n unit links with senders on a regular grid (deterministic)."""
    side = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    senders = spacing * np.stack([xs.ravel(), ys.ravel()], axis=1)[:n].astype(float)
    return LinkSet(senders, senders + np.array([1.0, 0.0]))


def _prune_links(n: int, topology: str) -> LinkSet:
    return _clustered_links(n) if topology == "clustered" else _grid_links(n)


def _rss_mb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def _schedule_row(n: int, backend: str):
    """Color the oblivious conflict graph of a fresh n-link instance."""
    links = _random_links(n)
    kernel = links.kernel(backend=backend)
    start = time.perf_counter()
    graph = oblivious_graph(links)
    colors = greedy_coloring(graph)
    seconds = time.perf_counter() - start
    row = {
        "n": n,
        "backend": backend,
        "seconds": round(seconds, 3),
        "links_per_s": round(n / seconds, 1),
        "rss_mb_high_water": _rss_mb(),
        "dense_builds": kernel.stats.dense_builds,
        "edges": int(graph.edge_count),
        "slots": int(colors.max()) + 1,
    }
    return row, colors


def test_backend_scaling(benchmark, emit):
    rows = []
    lines = []
    for n, backends in SCALING_ROWS:
        colorings = {}
        for backend in backends:
            if n == SCALING_ROWS[0][0] and backend == backends[0]:
                # Keep one row under pytest-benchmark bookkeeping.
                row, colors = benchmark.pedantic(
                    _schedule_row, args=(n, backend), rounds=1, iterations=1
                )
            else:
                row, colors = _schedule_row(n, backend)
            if backend == "blocked-sparse":
                # The never-dense contract, at every size.
                assert row["dense_builds"] == 0, row
            assert row["slots"] >= 1
            colorings[backend] = colors
            rows.append(row)
            lines.append(
                f"n={n:>6} {backend:<14} {row['seconds']:>8.2f}s "
                f"{row['links_per_s']:>9.0f} links/s  "
                f"dense_builds={row['dense_builds']}  "
                f"rss<={row['rss_mb_high_water']}MB  slots={row['slots']}"
            )
        # Backend contract at scale: identical colorings per instance.
        reference = colorings[backends[0]]
        for backend, colors in colorings.items():
            assert np.array_equal(colors, reference), (n, backend)

    # The headline row: the largest instance is scheduled by the
    # blocked-sparse backend without a single dense n x n build.
    largest = max(rows, key=lambda r: r["n"])
    assert largest["backend"] == "blocked-sparse"
    assert largest["dense_builds"] == 0
    assert largest["n"] >= (5_000 if SMOKE else 100_000)

    RECORD["scaling"] = rows
    emit(f"BACKEND scaling (smoke={SMOKE})", lines)


def _prune_row(n: int, topology: str) -> dict:
    """Build the oblivious conflict graph pruned and unpruned on the
    blocked-sparse backend; assert byte-identity and return the row."""
    threshold = PowerLawThreshold(DEFAULT_GAMMA, DEFAULT_DELTA)
    # Small smoke rows would fit in a single default-sized block (one
    # tile pruned or not); shrink the block so pruning has tiles to skip.
    block_size = 1024 if n >= 5_000 else 128

    pruned_links = _prune_links(n, topology)
    pruned_links.kernel(backend="blocked-sparse", block_size=block_size)
    start = time.perf_counter()
    pruned = ConflictGraph(pruned_links, threshold)
    pruned_s = time.perf_counter() - start

    plain_links = _prune_links(n, topology)
    plain_links.kernel(backend="blocked-sparse", block_size=block_size)
    start = time.perf_counter()
    plain = ConflictGraph(plain_links, threshold, prune=False)
    plain_s = time.perf_counter() - start

    # The conservativeness contract at benchmark scale: the pruned CSR
    # structure is byte-equal to the exhaustive build.
    assert pruned._sparse.indptr.tobytes() == plain._sparse.indptr.tobytes()
    assert pruned._sparse.indices.tobytes() == plain._sparse.indices.tobytes()

    pruned_evals = pruned_links.kernel().stats.block_evals
    plain_evals = plain_links.kernel().stats.block_evals
    return {
        "n": n,
        "topology": topology,
        "block_size": block_size,
        "block_evals_pruned": int(pruned_evals),
        "block_evals_unpruned": int(plain_evals),
        "prune_ratio": round(plain_evals / pruned_evals, 2),
        "pruned_seconds": round(pruned_s, 3),
        "unpruned_seconds": round(plain_s, 3),
        "speedup": round(plain_s / pruned_s, 2),
        "edges": int(pruned.edge_count),
    }


def test_spatial_pruning(emit):
    """Grid-bucket pruning: byte-identical edges, >= 5x fewer tiles."""
    rows = []
    lines = []
    for n, topology in PRUNE_ROWS:
        row = _prune_row(n, topology)
        # Pruning must always be a strict win on these localised
        # topologies, at any scale.
        assert row["block_evals_pruned"] < row["block_evals_unpruned"], row
        if not SMOKE and n >= 20_000:
            # The headline acceptance claim.
            assert row["prune_ratio"] >= PRUNE_HEADLINE_RATIO, row
        rows.append(row)
        lines.append(
            f"n={n:>6} {topology:<10} block_evals "
            f"{row['block_evals_pruned']:>5} vs {row['block_evals_unpruned']:>5} "
            f"({row['prune_ratio']:.1f}x fewer)  "
            f"{row['pruned_seconds']:.2f}s vs {row['unpruned_seconds']:.2f}s "
            f"({row['speedup']:.1f}x faster)"
        )
    RECORD["prune"] = rows
    # Write eagerly: the transport sections (which also write the
    # combined record) are skipped on hosts without shared memory.
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")
    emit(f"SPATIAL pruning (smoke={SMOKE})", lines)


@needs_shm
def test_transport_serve_throughput(emit):
    """Shared-memory artifact serving >= 2x the disk tier (zero-copy)."""
    gen = np.random.default_rng(0)
    payloads = {
        f"k{i}": gen.uniform(size=(SERVE_N, 2)) for i in range(SERVE_COUNT)
    }
    total_mb = sum(p.nbytes for p in payloads.values()) / 1e6
    identity = lambda x: x  # noqa: E731 - raw ndarray codec
    decode = lambda x: np.asarray(x, dtype=float)  # noqa: E731

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        seeded = StageStore(disk=tmp)
        pool = ShmArtifactPool()
        for key, value in payloads.items():
            seeded.get_or_build(
                "deploy", key, lambda value=value: value,
                encode=identity, decode=decode,
            )
            pool.publish("deploy", key, value)

        def serve(store):
            start = time.perf_counter()
            for key in payloads:
                out = store.get_or_build(
                    "deploy", key, lambda: None, encode=identity, decode=decode
                )
                assert out is not None
            return time.perf_counter() - start

        disk_s, shm_s = [], []
        for _ in range(3):
            disk_s.append(serve(StageStore(disk=tmp)))
            cold = StageStore()
            cold.attach_shm(ShmArtifactReader(pool.manifest()))
            shm_s.append(serve(cold))
            counters = cold.stats.snapshot()["deploy"]
            assert counters["shm_hits"] == SERVE_COUNT
            assert counters["builds"] == 0
        pool.close()

    disk_mb_s = total_mb / min(disk_s)
    shm_mb_s = total_mb / min(shm_s)
    ratio = shm_mb_s / disk_mb_s
    assert ratio >= 2.0, (shm_mb_s, disk_mb_s)

    RECORD["transport_serve"] = {
        "artifacts": SERVE_COUNT,
        "deployment_n": SERVE_N,
        "payload_mb": round(total_mb, 2),
        "disk_mb_per_s": round(disk_mb_s, 1),
        "shm_mb_per_s": round(shm_mb_s, 1),
        "shm_over_disk": round(ratio, 1),
    }
    emit(
        f"TRANSPORT serve ({SERVE_COUNT} deployments, {total_mb:.1f} MB)",
        [
            f"disk tier: {disk_mb_s:.0f} MB/s",
            f"shm tier:  {shm_mb_s:.0f} MB/s ({ratio:.1f}x, asserted >= 2x)",
        ],
    )


@needs_shm
def test_transport_sweep_parity(emit):
    """End-to-end pool legs: identical results on every transport."""
    grid = [
        PipelineConfig(topology=topo, n=SWEEP_N, power=mode, alpha=alpha, seed=0)
        for topo in ("square", "grid", "exponential")
        for mode in ("global", "uniform")
        for alpha in SWEEP_ALPHAS
    ]
    cells = len(grid)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        warm = StageStore(disk=tmp)
        for config in grid:
            Pipeline(config, store=warm).run()

        start = time.perf_counter()
        inline = [Pipeline(c, store=warm).run().num_slots for c in grid]
        inline_s = time.perf_counter() - start

        legs = {"inline": (inline_s, inline)}
        for transport in ("shm", "disk"):
            reset_default_store()  # pool workers fork with a cold store
            kwargs = dict(workers=2, transport=transport, store=warm)
            if transport == "disk":
                kwargs["cache_dir"] = tmp
            with JobService(**kwargs) as service:
                # Warm the pool itself (worker spawn + first dispatch).
                [h.result() for h in service.submit_many(grid[:2])]
                if transport == "shm":
                    assert service._shm_pool is not None
                    assert len(service._shm_pool) > 0
                start = time.perf_counter()
                slots = [h.result().num_slots for h in service.submit_many(grid)]
                legs[transport] = (time.perf_counter() - start, slots)
            reset_default_store()

    for transport, (_, slots) in legs.items():
        assert slots == inline, transport

    sweep = {
        name: {
            "wall_time_s": round(seconds, 4),
            "cells_per_s": round(cells / seconds, 1),
        }
        for name, (seconds, _) in legs.items()
    }
    baseline = None
    if BASELINE.exists():
        committed = json.loads(BASELINE.read_text())
        baseline = committed.get("warm", {}).get("cells_per_s")
    RECORD["transport_sweep"] = {
        "cells": cells,
        "n": SWEEP_N,
        "legs": sweep,
        "stage_store_warm_baseline_cells_per_s": baseline,
    }
    OUT.write_text(json.dumps(RECORD, indent=2, sort_keys=True) + "\n")

    emit(
        f"TRANSPORT sweep ({cells} warm cells, n={SWEEP_N})",
        [
            f"{name}: {data['wall_time_s']:.3f}s ({data['cells_per_s']} cells/s)"
            for name, data in sweep.items()
        ]
        + [f"wrote {OUT}"],
    )
