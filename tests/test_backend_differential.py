"""Differential tests: every numeric backend is byte-identical.

The backend contract (``repro.backend``) is that backend choice changes
*how* kernels are evaluated, never *what* they evaluate to — schedules,
slot memberships and powers must match the dense-numpy reference bit
for bit.  That contract is what justifies keeping the backend out of
every store key.
"""

import json

import numpy as np
import pytest

from repro.api.config import PipelineConfig
from repro.api.pipeline import Pipeline
from repro.backend import numeric_backends
from repro.store.store import StageStore

ALL_BACKENDS = numeric_backends.names()

TOPOLOGIES = ("square", "grid", "exponential")
MODES = ("global", "oblivious", "uniform")
ALPHAS = (2.5, 3.0, 4.0)


def _slots_bytes(schedule):
    """A canonical byte string of the schedule's full slot structure."""
    payload = [
        [list(slot.link_indices), [float(p) for p in slot.powers]]
        for slot in schedule.slots
    ]
    return json.dumps(payload, sort_keys=True).encode()


def _run(config: PipelineConfig):
    # A fresh store per run: cached artifacts from one backend must not
    # be served to another, or the comparison would be vacuous.
    return Pipeline(config, store=StageStore()).run()


class TestScheduleBitIdentity:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_backends_agree_across_grid(self, topology, mode, alpha):
        reference = None
        for backend in ALL_BACKENDS:
            artifact = _run(
                PipelineConfig(
                    topology=topology,
                    n=24,
                    power=mode,
                    alpha=alpha,
                    seed=1,
                    backend=backend,
                )
            )
            blob = _slots_bytes(artifact.schedule)
            coords = artifact.points.coords.tobytes()
            if reference is None:
                reference = (blob, coords, artifact.num_slots)
            else:
                assert (blob, coords, artifact.num_slots) == reference, backend

    @pytest.mark.parametrize("backend", ALL_BACKENDS[1:])
    def test_line_instances_agree(self, backend):
        """1-D exponential instances exercise the overflow-safe distance
        path (coordinates near 1e154 would overflow when squared)."""
        base = dict(topology="exponential", n=16, power="global")
        ref = _run(PipelineConfig(backend="dense-numpy", **base))
        got = _run(PipelineConfig(backend=backend, **base))
        assert _slots_bytes(got.schedule) == _slots_bytes(ref.schedule)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_provenance_records_backend(self, backend):
        artifact = _run(
            PipelineConfig(topology="grid", n=9, backend=backend)
        )
        assert artifact.provenance["components"]["backend"] == backend
        assert artifact.config.backend == backend

    def test_unknown_backend_rejected_eagerly(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="backend"):
            PipelineConfig(topology="grid", n=9, backend="no-such-backend")


class TestSweepRowIdentity:
    def test_backend_choice_never_changes_jsonl_rows(self, tmp_path):
        from repro.runner import SweepEngine, SweepSpec
        from repro.runner.results import TIMING_FIELDS
        from repro.store import reset_default_store

        rows_by_backend = {}
        for backend in ALL_BACKENDS:
            reset_default_store()
            out = tmp_path / f"{backend}.jsonl"
            spec = SweepSpec(
                topologies=("square",),
                ns=(10, 14),
                modes=("global", "uniform"),
                seeds=2,
                backend=backend,
            )
            SweepEngine(spec, out_path=out).run()
            rows = []
            with open(out) as fh:
                for line in fh:
                    row = json.loads(line)
                    for field in TIMING_FIELDS:
                        row.pop(field, None)
                    rows.append(row)
            rows_by_backend[backend] = rows
        reset_default_store()
        reference = rows_by_backend["dense-numpy"]
        for backend in ALL_BACKENDS[1:]:
            assert rows_by_backend[backend] == reference, backend

    def test_colsum_streaming_matches_dense(self):
        """relative_colsums (used by feasibility margins) must stream to
        the same floats the dense path produces."""
        from repro.links.linkset import LinkSet
        from repro.sinr.kernels import KernelCache

        gen = np.random.default_rng(6)
        n = 30
        senders = gen.uniform(0.0, 2.0 * np.sqrt(n), size=(n, 2))
        links = LinkSet(senders, senders + gen.uniform(0.5, 1.5, size=(n, 2)))
        dense = KernelCache(links, backend="dense-numpy")
        sparse = KernelCache(
            LinkSet(links.senders, links.receivers), backend="blocked-sparse"
        )
        vec = np.linspace(1.0, 2.0, n)
        active = np.arange(n)
        a = dense.relative_colsums(vec, 3.0, active)
        b = sparse.relative_colsums(vec, 3.0, active)
        assert a.tobytes() == b.tobytes()
