"""Tests for the async job service (handles, inline + pool backends)."""

import pytest

from repro.api.config import PipelineConfig
from repro.api.pipeline import RunArtifact
from repro.errors import ConfigurationError, JobError
from repro.jobs import JobHandle, JobService, JobStatus
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec
from repro.store import StageStore, get_default_store, reset_default_store


def cfg(**overrides) -> PipelineConfig:
    base = dict(topology="square", n=12, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


def cell(**overrides) -> CellSpec:
    base = dict(topology="square", n=10, mode="global", alpha=3.0, beta=1.0, seed=0)
    base.update(overrides)
    return CellSpec(**base)


class TestInlineService:
    def test_submit_returns_pending_handle(self):
        with JobService(store=StageStore()) as service:
            handle = service.submit(cfg())
            assert isinstance(handle, JobHandle)
            assert handle.status() is JobStatus.PENDING and not handle.done()

    def test_result_runs_and_completes(self):
        with JobService(store=StageStore()) as service:
            handle = service.submit(cfg())
            artifact = handle.result()
            assert isinstance(artifact, RunArtifact)
            assert artifact.num_slots >= 1
            assert handle.status() is JobStatus.DONE and handle.done()
            assert handle.error() is None
            assert handle.result() is artifact  # cached, not re-run

    def test_submit_accepts_config_dicts(self):
        with JobService(store=StageStore()) as service:
            handle = service.submit(cfg().to_dict())
            assert handle.result().config == cfg()

    def test_submit_many_preserves_order(self):
        configs = [cfg(n=n) for n in (8, 12, 16)]
        with JobService(store=StageStore()) as service:
            handles = service.submit_many(configs)
            sizes = [len(h.result().points) for h in handles]
        assert sizes == [8, 12, 16]

    def test_cancel_pending_job(self):
        with JobService(store=StageStore()) as service:
            handle = service.submit(cfg())
            assert handle.cancel()
            assert handle.status() is JobStatus.CANCELLED
            with pytest.raises(JobError, match="cancelled"):
                handle.result()
            assert not handle.cancel()  # already cancelled

    def test_failed_job_raises_and_reports(self):
        # exponential_line overflows IEEE doubles far below n=1100.
        with JobService(store=StageStore()) as service:
            handle = service.submit(cfg(topology="exponential", n=1100))
            with pytest.raises(JobError, match="failed"):
                handle.result()
            assert handle.status() is JobStatus.FAILED
            assert "ConfigurationError" in handle.error()
            with pytest.raises(JobError):
                handle.result()  # failures are sticky

    def test_batch_shares_stages_through_the_store(self):
        store = StageStore()
        grid = [
            cfg(power=mode, alpha=alpha)
            for mode in ("global", "oblivious")
            for alpha in (3.0, 4.0)
        ]
        with JobService(store=store) as service:
            for handle in service.submit_many(grid):
                handle.result()
            stats = service.store_stats()
        assert stats["deploy"]["builds"] == 1
        assert stats["tree"]["builds"] == 1
        assert stats["schedule"]["builds"] == len(grid)

    def test_cell_jobs_return_cell_results(self):
        with JobService(store=StageStore()) as service:
            handles = service.submit_cells([cell(), cell(mode="oblivious")])
            results = [h.result() for h in handles]
        assert all(isinstance(r, CellResult) for r in results)
        assert all(r.ok and r.slots >= 1 for r in results)
        assert results[1].mode == "oblivious"

    def test_cell_jobs_isolate_errors_in_the_record(self):
        with JobService(store=StageStore()) as service:
            handle = service.submit_cells([cell(topology="exponential", n=1100)])[0]
            record = handle.result()  # no raise: run_cell captures it
        assert record.status == "error" and "ConfigurationError" in record.error

    def test_custom_cell_runner(self):
        seen = []

        def runner(c):
            seen.append(c.cell_id)
            return CellResult(
                cell_id=c.cell_id, topology=c.topology, n=c.n, mode=c.mode,
                alpha=c.alpha, beta=c.beta, seed=c.seed,
            )

        with JobService(cell_runner=runner, store=StageStore()) as service:
            handle = service.submit_cells([cell()])[0]
            assert handle.result().cell_id == cell().cell_id
        assert seen == [cell().cell_id]

    def test_submit_after_close_rejected(self):
        service = JobService(store=StageStore())
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit(cfg())

    def test_close_is_idempotent(self):
        service = JobService(store=StageStore())
        service.close()
        service.close()
        with pytest.raises(ConfigurationError, match="closed"):
            service.submit_cells([cell()])

    def test_repr_names_the_backend(self):
        with JobService(store=StageStore()) as inline:
            assert "inline" in repr(inline)
        with JobService(workers=2, transport="disk") as pool:
            assert "pool(2)" in repr(pool) and "'disk'" in repr(pool)

    def test_bad_transport_rejected(self):
        with pytest.raises(ConfigurationError, match="transport"):
            JobService(transport="tcp")

    def test_crashing_cell_runner_fails_the_handle(self):
        # run_cell never raises, but a runner that does must surface as
        # a JobError on its own handle and leave the others untouched.
        def runner(c):
            if c.seed == 1:
                raise RuntimeError("runner crashed")
            return CellResult(
                cell_id=c.cell_id, topology=c.topology, n=c.n, mode=c.mode,
                alpha=c.alpha, beta=c.beta, seed=c.seed,
            )

        with JobService(cell_runner=runner, store=StageStore()) as service:
            ok, bad = service.submit_cells([cell(seed=0), cell(seed=1)])
            with pytest.raises(JobError, match="runner crashed"):
                bad.result()
            assert bad.status() is JobStatus.FAILED
            assert bad.error() == "RuntimeError: runner crashed"
            assert ok.result().seed == 0 and ok.status() is JobStatus.DONE

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigurationError, match="workers"):
            JobService(workers=0)

    def test_cell_runner_requires_single_worker(self):
        with pytest.raises(ConfigurationError, match="jobs=1"):
            JobService(workers=2, cell_runner=lambda c: None)

    def test_cache_dir_attachment_is_scoped(self, tmp_path):
        reset_default_store()
        try:
            default = get_default_store()
            assert default.disk is None
            service = JobService(cache_dir=tmp_path / "cache")
            assert default.disk is not None
            service.submit(cfg()).result()
            service.close()
            assert default.disk is None  # restored
            assert (tmp_path / "cache" / "deploy").is_dir()  # but persisted
        finally:
            reset_default_store()


class TestHandleFutureSync:
    def test_status_progresses_after_observed_running(self):
        # Regression: polling status() while the future runs must not
        # wedge the handle at RUNNING once the future completes.
        from concurrent.futures import Future

        fut = Future()
        handle = JobHandle(0, "poll-me", future=fut)
        assert fut.set_running_or_notify_cancel()
        assert handle.status() is JobStatus.RUNNING  # observed mid-flight
        fut.set_result(("value", {}))
        assert handle.done()
        assert handle.status() is JobStatus.DONE
        assert handle.result() == "value"

    def test_failure_visible_from_status_without_result_call(self):
        from concurrent.futures import Future

        fut = Future()
        handle = JobHandle(0, "doomed", future=fut)
        assert fut.set_running_or_notify_cancel()
        assert handle.status() is JobStatus.RUNNING
        fut.set_exception(ValueError("boom"))
        assert handle.status() is JobStatus.FAILED
        assert "boom" in handle.error()


    def test_cancel_queued_future(self):
        from concurrent.futures import Future

        handle = JobHandle(0, "queued", future=Future())
        assert handle.cancel()
        assert handle.status() is JobStatus.CANCELLED and handle.done()
        with pytest.raises(JobError, match="cancelled"):
            handle.result()

    def test_running_future_cannot_be_cancelled(self):
        from concurrent.futures import Future

        fut = Future()
        handle = JobHandle(0, "busy", future=fut)
        assert fut.set_running_or_notify_cancel()
        assert not handle.cancel()
        assert handle.status() is JobStatus.RUNNING
        fut.set_result(("value", {}))
        assert handle.result() == "value"

    def test_future_cancelled_behind_the_handle(self):
        # A pool shut down with cancel_futures=True cancels queued
        # futures directly; the handle must report it, not hang.
        from concurrent.futures import Future

        fut = Future()
        handle = JobHandle(0, "dropped", future=fut)
        assert fut.cancel()
        assert handle.status() is JobStatus.CANCELLED
        with pytest.raises(JobError, match="cancelled"):
            handle.result()

    def test_stats_reported_once_per_job(self):
        from concurrent.futures import Future

        seen = []
        fut = Future()
        handle = JobHandle(0, "counted", future=fut, on_stats=seen.append)
        fut.set_result(("value", {"deploy": {"builds": 1}}))
        assert handle.status() is JobStatus.DONE  # collected by the poll
        assert handle.result() == "value"
        assert handle.result() == "value"
        assert seen == [{"deploy": {"builds": 1}}]


class TestPoolService:
    def test_pool_matches_inline(self, tmp_path):
        grid = [cfg(n=n, power=mode) for n in (8, 12) for mode in ("global", "uniform")]
        with JobService(store=StageStore()) as inline:
            expected = [h.result().num_slots for h in inline.submit_many(grid)]
        with JobService(workers=2) as pool:
            handles = pool.submit_many(grid)
            slots = [h.result().num_slots for h in handles]
            assert all(h.status() is JobStatus.DONE for h in handles)
            stats = pool.store_stats()
        assert slots == expected
        assert stats["deploy"]["builds"] + stats["deploy"]["hits"] > 0

    def test_pool_cell_jobs(self):
        cells = [cell(seed=s) for s in range(3)]
        with JobService(workers=2) as pool:
            results = [h.result() for h in pool.submit_cells(cells)]
        assert [r.seed for r in results] == [0, 1, 2]
        assert all(r.ok for r in results)

    def test_pool_failure_surfaces_as_job_error(self):
        with JobService(workers=2) as pool:
            handle = pool.submit(cfg(topology="exponential", n=1100))
            with pytest.raises(JobError, match="failed"):
                handle.result()
            assert handle.status() is JobStatus.FAILED

    def test_pool_cell_jobs_isolate_errors_in_the_record(self):
        cells = [cell(), cell(topology="exponential", n=1100), cell(seed=1)]
        with JobService(workers=2) as pool:
            results = [h.result() for h in pool.submit_cells(cells)]
        assert [r.ok for r in results] == [True, False, True]
        assert "ConfigurationError" in results[1].error

    def test_pool_workers_persist_stages_to_cache_dir(self, tmp_path):
        cache = tmp_path / "cache"
        with JobService(workers=2, cache_dir=cache) as pool:
            pool.submit(cfg()).result()
        assert (cache / "deploy").is_dir() and any((cache / "deploy").iterdir())

    def test_pool_close_is_idempotent_and_final(self):
        pool = JobService(workers=2)
        assert pool.submit(cfg(n=8)).result().num_slots >= 1
        pool.close()
        pool.close()
        with pytest.raises(ConfigurationError, match="closed"):
            pool.submit(cfg(n=8))
