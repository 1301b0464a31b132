"""Cluster subsystem tests: protocol codecs, frame transport, the
orchestrator lease state machine, engine-level parity with the inline
backend, and the worker CLI surface."""

from __future__ import annotations

import gc
import json
import socket
import threading
import time

import pytest

import repro
from repro.cluster import protocol
from repro.cluster.orchestrator import Orchestrator
from repro.cluster.transport import MAX_FRAME_BYTES, FrameServer, connect
from repro.cluster.worker import Worker, default_worker_id
from repro.errors import ClusterError, ConfigurationError, ProtocolError
from repro.runner import SweepEngine, SweepSpec
from repro.runner.results import CellResult
from repro.runner.spec import CellSpec


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        topologies=("grid",),
        ns=(9, 16),
        modes=("uniform", "global"),
        alphas=(3.0,),
        betas=(1.0,),
        seeds=2,
    )
    base.update(overrides)
    return SweepSpec(**base)


def canonical_rows(path):
    """JSONL rows with timing zeroed — the repo's byte-identity idiom."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            record["wall_time_s"] = 0.0
            rows.append(json.dumps(record, sort_keys=True))
    return rows


def run_engine_with_workers(engine: SweepEngine, num_workers: int):
    """Drive a cluster engine with in-process worker threads."""
    report_box = {}

    def run():
        report_box["report"] = engine.run()

    engine_thread = threading.Thread(target=run)
    engine_thread.start()
    host, port = protocol.parse_address(engine.cluster)
    workers = [
        Worker(host, port, worker_id=f"test-w{i}") for i in range(num_workers)
    ]
    threads = [threading.Thread(target=w.run) for w in workers]
    for t in threads:
        t.start()
    engine_thread.join(timeout=90)
    assert not engine_thread.is_alive(), "cluster engine did not finish"
    for t in threads:
        t.join(timeout=10)
    return report_box["report"], workers


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_make_and_validate_roundtrip(self):
        msg = protocol.make_message("hello", worker_id="w1")
        assert protocol.validate_message(msg) is msg
        assert msg["schema"] == protocol.PROTOCOL_SCHEMA_VERSION

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="valid types"):
            protocol.make_message("teleport")
        bad = {"type": "teleport", "schema": protocol.PROTOCOL_SCHEMA_VERSION}
        with pytest.raises(ProtocolError, match="valid types"):
            protocol.validate_message(bad)

    def test_schema_version_mismatch_rejected(self):
        msg = protocol.make_message("hello")
        msg["schema"] = protocol.PROTOCOL_SCHEMA_VERSION + 1
        with pytest.raises(ProtocolError, match="schema mismatch"):
            protocol.validate_message(msg)

    def test_non_object_frame_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.validate_message(["hello"])

    def test_cell_codec_roundtrip_preserves_measure_tuple(self):
        cell = CellSpec(
            topology="grid", n=9, mode="uniform", alpha=3.0, beta=1.0,
            seed=0, measure=("schedule", "g1"),
        )
        # Through JSON, tuples become lists; decode restores them.
        wire = json.loads(json.dumps(protocol.encode_cell(cell)))
        assert protocol.decode_cell(wire) == cell

    def test_malformed_cell_rejected(self):
        with pytest.raises(ProtocolError, match="malformed lease cell"):
            protocol.decode_cell({"topology": "grid", "n": 9, "bogus": 1})
        with pytest.raises(ProtocolError, match="JSON object"):
            protocol.decode_cell([1, 2])

    def test_result_codec_roundtrip(self):
        result = CellResult(
            cell_id="c1", topology="grid", n=9, mode="uniform",
            alpha=3.0, beta=1.0, seed=0, slots=7, status="ok",
        )
        wire = json.loads(json.dumps(protocol.encode_result(result)))
        decoded = protocol.decode_result(wire)
        assert decoded.to_json_dict() == result.to_json_dict()

    def test_parse_address(self):
        assert protocol.parse_address("localhost:99") == ("localhost", 99)
        assert protocol.parse_address("10.0.0.1:8123") == ("10.0.0.1", 8123)
        for bad in ("nocolon", "host:", "host:abc", ":99", "host:70000"):
            with pytest.raises(ConfigurationError):
                protocol.parse_address(bad)


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
def echo_handler(conn, peer):
    with conn:
        try:
            while True:
                message = conn.recv(timeout=5.0)
                conn.send(message)
        except ClusterError:
            return


class TestTransport:
    def test_request_roundtrip_over_loopback(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                msg = protocol.make_message("heartbeat", worker_id="w")
                assert conn.request(msg, timeout=5.0) == msg

    def test_multiple_connections_share_one_server(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            conns = [connect(host, port) for _ in range(3)]
            try:
                for index, conn in enumerate(conns):
                    msg = protocol.make_message("hello", worker_id=f"w{index}")
                    assert conn.request(msg)["worker_id"] == f"w{index}"
            finally:
                for conn in conns:
                    conn.close()

    def test_oversized_outgoing_frame_rejected(self):
        with FrameServer(echo_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                huge = protocol.make_message(
                    "result", blob="x" * (MAX_FRAME_BYTES + 1)
                )
                with pytest.raises(ProtocolError, match="frame limit"):
                    conn.send(huge)

    def test_recv_timeout_raises_cluster_error(self):
        def silent_handler(conn, peer):
            with conn:
                time.sleep(2.0)

        with FrameServer(silent_handler) as server:
            host, port = server.address
            with connect(host, port) as conn:
                with pytest.raises(ClusterError, match="timed out"):
                    conn.recv(timeout=0.2)

    def test_connect_refused_raises_after_backoff(self):
        port = free_port()  # nothing is listening there
        start = time.monotonic()
        with pytest.raises(ClusterError, match="cannot reach cluster peer"):
            connect("127.0.0.1", port, retries=2, backoff_s=0.01)
        assert time.monotonic() - start < 5.0

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_busy_port_raises_cluster_error_and_closes_socket(self):
        with FrameServer(echo_handler) as busy:
            host, port = busy.address
            with pytest.raises(ClusterError, match=f"cannot listen on {host}:{port}"):
                FrameServer(echo_handler, host=host, port=port)
            # The failed server's listen socket must already be closed;
            # an unclosed one warns when collected here.
            gc.collect()


# ----------------------------------------------------------------------
# Orchestrator lease state machine (driven over the real wire)
# ----------------------------------------------------------------------
def dial(orchestrator: Orchestrator):
    host, port = orchestrator.address
    return connect(host, port)


def say_hello(conn, worker_id="wA"):
    return conn.request(
        protocol.make_message("hello", worker_id=worker_id), timeout=5.0
    )


def request_lease(conn, worker_id="wA"):
    return conn.request(
        protocol.make_message("lease_request", worker_id=worker_id), timeout=5.0
    )


def result_for(cell: CellSpec) -> CellResult:
    return CellResult(
        cell_id=cell.cell_id, topology=cell.topology, n=cell.n,
        mode=cell.mode, alpha=cell.alpha, beta=cell.beta, seed=cell.seed,
        slots=5, status="ok",
    )


def send_result(conn, cell, *, worker_id="wA", lease_id=None):
    return conn.request(
        protocol.make_message(
            "result",
            worker_id=worker_id,
            lease_id=lease_id,
            result=protocol.encode_result(result_for(cell)),
            store_stats={"deploy": {"builds": 1}},
        ),
        timeout=5.0,
    )


class TestOrchestrator:
    def cells(self, count=6):
        return [
            CellSpec(
                topology="grid", n=9, mode="uniform", alpha=3.0, beta=1.0,
                seed=seed,
            )
            for seed in range(count)
        ]

    def test_empty_sweep_is_done_immediately(self):
        with Orchestrator([]) as orchestrator:
            assert orchestrator.wait(timeout=1.0) == {}

    def test_hello_welcome_carries_config(self):
        with Orchestrator(self.cells(), lease_ttl_s=9.0, batch_size=2) as orch:
            with dial(orch) as conn:
                welcome = say_hello(conn)
                assert welcome["type"] == "welcome"
                assert welcome["lease_ttl_s"] == 9.0
                assert welcome["batch_size"] == 2
                assert welcome["total_cells"] == 6

    def test_default_heartbeat_leaves_two_beats_of_margin(self):
        # The advertised cadence is a third of the TTL (as documented):
        # a worker that misses one beat still has two full heartbeat
        # intervals before its lease expires.
        with Orchestrator(self.cells(), lease_ttl_s=9.0) as orch:
            interval = orch.heartbeat_interval_s
            assert interval == pytest.approx(9.0 / 3.0)
            assert orch.lease_ttl_s - 2 * interval >= interval

    def test_explicit_heartbeat_interval_wins(self):
        with Orchestrator(self.cells(), lease_ttl_s=9.0, heartbeat_interval_s=1.5) as orch:
            assert orch.heartbeat_interval_s == 1.5

    def test_lease_result_shutdown_flow(self):
        cells = self.cells(3)
        with Orchestrator(cells, batch_size=2) as orch:
            with dial(orch) as conn:
                say_hello(conn)
                lease = request_lease(conn)
                assert lease["type"] == "lease"
                assert [c["seed"] for c in lease["cells"]] == [0, 1]
                for data in lease["cells"]:
                    ack = send_result(
                        conn, protocol.decode_cell(data),
                        lease_id=lease["lease_id"],
                    )
                    assert ack["type"] == "result_ack"
                    assert ack["duplicate"] is False
                second = request_lease(conn)
                assert second["type"] == "lease"
                send_result(
                    conn, protocol.decode_cell(second["cells"][0]),
                    lease_id=second["lease_id"],
                )
                assert request_lease(conn)["type"] == "shutdown"
            results = orch.wait(timeout=5.0)
            assert sorted(results) == sorted(c.cell_id for c in cells)
            assert orch.stats.results_accepted == 3
            assert orch.stats.store_stats["deploy"]["builds"] == 3

    def test_all_leased_out_reports_idle(self):
        with Orchestrator(self.cells(2), batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                idle = request_lease(conn, worker_id="wB")
                assert idle["type"] == "idle"
                assert idle["retry_after_s"] > 0

    def test_expired_lease_reassigned_to_live_worker(self):
        with Orchestrator(self.cells(2), lease_ttl_s=0.2, batch_size=2) as orch:
            with dial(orch) as conn:
                first = request_lease(conn, worker_id="dead")
                assert first["type"] == "lease"
                time.sleep(0.4)  # let the lease lapse, no heartbeat
                second = request_lease(conn, worker_id="alive")
                assert second["type"] == "lease"
                assert second["cells"] == first["cells"]
            assert orch.stats.reassignments == 2

    def test_heartbeat_renews_leases(self):
        with Orchestrator(self.cells(2), lease_ttl_s=0.4, batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                for _ in range(4):
                    time.sleep(0.2)
                    ack = conn.request(
                        protocol.make_message("heartbeat", worker_id="wA"),
                        timeout=5.0,
                    )
                    assert ack["type"] == "heartbeat_ack"
                    assert ack["leases_renewed"] == 1
                # Twice the TTL has passed, but the heartbeats kept the
                # lease alive: another worker sees no pending cells.
                assert request_lease(conn, worker_id="wB")["type"] == "idle"
            assert orch.stats.reassignments == 0

    def test_goodbye_releases_cells(self):
        with Orchestrator(self.cells(2), batch_size=2) as orch:
            with dial(orch) as conn:
                request_lease(conn, worker_id="wA")
                assert (
                    conn.request(
                        protocol.make_message("goodbye", worker_id="wA"),
                        timeout=5.0,
                    )["type"]
                    == "goodbye_ack"
                )
            with dial(orch) as conn:
                # The departed worker's batch is immediately leasable.
                assert request_lease(conn, worker_id="wB")["type"] == "lease"

    def test_result_for_unknown_cell_is_an_error_reply(self):
        with Orchestrator(self.cells(1)) as orch:
            with dial(orch) as conn:
                stray = CellSpec(
                    topology="grid", n=25, mode="uniform", alpha=3.0,
                    beta=1.0, seed=77,
                )
                reply = send_result(conn, stray)
                assert reply["type"] == "error"
                assert "unknown cell" in reply["detail"]

    def test_wait_timeout_raises(self):
        with Orchestrator(self.cells(1)) as orch:
            with pytest.raises(ClusterError, match="timed out"):
                orch.wait(timeout=0.2)

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError, match="lease_ttl_s"):
            Orchestrator([], lease_ttl_s=0.0)
        with pytest.raises(ConfigurationError, match="batch_size"):
            Orchestrator([], batch_size=0)


# ----------------------------------------------------------------------
# Engine-level cluster backend
# ----------------------------------------------------------------------
class TestClusterEngine:
    def test_bad_cluster_address_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="HOST:PORT"):
            SweepEngine(small_spec(), cluster="nocolon")

    def test_cluster_sweep_matches_inline_byte_for_byte(self, tmp_path):
        spec = small_spec()
        inline_path = tmp_path / "inline.jsonl"
        cluster_path = tmp_path / "cluster.jsonl"
        SweepEngine(spec, out_path=inline_path).run()

        engine = SweepEngine(
            spec,
            out_path=cluster_path,
            cluster=f"127.0.0.1:{free_port()}",
            cluster_batch=3,
            lease_ttl_s=10.0,
        )
        report, workers = run_engine_with_workers(engine, 2)

        assert canonical_rows(inline_path) == canonical_rows(cluster_path)
        assert report.executed == spec.num_cells
        stats = report.cluster_stats
        assert stats["results_accepted"] == spec.num_cells
        assert stats["workers"] == ["test-w0", "test-w1"]
        assert sum(w.cells_completed for w in workers) == spec.num_cells

    def test_cluster_resume_skips_recorded_cells(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "sweep.jsonl"
        first = SweepEngine(spec, out_path=path).run()
        assert first.executed == spec.num_cells
        engine = SweepEngine(
            spec, out_path=path, cluster=f"127.0.0.1:{free_port()}"
        )
        # Everything is resumed: the orchestrator never has pending
        # cells, so no workers are needed at all.
        report = engine.run()
        assert report.executed == 0
        assert report.skipped == spec.num_cells
        assert report.cluster_stats is None

    def test_error_cells_are_isolated_rows(self, tmp_path):
        # exponential_line overflows IEEE doubles far below n=1100, so
        # every cell becomes a status=error row streamed back like any
        # other result — error isolation survives the wire.
        spec = small_spec(
            topologies=("exponential",), ns=(1100,), modes=("global",), seeds=1
        )
        engine = SweepEngine(
            spec,
            out_path=tmp_path / "err.jsonl",
            cluster=f"127.0.0.1:{free_port()}",
        )
        report, _ = run_engine_with_workers(engine, 1)
        assert report.failed == spec.num_cells
        rows = canonical_rows(tmp_path / "err.jsonl")
        assert all('"status": "error"' in row for row in rows)


# ----------------------------------------------------------------------
# Worker behaviour
# ----------------------------------------------------------------------
class TestWorker:
    def test_default_worker_id_is_per_process(self):
        assert default_worker_id() == default_worker_id()
        assert "-" in default_worker_id()

    def test_worker_gives_up_when_orchestrator_never_appears(self):
        worker = Worker(
            "127.0.0.1", free_port(), connect_retries=1, connect_backoff_s=0.01
        )
        with pytest.raises(ClusterError, match="cannot reach cluster peer"):
            worker.run()

    def test_worker_exits_cleanly_when_orchestrator_stops_midway(self):
        orchestrator = Orchestrator(
            [
                CellSpec(
                    topology="grid", n=9, mode="uniform", alpha=3.0,
                    beta=1.0, seed=0,
                )
            ]
        ).start()
        host, port = orchestrator.address
        worker = Worker(host, port, worker_id="wX")

        def stop_soon():
            time.sleep(0.3)
            orchestrator._server.stop()

        killer = threading.Thread(target=stop_soon)
        killer.start()
        thread = threading.Thread(target=worker.run)
        thread.start()
        thread.join(timeout=30)
        killer.join()
        assert not thread.is_alive(), "worker hung after orchestrator death"


# ----------------------------------------------------------------------
# CLI + API surface
# ----------------------------------------------------------------------
class TestCliSurface:
    def test_worker_subcommand_exists(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        assert "worker" in capsys.readouterr().out

    def test_sweep_cluster_flags_exist(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--cluster" in out and "--lease-ttl" in out

    def test_worker_bad_address_exits_2(self, capsys):
        from repro.cli import main

        assert main(["worker", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_unreachable_orchestrator_exits_2(self, capsys, monkeypatch):
        import repro.cluster as cluster_pkg
        from repro.cli import main

        real_worker = cluster_pkg.Worker

        def impatient_worker(host, port, **kwargs):
            # The CLI default backoff budget is ~25s; shrink it so the
            # failure path stays fast under test.
            kwargs.update(connect_retries=1, connect_backoff_s=0.01)
            return real_worker(host, port, **kwargs)

        monkeypatch.setattr(cluster_pkg, "Worker", impatient_worker)
        # Bind-then-release: nothing listens there, so the worker's
        # backoff budget runs out and the CLI maps it to exit 2.
        assert main(["worker", f"127.0.0.1:{free_port()}"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
    def test_sweep_on_busy_port_exits_2(self, capsys):
        from repro.cli import main

        with FrameServer(echo_handler) as busy:
            address = "{}:{}".format(*busy.address)
            argv = ["sweep", "--topology", "grid", "--n", "9", "--cluster", address]
            assert main(argv) == 2
            gc.collect()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot listen on {address}: ")


class TestApiSurface:
    def test_cluster_exports(self):
        assert repro.Orchestrator is Orchestrator
        assert repro.Worker is Worker
        assert issubclass(repro.ClusterError, repro.ReproError)
        assert issubclass(repro.ProtocolError, repro.ClusterError)
        from repro import api

        assert api.Orchestrator is Orchestrator
