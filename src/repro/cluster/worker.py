"""The cluster worker: leases cells, runs them, streams results back.

A worker is a plain loop over the request/reply protocol: ``hello`` to
learn the orchestrator's heartbeat cadence, then ``lease_request`` →
run each leased cell → ``result`` per cell, until the orchestrator
answers ``shutdown``.  Cells execute through the worker's own
:class:`~repro.jobs.JobService` (inline, one cell at a time — a host
wanting more parallelism runs more worker processes), so the
content-addressed :class:`~repro.store.StageStore` semantics are
exactly the local ones, and hosts mounting a shared ``--cache-dir``
share the disk tier for free.

Heartbeats ride a *second* connection driven by a daemon thread, so a
long-running cell cannot starve the lease renewals that keep the
orchestrator from reassigning its batch.  Each ``result`` message
carries the store-stat delta that cell caused, which the orchestrator
merges into ``SweepReport.cluster_stats`` — the same additive-delta
contract the process-pool backend uses.

A worker that loses the orchestrator *before* saying hello retries with
exponential backoff (the orchestrator may still be binding); one that
loses it *after* handshaking treats the disappearance as a finished
sweep and exits cleanly, because a restarted orchestrator would issue
fresh leases anyway.
"""

from __future__ import annotations

import os
import platform
import threading
from typing import Any, Dict, Optional

from repro.cluster import protocol
from repro.cluster.transport import connect
from repro.errors import ClusterError
from repro.jobs.service import JobService

__all__ = ["Worker", "default_worker_id"]


def default_worker_id() -> str:
    """``<node>-<pid>``: unique per worker process on a shared host."""
    return f"{platform.node() or 'worker'}-{os.getpid()}"


def _stats_diff(
    after: Dict[str, Dict[str, int]], before: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-stage counter increments between two cumulative snapshots."""
    out: Dict[str, Dict[str, int]] = {}
    for stage, counters in after.items():
        base = before.get(stage, {})
        delta = {k: v - base.get(k, 0) for k, v in counters.items()}
        if any(delta.values()):
            out[stage] = delta
    return out


class Worker:
    """One cluster worker process's control loop.

    Parameters
    ----------
    host, port:
        The orchestrator's address.
    worker_id:
        Stable identity used in leases and heartbeats; defaults to
        :func:`default_worker_id`.
    cache_dir / jobs_transport:
        Forwarded to the worker's local :class:`JobService` — point
        ``cache_dir`` at a shared mount to share the disk tier across
        hosts.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: Optional[str] = None,
        cache_dir: Optional[str] = None,
        jobs_transport: str = "auto",
        connect_retries: int = 8,
        connect_backoff_s: float = 0.1,
    ) -> None:
        self.host = host
        self.port = port
        self.worker_id = worker_id or default_worker_id()
        self.cache_dir = cache_dir
        self.jobs_transport = jobs_transport
        self._connect_retries = connect_retries
        self._connect_backoff_s = connect_backoff_s
        self._stop_heartbeat = threading.Event()
        self.cells_completed = 0

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve until the orchestrator says ``shutdown``.

        Returns the number of cells this worker completed.
        """
        conn = connect(
            self.host,
            self.port,
            retries=self._connect_retries,
            backoff_s=self._connect_backoff_s,
        )
        heartbeat_thread: Optional[threading.Thread] = None
        try:
            welcome = conn.request(
                protocol.make_message("hello", worker_id=self.worker_id),
                timeout=10.0,
            )
            if welcome["type"] != "welcome":
                raise ClusterError(
                    f"expected welcome, orchestrator sent {welcome['type']!r}"
                )
            interval = float(welcome.get("heartbeat_interval_s", 1.0))
            heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(interval,),
                name=f"repro-worker-heartbeat-{self.worker_id}",
                daemon=True,
            )
            heartbeat_thread.start()
            with JobService(
                cache_dir=self.cache_dir, transport=self.jobs_transport
            ) as service:
                self._lease_loop(conn, service)
        except ClusterError:
            # Orchestrator vanished mid-conversation: its sweep is over
            # (or it crashed and will re-lease on restart) — either way
            # this worker has nothing left to do.
            pass
        finally:
            self._stop_heartbeat.set()
            if heartbeat_thread is not None:
                heartbeat_thread.join(timeout=2.0)
            try:
                conn.request(
                    protocol.make_message("goodbye", worker_id=self.worker_id),
                    timeout=2.0,
                )
            except ClusterError:
                pass
            conn.close()
        return self.cells_completed

    # ------------------------------------------------------------------
    def _lease_loop(self, conn: Any, service: JobService) -> None:
        while True:
            reply = conn.request(
                protocol.make_message("lease_request", worker_id=self.worker_id),
                timeout=30.0,
            )
            if reply["type"] == "shutdown":
                return
            if reply["type"] == "idle":
                self._stop_heartbeat.wait(float(reply.get("retry_after_s", 0.2)))
                if self._stop_heartbeat.is_set():
                    return
                continue
            if reply["type"] != "lease":
                raise ClusterError(
                    f"expected lease/idle/shutdown, orchestrator sent "
                    f"{reply['type']!r}"
                )
            lease_id = reply.get("lease_id")
            for cell_data in reply.get("cells", []):
                cell = protocol.decode_cell(cell_data)
                before = service.store_stats()
                result = service.submit_cells([cell])[0].result()
                delta = _stats_diff(service.store_stats(), before)
                ack = conn.request(
                    protocol.make_message(
                        "result",
                        worker_id=self.worker_id,
                        lease_id=lease_id,
                        result=protocol.encode_result(result),
                        store_stats=delta,
                    ),
                    timeout=30.0,
                )
                if ack["type"] != "result_ack":
                    raise ClusterError(
                        f"expected result_ack, orchestrator sent {ack['type']!r}"
                    )
                if not ack.get("duplicate", False):
                    self.cells_completed += 1

    # ------------------------------------------------------------------
    def _heartbeat_loop(self, interval: float) -> None:
        """Renew leases on a dedicated connection until told to stop."""
        try:
            conn = connect(self.host, self.port, retries=2, backoff_s=0.05)
        except ClusterError:
            return
        with conn:
            while not self._stop_heartbeat.wait(interval):
                try:
                    conn.request(
                        protocol.make_message(
                            "heartbeat", worker_id=self.worker_id
                        ),
                        timeout=5.0,
                    )
                except ClusterError:
                    return
