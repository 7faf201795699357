"""The cluster frontend: the async serving frontend over worker processes.

:class:`ClusterFrontend` subclasses :class:`AsyncServingFrontend` and moves
exactly one method across the process boundary — ``_execute``.  Admission,
batching, placement, retry/failover and accounting all stay on the host in
the shared :class:`~repro.runtime.scheduler.SchedulingPolicy`; a dispatch
becomes one request/reply round trip on the replica's transport channel,
and the reply carries the reports plus a plan-cache delta the host applies
and broadcasts, so N worker processes pay the cold-search bill of one.

Failure semantics are PR 8's, unchanged: a dead worker process surfaces as
:class:`WorkerLostError` from the transport — on the dispatch path it
routes through :func:`~repro.runtime.resilience.resolve_failure` exactly
like an injected :class:`WorkerCrashFault`; on an idle replica the
heartbeat monitor records the failure with the
:class:`~repro.runtime.resilience.HealthTracker` directly and (by default)
respawns the worker, which re-enters placement through the breaker's
quarantine -> half-open -> healthy ladder.

Virtual-time replay (:func:`cluster_replay_trace`) runs this front end
through the one simulated driver,
:func:`~repro.runtime.frontend.serve_virtual`: every dispatch is a
blocking round trip, so plan deltas land before the next decision and the
decision trace — including timings under ``charge_selection=False`` —
equals ``engine.run(policy="continuous")``'s on the same trace.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from dataclasses import dataclass
from typing import Optional

from ...analysis.runtime_checks import make_lock
from ...hw.costmodel import transport_adjusted_finish_us
from ..frontend import AsyncServingFrontend, VirtualClock, serve_virtual
from ..resilience import InjectedFault
from ..serving import ServingReport
from .codec import (
    cache_delta_message,
    decode_delta_entries,
    decode_exception,
    decode_wire,
    dispatch_message,
    encode_delta_entries,
)
from .transport import WorkerLostError
from .worker import WorkerConfig, WorkerProcess


@dataclass(frozen=True)
class ClusterConfig:
    """Transport and liveness knobs of one cluster frontend."""

    #: Worker heartbeat period.  Every heartbeat literal in the tree flows
    #: from here (or a test's explicit config) — the ``transport-hygiene``
    #: rule flags numeric heartbeat literals at call sites.
    heartbeat_interval_s: float = 0.05
    #: Silence on the control channel past this marks the worker lost.
    heartbeat_timeout_s: float = 1.0
    #: Per-dispatch serialize/send/receive overhead charged into the
    #: replica's ``free_at`` reservation
    #: (:func:`~repro.hw.costmodel.transport_adjusted_finish_us`).  Zero —
    #: the default — reduces reservations exactly to the threaded
    #: frontend's, which the replay-equivalence property requires.
    transport_overhead_us: float = 0.0
    #: Respawn a lost worker (fresh process, full cache snapshot); the
    #: replica then re-admits through the health tracker's half-open probe.
    restart_workers: bool = True
    #: Chaos-test knob: each worker sleeps this long before executing a
    #: dispatch, widening the window to SIGKILL it mid-batch.
    exec_delay_s: float = 0.0
    #: How long to wait for a worker's readiness ping (engine construction
    #: profiles a tile database, which takes real time).
    ready_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be > 0")
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError(
                "heartbeat_timeout_s must exceed heartbeat_interval_s"
            )
        if self.transport_overhead_us < 0:
            raise ValueError("transport_overhead_us must be >= 0")


class ClusterFrontend(AsyncServingFrontend):
    """An :class:`AsyncServingFrontend` whose replicas are processes.

    The policy runs on the admission host; ``_execute`` runs in the
    replica's worker process via the transport.  Everything else — the
    4-tuple dispatch items, retry scheduling, accounting, the report —
    is inherited unchanged.
    """

    #: A lost worker process fails its dispatch like an injected crash.
    _inline_faults = (InjectedFault, WorkerLostError)

    def __init__(self, engine, *, cluster: Optional[ClusterConfig] = None,
                 **kwargs):
        if engine.overlap_selection:
            raise ValueError(
                "ClusterFrontend requires overlap_selection=False: "
                "speculative batch-open searches would run host-side and "
                "fork the plan traffic from the worker processes"
            )
        super().__init__(engine, **kwargs)
        self.cluster = cluster if cluster is not None else ClusterConfig()
        #: replica_id -> live WorkerProcess handle.
        self._procs: dict = {}
        #: Plan keys with a cold search in flight: key -> owning replica.
        self._plan_state: dict = {}
        self._plan_lock = make_lock("plan_state", reentrant=False)
        #: (batch_id, attempt) -> (await_keys, owned_keys) staged by _route.
        self._dispatch_keys: dict = {}
        #: replica_id -> batch_id of the dispatch currently on the wire
        #: (None when idle) — the monitor's double-count guard.
        self._inflight_dispatch: dict = {}
        self._monitors: list = []
        self._monitor_stop = threading.Event()
        self._loop = None
        self._workers_started = False

    # ------------------------------------------------------------------
    # Worker pool lifecycle (sync — shared by live start and replay)
    # ------------------------------------------------------------------
    def start_workers(self) -> None:
        """Spawn one worker process per policy replica and wait for
        readiness.  Idempotent."""
        if self._workers_started:
            return
        self._workers_started = True
        for replica in self.policy.replicas:
            self._procs[replica.replica_id] = self._spawn(replica)
            self._inflight_dispatch[replica.replica_id] = None
        for replica_id, proc in self._procs.items():
            if not proc.ping(timeout=self.cluster.ready_timeout_s):
                raise WorkerLostError(
                    f"worker {replica_id} failed its readiness ping"
                )

    def shutdown_workers(self) -> None:
        """Stop the monitors and gracefully shut every worker down."""
        self._monitor_stop.set()
        for proc in list(self._procs.values()):
            proc.shutdown()
        for monitor in self._monitors:
            monitor.join(timeout=10.0)
        self._monitors.clear()
        self._procs.clear()
        self._workers_started = False

    def _spawn(self, replica) -> WorkerProcess:
        plan_cache = self.engine.plan_cache
        config = WorkerConfig(
            replica_id=replica.replica_id,
            spec=replica.device.spec,
            backend=self.engine.backend_name,
            dtype=self.engine.dtype,
            mode=self.engine.mode,
            max_batch_tokens=self.engine.max_batch_tokens,
            max_batch_size=self.engine.max_batch_size,
            enforce_memory=self.engine.enforce_memory,
            charge_selection=self.engine.charge_selection,
            resilience=self.engine.resilience,
            cache_capacity=plan_cache.capacity,
            cache_shards=plan_cache.shards,
            quantum=plan_cache.quantum,
            heartbeat_interval_s=self.cluster.heartbeat_interval_s,
            exec_delay_s=self.cluster.exec_delay_s,
        )
        proc = WorkerProcess(config)
        proc.start()
        # Seed the fresh process with everything the host already knows —
        # a respawned (or late-joining) worker never re-pays warm plans.
        snapshot = encode_delta_entries(plan_cache.entries())
        if snapshot:
            proc.data_channel.send(cache_delta_message(snapshot))
        return proc

    # -- introspection (tests and benchmarks) ---------------------------
    def worker_pid(self, replica_id: int) -> Optional[int]:
        proc = self._procs.get(replica_id)
        return proc.pid if proc is not None else None

    def dispatch_inflight(self, replica_id: int) -> Optional[int]:
        """Batch id currently on the wire to this replica, if any."""
        return self._inflight_dispatch.get(replica_id)

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._started:
            return
        self.start_workers()
        await super().start()
        if self._inline:
            return
        self._loop = asyncio.get_running_loop()
        for replica in self.policy.replicas:
            monitor = threading.Thread(
                target=self._monitor_loop,
                args=(replica.replica_id,),
                name=f"cluster-monitor-{replica.replica_id}",
                daemon=True,
            )
            monitor.start()
            self._monitors.append(monitor)

    async def stop(self) -> None:
        await super().stop()
        self.shutdown_workers()

    # ------------------------------------------------------------------
    # Dispatch path
    # ------------------------------------------------------------------
    def _route(self, item) -> None:
        self._assign_plan_keys(*item)
        super()._route(item)

    def _reserved_finish_us(self, placement, estimate_us: float) -> float:
        # The threaded front end's reservation plus the transport's
        # per-dispatch overhead (zero by default, which reduces it exactly
        # to the base class's).
        return transport_adjusted_finish_us(
            placement.start_us,
            placement.replica.free_at_us,
            estimate_us,
            self.cluster.transport_overhead_us,
        )

    def _assign_plan_keys(
        self, batch, placement, batch_id: int, attempt: int
    ) -> None:
        """Stage the cross-process single-flight bookkeeping for one
        dispatch: which plan keys this dispatch must await (a search owned
        by a dispatch on another replica) and which it owns (first to need
        them fleet-wide).  Runs on the event-loop thread."""
        replica_id = placement.replica.replica_id
        device = placement.replica.device
        keys = [
            spec.cache_key()
            for spec, _ in self.engine._plan_requests(
                placement.workload, device.tiledb.cache_key
            )
        ]
        # Membership first, state second — never nest the plan-state lock
        # with the cache's shard locks.
        warm = {key for key in keys if key in self.engine.plan_cache}
        awaits, owned = [], []
        with self._plan_lock:
            for key in keys:
                if key in warm:
                    continue
                owner = self._plan_state.get(key)
                if owner is None:
                    self._plan_state[key] = replica_id
                    owned.append(key)
                elif owner != replica_id:
                    awaits.append(key)
                # owner == replica_id: FIFO on one channel — the owning
                # dispatch resolves the key before this one executes.
        self._dispatch_keys[(batch_id, attempt)] = (awaits, owned)

    def _execute(self, item) -> tuple:
        """One dispatch round trip to the replica's worker process."""
        batch, placement, batch_id, attempt = item
        replica_id = placement.replica.replica_id
        awaits, owned = self._dispatch_keys.pop((batch_id, attempt), ([], []))
        proc = self._procs.get(replica_id)
        if proc is None or not proc.alive:
            self._release_owned(owned)
            raise WorkerLostError(f"worker {replica_id} is not alive")
        message = dispatch_message(
            batch.requests,
            batch_id=batch_id,
            attempt=attempt,
            start_us=placement.start_us,
            replica_id=replica_id,
            workload=placement.workload,
            await_keys=awaits,
        )
        self._inflight_dispatch[replica_id] = batch_id
        try:
            reply = proc.request(message)
        except WorkerLostError:
            # Leave the in-flight marker set: the monitor will observe this
            # worker's death and must not double-record the failure the
            # resolve_failure path is about to account.
            self._release_owned(owned)
            raise
        if reply["type"] == "error":
            self._inflight_dispatch[replica_id] = None
            self._release_owned(owned)
            raise decode_exception(reply["kind"], reply["message"])
        self._inflight_dispatch[replica_id] = None
        entries = reply["delta"]
        pairs = decode_delta_entries(entries)
        for key, value in pairs:
            self.engine.plan_cache.put(key, value)
        resolved = {key for key, _ in pairs}
        released = [key for key in owned if key not in resolved]
        self._broadcast_delta(entries, released, exclude=replica_id)
        with self._plan_lock:
            for key in owned:
                self._plan_state.pop(key, None)
        batch_report = decode_wire(reply["batch_report"])
        request_reports = [decode_wire(r) for r in reply["request_reports"]]
        return batch_report, request_reports

    def _release_owned(self, owned) -> None:
        """A failed dispatch's pending searches will never resolve — free
        the keys and tell awaiting workers to search for themselves."""
        if not owned:
            return
        with self._plan_lock:
            for key in owned:
                self._plan_state.pop(key, None)
        self._broadcast_delta([], owned)

    def _broadcast_delta(self, entries, released, *, exclude: int = -1) -> None:
        if not entries and not released:
            return
        message = cache_delta_message(entries, released=released)
        for replica_id, proc in list(self._procs.items()):
            if replica_id == exclude or not proc.alive:
                continue
            try:
                proc.data_channel.send(message)
            except WorkerLostError:
                continue

    # ------------------------------------------------------------------
    # Heartbeat monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self, replica_id: int) -> None:
        """One thread per replica: watch the control channel for
        heartbeats; a timeout or EOF marks the worker lost."""
        while not self._monitor_stop.is_set():
            proc = self._procs.get(replica_id)
            if proc is None or not proc.alive:
                if self._monitor_stop.wait(self.cluster.heartbeat_interval_s):
                    return
                continue
            proc.control_channel.settimeout(self.cluster.heartbeat_timeout_s)
            try:
                proc.control_channel.recv()
            except socket.timeout:
                self._on_worker_lost(replica_id, proc, "missed heartbeat")
            except WorkerLostError:
                if self._monitor_stop.is_set() or self._closing:
                    return
                self._on_worker_lost(
                    replica_id, proc, "control channel closed"
                )

    def _on_worker_lost(self, replica_id: int, proc, reason: str) -> None:
        """Handle one observed worker death (monitor thread).

        Closing the data channel unblocks a replica thread parked in
        ``proc.request`` — its :class:`WorkerLostError` then rides the
        normal ``resolve_failure`` retry/failover path.  Only an *idle*
        loss (no dispatch on the wire) is recorded with the health tracker
        here; a mid-dispatch loss is accounted exactly once, by
        ``resolve_failure``.
        """
        if self._closing or self._monitor_stop.is_set():
            return
        if self._procs.get(replica_id) is not proc or not proc.alive:
            return
        proc.alive = False
        proc.data_channel.close()
        proc.control_channel.close()
        idle = self._inflight_dispatch.get(replica_id) is None
        self._inflight_dispatch[replica_id] = None
        if idle and self.policy.health is not None and self._loop is not None:
            self._loop.call_soon_threadsafe(
                self._record_idle_failure, replica_id, reason
            )
        if self.cluster.restart_workers and not self._closing:
            replica = self.policy.replicas[replica_id]
            fresh = self._spawn(replica)
            fresh.ping(timeout=self.cluster.ready_timeout_s)
            self._procs[replica_id] = fresh

    def _record_idle_failure(self, replica_id: int, reason: str) -> None:
        """Event-loop thread: an idle worker died — no dispatch will carry
        the failure to ``resolve_failure``, so the breaker learns here."""
        if self._closing:
            return
        self.policy.health.on_failure(replica_id, self.clock.now_us())


# ----------------------------------------------------------------------
# Virtual-time replay and live-serving conveniences
# ----------------------------------------------------------------------
def cluster_replay_trace(
    engine,
    requests=None,
    *,
    cluster: Optional[ClusterConfig] = None,
    max_queue_depth: Optional[int] = None,
) -> ServingReport:
    """Serve a trace through the cluster frontend in virtual time.

    The process-pool analogue of
    :func:`~repro.runtime.frontend.replay_trace`: same driver
    (:func:`~repro.runtime.frontend.serve_virtual`), same admission
    pipeline, but every execution is a real round trip into a worker
    process.  Dispatches are synchronous in virtual time, so each batch's
    plan delta reaches the whole fleet before the next decision — which is
    why the decision trace (timings included under
    ``charge_selection=False``) equals ``engine.run(policy="continuous")``'s
    on the same trace.
    """
    frontend = ClusterFrontend(
        engine,
        cluster=cluster,
        max_queue_depth=max_queue_depth,
        clock=VirtualClock(),
    )
    frontend.start_workers()
    try:
        return serve_virtual(frontend, requests)
    finally:
        frontend.shutdown_workers()


async def serve_cluster_async(
    engine,
    workloads,
    *,
    cluster: Optional[ClusterConfig] = None,
    max_queue_depth: Optional[int] = None,
    overload: str = "shed",
) -> ServingReport:
    """Serve ``workloads`` through a process-pool frontend on the running
    loop."""
    frontend = ClusterFrontend(
        engine,
        cluster=cluster,
        max_queue_depth=max_queue_depth,
        overload=overload,
    )
    await frontend.start()
    futures = [await frontend.submit(w) for w in workloads]
    await frontend.drain()
    if futures:
        await asyncio.gather(*futures)
    await frontend.stop()
    return frontend.report()


def serve_cluster(
    engine,
    workloads,
    *,
    cluster: Optional[ClusterConfig] = None,
    max_queue_depth: Optional[int] = None,
    overload: str = "shed",
) -> ServingReport:
    """Synchronous wrapper: run :func:`serve_cluster_async` on a private
    loop."""
    return asyncio.run(
        serve_cluster_async(
            engine,
            workloads,
            cluster=cluster,
            max_queue_depth=max_queue_depth,
            overload=overload,
        )
    )
