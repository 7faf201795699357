"""The worker side of the cluster: one process, one replica, one engine.

A worker process owns a full single-replica :class:`ServingEngine` — its
own backend, profiled TileDB and planner for its device class — and runs a
small message loop over the transport: execute dispatches, absorb plan
cache deltas, answer pings, send heartbeats, exit on shutdown.  The policy
never runs here; the host decides, the worker executes (the
``SchedulingPolicy`` seam from PR 6, with only ``_execute`` moved).

Configuration crosses the fork as a frozen, data-only
:class:`WorkerConfig`; the fork start method means nothing is pickled and
the child's fork-aware shared registries re-profile their own tile
databases instead of aliasing the parent's.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

from ...core.selection import SIGNATURE_QUANTUM, PlanCache
from ...hw.spec import GPUSpec
from ..resilience import ResilienceConfig
from ..serving import ServingEngine
from .codec import (
    decode_delta_entries,
    decode_wire,
    encode_delta_entries,
    error_message,
    heartbeat_message,
    pong_message,
    result_message,
)
from .transport import Channel, WorkerLostError, channel_pair


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its engine — data only.

    Mirrors the :class:`ServingEngine` constructor arguments of the host
    (minus the fleet shape: a worker is always one replica of one device),
    plus the heartbeat period, which comes from the cluster config, never
    a literal — the ``transport-hygiene`` rule's contract.
    """

    replica_id: int
    spec: GPUSpec
    dtype: str = "float32"
    max_batch_tokens: int = 16384
    max_batch_size: int = 32
    enforce_memory: bool = False
    charge_selection: bool = True
    resilience: Optional[ResilienceConfig] = None
    cache_capacity: int = 256
    cache_shards: int = 8
    quantum: float = SIGNATURE_QUANTUM
    heartbeat_interval_s: float = 0.05


class RecordingPlanCache(PlanCache):
    """A :class:`PlanCache` that records what it learned.

    Every :meth:`put` — including the one :meth:`PlanCache.get_or_compute`
    issues when a cold search resolves — lands in a delta list the worker
    ships back with each result, so the host can broadcast fresh plans to
    the rest of the fleet.  :meth:`absorb` applies a received delta
    *without* recording it (the fleet already knows those entries), and
    ``known`` tracks every key ever seen regardless of later LRU eviction —
    the await protocol needs set membership, not residency.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.known: set = set()
        self._delta: list = []

    def put(self, key, value) -> None:
        super().put(key, value)
        self.known.add(key)
        self._delta.append((key, value))

    def absorb(self, pairs) -> None:
        for key, value in pairs:
            PlanCache.put(self, key, value)
            self.known.add(key)

    def drain_delta(self) -> list:
        delta, self._delta = self._delta, []
        return delta


def make_worker_engine(config: WorkerConfig) -> ServingEngine:
    """The worker's single-replica engine, per the host's
    :meth:`ServingEngine.make_worker_backend` semantics — same device
    class, same resilience config (so the deterministic fault injector
    reaches identical decisions at identical coordinates), but a
    process-private :class:`RecordingPlanCache`."""
    cache = RecordingPlanCache(
        config.cache_capacity,
        quantum=config.quantum,
        shards=config.cache_shards,
    )
    return ServingEngine(
        config.spec,
        dtype=config.dtype,
        max_batch_tokens=config.max_batch_tokens,
        max_batch_size=config.max_batch_size,
        replicas=1,
        overlap_selection=False,
        enforce_memory=config.enforce_memory,
        plan_cache=cache,
        charge_selection=config.charge_selection,
        resilience=config.resilience,
    )


class _ShutdownSignal(Exception):
    """Internal: a shutdown message arrived mid-protocol."""


def _heartbeat_loop(
    control_channel: Channel, config: WorkerConfig, stop: threading.Event
) -> None:
    seq = 0
    while not stop.wait(config.heartbeat_interval_s):
        try:
            control_channel.send(heartbeat_message(config.replica_id, seq))
        except WorkerLostError:
            return
        seq += 1


def _absorb_delta(cache: RecordingPlanCache, released: set, message) -> None:
    cache.absorb(decode_delta_entries(message["entries"]))
    for key in message["released"]:
        released.add(decode_wire(key))


def _await_keys(
    cache: RecordingPlanCache,
    released: set,
    data_channel: Channel,
    pending: deque,
    keys,
) -> None:
    """Block until every awaited plan key was delivered or released.

    The host only names keys whose search is owned by a dispatch on
    *another* replica, so the matching delta (or, if the owner failed or
    degraded, the release) is guaranteed to arrive; an awaiting worker
    holds its dispatch rather than duplicating a cold search.
    """
    while True:
        outstanding = [
            k for k in keys if k not in cache.known and k not in released
        ]
        if not outstanding:
            return
        message = data_channel.recv()
        if message["type"] == "cache-delta":
            _absorb_delta(cache, released, message)
        elif message["type"] == "shutdown":
            raise _ShutdownSignal()
        else:
            pending.append(message)


def _run_dispatch(
    engine: ServingEngine,
    cache: RecordingPlanCache,
    released: set,
    data_channel: Channel,
    pending: deque,
    message,
) -> dict:
    batch_id = message["batch_id"]
    attempt = message["attempt"]
    requests = [decode_wire(r) for r in message["requests"]]
    keys = [decode_wire(k) for k in message["await_keys"]]
    _await_keys(cache, released, data_channel, pending, keys)
    cache.drain_delta()
    try:
        batch_report, request_reports = engine.execute_batch(
            requests,
            batch_id=batch_id,
            start_us=message["start_us"],
            replica_id=message["replica_id"],
            attempt=attempt,
        )
    except Exception as exc:
        cache.drain_delta()
        return error_message(batch_id, attempt, exc)
    delta = encode_delta_entries(cache.drain_delta())
    return result_message(
        batch_id, attempt, batch_report, request_reports, delta
    )


def worker_main(
    config: WorkerConfig, data_channel: Channel, control_channel: Channel
) -> None:
    """Entry point of one worker process.

    Heartbeats start before engine construction so the host's liveness
    monitor never mistakes a slow TileDB profile for a dead worker.
    """
    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(control_channel, config, stop),
        daemon=True,
    )
    beat.start()
    engine = make_worker_engine(config)
    cache = engine.plan_cache
    released: set = set()
    pending: deque = deque()
    try:
        while True:
            message = pending.popleft() if pending else data_channel.recv()
            kind = message["type"]
            if kind == "shutdown":
                break
            if kind == "ping":
                data_channel.send(pong_message())
            elif kind == "cache-delta":
                _absorb_delta(cache, released, message)
            elif kind == "dispatch":
                reply = _run_dispatch(
                    engine, cache, released, data_channel, pending, message
                )
                data_channel.send(reply)
            # Unknown kinds are ignored: a newer host may speak a richer
            # protocol; everything a worker must act on is covered above.
    except (WorkerLostError, _ShutdownSignal):
        pass
    finally:
        stop.set()
        data_channel.close()
        control_channel.close()


class WorkerProcess:
    """Host-side handle of one worker process.

    Owns the host ends of the worker's two channels — ``data_channel``
    (dispatch/result, cache deltas, ping/pong, shutdown) and
    ``control_channel`` (heartbeats) — and the ``multiprocessing.Process``
    itself.  Spawned with the fork start method: the frozen
    :class:`WorkerConfig` and the channel objects are inherited by memory,
    never pickled.
    """

    def __init__(self, config: WorkerConfig):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.config = config
        self.replica_id = config.replica_id
        host_data, worker_data = channel_pair()
        host_control, worker_control = channel_pair()
        self.data_channel = host_data
        self.control_channel = host_control
        self._worker_data = worker_data
        self._worker_control = worker_control
        self.process = ctx.Process(
            target=worker_main,
            args=(config, worker_data, worker_control),
            daemon=True,
        )
        self.alive = False

    def start(self) -> None:
        self.process.start()
        # Drop the parent's copies of the child's channel ends, or the
        # child's death would never surface as EOF on the host side.
        self._worker_data.detach_close()
        self._worker_control.detach_close()
        self.alive = True

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Round-trip readiness probe — blocks until the worker's engine is
        built and its message loop is serving."""
        from .codec import ping_message

        self.data_channel.settimeout(timeout)
        try:
            self.data_channel.send(ping_message())
            reply = self.data_channel.recv()
            return reply.get("type") == "pong"
        finally:
            self.data_channel.settimeout(None)

    def request(self, message: dict) -> dict:
        """Send one message and block for its reply (dispatch -> result or
        error).  Single-consumer: only the replica's worker thread calls
        this, so frames never interleave."""
        self.data_channel.send(message)
        return self.data_channel.recv()

    def kill(self) -> None:
        """Hard-kill (SIGKILL) — the chaos path; never graceful."""
        if self.process.pid is not None and self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)
        self.alive = False
        self.data_channel.close()
        self.control_channel.close()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: send shutdown, join, escalate to kill on a hang."""
        from .codec import shutdown_message

        if self.alive and self.process.is_alive():
            try:
                self.data_channel.send(shutdown_message())
            except WorkerLostError:
                pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self.alive = False
        self.data_channel.close()
        self.control_channel.close()
