"""The worker side of the cluster: one process, one replica, one engine.

A worker process owns a full single-replica :class:`ServingEngine` — its
own backend, profiled TileDB and planner for its device class — and runs a
small message loop over the transport: execute dispatches, absorb plan
cache deltas, answer pings, exit on shutdown.  The policy never runs here;
the host decides, the worker executes (the ``SchedulingPolicy`` seam, with
only ``_execute`` moved).

Configuration crosses the fork as a frozen, data-only
:class:`WorkerConfig`; the fork start method means nothing is pickled and
the child's fork-aware shared registries re-profile their own tile
databases instead of aliasing the parent's.
"""

from __future__ import annotations

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
    ping_message,
    pong_message,
    result_message,
    shutdown_message,
)
from .transport import Channel, WorkerLostError, channel_pair


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to build its engine — data only.

    Mirrors the :class:`ServingEngine` constructor arguments of the host
    (minus the fleet shape: a worker is always one replica of one device).
    """

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


class RecordingPlanCache(PlanCache):
    """A :class:`PlanCache` that records what it learned.

    Every :meth:`put` — including the one :meth:`PlanCache.get_or_compute`
    issues when a cold search resolves — lands in a delta list the worker
    ships back with each result, so the host can broadcast fresh plans to
    the rest of the fleet.  :meth:`absorb` applies a received delta
    *without* recording it (the fleet already knows those entries).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._delta: list = []

    def put(self, key, value) -> None:
        super().put(key, value)
        self._delta.append((key, value))

    def absorb(self, pairs) -> None:
        for key, value in pairs:
            PlanCache.put(self, key, value)

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


def _run_dispatch(
    engine: ServingEngine, cache: RecordingPlanCache, message
) -> dict:
    batch_id = message["batch_id"]
    attempt = message["attempt"]
    requests = [decode_wire(r) for r in message["requests"]]
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


def worker_main(config: WorkerConfig, data_channel: Channel) -> None:
    """Entry point of one worker process."""
    engine = make_worker_engine(config)
    cache = engine.plan_cache
    try:
        while True:
            message = data_channel.recv()
            kind = message["type"]
            if kind == "shutdown":
                break
            if kind == "ping":
                data_channel.send(pong_message())
            elif kind == "cache-delta":
                cache.absorb(decode_delta_entries(message["entries"]))
            elif kind == "dispatch":
                reply = _run_dispatch(engine, cache, message)
                data_channel.send(reply)
            # Unknown kinds are ignored: a newer host may speak a richer
            # protocol; everything a worker must act on is covered above.
    except WorkerLostError:
        pass
    finally:
        data_channel.close()


class WorkerProcess:
    """Host-side handle of one worker process.

    Owns the host end of the worker's channel, ``data_channel``
    (dispatch/result, cache deltas, ping/pong, shutdown), and the
    ``multiprocessing.Process`` itself.  Spawned with the fork start
    method: the frozen :class:`WorkerConfig` and the channel objects are
    inherited by memory, never pickled.
    """

    def __init__(self, config: WorkerConfig):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self.data_channel, self._worker_data = channel_pair()
        self.process = ctx.Process(
            target=worker_main,
            args=(config, self._worker_data),
            daemon=True,
        )

    def start(self) -> None:
        self.process.start()
        # Drop the parent's copy of the child's channel end, or the child's
        # death would never surface as EOF on the host side.
        self._worker_data.detach_close()

    def ping(self, timeout: Optional[float] = None) -> bool:
        """Round-trip readiness probe — blocks until the worker's engine is
        built and its message loop is serving."""
        self.data_channel.settimeout(timeout)
        try:
            self.data_channel.send(ping_message())
            reply = self.data_channel.recv()
            return reply.get("type") == "pong"
        finally:
            self.data_channel.settimeout(None)

    def request(self, message: dict) -> dict:
        """Send one message and block for its reply (dispatch -> result or
        error)."""
        self.data_channel.send(message)
        return self.data_channel.recv()

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: send shutdown, join, escalate to kill on a hang.

        A worker that already died refuses the message; the join then
        only reaps it."""
        try:
            self.data_channel.send(shutdown_message())
        except WorkerLostError:
            pass
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout)
        self.data_channel.close()
