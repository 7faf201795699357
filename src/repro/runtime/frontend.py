"""The serving front end over the scheduling core, on a real or virtual clock.

An asyncio **admission loop** accepts streaming
:meth:`AsyncServingFrontend.submit` calls (each resolved by a future),
applies **backpressure / load-shedding** when the in-flight depth exceeds
the SLO-feasible bound, and **replica workers** pull closed batches from
per-replica queues and execute them concurrently (each worker on its own
model-backend instance, all sharing the engine's one sharded
:class:`~repro.core.selection.PlanCache`).

The front end makes *no scheduling decisions of its own*: every admission,
closure and placement goes through one
:class:`~repro.runtime.scheduler.SchedulingPolicy`, and every failure
through :func:`~repro.runtime.resilience.resolve_failure`.

**The simulated driver.**  :func:`serve_virtual` is the one loop that
serves in simulated time: it runs a front end on a :class:`VirtualClock`,
where arrivals, window deadlines and backoff'd retries are timers that
fire in deterministic order and every dispatch executes inline (so
replica ``free_at`` bookkeeping is exact when the next decision reads
it).  ``engine.run(policy="continuous")``
(:class:`~repro.runtime.scheduler.ContinuousScheduler`),
:func:`replay_trace` and the process pool's
:func:`~repro.runtime.cluster.cluster_replay_trace` all serve through it;
:func:`decision_trace` extracts the comparable decision sequence of a
report.  Construct the engine with ``charge_selection=False`` to make the
simulated timeline (start/exec times) bit-reproducible: measured selection
wall time is then reported but kept off the simulated schedule.

Two clocks, restated for the live path: *execution* time remains the
analytical device model's simulated latency (a worker "executing" a batch
computes its report; it does not sleep), while *selection* remains real
measured wall time — under real concurrency the cold Algorithm 1 searches
genuinely overlap with other replicas' work, which is what the contention
benchmark measures.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import Optional

from .resilience import InjectedFault, resolve_failure
from .scheduler import SchedulingPolicy, _OpenBatch
from .serving import (
    InferenceRequest,
    RequestReport,
    ServingReport,
)


class VirtualClock:
    """A deterministic microsecond clock driven explicitly by its owner.

    Timers are a heap of ``(when_us, priority, seq, callback, args)``; ties
    fire in priority order, then scheduling order.  The front end schedules
    arrivals at priority 0, window deadlines at 1 and backoff'd retries at
    2: an arrival exactly on a deadline still rides the batch it was aimed
    at, and both beat a retry due at the same time.  :meth:`fire_next`
    advances ``now`` to the timer's due time *before* invoking the
    callback, so code reading :meth:`now_us` inside a callback observes
    exactly the event time.
    """

    def __init__(self, start_us: float = 0.0):
        self._now_us = float(start_us)
        self._timers: list = []
        self._seq = itertools.count()

    def now_us(self) -> float:
        return self._now_us

    def call_at(self, when_us: float, callback, *args,
                priority: int = 0) -> None:
        heapq.heappush(
            self._timers, (when_us, priority, next(self._seq), callback, args)
        )

    def pending(self) -> bool:
        return bool(self._timers)

    def fire_next(self) -> float:
        """Fire the earliest timer; returns the time it fired at."""
        when_us, _, _, callback, args = heapq.heappop(self._timers)
        self._now_us = max(self._now_us, when_us)
        callback(*args)
        return self._now_us

    def run_until_idle(self) -> float:
        """Fire timers (including ones they schedule) until none is left;
        returns the time of the last one."""
        while self._timers:
            self.fire_next()
        return self._now_us


class RealClock:
    """Wall-clock microseconds over the running asyncio event loop.

    Time zero is the first observation, so a fresh front end's arrival
    stamps start near 0 like the simulated traces it mirrors.  Deadlines
    map to ``loop.call_at`` and the handles are kept so the owner can
    cancel stragglers at shutdown.
    """

    def __init__(self):
        self._loop = None
        self._base = None
        self._handles: list = []

    def _ensure_loop(self):
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._base = self._loop.time()
        return self._loop

    def now_us(self) -> float:
        loop = self._ensure_loop()
        return (loop.time() - self._base) * 1e6

    def call_at(self, when_us: float, callback, *args,
                priority: int = 0) -> None:
        # ``priority`` is the virtual clock's deterministic tie-breaker;
        # wall time has no simultaneous timers to break ties between.
        del priority
        loop = self._ensure_loop()
        self._handles.append(
            loop.call_at(self._base + when_us / 1e6, callback, *args)
        )

    def cancel_pending(self) -> None:
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()


#: Sentinel a worker interprets as "finish your queue and exit".
_STOP = object()


class AsyncServingFrontend:
    """Streaming admission + concurrent replica workers over one policy.

    ``max_queue_depth`` bounds the number of admitted-but-unfinished
    requests; past it, ``overload="shed"`` refuses new arrivals immediately
    (the request's future resolves to a ``shed`` :class:`RequestReport` —
    reported, never silently dropped) while ``overload="block"`` applies
    backpressure by making :meth:`submit` await capacity.  ``None`` means
    unbounded.

    On a :class:`VirtualClock` (the simulated driver, :func:`serve_virtual`)
    each batch executes synchronously at dispatch instead of going to a
    worker: decisions then interleave with execution accounting in one
    deterministic order, which is what makes replica ``free_at`` state —
    and therefore every placement — reproducible.  On the default real
    clock each replica's batches run through ``asyncio.to_thread`` on a
    per-worker model backend, so batches on different replicas genuinely
    execute concurrently and all plan traffic converges on the shared
    sharded :class:`~repro.core.selection.PlanCache`.
    """

    #: Exceptions an inline (virtual-clock) execution routes to failure
    #: handling; anything else is a bug in the analytical model and
    #: propagates.
    _inline_faults = (InjectedFault,)

    def __init__(
        self,
        engine,
        *,
        max_queue_depth: Optional[int] = None,
        overload: str = "shed",
        clock=None,
    ):
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        if overload not in ("shed", "block"):
            raise ValueError(
                f"overload must be shed|block, got {overload!r}"
            )
        self.clock = clock if clock is not None else RealClock()
        self._inline = isinstance(self.clock, VirtualClock)
        if self._inline and overload == "block":
            raise ValueError(
                "overload='block' needs workers to drain capacity; a "
                "virtual-clock front end executes inline and cannot await "
                "— use overload='shed'"
            )
        self.engine = engine
        self.max_queue_depth = max_queue_depth
        self.overload = overload
        self.policy = SchedulingPolicy(engine)
        self._report = ServingReport(policy="live")
        self._request_ids = itertools.count()
        self._batch_ids = itertools.count()
        self._futures: dict = {}
        self._inflight = 0
        self._queues: list = []
        self._workers: list = []
        self._worker_backends: dict = {}
        self._completion = None  # asyncio.Event, created at start()
        self._started = False
        self._closing = False
        self._pending_retries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the replica workers (none on a virtual clock)."""
        if self._started:
            return
        self._started = True
        self._completion = asyncio.Event()
        if self._inline:
            return
        for replica in self.policy.replicas:
            queue: asyncio.Queue = asyncio.Queue()
            self._queues.append(queue)
            self._worker_backends[replica.replica_id] = (
                self.engine.make_worker_backend(replica.device)
            )
            self._workers.append(
                asyncio.create_task(
                    self._worker(replica.replica_id, queue),
                    name=f"replica-worker-{replica.replica_id}",
                )
            )

    async def drain(self) -> None:
        """Close every open batch and wait for in-flight work to finish.

        A failed batch may have a retry timer pending; draining waits for
        those chains to land too (each chain is statically bounded by
        ``max_retries``, so this terminates).
        """
        self.finish(self.clock.now_us())
        for queue in self._queues:
            await queue.join()
        while self._pending_retries > 0:
            await asyncio.sleep(0.001)
            for queue in self._queues:
                await queue.join()

    async def stop(self) -> None:
        """Drain, then shut the workers down.

        Submitters blocked on backpressure are released first (their
        futures resolve to refused reports) so a shutdown never strands a
        caller awaiting capacity that will no longer free up.
        """
        self._closing = True
        if self._completion is not None:
            self._completion.set()
        await self.drain()
        for queue in self._queues:
            queue.put_nowait(_STOP)
        if self._workers:
            await asyncio.gather(*self._workers)
        self._workers.clear()
        if hasattr(self.clock, "cancel_pending"):
            self.clock.cancel_pending()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    async def submit(
        self,
        workload,
        *,
        arrival_us: Optional[float] = None,
        deadline_us: Optional[float] = None,
    ):
        """Admit one workload; returns a future of its RequestReport.

        The future resolves when the request's batch completes — or
        immediately with a ``shed`` report when the front end is over its
        queue-depth bound in shed mode.  In block mode the *call* awaits
        capacity instead (backpressure propagates to the submitter).
        ``deadline_us`` is the request's completion budget relative to its
        arrival (see :class:`~repro.runtime.resilience.ResilienceConfig`).
        """
        if not self._started:
            await self.start()
        if self.max_queue_depth is not None and self.overload == "block":
            while (
                not self._closing and self._inflight >= self.max_queue_depth
            ):
                self._completion.clear()
                await self._completion.wait()
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        self._futures[request_id] = future
        if self._closing:
            self._resolve(
                self._refusal(
                    request_id,
                    workload.total_tokens,
                    self.clock.now_us(),
                    "shutdown: front end is stopping",
                )
            )
            return future
        now = arrival_us if arrival_us is not None else self.clock.now_us()
        self.ingest(
            InferenceRequest(
                request_id=request_id,
                workload=workload,
                arrival_us=now,
                deadline_us=deadline_us,
            )
        )
        return future

    @staticmethod
    def _refusal(request_id, tokens, now_us: float, reason: str):
        """A shed-style report for a request that was never admitted."""
        return RequestReport(
            request_id=request_id,
            batch_id=-1,
            tokens=tokens,
            arrival_us=now_us,
            start_us=now_us,
            queue_us=0.0,
            exec_us=0.0,
            selection_us=0.0,
            ok=False,
            error=reason,
            shed=True,
        )

    def ingest(self, request: InferenceRequest) -> None:
        """Synchronous admission core (each virtual-time arrival fires it).

        Applies the shed bound, then runs the shared policy's admission —
        dispatching any batches the arrival closes.  A shed request is
        reported (and its future, if any, resolved) at once.
        """
        if (
            self.max_queue_depth is not None
            and self.overload == "shed"
            and self._inflight >= self.max_queue_depth
        ):
            self._resolve(
                self._refusal(
                    request.request_id,
                    request.tokens,
                    request.arrival_us,
                    f"shed: {self._inflight} requests in flight >= "
                    f"max_queue_depth={self.max_queue_depth}",
                )
            )
            return
        self._inflight += 1
        self.policy.admit(
            request, request.arrival_us, self._dispatch, self._schedule_deadline
        )

    def _schedule_deadline(self, deadline_us, signature, token) -> None:
        self.clock.call_at(
            deadline_us, self._on_deadline, signature, token, priority=1
        )

    def _on_deadline(self, signature, token) -> None:
        batch = self.policy.close_due(signature, token)
        if batch is not None:
            self._dispatch(batch, self.clock.now_us())

    def finish(self, now_us: float) -> None:
        """Close every still-open batch at ``now_us`` (end of stream)."""
        for batch in self.policy.flush():
            self._dispatch(batch, now_us)

    # ------------------------------------------------------------------
    # Dispatch and execution
    # ------------------------------------------------------------------
    def _dispatch(self, batch: _OpenBatch, close_us: float) -> None:
        """Place a closed batch and route it to its replica's worker."""
        placement = self.policy.place(batch, close_us)
        self._route((batch, placement, next(self._batch_ids), 0))

    def _route(self, item) -> None:
        """Send one placed attempt to execution (inline or its worker)."""
        batch, placement, _, _ = item
        if self._inline:
            try:
                result = self._execute(item)
            except self._inline_faults as exc:
                self._on_error(item, exc)
            else:
                self._account(item, *result)
            return
        # Reserve the replica up to the cost model's predicted finish:
        # under a burst, several batches dispatch before any completes,
        # and without a reservation they would all read the same stale
        # free_at and pile onto one replica.  _account replaces the
        # prediction with the actual finish (max-assigned, so an early
        # completion never rolls back a later reservation).
        estimate = self.engine.estimate_exec_us(
            batch.signature, placement.workload, placement.replica.device
        )
        if estimate != float("inf"):
            placement.replica.free_at_us = max(
                placement.replica.free_at_us,
                self._reserved_finish_us(placement, estimate),
            )
        self._queues[placement.replica.replica_id].put_nowait(item)

    def _reserved_finish_us(self, placement, estimate_us: float) -> float:
        """Where a worker dispatch's reservation moves ``free_at``."""
        return placement.start_us + estimate_us

    def _execute(self, item) -> tuple:
        """Run one placed batch through the engine (worker-thread safe)."""
        batch, placement, batch_id, attempt = item
        backend = self._worker_backends.get(placement.replica.replica_id)
        return self.engine.execute_batch(
            batch.requests,
            batch_id=batch_id,
            start_us=placement.start_us,
            replica_id=placement.replica.replica_id,
            speculation=batch.speculation,
            device=placement.replica.device,
            workload=placement.workload,
            backend=backend,
            attempt=attempt,
        )

    def _resolve(self, request_report) -> None:
        """Report one terminal outcome and resolve its submitter's future."""
        self._report.requests.append(request_report)
        future = self._futures.pop(request_report.request_id, None)
        if future is not None and not future.done():
            future.set_result(request_report)

    def _release(self, count: int) -> None:
        """``count`` admitted requests reached a terminal outcome."""
        self._inflight -= count
        if count and self._completion is not None:
            self._completion.set()

    def _account(self, item, batch_report, request_reports) -> None:
        """Fold one executed batch into policy state, report and futures.

        Always runs on the event-loop thread (inline, or in the worker
        coroutine after ``to_thread`` returns), so policy state needs no
        locking.
        """
        batch, placement, _, _ = item
        batch_report.overlap_saved_us = placement.saved_us
        self.policy.account(placement, batch_report, signature=batch.signature)
        self._report.batches.append(batch_report)
        for request_report in request_reports:
            self._resolve(request_report)
        self._release(len(batch.requests))

    def _on_error(self, item, exc: BaseException) -> None:
        """Route a failed attempt: retry under a resilience config, else
        fail its batch terminally."""
        if self.engine.resilience is not None:
            self._on_failure(item, exc)
        else:
            self._fail(item, exc)

    def _fail(self, item, exc: BaseException) -> None:
        """Report a terminal worker failure on every request of the batch.

        The no-resilience path: without a
        :class:`~repro.runtime.resilience.ResilienceConfig` on the engine
        there is no retry budget, so the crash surfaces on every request of
        the batch — reported, never silently dropped.
        """
        batch, placement, batch_id, _ = item
        for request in batch.requests:
            self._resolve(
                RequestReport(
                    request_id=request.request_id,
                    batch_id=batch_id,
                    tokens=request.tokens,
                    arrival_us=request.arrival_us,
                    start_us=placement.start_us,
                    queue_us=placement.start_us - request.arrival_us,
                    exec_us=0.0,
                    selection_us=0.0,
                    ok=False,
                    error=f"worker failure: {exc!r}",
                )
            )
        self._release(len(batch.requests))

    def _on_failure(self, item, exc: BaseException) -> None:
        """Resolve a failed attempt: report, retry or give up.

        :func:`~repro.runtime.resilience.resolve_failure` splits the batch
        into terminal reports and a backoff'd retry; the retry is a
        priority-2 timer, so it fires after any arrival or window deadline
        due at the same time.
        """
        batch, placement, batch_id, attempt = item
        outcome = resolve_failure(
            self.engine.resilience,
            self.policy.health,
            batch.requests,
            placement,
            batch_id,
            attempt,
            exc,
        )
        self.policy.account_failure(placement, outcome.detect_us)
        terminal = outcome.failed_reports + outcome.expired_reports
        for request_report in terminal:
            self._resolve(request_report)
        self._release(len(terminal))
        if outcome.retry_requests:
            self._report.retries += 1
            retry = _OpenBatch(
                signature=batch.signature,
                opened_us=batch.opened_us,
                token=batch.token,
                requests=outcome.retry_requests,
            )
            self._pending_retries += 1
            self.clock.call_at(
                outcome.retry_at_us,
                self._redispatch,
                retry,
                batch_id,
                attempt + 1,
                (outcome.failed_replica,),
                priority=2,
            )

    def _redispatch(self, batch: _OpenBatch, batch_id: int, attempt: int,
                    exclude: tuple) -> None:
        """Re-place a retried batch (keeping its id) on a healthy replica."""
        self._pending_retries -= 1
        placement = self.policy.place(
            batch, self.clock.now_us(), exclude=exclude
        )
        if placement.replica.replica_id not in exclude:
            self._report.failovers += 1
        self._route((batch, placement, batch_id, attempt))

    async def _worker(self, replica_id: int, queue: asyncio.Queue) -> None:
        """One replica's execution loop: pull, execute off-loop, account."""
        while True:
            item = await queue.get()
            if item is _STOP:
                queue.task_done()
                return
            try:
                batch_report, request_reports = await asyncio.to_thread(
                    self._execute, item
                )
                self._account(item, batch_report, request_reports)
            except Exception as exc:
                self._on_error(item, exc)
            finally:
                queue.task_done()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Admitted-but-unfinished requests (the backpressure quantity)."""
        return self._inflight

    def report(self) -> ServingReport:
        """The aggregate report over everything served so far."""
        report = self._report
        report.batches.sort(key=lambda b: b.batch_id)
        report.requests.sort(key=lambda r: r.request_id)
        first_start = min((b.start_us for b in report.batches), default=0.0)
        last_end = max(
            (b.start_us + b.exec_us for b in report.batches), default=0.0
        )
        report.makespan_us = last_end - first_start
        report.replica_stats = self.policy.replica_stats(report.makespan_us)
        report.plan_cache_stats = self.engine.plan_cache.stats()
        if self.policy.health is not None:
            report.health_timeline = self.policy.health.timeline()
        return report


# ----------------------------------------------------------------------
# The simulated driver: deterministic virtual-time serving
# ----------------------------------------------------------------------
def serve_virtual(frontend: AsyncServingFrontend,
                  requests=None) -> ServingReport:
    """Serve an arrival-stamped trace through ``frontend`` in virtual time.

    The one simulated serving loop.  ``frontend`` runs on a
    :class:`VirtualClock`, so each arrival becomes a timer that fires
    :meth:`~AsyncServingFrontend.ingest` at its arrival time, every
    dispatch executes inline, and window deadlines and retries fire in
    deterministic order.  ``requests`` defaults to the engine's queued
    submissions (like ``engine.run()``, the queue is consumed).
    """
    if requests is None:
        engine = frontend.engine
        requests, engine._queue = engine._queue, []
    clock = frontend.clock
    for request in sorted(requests, key=lambda r: (r.arrival_us, r.request_id)):
        clock.call_at(request.arrival_us, frontend.ingest, request)
    # With no window, batches whose budget never overflowed are still open
    # when the stream ends; they close at the last event (there is nothing
    # left to wait for).  Their dispatches may fail and schedule backoff'd
    # retries, so the clock runs again until those chains land (each is
    # statically bounded by max_retries).
    frontend.finish(clock.run_until_idle())
    clock.run_until_idle()
    return frontend.report()


def replay_trace(
    engine,
    requests=None,
    *,
    max_queue_depth: Optional[int] = None,
) -> ServingReport:
    """Serve a trace through the front end's pipeline in virtual time.

    :func:`serve_virtual` over a fresh :class:`AsyncServingFrontend` on a
    :class:`VirtualClock`: the front end's own admission/shed/dispatch
    pipeline runs every arrival through the shared
    :class:`~repro.runtime.scheduler.SchedulingPolicy`.  ``requests``
    defaults to the engine's queued submissions.  Compare reports with
    :func:`decision_trace`.
    """
    frontend = AsyncServingFrontend(
        engine, max_queue_depth=max_queue_depth, clock=VirtualClock()
    )
    return serve_virtual(frontend, requests)


def decision_trace(report: ServingReport, *, include_timing: bool = False) -> list:
    """The scheduler-decision sequence of a report, for equivalence checks.

    One entry per batch in batch-id (dispatch) order: the batch's
    composition (request ids, in admission order), its placement (replica
    id) and its plan-cache traffic.  With ``include_timing`` the simulated
    start/exec times join the trace — only meaningful when both runs were
    made time-deterministic with ``charge_selection=False`` (measured
    selection wall time otherwise perturbs the simulated schedule).
    """
    trace = []
    for batch in sorted(report.batches, key=lambda b: b.batch_id):
        entry = {
            "batch_id": batch.batch_id,
            "requests": list(batch.request_ids),
            "replica": batch.replica_id,
            "attempt": batch.attempt,
            "tokens": batch.tokens,
            "padded_tokens": batch.padded_tokens,
            "cache_hits": batch.cache_hits,
            "cache_misses": batch.cache_misses,
            "plan_kinds": dict(batch.plan_kinds),
        }
        if include_timing:
            entry["start_us"] = batch.start_us
            entry["exec_us"] = batch.exec_us
        trace.append(entry)
    return trace


# ----------------------------------------------------------------------
# Live-serving convenience
# ----------------------------------------------------------------------
async def serve_async(
    engine,
    workloads,
    *,
    max_queue_depth: Optional[int] = None,
    overload: str = "shed",
) -> ServingReport:
    """Serve ``workloads`` through a live front end on the running loop."""
    frontend = AsyncServingFrontend(
        engine, max_queue_depth=max_queue_depth, overload=overload
    )
    await frontend.start()
    futures = [await frontend.submit(w) for w in workloads]
    await frontend.drain()
    if futures:
        await asyncio.gather(*futures)
    await frontend.stop()
    return frontend.report()


def serve_workloads(
    engine,
    workloads,
    *,
    max_queue_depth: Optional[int] = None,
    overload: str = "shed",
) -> ServingReport:
    """Synchronous wrapper: run :func:`serve_async` on a private loop."""
    return asyncio.run(
        serve_async(
            engine,
            workloads,
            max_queue_depth=max_queue_depth,
            overload=overload,
        )
    )
