"""Continuous batching + multi-replica placement over a simulated clock.

The drain policy batches the whole queue in one FCFS pass: an open batch
can never admit a request that arrives after ``run()`` starts, and every
batch serializes onto one device.  This module adds the two mechanisms a
serving system actually runs:

* **Continuous batching** (the vLLM admission discipline): requests are
  processed as *events* on a simulated clock.  An arrival joins the open
  batch for its signature when the token budget and size cap allow;
  otherwise it closes that batch and opens a new one.  An open batch also
  closes when its **batching window** expires — a configurable deadline
  measured from the moment the batch opened, bounding how long an early
  arrival can wait for co-batching partners.  A batch that hits the size
  cap closes immediately (no later arrival could ever join it, so waiting
  out the window would only add queueing delay).

* **Multi-replica placement** across a possibly *heterogeneous* fleet
  (per-replica :class:`~repro.hw.spec.GPUSpec`): a closed batch is priced
  on every replica's analytical device model — memoized per
  ``(batch signature, device class)``, so the hot path is a dictionary
  lookup — and placed to minimize predicted finish time
  ``max(close_us, free_at_us) + est_exec_us`` plus the replica's health
  penalty (:func:`~repro.hw.costmodel.predicted_finish_us`; ties break
  toward the replica that frees earliest, then the lowest id, making
  placement deterministic — an all-identical lineup therefore reproduces
  the legacy least-loaded placement exactly, and
  ``placement="least-loaded"`` forces it outright).  Every replica executes through its device class's
  backend, and all classes share one
  :class:`~repro.core.selection.PlanCache`: the first cold Algorithm 1
  search for a (traffic signature, device class) pair warms every replica
  of that class, so adding replicas of an already-seen class adds zero
  cold searches (the PIT-specific twist on standard continuous batching).

* **Selection/compute overlap**: the Algorithm 1 search for a batch is
  issued *when the batch opens* (speculatively, from the first admitted
  request's signature), not when it closes.  A cold search therefore runs
  while the batch is still collecting partners and while the target
  replica finishes its previous batch: the simulated clock charges
  ``max(search_tail, prior_compute_remaining)`` instead of their sum, and
  the difference is reported as ``overlap_saved_us`` on the batch, the
  replica stats and the serving report.  Warm lookups stay serial (they
  cost a dictionary access), so a fully-warm run reports exactly zero.
  Every speculative and close-time resolve goes through the engine's
  :class:`~repro.core.plan.Planner` as a declarative
  :class:`~repro.core.plan.PlanSpec` — token-projection, activation-FFN,
  attention and merged-routing MoE plans alike — so the speculation's
  per-kind cold/warm provenance (``SpeculativeSelection.plan_kinds``)
  folds into the batch report, and a cache revived with
  ``PlanCache.load`` keeps the whole loop warm across process restarts.

Execution time stays the analytical device model's simulated latency and
selection overhead stays measured wall time, exactly as in
:mod:`~repro.runtime.serving`.

**One policy, one simulated driver.**  All admission, closure and
placement decisions live in :class:`SchedulingPolicy`, a clock-agnostic
core that never looks at a clock or an event queue: a driver feeds it
arrivals and deadline firings and it answers with batch closures and
placements.  The only simulated driver is the virtual-time loop
:func:`~repro.runtime.frontend.serve_virtual`, which runs the live
:class:`~repro.runtime.frontend.AsyncServingFrontend` on a
:class:`~repro.runtime.frontend.VirtualClock` with inline execution;
:class:`ContinuousScheduler` (``engine.run(policy="continuous")``) and
:func:`~repro.runtime.frontend.replay_trace` both serve through it, and
the live front end drives the *same* policy from an asyncio loop under a
real clock.  ``tests/fixtures/decision_goldens.json`` pins the loop's
decision traces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..hw.costmodel import predicted_finish_us
from .resilience import STRAGGLER_THRESHOLD, HealthTracker
from .serving import (
    ReplicaStats,
    ServingReport,
    SpeculativeSelection,
    merge_workloads,
)


@dataclass
class _OpenBatch:
    """A batch still admitting arrivals."""

    signature: tuple
    opened_us: float
    #: Monotone token distinguishing this batch from a later batch that
    #: reuses the signature slot; a stale deadline event must not close it.
    token: int
    requests: list = field(default_factory=list)
    #: The plan search issued when this batch opened (overlap mode only).
    speculation: Optional[SpeculativeSelection] = None


@dataclass
class _Replica:
    """One device replica's schedule."""

    replica_id: int
    #: The replica's :class:`~repro.runtime.serving.DeviceClass` — its
    #: backend, tile database, planner and pricing model.
    device: object = None
    free_at_us: float = 0.0
    busy_us: float = 0.0
    batches: int = 0
    tokens: int = 0
    overlap_saved_us: float = 0.0


@dataclass
class Placement:
    """A placement decision for one closed batch."""

    replica: _Replica
    #: The batch's merged workload (what execution and pricing run on).
    workload: object
    #: Scheduled execution start (close time, queueing behind the replica's
    #: prior batch, and any residual speculative-search tail).
    start_us: float
    #: Selection latency hidden by speculation (zero when warm or disabled).
    saved_us: float


class SchedulingPolicy:
    """The admission/close/placement core behind every serving path.

    Holds every piece of scheduler state that decisions depend on — open
    batches per signature, the monotone batch tokens, and the replica
    schedules — but owns no clock and no event queue.  Drivers call:

    * :meth:`admit` for each arrival, passing ``dispatch`` (called with
      every batch the arrival closes) and ``schedule_deadline`` (called
      when a fresh batch opens under a batching window);
    * :meth:`close_due` when a previously scheduled deadline fires;
    * :meth:`flush` at end of stream;
    * :meth:`place` / :meth:`account` around executing a closed batch.

    Because the policy is deterministic in its inputs, any driver that
    feeds it the same arrival/deadline sequence obtains the same batch
    compositions and the same placements.
    """

    def __init__(self, engine):
        #: The engine owns every setting the policy reads (replica lineup,
        #: batching window, overlap, placement, resilience) and validates
        #: them once, at construction.
        self.engine = engine
        self.replicas = [
            _Replica(i, device=engine.device_for_replica(i))
            for i in range(engine.replicas)
        ]
        self._open: dict = {}
        self._tokens = itertools.count()
        #: Per-replica breaker state (None when the engine runs without a
        #: resilience config — every replica then places with a zero health
        #: penalty).
        self.health = (
            HealthTracker(engine.replicas, injector=engine.fault_injector)
            if engine.resilience is not None
            else None
        )

    # ------------------------------------------------------------------
    # Admission and closure
    # ------------------------------------------------------------------
    def admit(
        self,
        request,
        now: float,
        dispatch: Callable,
        schedule_deadline: Callable,
    ) -> None:
        """Place one arrival into (or around) its signature's open batch.

        ``dispatch(batch, close_us)`` is invoked *inline* for every batch
        this arrival closes — before any further policy state is touched —
        so dispatch-order side effects (replica ``free_at`` updates, plan
        cache warming) are observed by the very next decision, exactly as
        in the single-threaded simulated loop.  ``schedule_deadline(
        deadline_us, signature, token)`` is invoked when a fresh batch
        opens under a batching window; the driver must eventually call
        :meth:`close_due` with that (signature, token).
        """
        signature = request.batch_signature()
        batch = self._open.get(signature)
        if batch is not None and not self.engine._fits(batch.requests, request):
            # The arrival does not fit: the open batch closes now and the
            # arrival opens a fresh one (its window starts from `now`).
            del self._open[signature]
            dispatch(batch, now)
            batch = None
        if batch is None:
            batch = _OpenBatch(
                signature=signature, opened_us=now, token=next(self._tokens)
            )
            if self.engine.overlap_selection:
                # Issue the Algorithm 1 search now, from the first admitted
                # request's signature: a cold search runs while the batch
                # collects partners instead of serializing at close time.
                # Plans are device-specific, so the search resolves against
                # the *predicted* placement target's class (as if the batch
                # closed now); a misprediction leaves the residual search
                # serial at close time, exactly the pre-overlap behaviour.
                # memoize=False: one request's latency must not seed the
                # exec-estimate memo that dispatch prices merged batches by.
                target = self.select_replica(
                    signature, request.workload, now, memoize=False
                )
                batch.speculation = self.engine.speculate_plans(
                    request.workload, issued_us=now, device=target.device
                )
            self._open[signature] = batch
            window_us = self.engine.batch_window_us
            if window_us is not None:
                schedule_deadline(now + window_us, signature, batch.token)
        batch.requests.append(request)
        if self._saturated(batch.requests):
            # Full: no future arrival can join, so waiting only adds delay.
            del self._open[signature]
            dispatch(batch, now)

    def close_due(self, signature, token) -> Optional[_OpenBatch]:
        """Close the open batch a fired window deadline targets.

        Returns ``None`` when the deadline is stale — the batch already
        closed (saturation, budget overflow) and possibly a *newer* batch
        occupies the signature slot; the monotone token tells them apart.
        """
        batch = self._open.get(signature)
        if batch is not None and batch.token == token:
            del self._open[signature]
            return batch
        return None

    def flush(self) -> list:
        """Close every still-open batch (end of stream), oldest first."""
        batches = sorted(self._open.values(), key=lambda b: b.opened_us)
        self._open.clear()
        return batches

    def _saturated(self, requests) -> bool:
        """True when no conceivable arrival could still join the batch.

        Either the size cap is reached, or the token budget cannot admit
        even the cheapest possible request (one sequence no longer than the
        batch's current max — padded tokens only grow with admissions, e.g.
        a lone request already over budget).
        """
        if len(requests) >= self.engine.max_batch_size:
            return True
        max_len = max(r.max_len for r in requests)
        num_seqs = sum(r.workload.batch_size for r in requests)
        return max_len * (num_seqs + 1) > self.engine.max_batch_tokens

    # ------------------------------------------------------------------
    # Placement and accounting
    # ------------------------------------------------------------------
    def _penalty_us(self, replica: _Replica, now_us: float) -> float:
        """The replica's health placement penalty (zero without a
        resilience config)."""
        if self.health is None:
            return 0.0
        return self.health.placement_penalty_us(replica.replica_id, now_us)

    def _placeable_replicas(self, now_us: float, exclude: tuple) -> list:
        """Replicas eligible for a placement at ``now_us``.

        Health-aware: dead/quarantined replicas (``inf`` penalty) are out
        while any alternative exists, and a retry prefers replicas other
        than the one that just failed (``exclude``).  The preferences relax
        in order rather than failing: an all-excluded fleet falls back to
        whatever is open, and an all-down fleet places anyway (the attempt
        fails fast and retries — placement must never deadlock).
        """
        open_replicas = [
            r
            for r in self.replicas
            if self._penalty_us(r, now_us) != float("inf")
        ]
        preferred = [
            r for r in open_replicas if r.replica_id not in exclude
        ]
        return preferred or open_replicas or list(self.replicas)

    def select_replica(self, signature, workload, close_us: float,
                       memoize: bool = True, exclude: tuple = ()) -> _Replica:
        """Pick the replica for a ``signature`` batch closing at ``close_us``.

        Cost-aware placement minimizes the predicted finish time
        ``max(close_us, free_at_us) + est_exec_us`` plus the replica's
        health penalty, with the batch priced on each replica's device
        class
        (:meth:`~repro.runtime.serving.ServingEngine.estimate_exec_us`,
        memoized per (signature, class) — only from dispatch-time merged
        workloads, so the batch-open prediction passes ``memoize=False``).
        Ties break toward the replica that frees earliest, then the lowest
        id — on an all-identical lineup the estimate is one constant, so
        the ordering collapses to exactly the legacy least-loaded
        ``(free_at_us, replica_id)`` order and placement is bit-identical
        to it.
        """
        replicas = self._placeable_replicas(close_us, exclude)
        if self.engine.placement == "least-loaded" or len(
            {r.device.class_id for r in replicas}
        ) == 1:
            # Least-loaded, or a single device class: with one class the
            # estimate is a constant, the predicted-finish ordering
            # provably collapses to (free_at, id), and pricing could never
            # change the decision — so homogeneous lineups skip the
            # simulated pricing runs entirely.  A finite health penalty
            # (suspect/probing replicas) still reorders: healthy peers win.
            return min(
                replicas,
                key=lambda r: (
                    r.free_at_us + self._penalty_us(r, close_us),
                    r.free_at_us,
                    r.replica_id,
                ),
            )
        # Price once per distinct device class, not per replica: a cold
        # (unmemoized) estimate is a full simulated model run, and replicas
        # of one class share it by construction.
        est_by_class = {}
        for r in replicas:
            if r.device.spec not in est_by_class:
                est_by_class[r.device.spec] = self.engine.estimate_exec_us(
                    signature, workload, r.device, memoize=memoize
                )
        return min(
            replicas,
            key=lambda r: (
                predicted_finish_us(
                    close_us,
                    r.free_at_us,
                    est_by_class[r.device.spec],
                    self._penalty_us(r, close_us),
                ),
                r.free_at_us,
                r.replica_id,
            ),
        )

    def place(self, batch: _OpenBatch, close_us: float,
              exclude: tuple = ()) -> Placement:
        """Decide where and when a closed batch executes.

        ``exclude`` names replicas a retry should avoid — the one that just
        failed the batch (failover); preferences relax rather than fail when
        nothing else is available.
        """
        workload = merge_workloads([r.workload for r in batch.requests])
        replica = self.select_replica(
            batch.signature, workload, close_us, exclude=exclude
        )
        if self.health is not None:
            self.health.on_dispatch(replica.replica_id, close_us)
        ready_us = max(close_us, replica.free_at_us)
        start = ready_us
        saved_us = 0.0
        spec = batch.speculation
        if spec is not None and spec.cold and self.engine.charge_selection:
            # The cold search was issued at batch open and ran off-device;
            # compute waits only for whatever tail outlives the open window
            # and the replica's prior batch.  Without overlap the batch
            # would have started executing at ready_us + search_us.
            # (With charge_selection off the engine excludes measured
            # selection wall time from the simulated schedule entirely, so
            # there is no search tail to wait for and nothing saved.)
            start = max(ready_us, spec.issued_us + spec.search_us)
            saved_us = ready_us + spec.search_us - start
        return Placement(
            replica=replica, workload=workload, start_us=start, saved_us=saved_us
        )

    def account(self, placement: Placement, batch_report,
                signature=None) -> None:
        """Fold one executed batch back into its replica's schedule.

        ``free_at`` is max-assigned: in the simulated loop the batch's
        finish always exceeds the replica's previous ``free_at`` (a batch
        starts no earlier than the replica frees), so this is exactly the
        legacy assignment there — but the live front end may have *reserved*
        the replica further ahead (cost-model predicted finishes of batches
        still in its worker queue), and accounting one earlier batch must
        not roll those reservations back.

        With health tracking enabled (and ``signature`` provided), the
        batch's observed compute time is compared against its memoized
        placement estimate: far-over-estimate batches mark the replica
        suspect (straggler detection); everything else records a success,
        closing the breaker.
        """
        replica = placement.replica
        replica.free_at_us = max(
            replica.free_at_us, placement.start_us + batch_report.exec_us
        )
        replica.busy_us += batch_report.exec_us
        replica.batches += 1
        replica.tokens += batch_report.tokens
        replica.overlap_saved_us += placement.saved_us
        if self.health is None:
            return
        finish_us = placement.start_us + batch_report.exec_us
        estimate = None
        if signature is not None:
            estimate = self.engine.estimate_exec_us(
                signature, placement.workload, replica.device
            )
        if (
            estimate is not None
            and 0.0 < estimate < float("inf")
            and batch_report.compute_us
            > STRAGGLER_THRESHOLD * estimate
        ):
            self.health.on_straggler(replica.replica_id, finish_us)
        else:
            self.health.on_success(replica.replica_id, finish_us)

    def account_failure(self, placement: Placement, detect_us: float) -> None:
        """A failed attempt occupies its replica until failure detection.

        The breaker transition itself happens in
        :func:`~repro.runtime.resilience.resolve_failure`; this only keeps
        the replica's schedule honest (failed work is not ``busy_us`` — it
        produced nothing).
        """
        replica = placement.replica
        replica.free_at_us = max(replica.free_at_us, detect_us)

    def replica_stats(self, makespan_us: float) -> list:
        """Per-replica utilization summaries for a finished run."""
        return [
            ReplicaStats(
                replica_id=rep.replica_id,
                device=rep.device.name if rep.device is not None else "",
                batches=rep.batches,
                tokens=rep.tokens,
                busy_us=rep.busy_us,
                utilization=(
                    rep.busy_us / makespan_us if makespan_us > 0 else 0.0
                ),
                overlap_saved_us=rep.overlap_saved_us,
            )
            for rep in self.replicas
        ]


class ContinuousScheduler:
    """``engine.run(policy="continuous")``: the simulated serving run.

    Serves an arrival-stamped trace through the virtual-time loop
    :func:`~repro.runtime.frontend.serve_virtual` — the same loop, front
    end and :class:`SchedulingPolicy` as
    :func:`~repro.runtime.frontend.replay_trace` — and labels the report
    ``"continuous"``.  Every setting (replicas, batching window, overlap,
    placement, resilience) comes from the engine.
    """

    def __init__(self, engine):
        self.engine = engine

    def run(self, requests) -> ServingReport:
        """Serve ``requests`` (arrival-stamped) and return the report."""
        # Deferred import: the front end builds on this module's policy.
        from .frontend import replay_trace

        report = replay_trace(self.engine, requests)
        report.policy = "continuous"
        return report
