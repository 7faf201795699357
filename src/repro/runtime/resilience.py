"""Fault-tolerant serving: deterministic fault injection, replica health,
bounded retry/failover, deadlines, and degraded-mode planning.

Worker processes make failure a normal event rather than an anomaly, and
the clock-agnostic ``SchedulingPolicy`` plus ``VirtualClock`` serving make
fault handling *deterministically testable*: the same injected fault
schedule produces the same decisions whether the
:class:`~repro.runtime.frontend.AsyncServingFrontend` runs in virtual time
(``engine.run(policy="continuous")``, replay) or live, in one process or
across worker processes.  Four pieces live here:

* :class:`FaultInjector` — a seeded, clock-driven fault source.  Every
  decision is a **pure function of (seed, fault coordinates)**: each query
  derives a one-shot generator from
  ``np.random.SeedSequence(seed, spawn_key=(stream, batch_id, attempt,
  replica_id))`` instead of consuming a shared draw stream, so the outcome
  is independent of call order, thread interleaving and
  ``PYTHONHASHSEED`` — the property that keeps two processes (and two
  runs) bit-identical under one seed.  Replica death/recovery is a
  *schedule* (``outages``), evaluated as a pure function of the clock, so
  no clock needs outage events.

* :class:`HealthTracker` — a per-replica circuit breaker
  (``healthy → suspect → quarantined → half-open``).  Placement asks it for
  a penalty that is added to ``predicted_finish_us``: suspects price worse,
  quarantined/dead replicas price ``inf`` (excluded while any alternative
  exists), and a quarantined replica whose window expired admits exactly
  one half-open *probe* batch — success re-admits it, failure re-quarantines
  with doubled (capped) backoff.

* :class:`ResilienceConfig` — the retry/deadline/breaker policy:
  ``max_retries`` bounds every retry chain statically (the ``bounded-retry``
  pitlint rule enforces the idiom repo-wide), backoff is exponential and
  capped *in clock time* (simulated microseconds, never wall time), and
  per-request deadlines keep retries from resurrecting a request past its
  SLO — such requests report ``deadline_exceeded``, distinct from ``shed``
  and from a plain failure.

* :func:`resolve_failure` — the one failure-handling decision the front
  end calls, on any clock: detect at ``start + failure_detect_us``, trip
  the breaker, split the batch's requests into expired (deadline) and
  retryable, and name the backoff'd retry time and the replica to avoid.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Health states of one replica, in escalation order.
HEALTHY = "healthy"
SUSPECT = "suspect"
QUARANTINED = "quarantined"
HALF_OPEN = "half-open"
DEAD = "dead"

#: Stream discriminators for the injector's per-query generators — distinct
#: fault kinds must never share a draw even at equal coordinates.
_STREAM_EXEC = 0
_STREAM_STRAGGLER = 1
_STREAM_SEARCH = 2


class InjectedFault(RuntimeError):
    """Base class of every fault the injector raises."""


class WorkerCrashFault(InjectedFault):
    """An injected hard worker crash (the process/thread died mid-batch)."""


class TransientExecFault(InjectedFault):
    """An injected transient execution failure (recoverable by retry)."""


class ReplicaDownFault(InjectedFault):
    """The batch was dispatched into a replica's scheduled outage window."""


@dataclass(frozen=True)
class FaultSpec:
    """A deterministic fault schedule.  ``seed`` is mandatory: an unseeded
    injector cannot replay, and the ``bounded-retry`` pitlint rule flags
    construction sites that omit it."""

    seed: int
    #: Probability a batch attempt dies with a hard worker crash.
    crash_prob: float = 0.0
    #: Probability a batch attempt fails transiently (retry succeeds).
    transient_prob: float = 0.0
    #: Probability a batch attempt runs slow by ``straggler_factor``.
    straggler_prob: float = 0.0
    straggler_factor: float = 4.0
    #: Probability a cold Algorithm 1 search fails for a (kind, signature).
    search_fail_prob: float = 0.0
    #: ``(replica_id, down_us, up_us)`` outage windows on the serving clock.
    outages: tuple = ()

    def __post_init__(self) -> None:
        for name in ("crash_prob", "transient_prob", "straggler_prob",
                     "search_fail_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.crash_prob + self.transient_prob > 1.0:
            raise ValueError("crash_prob + transient_prob must be <= 1")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1")
        outages = tuple(tuple(o) for o in self.outages)
        for rid, down_us, up_us in outages:
            if down_us >= up_us:
                raise ValueError(
                    f"outage window for replica {rid} is empty: "
                    f"[{down_us}, {up_us})"
                )
        object.__setattr__(self, "outages", outages)


class FaultInjector:
    """Replay-deterministic fault decisions from a :class:`FaultSpec`.

    Decisions are coordinate-addressed, never stream-drawn: querying the
    same (stream, batch, attempt, replica) twice — or from two different
    processes, in any order — returns the same answer.
    """

    def __init__(self, spec: FaultSpec):
        self.spec = spec

    def _draw(self, stream: int, *coords) -> float:
        key = tuple(int(c) & 0xFFFFFFFF for c in coords)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.spec.seed, spawn_key=(stream,) + key)
        )
        return float(rng.random())

    def replica_down(self, replica_id: int, now_us: float) -> bool:
        """Whether ``replica_id`` is inside an outage window at ``now_us``.

        A pure function of the clock: every run observes death and
        recovery at identical simulated times without any outage events.
        """
        for rid, down_us, up_us in self.spec.outages:
            if rid == replica_id and down_us <= now_us < up_us:
                return True
        return False

    def exec_fault(self, replica_id: int, batch_id: int, attempt: int,
                   start_us: float) -> None:
        """Raise this attempt's injected execution fault, if it has one."""
        if self.replica_down(replica_id, start_us):
            raise ReplicaDownFault(
                f"replica {replica_id} is down at {start_us:.0f}us"
            )
        draw = self._draw(_STREAM_EXEC, batch_id, attempt, replica_id)
        if draw < self.spec.crash_prob:
            raise WorkerCrashFault(
                f"injected crash: batch {batch_id} attempt {attempt} "
                f"on replica {replica_id}"
            )
        if draw < self.spec.crash_prob + self.spec.transient_prob:
            raise TransientExecFault(
                f"injected transient failure: batch {batch_id} attempt "
                f"{attempt} on replica {replica_id}"
            )

    def slowdown(self, replica_id: int, batch_id: int, attempt: int) -> float:
        """Execution-time multiplier for this attempt (1.0 = healthy)."""
        if self.spec.straggler_prob <= 0.0:
            return 1.0
        draw = self._draw(_STREAM_STRAGGLER, batch_id, attempt, replica_id)
        if draw < self.spec.straggler_prob:
            return self.spec.straggler_factor
        return 1.0

    def search_fails(self, kind: str, signature) -> bool:
        """Whether the Algorithm 1 search for this plan is injected to fail.

        Coordinates come from a CRC of the spec identity (``repr`` of ints
        and tuples is process-stable), never from ``hash()`` — Python's
        string hashing is randomized per process and would break replay.
        """
        if self.spec.search_fail_prob <= 0.0:
            return False
        token = zlib.crc32(repr((kind, signature)).encode())
        return self._draw(_STREAM_SEARCH, token) < self.spec.search_fail_prob


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry, deadline and circuit-breaker policy for a serving engine."""

    #: Static bound on retries per batch: a batch executes at most
    #: ``1 + max_retries`` times, then its requests fail terminally.
    max_retries: int = 2
    #: First retry backoff (simulated microseconds, never wall time);
    #: doubles per attempt up to the cap.
    retry_backoff_us: float = 500.0
    retry_backoff_cap_us: float = 8000.0
    #: How long after dispatch a failure is detected; the failed attempt
    #: occupies the replica until then.
    failure_detect_us: float = 200.0
    #: Consecutive failures that trip a replica from suspect to quarantined.
    quarantine_after: int = 3
    #: First quarantine window; a failed half-open probe doubles it, capped.
    quarantine_us: float = 20000.0
    quarantine_cap_us: float = 160000.0
    #: Placement penalty of a suspect (or probing) replica.
    suspect_penalty_us: float = 1000.0
    #: A batch whose compute exceeds this multiple of its placement estimate
    #: marks its replica suspect.
    straggler_threshold: float = 2.0
    #: SLO budget (from arrival) for requests that carry no deadline of
    #: their own; ``None`` means no default deadline.
    default_deadline_us: Optional[float] = None
    fault: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        for name in ("retry_backoff_us", "retry_backoff_cap_us",
                     "failure_detect_us", "quarantine_us",
                     "quarantine_cap_us", "suspect_penalty_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.straggler_threshold < 1.0:
            raise ValueError("straggler_threshold must be >= 1")
        if self.default_deadline_us is not None and self.default_deadline_us <= 0:
            raise ValueError("default_deadline_us must be > 0 (or None)")

    def backoff_us(self, attempt: int) -> float:
        """Backoff before retry ``attempt + 1``, exponential and capped."""
        return min(
            self.retry_backoff_us * (2.0 ** attempt),
            self.retry_backoff_cap_us,
        )

    def deadline_for(self, request) -> Optional[float]:
        """Absolute deadline of ``request`` on the serving clock, if any."""
        budget = getattr(request, "deadline_us", None)
        if budget is None:
            budget = self.default_deadline_us
        if budget is None:
            return None
        return request.arrival_us + budget


@dataclass
class _ReplicaHealth:
    """One replica's breaker state."""

    replica_id: int
    state: str = HEALTHY
    consecutive_failures: int = 0
    quarantined_until_us: float = 0.0
    #: Current quarantine window (doubles on failed probes, capped).
    window_us: float = 0.0
    #: Half-open mode admits one probe batch at a time.
    probe_inflight: bool = False


class HealthTracker:
    """Per-replica health with circuit breaking, driven by the serving clock.

    The tracker never looks at a clock itself — every observation carries
    its simulated timestamp, so identical decision sequences evolve
    identical state on any clock.  State
    transitions are recorded on a timeline for ``ServingReport.describe()``.
    """

    def __init__(self, num_replicas: int, config: ResilienceConfig,
                 injector: Optional[FaultInjector] = None):
        self.config = config
        self.injector = injector
        self._replicas = [_ReplicaHealth(i) for i in range(num_replicas)]
        #: ``(us, replica_id, state)`` per transition, in observation order.
        self.transitions: list = []

    def _set_state(self, health: _ReplicaHealth, state: str,
                   now_us: float) -> None:
        if health.state != state:
            health.state = state
            self.transitions.append((now_us, health.replica_id, state))

    def state(self, replica_id: int, now_us: float) -> str:
        """The replica's state at ``now_us`` (observing outage windows and
        quarantine expiry lazily)."""
        health = self._replicas[replica_id]
        if self.injector is not None and self.injector.replica_down(
            replica_id, now_us
        ):
            self._set_state(health, DEAD, now_us)
            return DEAD
        if health.state == DEAD:
            # The outage window ended: re-admit through a half-open probe
            # rather than trusting the replica with full traffic at once.
            health.probe_inflight = False
            self._set_state(health, HALF_OPEN, now_us)
        if health.state == QUARANTINED and now_us >= health.quarantined_until_us:
            health.probe_inflight = False
            self._set_state(health, HALF_OPEN, now_us)
        return health.state

    def placement_penalty_us(self, replica_id: int, now_us: float) -> float:
        """Additive penalty on the replica's predicted finish time.

        ``inf`` excludes the replica outright (dead, quarantined, or
        half-open with its one probe already in flight); suspects and
        probe-admitting replicas pay ``suspect_penalty_us`` so healthy peers
        win ties but a degraded fleet still serves.
        """
        state = self.state(replica_id, now_us)
        if state in (DEAD, QUARANTINED):
            return float("inf")
        if state == HALF_OPEN:
            if self._replicas[replica_id].probe_inflight:
                return float("inf")
            return self.config.suspect_penalty_us
        if state == SUSPECT:
            return self.config.suspect_penalty_us
        return 0.0

    def on_dispatch(self, replica_id: int, now_us: float) -> None:
        """A batch was placed on the replica; mark half-open probes."""
        if self.state(replica_id, now_us) == HALF_OPEN:
            self._replicas[replica_id].probe_inflight = True

    def on_success(self, replica_id: int, now_us: float) -> None:
        health = self._replicas[replica_id]
        health.consecutive_failures = 0
        health.probe_inflight = False
        health.window_us = 0.0
        if self.state(replica_id, now_us) != DEAD:
            self._set_state(health, HEALTHY, now_us)

    def on_straggler(self, replica_id: int, now_us: float) -> None:
        """A batch ran far over its estimate: demote a healthy replica to
        suspect (does not count toward the breaker's failure threshold)."""
        health = self._replicas[replica_id]
        health.probe_inflight = False
        if self.state(replica_id, now_us) == HEALTHY:
            self._set_state(health, SUSPECT, now_us)

    def on_failure(self, replica_id: int, now_us: float) -> None:
        health = self._replicas[replica_id]
        was_probing = health.state == HALF_OPEN
        health.probe_inflight = False
        health.consecutive_failures += 1
        state = self.state(replica_id, now_us)
        if state == DEAD:
            return
        if was_probing or (
            health.consecutive_failures >= self.config.quarantine_after
        ):
            # Tripped the breaker (or failed the half-open probe): quarantine
            # with a doubled, capped window.
            if health.window_us > 0.0:
                health.window_us = min(
                    health.window_us * 2.0, self.config.quarantine_cap_us
                )
            else:
                health.window_us = self.config.quarantine_us
            health.quarantined_until_us = now_us + health.window_us
            self._set_state(health, QUARANTINED, now_us)
        else:
            self._set_state(health, SUSPECT, now_us)

    def timeline(self) -> list:
        """All transitions so far, ``(us, replica_id, state)``."""
        return list(self.transitions)


@dataclass
class FailureOutcome:
    """What :func:`resolve_failure` decided for one failed batch attempt."""

    #: When the failure was detected (the replica is occupied until then).
    detect_us: float
    #: Terminal failure reports (retry budget exhausted).
    failed_reports: list = field(default_factory=list)
    #: Requests whose deadline the backoff'd retry would already miss.
    expired_reports: list = field(default_factory=list)
    #: Requests to requeue (empty when nothing survives to retry).
    retry_requests: list = field(default_factory=list)
    retry_at_us: float = 0.0
    #: Replica the retry should avoid (the one that just failed).
    failed_replica: int = -1


def resolve_failure(config: ResilienceConfig, health: HealthTracker,
                    batch_requests, placement, batch_id: int, attempt: int,
                    exc: BaseException) -> FailureOutcome:
    """The shared failure-handling decision for one failed batch attempt.

    Trips the breaker at detection time, then either fails the whole batch
    terminally (retry budget spent) or splits it: requests whose deadline
    the backoff'd retry time would already miss report ``deadline_exceeded``
    now, the rest retry at ``detect + backoff`` on a replica other than the
    one that failed.
    """
    replica_id = placement.replica.replica_id
    detect_us = placement.start_us + config.failure_detect_us
    health.on_failure(replica_id, detect_us)
    outcome = FailureOutcome(detect_us=detect_us, failed_replica=replica_id)
    if attempt >= config.max_retries:
        error = (
            f"worker failure on replica {replica_id}, retries exhausted "
            f"after {attempt + 1} attempts: {exc!r}"
        )
        outcome.failed_reports = [
            _failure_report(r, batch_id, placement.start_us, error,
                            retries=attempt)
            for r in batch_requests
        ]
        return outcome
    outcome.retry_at_us = detect_us + config.backoff_us(attempt)
    for request in batch_requests:
        deadline = config.deadline_for(request)
        if deadline is not None and outcome.retry_at_us > deadline:
            outcome.expired_reports.append(
                _failure_report(
                    request, batch_id, placement.start_us,
                    (
                        f"deadline exceeded: retry at "
                        f"{outcome.retry_at_us:.0f}us is past the "
                        f"{deadline:.0f}us deadline (after {attempt + 1} "
                        f"failed attempts: {exc!r})"
                    ),
                    deadline_exceeded=True,
                    retries=attempt,
                )
            )
        else:
            outcome.retry_requests.append(request)
    return outcome


def _failure_report(request, batch_id: int, start_us: float, error: str,
                    *, deadline_exceeded: bool = False, retries: int = 0):
    # Deferred import: serving imports this module for the config types.
    from .serving import RequestReport

    return RequestReport(
        request_id=request.request_id,
        batch_id=batch_id,
        tokens=request.tokens,
        arrival_us=request.arrival_us,
        start_us=start_us,
        queue_us=start_us - request.arrival_us,
        exec_us=0.0,
        selection_us=0.0,
        ok=False,
        error=error,
        deadline_exceeded=deadline_exceeded,
        retries=retries,
    )
