"""Tests for fault-tolerant serving: injection, health, retry, deadlines.

Four properties carry the resilience layer:

* **Determinism** — every injector decision is a pure function of
  ``(seed, fault coordinates)``: two injectors, two query orders, or two
  drivers observe identical fault schedules under one seed.
* **Containment** — a failed attempt loses nothing: every admitted request
  reports exactly one terminal outcome (ok, failed, shed, or
  deadline-exceeded), and retries move to a different healthy replica.
* **Circuit breaking** — repeated failures quarantine a replica, a
  half-open probe re-admits it, and placement prices suspect replicas
  worse without abandoning a degraded fleet.
* **Equivalence** — ``engine.run(policy="continuous")`` and the
  virtual-clock replay each reproduce the golden decision trace of their
  injection seed (``tests/fixtures/decision_goldens.json``).
"""

import pytest

import decision_goldens
from repro.core import KernelChoice
from repro.hw import V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import opt_inference_workload
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    HealthTracker,
    ResilienceConfig,
    ServingEngine,
    decision_trace,
    replay_trace,
    serve_workloads,
)
from repro.runtime.resilience import (
    DEAD,
    HALF_OPEN,
    HEALTHY,
    QUARANTINED,
    SUSPECT,
    TransientExecFault,
    WorkerCrashFault,
)


def make_engine(**kwargs):
    defaults = dict(
        max_batch_tokens=8192,
        max_batch_size=4,
        batch_window_us=1500.0,
        enforce_memory=False,
        replicas=3,
        overlap_selection=False,
        charge_selection=False,
    )
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


def mixed_trace(engine, n=20, interarrival_us=400.0):
    workloads = []
    for i in range(n):
        if i % 5 == 0:
            workloads.append(
                opt_inference_workload("125m", batch_size=2, seed=i)
            )
        elif i % 5 == 3:
            workloads.append(switch_workload(8, batch_size=2, seed=i))
        else:
            workloads.append(bert_workload("mnli", 2, seed=i))
    return engine.submit_many(workloads, interarrival_us=interarrival_us)


CHAOS = ResilienceConfig(
    fault=FaultSpec(
        1234,
        crash_prob=0.05,
        transient_prob=0.15,
        straggler_prob=0.1,
        outages=((1, 3000.0, 60000.0),),
    ),
    max_retries=3,
)


class TestFaultSpecValidation:
    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match="crash_prob"):
            FaultSpec(1, crash_prob=1.5)
        with pytest.raises(ValueError, match="<= 1"):
            FaultSpec(1, crash_prob=0.6, transient_prob=0.6)

    def test_outage_window_must_be_nonempty(self):
        with pytest.raises(ValueError, match="outage window"):
            FaultSpec(1, outages=((0, 5000.0, 5000.0),))

    def test_straggler_factor_must_slow_down(self):
        with pytest.raises(ValueError, match="straggler_factor"):
            FaultSpec(1, straggler_factor=0.5)


class TestInjectorDeterminism:
    def test_decisions_are_pure_functions_of_coordinates(self):
        spec = FaultSpec(
            7, crash_prob=0.2, transient_prob=0.3, straggler_prob=0.3,
            search_fail_prob=0.5,
        )
        first, second = FaultInjector(spec), FaultInjector(spec)
        coords = [
            (batch, attempt, replica)
            for batch in range(30)
            for attempt in range(3)
            for replica in range(3)
        ]
        # Query the second injector in reverse: outcomes are
        # coordinate-addressed, so call order must not matter.
        outcomes_first = [self._exec_outcome(first, c) for c in coords]
        outcomes_second = [
            self._exec_outcome(second, c) for c in reversed(coords)
        ]
        assert outcomes_first == list(reversed(outcomes_second))
        assert [
            first.slowdown(replica, batch, attempt)
            for batch, attempt, replica in coords
        ] == [
            second.slowdown(replica, batch, attempt)
            for batch, attempt, replica in coords
        ]
        sigs = [("proj", (i, i + 1)) for i in range(50)]
        assert [first.search_fails(k, s) for k, s in sigs] == [
            second.search_fails(k, s) for k, s in sigs
        ]

    @staticmethod
    def _exec_outcome(injector, coords):
        batch_id, attempt, replica_id = coords
        try:
            injector.exec_fault(replica_id, batch_id, attempt, 0.0)
        except WorkerCrashFault:
            return "crash"
        except TransientExecFault:
            return "transient"
        return "ok"

    def test_seed_changes_the_schedule(self):
        coords = [(b, 0, 0) for b in range(200)]
        schedules = []
        for seed in (1, 2):
            injector = FaultInjector(FaultSpec(seed, transient_prob=0.3))
            schedules.append(
                tuple(self._exec_outcome(injector, c) for c in coords)
            )
        assert schedules[0] != schedules[1]

    def test_outage_windows_are_clock_pure(self):
        injector = FaultInjector(
            FaultSpec(1, outages=((2, 1000.0, 2000.0),))
        )
        assert not injector.replica_down(2, 999.9)
        assert injector.replica_down(2, 1000.0)
        assert injector.replica_down(2, 1999.9)
        assert not injector.replica_down(2, 2000.0)
        assert not injector.replica_down(0, 1500.0)


class TestHealthTracker:
    CONFIG = ResilienceConfig(
        quarantine_after=3, quarantine_us=10000.0, quarantine_cap_us=40000.0,
        suspect_penalty_us=1000.0,
    )

    def test_breaker_trips_after_consecutive_failures(self):
        health = HealthTracker(2, self.CONFIG)
        health.on_failure(0, 100.0)
        health.on_failure(0, 200.0)
        assert health.state(0, 250.0) == SUSPECT
        assert health.placement_penalty_us(0, 250.0) == 1000.0
        health.on_failure(0, 300.0)
        assert health.state(0, 350.0) == QUARANTINED
        assert health.placement_penalty_us(0, 350.0) == float("inf")
        # The untouched replica is unaffected.
        assert health.state(1, 350.0) == HEALTHY

    def test_success_resets_the_failure_streak(self):
        health = HealthTracker(1, self.CONFIG)
        health.on_failure(0, 100.0)
        health.on_failure(0, 200.0)
        health.on_success(0, 300.0)
        assert health.state(0, 300.0) == HEALTHY
        health.on_failure(0, 400.0)
        health.on_failure(0, 500.0)
        assert health.state(0, 500.0) == SUSPECT  # streak restarted

    def test_quarantine_expiry_admits_one_probe(self):
        health = HealthTracker(1, self.CONFIG)
        for t in (100.0, 200.0, 300.0):
            health.on_failure(0, t)
        assert health.state(0, 300.0) == QUARANTINED
        # Window expired: half-open, priced like a suspect until the one
        # probe is dispatched, then excluded until the probe resolves.
        assert health.state(0, 10300.0) == HALF_OPEN
        assert health.placement_penalty_us(0, 10300.0) == 1000.0
        health.on_dispatch(0, 10300.0)
        assert health.placement_penalty_us(0, 10400.0) == float("inf")
        health.on_success(0, 10500.0)
        assert health.state(0, 10500.0) == HEALTHY

    def test_failed_probe_doubles_the_window_up_to_the_cap(self):
        health = HealthTracker(1, self.CONFIG)
        for t in (100.0, 200.0, 300.0):
            health.on_failure(0, t)
        windows = []
        now = 300.0
        for _ in range(4):
            until = health._replicas[0].quarantined_until_us
            windows.append(until - now)
            now = until
            assert health.state(0, now) == HALF_OPEN
            health.on_dispatch(0, now)
            health.on_failure(0, now)
        assert windows == [10000.0, 20000.0, 40000.0, 40000.0]

    def test_straggler_demotes_healthy_only(self):
        health = HealthTracker(1, self.CONFIG)
        health.on_straggler(0, 100.0)
        assert health.state(0, 100.0) == SUSPECT
        for t in (200.0, 300.0, 400.0):
            health.on_failure(0, t)
        health.on_straggler(0, 500.0)  # must not un-quarantine
        assert health.state(0, 500.0) == QUARANTINED

    def test_outage_makes_a_replica_dead_then_half_open(self):
        injector = FaultInjector(
            FaultSpec(1, outages=((0, 1000.0, 2000.0),))
        )
        health = HealthTracker(1, self.CONFIG, injector=injector)
        assert health.state(0, 500.0) == HEALTHY
        assert health.state(0, 1500.0) == DEAD
        assert health.placement_penalty_us(0, 1500.0) == float("inf")
        assert health.state(0, 2500.0) == HALF_OPEN
        timeline = health.timeline()
        assert (1500.0, 0, DEAD) in timeline
        assert (2500.0, 0, HALF_OPEN) in timeline


class TestResilienceConfig:
    def test_backoff_is_exponential_and_capped(self):
        config = ResilienceConfig(
            retry_backoff_us=500.0, retry_backoff_cap_us=1600.0
        )
        assert [config.backoff_us(a) for a in range(4)] == [
            500.0, 1000.0, 1600.0, 1600.0,
        ]

    def test_deadline_prefers_the_request_budget(self):
        config = ResilienceConfig(default_deadline_us=5000.0)

        class Req:
            arrival_us = 100.0
            deadline_us = 700.0

        class Bare:
            arrival_us = 100.0
            deadline_us = None

        assert config.deadline_for(Req()) == 800.0
        assert config.deadline_for(Bare()) == 5100.0
        assert ResilienceConfig().deadline_for(Bare()) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError, match="quarantine_after"):
            ResilienceConfig(quarantine_after=0)
        with pytest.raises(ValueError, match="default_deadline_us"):
            ResilienceConfig(default_deadline_us=0.0)


class TestSimulatedChaos:
    def test_no_request_is_ever_lost(self):
        engine = make_engine(resilience=CHAOS)
        requests = mixed_trace(engine)
        submitted = {r.request_id for r in requests}
        report = engine.run(policy="continuous")
        reported = [r.request_id for r in report.requests]
        assert sorted(reported) == sorted(submitted)
        assert len(reported) == len(set(reported))
        for r in report.requests:
            assert r.ok or r.shed or r.error

    def test_failures_retry_onto_a_different_replica(self):
        engine = make_engine(resilience=CHAOS)
        mixed_trace(engine, n=40)
        report = engine.run(policy="continuous")
        assert report.retries > 0
        assert report.failovers > 0
        # Retried batches keep their batch id; attempts are distinguishable.
        attempts = {}
        for batch in report.batches:
            attempts.setdefault(batch.batch_id, []).append(batch.attempt)
        assert all(len(a) == len(set(a)) for a in attempts.values())

    def test_replica_outage_appears_in_the_health_timeline(self):
        engine = make_engine(resilience=CHAOS)
        mixed_trace(engine)
        report = engine.run(policy="continuous")
        assert any(
            rid == 1 and state == DEAD
            for _, rid, state in report.health_timeline
        )
        assert "resilience:" in report.describe()
        assert "health:" in report.describe()

    def test_tight_deadlines_report_deadline_exceeded(self):
        config = ResilienceConfig(
            fault=FaultSpec(99, transient_prob=1.0),
            max_retries=3,
            retry_backoff_us=4000.0,
            default_deadline_us=2000.0,
        )
        engine = make_engine(resilience=config)
        mixed_trace(engine, n=8)
        report = engine.run(policy="continuous")
        assert report.deadline_exceeded > 0
        exceeded = [r for r in report.requests if r.deadline_exceeded]
        for r in exceeded:
            assert not r.ok
            assert not r.shed
            assert "deadline exceeded" in r.error

    def test_exhausted_retries_fail_terminally(self):
        config = ResilienceConfig(
            fault=FaultSpec(99, transient_prob=1.0), max_retries=1
        )
        engine = make_engine(resilience=config)
        mixed_trace(engine, n=6)
        report = engine.run(policy="continuous")
        failed = [
            r for r in report.requests
            if not r.ok and not r.shed and not r.deadline_exceeded
        ]
        assert failed
        assert all("retries exhausted" in r.error for r in failed)
        assert all(r.retries == 1 for r in failed)

    def test_per_request_deadline_threads_through_submit(self):
        engine = make_engine(resilience=ResilienceConfig())
        workload = bert_workload("mnli", 2, seed=0)
        request = engine.submit(workload, arrival_us=0.0, deadline_us=750.0)
        assert request.deadline_us == 750.0

    def test_without_resilience_behavior_is_unchanged(self):
        plain = make_engine()
        mixed_trace(plain)
        baseline = plain.run(policy="continuous")
        configured = make_engine(resilience=ResilienceConfig())
        mixed_trace(configured)
        report = configured.run(policy="continuous")
        assert decision_trace(baseline, include_timing=True) == decision_trace(
            report, include_timing=True
        )
        assert report.retries == 0
        assert report.health_timeline == []


class TestDegradedPlanning:
    def test_search_failure_falls_back_to_a_degraded_plan(self):
        config = ResilienceConfig(fault=FaultSpec(5, search_fail_prob=1.0))
        engine = make_engine(resilience=config)
        mixed_trace(engine, n=10)
        report = engine.run(policy="continuous")
        assert report.degraded_plans > 0
        assert all(r.ok for r in report.requests)
        assert "degraded plans:" in report.describe()

    def test_degraded_plans_are_never_cached(self):
        config = ResilienceConfig(fault=FaultSpec(5, search_fail_prob=1.0))
        engine = make_engine(resilience=config)
        mixed_trace(engine, n=10)
        engine.run(policy="continuous")
        # The process-wide cache also holds the backend's cover-workload
        # memos; what must never appear is an Algorithm 1 outcome — every
        # search was injected to fail, so every plan was degraded.
        cached = [
            slot[0]
            for shard in engine.plan_cache._shard_list
            for slot in shard.entries.values()
        ]
        assert not any(isinstance(value, KernelChoice) for value in cached)


class TestChaosEquivalence:
    @pytest.mark.parametrize("seed", [1234, 777])
    def test_sim_and_replay_decide_identically_under_faults(self, seed):
        """Decisions, retries, failovers, health transitions and the set of
        reported requests all equal the golden of the injection seed."""
        golden = decision_goldens.load()[f"chaos-{seed}"]
        for driver in ("run", "replay"):
            observed = decision_goldens.serve(f"chaos-{seed}", driver)
            assert observed == golden, f"{driver} diverged under seed {seed}"

    def test_same_seed_replays_are_bit_identical(self):
        traces = []
        for _ in range(2):
            engine = make_engine(resilience=CHAOS)
            requests = mixed_trace(engine)
            traces.append(
                decision_trace(
                    replay_trace(engine, requests), include_timing=True
                )
            )
        assert traces[0] == traces[1]


class TestLiveChaos:
    def test_worker_path_resolves_every_future_under_faults(self):
        engine = make_engine(resilience=CHAOS)
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(12)]
        report = serve_workloads(engine, workloads)
        reported = [r.request_id for r in report.requests]
        assert len(reported) == len(workloads)
        assert len(reported) == len(set(reported))
        for r in report.requests:
            assert r.ok or r.shed or r.error
