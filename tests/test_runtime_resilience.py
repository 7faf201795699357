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

import numpy as np
import pytest

import decision_goldens
from repro.core import KernelChoice, PlanSpec, kernel_selection
from repro.hw import A100, V100
from repro.models import bert_workload, switch_workload
from repro.models.workloads import opt_inference_workload
from repro.runtime import (
    FaultInjector,
    FaultSpec,
    HealthTracker,
    ResilienceConfig,
    SchedulingPolicy,
    ServingEngine,
    decision_trace,
    replay_trace,
    serve_workloads,
)
from repro.runtime.resilience import (
    DEAD,
    HALF_OPEN,
    HEALTHY,
    QUARANTINE_AFTER,
    QUARANTINE_CAP_US,
    QUARANTINE_US,
    QUARANTINED,
    RETRY_BACKOFF_CAP_US,
    SUSPECT,
    SUSPECT_PENALTY_US,
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
    @staticmethod
    def trip(health, start_us=100.0):
        """``QUARANTINE_AFTER`` consecutive failures, 100us apart; returns
        the time of the last one."""
        times = [start_us + 100.0 * i for i in range(QUARANTINE_AFTER)]
        for t in times:
            health.on_failure(0, t)
        return times[-1]

    def test_breaker_trips_after_consecutive_failures(self):
        health = HealthTracker(2)
        for i in range(QUARANTINE_AFTER - 1):
            health.on_failure(0, 100.0 * (i + 1))
        now = 100.0 * QUARANTINE_AFTER
        assert health.state(0, now) == SUSPECT
        assert health.placement_penalty_us(0, now) == SUSPECT_PENALTY_US
        health.on_failure(0, now)
        assert health.state(0, now + 50.0) == QUARANTINED
        assert health.placement_penalty_us(0, now + 50.0) == float("inf")
        # The untouched replica is unaffected.
        assert health.state(1, now + 50.0) == HEALTHY

    def test_success_resets_the_failure_streak(self):
        health = HealthTracker(1)
        for i in range(QUARANTINE_AFTER - 1):
            health.on_failure(0, 100.0 * (i + 1))
        health.on_success(0, 1000.0)
        assert health.state(0, 1000.0) == HEALTHY
        for i in range(QUARANTINE_AFTER - 1):
            health.on_failure(0, 1100.0 + 100.0 * i)
        assert health.state(0, 2000.0) == SUSPECT  # streak restarted

    def test_quarantine_expiry_admits_one_probe(self):
        health = HealthTracker(1)
        tripped = self.trip(health)
        assert health.state(0, tripped) == QUARANTINED
        assert health.state(0, tripped + QUARANTINE_US - 1.0) == QUARANTINED
        # Window expired: half-open, priced like a suspect until the one
        # probe is dispatched, then excluded until the probe resolves.
        expiry = tripped + QUARANTINE_US
        assert health.state(0, expiry) == HALF_OPEN
        assert health.placement_penalty_us(0, expiry) == SUSPECT_PENALTY_US
        health.on_dispatch(0, expiry)
        assert health.placement_penalty_us(0, expiry + 100.0) == float("inf")
        health.on_success(0, expiry + 200.0)
        assert health.state(0, expiry + 200.0) == HEALTHY

    def test_failed_probe_doubles_the_window_up_to_the_cap(self):
        expected = [QUARANTINE_US]
        while expected[-1] < QUARANTINE_CAP_US:
            expected.append(min(2.0 * expected[-1], QUARANTINE_CAP_US))
        expected.append(QUARANTINE_CAP_US)  # a capped window stays capped
        health = HealthTracker(1)
        now = self.trip(health)
        windows = []
        for _ in expected:
            until = health._replicas[0].quarantined_until_us
            windows.append(until - now)
            now = until
            assert health.state(0, now) == HALF_OPEN
            health.on_dispatch(0, now)
            health.on_failure(0, now)
        assert windows == expected

    def test_straggler_demotes_healthy_only(self):
        health = HealthTracker(1)
        health.on_straggler(0, 100.0)
        assert health.state(0, 100.0) == SUSPECT
        tripped = self.trip(health, start_us=200.0)
        health.on_straggler(0, tripped + 100.0)  # must not un-quarantine
        assert health.state(0, tripped + 100.0) == QUARANTINED

    def test_outage_makes_a_replica_dead_then_half_open(self):
        injector = FaultInjector(
            FaultSpec(1, outages=((0, 1000.0, 2000.0),))
        )
        health = HealthTracker(1, injector=injector)
        assert health.state(0, 500.0) == HEALTHY
        assert health.state(0, 1500.0) == DEAD
        assert health.placement_penalty_us(0, 1500.0) == float("inf")
        assert health.state(0, 2500.0) == HALF_OPEN
        timeline = health.timeline()
        assert (1500.0, 0, DEAD) in timeline
        assert (2500.0, 0, HALF_OPEN) in timeline


class TestHealthAwarePlacement:
    """Replica choice on a homogeneous fleet, read straight off the
    policy: the health penalty adds to ``free_at`` and exclusions relax
    in order, so placement never deadlocks."""

    def select(self, resilience=None, *, free_at=(0.0, 0.0), exclude=(),
               failures=()):
        engine = make_engine(replicas=2, resilience=resilience)
        request = engine.submit(bert_workload("mnli", 2, seed=0))
        policy = SchedulingPolicy(engine)
        for replica, us in zip(policy.replicas, free_at):
            replica.free_at_us = us
        for replica_id, us in failures:
            policy.health.on_failure(replica_id, us)
        return policy.select_replica(
            request.batch_signature(),
            request.workload,
            200.0,
            exclude=exclude,
        ).replica_id

    def test_without_resilience_ties_break_by_free_at_then_id(self):
        assert self.select() == 0
        assert self.select(free_at=(300.0, 0.0)) == 1
        assert self.select(exclude=(0,)) == 1
        # Everything excluded: place anyway, on the usual order.
        assert self.select(exclude=(0, 1)) == 0

    def test_suspect_penalty_adds_to_free_at(self):
        config = ResilienceConfig()
        suspect = ((0, 100.0),)
        assert self.select(config, failures=suspect) == 1
        # A healthy peer busy past the penalty still loses to the suspect.
        busy_peer = (0.0, SUSPECT_PENALTY_US + 500.0)
        assert self.select(config, free_at=busy_peer, failures=suspect) == 0

    def test_down_replicas_are_out_while_any_is_open(self):
        config = ResilienceConfig(
            fault=FaultSpec(1, outages=((0, 0.0, 1e6),))
        )
        assert self.select(config) == 1
        # A retry avoiding the only open replica still goes there.
        assert self.select(config, exclude=(1,)) == 1

    def test_all_down_fleet_places_over_every_replica(self):
        """With nothing open the exclusion does not apply either: the
        attempt fails fast and retries rather than deadlocking."""
        config = ResilienceConfig(
            fault=FaultSpec(1, outages=((0, 0.0, 1e6), (1, 0.0, 1e6)))
        )
        assert self.select(config, exclude=(0,)) == 0
        assert self.select(config, free_at=(300.0, 0.0), exclude=(1,)) == 1


class TestResilienceConfig:
    def test_backoff_is_exponential_and_capped(self):
        config = ResilienceConfig(retry_backoff_us=3000.0)
        assert 6000.0 < RETRY_BACKOFF_CAP_US < 12000.0
        assert [config.backoff_us(a) for a in range(4)] == [
            3000.0, 6000.0, RETRY_BACKOFF_CAP_US, RETRY_BACKOFF_CAP_US,
        ]

    def test_deadline_is_the_default_budget_from_arrival(self):
        class Req:
            arrival_us = 100.0

        config = ResilienceConfig(default_deadline_us=5000.0)
        assert config.deadline_for(Req()) == 5100.0
        assert ResilienceConfig().deadline_for(Req()) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError, match="retry_backoff_us"):
            ResilienceConfig(retry_backoff_us=-1.0)
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
        cached = [value for _, value in engine.plan_cache.entries()]
        assert not any(isinstance(value, KernelChoice) for value in cached)

    @pytest.mark.parametrize("replica", [0, 1], ids=["V100", "A100"])
    @pytest.mark.parametrize("m,k,n", [(512, 256, 256), (256, 1024, 256)])
    def test_degraded_plan_is_algorithm_1s_dense_candidate(
        self, m, k, n, replica
    ):
        """A degraded plan names the tile and the cost of the dense
        fallback Algorithm 1 returns for an all-ones sample of its spec,
        over the TileDB of the replica's own device class."""
        engine = make_engine(
            resilience=ResilienceConfig(), replicas=2,
            replica_specs=[V100, A100],
        )
        device = engine.device_for_replica(replica)
        spec = PlanSpec(
            kind="proj", m=m, k=k, n=n, tiledb_key=device.tiledb.cache_key
        )
        degraded = engine._degraded_plan(device, spec)
        dense = kernel_selection(
            [np.ones((m, k), dtype=bool)], m, k, n, device.tiledb
        )
        assert degraded.degraded and dense.is_dense_fallback
        assert degraded.choice.tile == dense.tile
        assert degraded.choice.est_cost_us == dense.est_cost_us


class TestChaosEquivalence:
    @pytest.mark.parametrize("variant", ["1234", "777", "heterogeneous"])
    def test_sim_and_replay_decide_identically_under_faults(self, variant):
        """Decisions, retries, failovers, health transitions and the set of
        reported requests all equal the golden of each chaos case: two
        injection seeds, and a mixed V100/A100 fleet — the one case whose
        cost-aware placement sees health penalties."""
        case = f"chaos-{variant}"
        golden = decision_goldens.load()[case]
        for driver in ("run", "replay"):
            observed = decision_goldens.serve(case, driver)
            assert observed == golden, f"{driver} diverged on {case}"

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
