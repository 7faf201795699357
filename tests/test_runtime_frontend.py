"""Tests for the live asyncio serving front end.

Three properties carry the real-concurrency refactor:

* **Equivalence** — ``engine.run(policy="continuous")`` and
  :func:`replay_trace` both serve through the front end in virtual time,
  and each reproduces the golden decision trace
  (``tests/fixtures/decision_goldens.json``) recorded from the event-heap
  scheduler that preceded them, timings included.
* **Backpressure** — over the queue-depth bound, shed requests are
  reported (never silently dropped) and block mode bounds in-flight depth
  without losing requests.
* **Liveness** — the real asyncio worker path serves complete, correct
  reports with zero extra cold Algorithm 1 searches versus the simulated
  schedule of the same trace.
"""

import asyncio

import pytest

import decision_goldens
from decision_goldens import mixed_trace
from repro.hw import V100
from repro.models import bert_workload, longformer_workload
from repro.runtime import (
    AsyncServingFrontend,
    ServingEngine,
    VirtualClock,
    decision_trace,
    make_live_frontend,
    replay_trace,
    serve_workloads,
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


GOLDENS = decision_goldens.load()


def assert_drivers_match_golden(case):
    """``engine.run`` and ``replay_trace`` each reproduce the golden."""
    for driver in ("run", "replay"):
        observed = decision_goldens.serve(case, driver)
        assert observed == GOLDENS[case], f"{driver} diverged on {case}"


class TestReplayEquivalence:
    def test_homogeneous_trace_is_decision_identical(self):
        assert_drivers_match_golden("homogeneous")
        engine = decision_goldens.build("homogeneous")
        assert replay_trace(engine).policy == "live"
        engine = decision_goldens.build("homogeneous")
        assert engine.run(policy="continuous").policy == "continuous"

    def test_equivalence_includes_plan_cache_traffic(self):
        """Zero extra cold searches: each driver's engine-wide plan-cache
        hits and misses equal the golden's exactly (the batch-level counts
        are compared with the decisions)."""
        golden = GOLDENS["homogeneous"]["plan_cache"]
        for driver in ("run", "replay"):
            observed = decision_goldens.serve("homogeneous", driver)
            assert observed["plan_cache"] == golden

    def test_heterogeneous_cost_aware_with_overlap(self):
        """Mixed device classes with speculative selection on: placements
        come from cost-aware pricing and speculation resolves against the
        predicted class — both reproduced decision-for-decision."""
        assert_drivers_match_golden("heterogeneous-speculative")

    @pytest.mark.parametrize("seed_base", [0, 100, 1000])
    def test_seeded_traces_property(self, seed_base):
        """The equivalence is a property over traces, not one example."""
        assert_drivers_match_golden(f"seeded-{seed_base}")

    def test_compositions_match_under_default_accounting(self):
        """With charge_selection=True (the legacy accounting), measured
        selection wall time perturbs the simulated timeline run-to-run, but
        admission decisions depend only on arrivals/budgets/windows — batch
        compositions still match the golden's."""
        golden = [b["requests"] for b in GOLDENS["homogeneous"]["decisions"]]
        for driver in ("run", "replay"):
            engine = make_engine(charge_selection=True, replicas=1)
            mixed_trace(engine)
            report = decision_goldens.DRIVERS[driver](engine)
            assert [b["requests"] for b in decision_trace(report)] == golden

    def test_replay_consumes_engine_queue_like_run(self):
        engine = make_engine()
        mixed_trace(engine, n=6)
        report = replay_trace(engine)
        assert len(report.requests) == 6
        assert engine.pending() == 0

    def test_replica_stats_match_simulated(self):
        """Per-replica batch and token counts agree with the golden
        placements."""
        golden = GOLDENS["homogeneous"]["decisions"]
        expected = [
            (
                replica,
                V100.name,
                sum(1 for b in golden if b["replica"] == replica),
                sum(b["tokens"] for b in golden if b["replica"] == replica),
            )
            for replica in range(3)
        ]
        for driver in ("run", "replay"):
            report = decision_goldens.DRIVERS[driver](
                decision_goldens.build("homogeneous")
            )
            stats = [
                (r.replica_id, r.device, r.batches, r.tokens)
                for r in report.replica_stats
            ]
            assert stats == expected


class TestVirtualClock:
    def test_fires_in_time_order_with_fifo_ties(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(5.0, fired.append, "late")
        clock.call_at(1.0, fired.append, "early")
        clock.call_at(1.0, fired.append, "early-second")
        while clock.pending():
            clock.fire_next()
        assert fired == ["early", "early-second", "late"]
        assert clock.now_us() == 5.0

    def test_now_visible_inside_callback(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(42.0, lambda: seen.append(clock.now_us()))
        clock.fire_next()
        assert seen == [42.0]


class TestBackpressure:
    def test_shed_requests_reported_not_dropped(self):
        """Past the depth bound in shed mode, every refused request still
        produces a (failed, shed) report and resolves its future."""
        engine = make_engine(
            replicas=2,
            batch_window_us=500000.0,  # batches stay open during the burst
            max_batch_size=64,
            charge_selection=True,
        )
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(8)]

        async def main():
            frontend = AsyncServingFrontend(
                engine, max_queue_depth=3, overload="shed"
            )
            await frontend.start()
            futures = [await frontend.submit(w) for w in workloads]
            await frontend.stop()
            return frontend.report(), await asyncio.gather(*futures)

        report, results = asyncio.run(main())
        assert len(report.requests) == len(workloads)
        assert report.shed_requests == 5
        shed = [r for r in results if r.shed]
        assert len(shed) == 5
        assert all(not r.ok and "shed" in r.error for r in shed)
        assert all(r.batch_id == -1 for r in shed)
        served = [r for r in results if not r.shed]
        assert all(r.ok for r in served)
        # Shed requests count toward failures; served ones completed.
        assert report.failed_requests == 5

    def test_block_mode_bounds_inflight_and_serves_everything(self):
        engine = make_engine(
            replicas=2,
            batch_window_us=2000.0,
            max_batch_size=1,  # dispatch at admission: capacity recycles
            charge_selection=True,
        )
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(6)]
        max_seen = 0

        async def main():
            nonlocal max_seen
            frontend = AsyncServingFrontend(
                engine, max_queue_depth=2, overload="block"
            )
            await frontend.start()
            futures = []
            for w in workloads:
                futures.append(await frontend.submit(w))
                max_seen = max(max_seen, frontend.inflight)
            await frontend.stop()
            await asyncio.gather(*futures)
            return frontend.report()

        report = asyncio.run(main())
        assert len(report.requests) == len(workloads)
        assert report.shed_requests == 0
        assert report.failed_requests == 0
        assert max_seen <= 2

    def test_depth_and_overload_validation(self):
        engine = make_engine()
        with pytest.raises(ValueError, match="max_queue_depth"):
            AsyncServingFrontend(engine, max_queue_depth=0)
        with pytest.raises(ValueError, match="overload"):
            AsyncServingFrontend(engine, overload="drop")
        with pytest.raises(ValueError, match="block"):
            AsyncServingFrontend(
                engine,
                max_queue_depth=1,
                overload="block",
                clock=VirtualClock(),
            )


class TestLiveServing:
    def test_live_serving_zero_extra_cold_searches(self):
        """The same workloads served live (real workers, real clock) run
        exactly as many cold Algorithm 1 searches as the simulated
        schedule: the sharded cache's single-flight resolve never
        duplicates a search across concurrent workers."""
        workloads = [bert_workload("mnli", 2, seed=i % 3) for i in range(10)]

        sim_engine = make_engine(replicas=4, charge_selection=True)
        sim_engine.submit_many(workloads, interarrival_us=200.0)
        simulated = sim_engine.run(policy="continuous")

        live_engine = make_engine(replicas=4, charge_selection=True)
        live = serve_workloads(live_engine, workloads)
        assert len(live.requests) == len(workloads)
        assert live.failed_requests == 0
        assert (
            live.plan_cache_stats["misses"]
            == simulated.plan_cache_stats["misses"]
        )

    def test_live_report_is_complete_and_consistent(self):
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(8)]
        engine = make_engine(replicas=2, charge_selection=True)
        report = serve_workloads(engine, workloads)
        served = {r for b in report.batches for r in b.request_ids}
        assert served == {r.request_id for r in report.requests}
        assert sum(b.size for b in report.batches) == len(workloads)
        assert sum(r.batches for r in report.replica_stats) == len(
            report.batches
        )

    def test_longformer_live(self):
        """Attention-plan traffic through the live path."""
        workloads = [
            longformer_workload(seq_len=1024, batch_size=1, seed=i)
            for i in range(4)
        ]
        engine = make_engine(replicas=2, charge_selection=True)
        report = serve_workloads(engine, workloads)
        assert report.failed_requests == 0
        assert any("attention" in b.plan_kinds for b in report.batches)

    def test_make_live_frontend_convenience(self):
        engine, frontend = make_live_frontend(
            V100,
            replicas=2,
            max_batch_size=4,
            enforce_memory=False,
            max_queue_depth=16,
        )
        assert frontend.engine is engine
        assert frontend.max_queue_depth == 16

        async def main():
            await frontend.start()
            future = await frontend.submit(bert_workload("mnli", 2, seed=0))
            await frontend.stop()
            return await future

        result = asyncio.run(main())
        assert result.ok


class TestWorkerFailure:
    def test_crashing_worker_fails_only_its_own_batch(self):
        """A worker exception (no resilience configured) surfaces as a
        terminal report on exactly the crashed batch's requests; every
        other batch serves normally and the front end drains clean."""
        engine = make_engine(
            replicas=2,
            batch_window_us=2000.0,
            max_batch_size=1,  # one request per batch: failure is isolated
            charge_selection=True,
        )
        real_execute = engine.execute_batch

        def crashing_execute(requests, **kwargs):
            if kwargs.get("batch_id") == 0:
                raise RuntimeError("rehearsed worker crash")
            return real_execute(requests, **kwargs)

        engine.execute_batch = crashing_execute
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(5)]

        async def main():
            frontend = AsyncServingFrontend(engine)
            await frontend.start()
            futures = [await frontend.submit(w) for w in workloads]
            await frontend.stop()
            assert frontend.inflight == 0
            return frontend.report(), await asyncio.gather(*futures)

        report, results = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert len(results) == len(workloads)
        crashed = [r for r in results if not r.ok]
        assert len(crashed) == 1
        assert crashed[0].batch_id == 0
        assert "worker failure" in crashed[0].error
        assert "rehearsed worker crash" in crashed[0].error
        assert not crashed[0].shed
        served = [r for r in results if r.ok]
        assert len(served) == len(workloads) - 1
        # The crashed batch never produced a batch report.
        assert sorted(b.batch_id for b in report.batches) == [1, 2, 3, 4]
        assert report.failed_requests == 1


class TestShutdownWhileBlocked:
    def test_blocked_submitters_are_released_on_stop(self):
        """stop() must never strand a submitter awaiting capacity: blocked
        callers resolve to refused (shed-style) reports, admitted requests
        still complete."""
        engine = make_engine(
            replicas=2,
            batch_window_us=500000.0,  # batches stay open: capacity never
            max_batch_size=64,  # recycles, so late submitters block forever
            charge_selection=True,
        )
        workloads = [bert_workload("mnli", 2, seed=i) for i in range(5)]

        async def main():
            frontend = AsyncServingFrontend(
                engine, max_queue_depth=2, overload="block"
            )
            await frontend.start()
            admitted = [await frontend.submit(w) for w in workloads[:2]]
            blocked = [
                asyncio.create_task(frontend.submit(w))
                for w in workloads[2:]
            ]
            await asyncio.sleep(0.05)  # let every submitter reach the wait
            assert all(not task.done() for task in blocked)
            await frontend.stop()
            released = await asyncio.gather(*blocked)
            results = await asyncio.gather(*admitted, *released)
            return frontend.report(), results

        report, results = asyncio.run(asyncio.wait_for(main(), timeout=30))
        assert len(results) == len(workloads)
        completed = [r for r in results if r.ok]
        refused = [r for r in results if r.shed]
        assert len(completed) == 2  # the admitted requests still served
        assert len(refused) == 3
        assert all("shutdown" in r.error for r in refused)
        assert len(report.requests) == len(workloads)
