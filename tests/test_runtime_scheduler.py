"""Tests for the continuous-batching scheduler and replica placement."""

import pytest

from repro.core import PlanCache
from repro.hw import V100
from repro.models import bert_workload, longformer_workload
from repro.runtime import ServingEngine


def make_engine(**kwargs):
    defaults = dict(
        max_batch_tokens=8192,
        max_batch_size=8,
        batch_window_us=2000.0,
        enforce_memory=False,
    )
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


class TestWindowClosure:
    def test_arrivals_within_window_share_a_batch(self):
        engine = make_engine(batch_window_us=2000.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=1500.0)
        report = engine.run(policy="continuous")
        assert len(report.batches) == 1
        assert report.batches[0].size == 2

    def test_window_deadline_closes_the_batch(self):
        """An arrival after the window lands in a fresh batch even though
        budget and size cap would have admitted it.

        Overlap is disabled so close time equals compute start: with the
        speculative search on, a cold batch starts when the search tail
        finishes (asserted separately in TestSelectionOverlap)."""
        engine = make_engine(batch_window_us=1000.0, overlap_selection=False)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=1500.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [1, 1]
        # The first batch closed at its deadline, not at the second arrival.
        assert report.batches[0].start_us == pytest.approx(1000.0)

    def test_arrival_exactly_at_deadline_rides_the_batch(self):
        engine = make_engine(batch_window_us=1000.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=1000.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [2]

    def test_no_window_closes_only_at_end_of_stream(self):
        engine = make_engine(batch_window_us=None)
        for s in range(4):
            engine.submit(bert_workload("mnli", 4, seed=s),
                          arrival_us=s * 10000.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [4]
        # Nothing to wait for once the stream ends: the batch closes at the
        # last arrival, not at infinity.
        assert report.batches[0].start_us == pytest.approx(30000.0)

    def test_size_cap_closes_immediately(self):
        """A full batch dispatches at the filling arrival — waiting out the
        window could only add queueing delay.  (Overlap off: the start-time
        assertion needs close time == compute start on a cold cache.)"""
        engine = make_engine(max_batch_size=2, batch_window_us=50000.0,
                             overlap_selection=False)
        for s in range(4):
            engine.submit(bert_workload("mnli", 4, seed=s),
                          arrival_us=s * 100.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [2, 2]
        # Closed by the cap at the second arrival, far before the window.
        assert report.batches[0].start_us == pytest.approx(100.0)

    def test_budget_saturated_batch_closes_immediately(self):
        """A lone request already over the token budget cannot ever admit a
        partner — it must dispatch at arrival, not wait out the window.
        (Overlap off: the start-time assertion needs close time == compute
        start on a cold cache.)"""
        engine = make_engine(max_batch_tokens=64, batch_window_us=5000.0,
                             overlap_selection=False)
        # bert mnli batch 4 pads to ~184 tokens, over the 64-token budget.
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=100.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [1]
        assert report.batches[0].start_us == pytest.approx(100.0)
        assert report.requests[0].queue_us == pytest.approx(0.0)

    def test_budget_overflow_opens_a_fresh_batch_with_fresh_window(self):
        """A stale deadline from a closed batch must not close its
        successor (the open-batch token check)."""
        # Seeds 0/1/2 pad to 368/660 tokens for 2/3 co-batched requests:
        # two fit the 500-token budget, three overflow.
        engine = make_engine(max_batch_tokens=500, batch_window_us=1000.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=10.0)
        engine.submit(bert_workload("mnli", 4, seed=2), arrival_us=20.0)
        # Arrives after the first batch's (stale) deadline at 1000 but
        # within the successor batch's window (opened at 20).
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=1005.0)
        report = engine.run(policy="continuous")
        assert [b.size for b in report.batches] == [2, 2]


class TestReplicaPlacement:
    def test_least_loaded_placement_spreads_batches(self):
        engine = make_engine(replicas=2, max_batch_size=1,
                             batch_window_us=100.0)
        for s in range(4):
            engine.submit(bert_workload("mnli", 8, seed=s), arrival_us=0.0)
        report = engine.run(policy="continuous")
        used = [b.replica_id for b in report.batches]
        assert sorted(set(used)) == [0, 1]
        # Simultaneous closures alternate: each dispatch picks the replica
        # that frees up earliest (ties break toward the lowest id).
        assert used[0] == 0 and used[1] == 1

    def test_replicas_cut_makespan_under_backlog(self):
        def serve(replicas):
            cache = PlanCache()
            engine = make_engine(replicas=replicas, max_batch_size=1,
                                 batch_window_us=0.0, plan_cache=cache)
            for s in range(8):
                engine.submit(bert_workload("mnli", 8, seed=s % 2),
                              arrival_us=0.0)
            # Warm once so measured exec is not dominated by cold searches.
            engine.run(policy="continuous")
            for s in range(8):
                engine.submit(bert_workload("mnli", 8, seed=s % 2),
                              arrival_us=0.0)
            return engine.run(policy="continuous")

        single = serve(1)
        quad = serve(4)
        assert quad.makespan_us < single.makespan_us

    def test_replica_stats_account_all_batches(self):
        engine = make_engine(replicas=3)
        for s in range(6):
            engine.submit(bert_workload("mnli", 4, seed=s),
                          arrival_us=s * 3000.0)
        report = engine.run(policy="continuous")
        assert len(report.replica_stats) == 3
        assert sum(s.batches for s in report.replica_stats) == len(report.batches)
        assert sum(s.tokens for s in report.replica_stats) == report.total_tokens
        assert sum(s.busy_us for s in report.replica_stats) == pytest.approx(
            sum(b.exec_us for b in report.batches)
        )
        for s in report.replica_stats:
            assert 0.0 <= s.utilization <= 1.0

    def test_describe_mentions_replicas(self):
        engine = make_engine(replicas=2)
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run(policy="continuous")
        assert "replicas: 2" in report.describe()


class TestSharedPlanCache:
    def test_cold_search_on_one_replica_warms_all(self):
        """Same-signature batches landing on different replicas pay the
        Algorithm 1 search exactly once — the cache is engine-wide, not
        per-replica."""
        cache = PlanCache()
        engine = make_engine(replicas=4, max_batch_size=1,
                             batch_window_us=0.0, plan_cache=cache)
        for _ in range(8):
            engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        report = engine.run(policy="continuous")
        assert len({b.replica_id for b in report.batches}) == 4
        cold = [b for b in report.batches if b.cache_misses > 0]
        assert len(cold) == 1

    def test_scaling_out_adds_no_cold_searches(self):
        cache = PlanCache()

        def serve(replicas):
            engine = make_engine(replicas=replicas, plan_cache=cache,
                                 batch_window_us=1000.0)
            engine.submit_many(
                [bert_workload("mnli", 4, seed=s) for s in range(8)],
                interarrival_us=800.0,
            )
            return engine.run(policy="continuous")

        serve(1)
        misses_after_warmup = cache.misses
        report = serve(4)
        assert cache.misses == misses_after_warmup
        assert all(b.cache_misses == 0 for b in report.batches)


class TestContinuousVsDrain:
    def test_continuous_cuts_queueing_delay_under_light_load(self):
        cache = PlanCache()

        def serve(policy):
            engine = make_engine(plan_cache=cache, batch_window_us=1000.0)
            engine.submit_many(
                [bert_workload("mnli", 8, seed=s % 4) for s in range(16)],
                interarrival_us=5000.0,
            )
            return engine.run(policy=policy)

        serve("continuous")  # warm the plan cache
        drain = serve("drain")
        continuous = serve("continuous")
        assert continuous.p95_queue_us < drain.p95_queue_us
        assert continuous.mean_queue_us < drain.mean_queue_us

    def test_reports_carry_policy(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        assert engine.run(policy="continuous").policy == "continuous"
        engine.submit(bert_workload("mnli", 4, seed=0))
        assert engine.run().policy == "drain"

    def test_continuous_run_drains_queue(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        engine.run(policy="continuous")
        assert engine.pending() == 0

    def test_unknown_policy_rejected(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.run(policy="batch")


class TestAccounting:
    def test_every_request_reported_once_in_id_order(self):
        engine = make_engine(batch_window_us=500.0)
        handles = [
            engine.submit(bert_workload("mnli", 4, seed=s),
                          arrival_us=s * 700.0)
            for s in range(7)
        ]
        report = engine.run(policy="continuous")
        assert [r.request_id for r in report.requests] == [
            h.request_id for h in handles
        ]
        batched_ids = sorted(
            rid for b in report.batches for rid in b.request_ids
        )
        assert batched_ids == [h.request_id for h in handles]

    def test_queueing_delay_nonnegative_and_consistent(self):
        engine = make_engine(replicas=2, batch_window_us=1500.0)
        engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(6)],
            interarrival_us=1000.0,
        )
        report = engine.run(policy="continuous")
        for r in report.requests:
            assert r.queue_us >= 0
            assert r.start_us >= r.arrival_us
            assert r.latency_us == pytest.approx(r.queue_us + r.exec_us)

    def test_incompatible_signatures_keep_separate_open_batches(self):
        engine = make_engine(batch_window_us=4000.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(longformer_workload(seq_len=2048, batch_size=1, seed=0),
                      arrival_us=100.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=200.0)
        report = engine.run(policy="continuous")
        sizes = sorted(b.size for b in report.batches)
        assert sizes == [1, 2]

    def test_makespan_spans_first_start_to_last_completion(self):
        engine = make_engine(replicas=2)
        engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(5)],
            interarrival_us=2500.0,
        )
        report = engine.run(policy="continuous")
        first = min(b.start_us for b in report.batches)
        last = max(b.start_us + b.exec_us for b in report.batches)
        assert report.makespan_us == pytest.approx(last - first)


class TestSelectionOverlap:
    def _stream(self, engine):
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=500.0)
        engine.submit(bert_workload("cola", 4, seed=2), arrival_us=700.0)

    def test_cold_trace_saves_time(self):
        """A cold-heavy trace overlaps its Algorithm 1 searches with the
        open batching window / prior compute: the report must show a
        strictly positive saving, attributed to the replicas."""
        engine = make_engine(batch_window_us=1000.0)
        self._stream(engine)
        report = engine.run(policy="continuous")
        assert report.overlap_saved_us > 0
        assert sum(
            s.overlap_saved_us for s in report.replica_stats
        ) == pytest.approx(report.overlap_saved_us)
        assert sum(
            b.overlap_saved_us for b in report.batches
        ) == pytest.approx(report.overlap_saved_us)
        assert "overlap" in report.describe()

    def test_warm_trace_saves_exactly_zero(self):
        """When every signature hits the plan cache there is no search to
        hide — the saving must be exactly zero, not merely small."""
        cache = PlanCache()
        for _ in range(2):
            engine = make_engine(batch_window_us=1000.0, plan_cache=cache)
            self._stream(engine)
            report = engine.run(policy="continuous")
        assert all(b.cache_misses == 0 for b in report.batches)
        assert report.overlap_saved_us == 0.0

    def test_cold_batch_waits_for_its_search_tail(self):
        """Compute cannot start before the speculatively issued search
        finishes: ``start = max(close, issue + search)`` and the saving is
        ``min(window, search)`` — the search hid behind the open window."""
        engine = make_engine(batch_window_us=800.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        report = engine.run(policy="continuous")
        batch = report.batches[0]
        assert batch.start_us >= 800.0  # never before the batch closes
        if batch.start_us > 800.0:
            # The search outlived the window: the whole window was hidden.
            assert batch.overlap_saved_us == pytest.approx(800.0)
        else:
            # The search fit inside the window: all of it was hidden.
            assert 0.0 < batch.overlap_saved_us <= 800.0

    def test_overlap_disabled_restores_serial_accounting(self):
        engine = make_engine(batch_window_us=1000.0, overlap_selection=False)
        self._stream(engine)
        report = engine.run(policy="continuous")
        assert report.overlap_saved_us == 0.0
        # Serial accounting: the cold search is inside exec, and batches
        # start at their close time.
        cold = [b for b in report.batches if b.cache_misses > 0]
        assert cold and all(b.exec_us >= b.selection_us for b in cold)

    def test_speculation_counts_fold_into_batch_stats(self):
        """The open-time speculative lookups are attributed to the batch:
        a cold batch still reports cache_misses > 0 even though the merged
        workload resolved with hits at close time."""
        engine = make_engine(batch_window_us=500.0)
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        report = engine.run(policy="continuous")
        assert report.batches[0].cache_misses > 0

    def test_drain_policy_reports_zero_overlap(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run(policy="drain")
        assert report.overlap_saved_us == 0.0


class TestCostAwarePlacement:
    """Property tests for heterogeneous cost-aware placement."""

    @staticmethod
    def _stream(engine, n=10, gap_us=800.0):
        engine.submit_many(
            [bert_workload("mnli", 8, seed=s) for s in range(n)],
            interarrival_us=gap_us,
        )

    @staticmethod
    def _placement(report):
        """The deterministic placement record of a run."""
        return [
            (tuple(b.request_ids), b.replica_id, b.tokens, b.padded_tokens)
            for b in report.batches
        ]

    def test_identical_lineup_reproduces_least_loaded_exactly(self):
        """With all-identical replica specs the exec estimate is one
        constant per signature, so ordering by predicted finish collapses
        to the legacy (free_at, id) order: placement must match the
        least-loaded scheduler decision for decision."""
        def serve(placement):
            cache = PlanCache()
            engine = make_engine(
                replicas=3, placement=placement, plan_cache=cache,
                max_batch_size=2, batch_window_us=500.0,
                overlap_selection=False,
            )
            self._stream(engine)
            engine.run(policy="continuous")  # warm the plan cache
            self._stream(engine)
            return engine.run(policy="continuous")

        least_loaded = serve("least-loaded")
        cost_aware = serve("cost-aware")
        assert self._placement(cost_aware) == self._placement(least_loaded)
        assert [
            (s.replica_id, s.device, s.batches, s.tokens)
            for s in cost_aware.replica_stats
        ] == [
            (s.replica_id, s.device, s.batches, s.tokens)
            for s in least_loaded.replica_stats
        ]

    def test_faster_replica_never_receives_fewer_batches(self):
        """Under uniform traffic a strictly-faster device class must end up
        with at least as many batches as a strictly-slower one — the slow
        device is listed first so naive id-order ties would favour it."""
        from repro.hw import A100

        engine = make_engine(
            replica_specs=[V100, A100], max_batch_size=2,
            batch_window_us=500.0,
        )
        self._stream(engine, n=12, gap_us=600.0)
        report = engine.run(policy="continuous")
        by_id = {s.replica_id: s for s in report.replica_stats}
        assert by_id[0].device == V100.name
        assert by_id[1].device == A100.name
        assert by_id[1].batches >= by_id[0].batches

    def test_idle_fleet_prefers_the_faster_device(self):
        """A batch closing with every replica idle goes to the device that
        finishes it soonest, not to replica id 0."""
        from repro.hw import A100

        engine = make_engine(replica_specs=[V100, A100])
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run(policy="continuous")
        assert [b.replica_id for b in report.batches] == [1]

    def test_replica_stats_device_survives_round_trip(self):
        import dataclasses

        from repro.hw import A100
        from repro.runtime import ReplicaStats

        engine = make_engine(replica_specs=[A100, V100])
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run(policy="continuous")
        for stats in report.replica_stats:
            clone = ReplicaStats(**dataclasses.asdict(stats))
            assert clone == stats
        assert {s.device for s in report.replica_stats} == {
            A100.name, V100.name
        }

    def test_added_replicas_of_seen_classes_add_no_cold_searches(self):
        from repro.hw import A100

        cache = PlanCache()

        def serve(specs):
            # A same-instant backlog of identical singleton batches forces
            # every device class into service, so the warm-up run resolves
            # the traffic signature's plans for both classes (one seed:
            # the property under test is per (signature, class) coverage,
            # not per-seed signature drift).
            engine = make_engine(replica_specs=specs, plan_cache=cache,
                                 max_batch_size=1, batch_window_us=0.0)
            engine.submit_many(
                [bert_workload("mnli", 8, seed=0) for _ in range(8)],
                interarrival_us=0.0,
            )
            return engine.run(policy="continuous")

        warmup = serve([A100, V100])
        assert len({b.replica_id for b in warmup.batches}) == 2
        misses_after_warmup = cache.misses
        report = serve([A100, A100, V100, V100])
        assert cache.misses == misses_after_warmup
        assert all(b.cache_misses == 0 for b in report.batches)

    def test_describe_reports_device_classes(self):
        from repro.hw import A100

        engine = make_engine(replica_specs=[A100, V100])
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run(policy="continuous")
        text = report.describe()
        assert "device classes:" in text
        assert A100.name in text and V100.name in text
        per_class = report.device_class_stats()
        assert set(per_class) == {A100.name, V100.name}
        assert sum(agg["batches"] for agg in per_class.values()) == len(
            report.batches
        )


class TestSchedulerValidation:
    """The engine is the one validation point for scheduler settings."""

    def test_replica_count_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            ServingEngine(V100, replicas=0)

    def test_window_validated(self):
        with pytest.raises(ValueError, match="batch_window_us"):
            ServingEngine(V100, batch_window_us=-5.0)

    def test_placement_validated(self):
        with pytest.raises(ValueError, match="placement"):
            ServingEngine(V100, placement="nearest")

    def test_empty_queue_runs_clean(self):
        report = make_engine().run(policy="continuous")
        assert report.requests == []
        assert report.batches == []
        assert report.makespan_us == 0.0
