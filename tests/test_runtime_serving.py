"""Tests for the serving layer: dynamic batching + plan-cache amortization."""

import dataclasses

import numpy as np
import pytest

from repro.core import PlanCache, sparsity_signature
from repro.hw import V100
from repro.models import (
    bert_workload,
    longformer_workload,
    opt_inference_workload,
    switch_workload,
)
from repro.models.config import opt
from repro.models.workloads import Workload
from repro.runtime import InferenceRequest, ServingEngine, merge_workloads
from repro.sparsity import SIGNATURE_QUANTUM, MaskStats, RoutingTable


def make_engine(**kwargs):
    defaults = dict(max_batch_tokens=8192, max_batch_size=8)
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


class TestBatching:
    def test_compatible_requests_share_a_batch(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        engine.submit(bert_workload("mnli", 4, seed=1))
        batches = engine.plan_batches(engine._queue)
        assert len(batches) == 1
        assert len(batches[0]) == 2

    def test_incompatible_configs_do_not_batch(self):
        """Different architectures (and different activation-sparsity
        regimes) never share a batch."""
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        engine.submit(longformer_workload(seq_len=2048, batch_size=1, seed=0))
        batches = engine.plan_batches(engine._queue)
        assert len(batches) == 2
        assert all(len(b) == 1 for b in batches)

    def test_token_budget_splits_batches(self):
        engine = make_engine(max_batch_tokens=1024)
        for s in range(6):
            engine.submit(bert_workload("mnli", 4, seed=s))
        batches = engine.plan_batches(engine._queue)
        assert len(batches) > 1
        for batch in batches:
            max_len = max(r.max_len for r in batch)
            seqs = sum(r.workload.batch_size for r in batch)
            assert max_len * seqs <= 1024 or len(batch) == 1

    def test_batch_size_cap(self):
        engine = make_engine(max_batch_tokens=10**9, max_batch_size=3)
        for s in range(7):
            engine.submit(bert_workload("mnli", 2, seed=s))
        batches = engine.plan_batches(engine._queue)
        assert [len(b) for b in batches] == [3, 3, 1]

    def test_moe_workloads_co_batch_on_matching_routing_stats(self):
        """Same-architecture MoE requests whose routing load statistics
        agree to within a quantization bucket share a batch — their tables
        merge (``RoutingTable.merged``) instead of being refused."""
        engine = make_engine()
        engine.submit(switch_workload(8, 4, seed=0))
        engine.submit(switch_workload(8, 4, seed=0))
        batches = engine.plan_batches(engine._queue)
        assert len(batches) == 1
        assert len(batches[0]) == 2

    def test_moe_workloads_with_different_expert_counts_never_co_batch(self):
        engine = make_engine()
        engine.submit(switch_workload(8, 4, seed=0))
        engine.submit(switch_workload(16, 4, seed=0))
        batches = engine.plan_batches(engine._queue)
        assert len(batches) == 2

    def test_merged_moe_batch_serves_and_plans_grouped(self):
        engine = make_engine()
        engine.submit(switch_workload(8, 4, seed=0))
        engine.submit(switch_workload(8, 4, seed=0))
        report = engine.run()
        assert len(report.batches) == 1
        assert all(r.ok for r in report.requests)
        assert report.batches[0].plan_kinds.get("moe-grouped") is not None
        kinds = report.selection_summary()["plans_by_kind"]
        assert kinds["moe-grouped"]["resolved"] == 1

    def test_merge_concatenates_lengths(self):
        w1 = bert_workload("mnli", 4, seed=0)
        w2 = bert_workload("mnli", 4, seed=1)
        merged = merge_workloads([w1, w2])
        assert merged.batch_size == 8
        assert merged.total_tokens == w1.total_tokens + w2.total_tokens
        np.testing.assert_array_equal(
            merged.lengths, np.concatenate([w1.lengths, w2.lengths])
        )

    def test_merge_rejects_empty(self):
        with pytest.raises(ValueError):
            merge_workloads([])

    def test_merge_token_weight_averages_act_sparsity(self):
        w1 = opt_inference_workload("125m", 4, act_sparsity=0.9, seed=0)
        w2 = opt_inference_workload("125m", 4, act_sparsity=0.5, seed=1)
        merged = merge_workloads([w1, w2])
        expected = (
            0.9 * w1.total_tokens + 0.5 * w2.total_tokens
        ) / (w1.total_tokens + w2.total_tokens)
        assert merged.act_sparsity == pytest.approx(expected)

    def test_merge_of_zero_token_workloads_averages_evenly(self):
        """No tokens to weight by: the merge takes the plain mean (the
        weighted one divided by zero)."""
        w1, w2 = (
            Workload(config=opt("125m"), lengths=np.array([0, 0]),
                     act_sparsity=sparsity)
            for sparsity in (0.9, 0.5)
        )
        assert merge_workloads([w1, w2]).act_sparsity == pytest.approx(0.7)

    def test_merge_rejects_mixed_act_sparsity_regimes(self):
        w1 = opt_inference_workload("125m", 4, act_sparsity=0.9, seed=0)
        w2 = opt_inference_workload("125m", 4, seed=1)
        w2.act_sparsity = None  # Workload is a plain (mutable) dataclass
        with pytest.raises(ValueError, match="activation"):
            merge_workloads([w1, w2])

    def test_merge_averages_attention_stats(self):
        w1 = longformer_workload(seq_len=2048, batch_size=1, seed=0)
        w2 = longformer_workload(seq_len=2048, batch_size=1, seed=3)
        merged = merge_workloads([w1, w2])
        s1, s2, sm = w1.attn_stats, w2.attn_stats, merged.attn_stats
        assert sm.seq == s1.seq
        assert sm.nnz == int(round((s1.nnz + s2.nnz) / 2))
        lo, hi = sorted((s1.covered_micro, s2.covered_micro))
        assert lo <= sm.covered_micro <= hi

    def test_merge_rejects_mixed_attention_metadata(self):
        w1 = longformer_workload(seq_len=2048, batch_size=1, seed=0)
        w2 = longformer_workload(seq_len=2048, batch_size=1, seed=1)
        w2.attn_stats = None
        with pytest.raises(ValueError, match="attention"):
            merge_workloads([w1, w2])

    def test_merge_rejects_different_models(self):
        w1 = bert_workload("mnli", 4, seed=0)
        w2 = opt_inference_workload("125m", 4, seed=0)
        with pytest.raises(ValueError, match="different models"):
            merge_workloads([w1, w2])

    def test_merge_concatenates_moe_routing(self):
        w1 = switch_workload(8, 4, seed=0)
        w2 = switch_workload(8, 4, seed=1)
        merged = merge_workloads([w1, w2]).routing
        r1, r2 = w1.routing, w2.routing
        assert merged.layers == r1.layers == r2.layers
        assert merged.num_tokens == r1.num_tokens + r2.num_tokens
        np.testing.assert_array_equal(merged.counts, r1.counts + r2.counts)

    def test_merge_rejects_a_routing_table_next_to_none(self):
        w1 = switch_workload(8, 4, seed=0)
        w2 = dataclasses.replace(switch_workload(8, 4, seed=1), routing=None)
        with pytest.raises(ValueError, match="layer sets"):
            merge_workloads([w1, w2])

    def test_one_request_switch_batch_signs_its_table_once(self, monkeypatch):
        """Admission's batch signature and the batch's ``moe-grouped`` plan
        spec read the one signature of the request's routing table: a
        one-request batch merges to that same table, so it is computed
        once."""
        computed = []
        signature = RoutingTable.signature
        monkeypatch.setattr(
            signature, "func",
            lambda table, _sign=signature.func: (
                computed.append(table) or _sign(table)
            ),
        )
        engine = make_engine()
        workload = switch_workload(16, 2, seed=0)
        engine.submit(workload)
        report = engine.run()
        assert len(report.batches) == 1
        assert report.batches[0].plan_kinds.get("moe-grouped") is not None
        assert computed == [workload.routing]

    def test_lone_oversized_request_still_gets_a_batch(self):
        """A request bigger than the token budget cannot wait forever for a
        batch it will never fit — it runs alone."""
        engine = make_engine(max_batch_tokens=64)
        engine.submit(bert_workload("mnli", 4, seed=0))  # pads to ~184 > 64
        engine.submit(bert_workload("mnli", 4, seed=1))
        batches = engine.plan_batches(engine._queue)
        assert [len(b) for b in batches] == [1, 1]
        batched = sorted(r.request_id for b in batches for r in b)
        assert batched == [0, 1]

    def test_interleaved_signatures_accumulate_per_bucket(self):
        """A B A B A B arrival order yields one batch per signature, not
        six singletons — the open-batch bucket survives interleaving."""
        engine = make_engine()
        for s in range(3):
            engine.submit(bert_workload("mnli", 2, seed=s))
            engine.submit(longformer_workload(seq_len=2048, batch_size=1,
                                              seed=s))
        batches = engine.plan_batches(engine._queue)
        assert sorted(len(b) for b in batches) == [3, 3]
        for batch in batches:
            assert len({r.batch_signature() for r in batch}) == 1

    def test_size_cap_closes_before_token_budget(self):
        engine = make_engine(max_batch_tokens=10**9, max_batch_size=2)
        for s in range(5):
            engine.submit(bert_workload("mnli", 2, seed=s))
        batches = engine.plan_batches(engine._queue)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_token_budget_closes_before_size_cap(self):
        # Seeds 0/1/2 pad to 368/660 tokens for 2/3 co-batched requests.
        engine = make_engine(max_batch_tokens=500, max_batch_size=100)
        for s in range(3):
            engine.submit(bert_workload("mnli", 4, seed=s))
        batches = engine.plan_batches(engine._queue)
        assert [len(b) for b in batches] == [2, 1]


class TestServingRun:
    def test_per_request_reports_sum_to_engine_totals(self):
        engine = make_engine()
        for s in range(6):
            engine.submit(bert_workload("mnli", 4, seed=s), arrival_us=s * 500.0)
        report = engine.run()
        assert len(report.requests) == 6
        # Tokens: per-request sums equal per-batch sums equal the total.
        assert report.total_tokens == sum(b.tokens for b in report.batches)
        assert report.total_tokens == sum(r.tokens for r in report.requests)
        # Selection: amortized per-request shares sum back to batch totals.
        assert sum(r.selection_us for r in report.requests) == pytest.approx(
            report.total_selection_us
        )
        # Makespan: first batch start to last batch completion.
        assert report.makespan_us == pytest.approx(
            max(b.start_us + b.exec_us for b in report.batches)
            - report.batches[0].start_us
        )
        assert report.throughput_tokens_per_s > 0

    def test_zero_token_activation_sparse_request(self):
        """An empty activation covers nothing: the request is served, not a
        ``PlanSpec`` with ``m=0`` that fails the whole run."""
        engine = ServingEngine(V100, replicas=1, charge_selection=False)
        engine.submit(Workload(config=opt("125m"), lengths=np.array([0, 0]),
                               act_sparsity=0.9))
        report = engine.run(policy="continuous")
        assert len(report.requests) == 1
        assert report.requests[0].ok
        assert report.total_tokens == 0

    def test_queueing_delay_accounting(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=0.0)
        engine.submit(bert_workload("mnli", 4, seed=1), arrival_us=1000.0)
        report = engine.run()
        for r in report.requests:
            assert r.queue_us >= 0
            assert r.start_us >= r.arrival_us
            assert r.latency_us == pytest.approx(r.queue_us + r.exec_us)
        # Batched together: the earlier request waits for the later arrival.
        assert len(report.batches) == 1
        assert report.requests[0].queue_us >= 1000.0

    def test_plan_cache_amortizes_across_runs(self):
        cache = PlanCache()
        engine = make_engine(plan_cache=cache)
        for s in range(4):
            engine.submit(bert_workload("mnli", 8, seed=s))
        engine.run()
        misses_after_warmup = cache.misses
        for s in range(4):
            engine.submit(bert_workload("mnli", 8, seed=s))
        report = engine.run()
        # Steady state: the same traffic shape introduces no new plans.
        assert cache.misses == misses_after_warmup
        assert cache.stats()["hits"] > 0
        assert report.plan_cache_stats["hit_rate"] > 0

    def test_warm_batches_select_faster(self):
        engine = make_engine()
        for s in range(10):
            engine.submit(bert_workload("mnli", 8, seed=s))
        report = engine.run()
        summary = report.selection_summary()
        if summary["warm_batches"]:  # cold-only runs can't compare
            assert summary["warm_selection_us"] < summary["cold_selection_us"]

    def test_act_sparsity_stream_plans_ffn(self):
        cache = PlanCache()
        engine = make_engine(plan_cache=cache, max_batch_size=4)
        engine.submit(opt_inference_workload("125m", 4, seed=0))
        report = engine.run()
        # Two plans resolved: the token projection and the sparse-act FFN.
        assert report.batches[0].cache_misses == 2
        assert set(report.batches[0].plan_kinds) == {"proj", "ffn-act"}

    def test_attention_stream_plans_attention(self):
        """Serving resolves an attention plan from the workload's mask
        statistics through the same Planner as the projection plan."""
        cache = PlanCache()
        engine = make_engine(plan_cache=cache, max_batch_size=4)
        engine.submit(longformer_workload(seq_len=2048, batch_size=1, seed=0))
        report = engine.run()
        assert set(report.batches[0].plan_kinds) == {"proj", "attention"}
        kinds = report.selection_summary()["plans_by_kind"]
        assert kinds["attention"] == {"resolved": 1, "cold": 1}
        # A statistically alike request hits the cached attention plan.
        engine.submit(longformer_workload(seq_len=2048, batch_size=1, seed=5))
        report2 = engine.run()
        kinds2 = report2.selection_summary()["plans_by_kind"]
        assert kinds2["attention"] == {"resolved": 1, "cold": 0}

    def test_legacy_resolve_plan_shim_removed(self):
        """The one-release deprecation shim is gone: serving plans resolve
        only through each device class's planner as PlanSpecs."""
        assert not hasattr(ServingEngine, "_resolve_plan")


class TestPlanPersistence:
    def test_saved_cache_serves_warm_in_a_fresh_engine(self, tmp_path):
        """The acceptance property: a fresh engine constructed from
        ``PlanCache.load`` of a previous engine's dump serves the same
        traffic with zero cold searches — across every plan kind."""
        def traffic():
            wls = [bert_workload("mnli", 4, seed=s) for s in range(2)]
            wls += [opt_inference_workload("125m", 2, seed=0)]
            wls += [longformer_workload(seq_len=2048, batch_size=1, seed=0)]
            wls += [switch_workload(8, 2, seed=0)]
            return wls

        path = tmp_path / "plans.json"
        cold_cache = PlanCache()
        engine = make_engine(plan_cache=cold_cache, enforce_memory=False)
        engine.submit_many(traffic(), interarrival_us=1000.0)
        cold_report = engine.run()
        assert cold_cache.misses > 0
        saved = engine.save_plan_cache(path)
        assert saved["entries"] > 0 and saved["skipped"] == 0

        loaded = PlanCache.load(
            path, expected_tiledb_key=engine.tiledb.cache_key
        )
        fresh = make_engine(plan_cache=loaded, enforce_memory=False)
        fresh.submit_many(traffic(), interarrival_us=1000.0)
        warm_report = fresh.run()
        assert loaded.misses == 0
        assert warm_report.selection_summary()["cold_batches"] == 0
        # Identical traffic, identical plan mix.
        assert {k: v["resolved"] for k, v in
                warm_report.selection_summary()["plans_by_kind"].items()} == \
               {k: v["resolved"] for k, v in
                cold_report.selection_summary()["plans_by_kind"].items()}

    def test_load_rejects_foreign_tiledb_dump(self, tmp_path):
        path = tmp_path / "plans.json"
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        engine.run()
        engine.save_plan_cache(path)
        from repro.hw import A100
        from repro.core import TileDB

        other = TileDB.shared(A100, "float32")
        with pytest.raises(ValueError, match="does not match"):
            PlanCache.load(path, expected_tiledb_key=other.cache_key)

    def test_pit_backend_shares_engine_plan_cache(self):
        engine = make_engine()
        backend = engine.device_for_replica(0).backend
        assert backend.plan_cache is engine.plan_cache
        assert backend.planner.cache is engine.plan_cache

    def test_describe_mentions_hit_rate(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        report = engine.run()
        text = report.describe()
        assert "hit rate" in text
        assert "throughput" in text

    def test_run_drains_queue(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0))
        assert len(engine._queue) == 1
        engine.run()
        assert not engine._queue

    def test_request_ids_are_stable(self):
        engine = make_engine()
        r1 = engine.submit(bert_workload("mnli", 4, seed=0))
        r2 = engine.submit(bert_workload("mnli", 4, seed=1))
        assert (r1.request_id, r2.request_id) == (0, 1)
        report = engine.run()
        assert [r.request_id for r in report.requests] == [0, 1]


class TestArrivalClock:
    def test_submit_many_continues_the_arrival_clock(self):
        """A second stream must not arrive before already-queued requests."""
        engine = make_engine()
        first = engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(3)],
            interarrival_us=1000.0,
        )
        second = engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(3)],
            interarrival_us=500.0,
        )
        latest_first = max(r.arrival_us for r in first)
        assert all(r.arrival_us > latest_first for r in second)
        arrivals = [r.arrival_us for r in first + second]
        assert arrivals == sorted(arrivals)

    def test_first_stream_starts_at_zero(self):
        engine = make_engine()
        out = engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(3)],
            interarrival_us=250.0,
        )
        assert [r.arrival_us for r in out] == [0.0, 250.0, 500.0]

    def test_single_submit_advances_the_clock(self):
        engine = make_engine()
        engine.submit(bert_workload("mnli", 4, seed=0), arrival_us=9000.0)
        stream = engine.submit_many(
            [bert_workload("mnli", 4, seed=1)], interarrival_us=100.0
        )
        assert stream[0].arrival_us == pytest.approx(9100.0)

    @pytest.mark.parametrize("gap", [-800.0, float("nan"), float("inf")])
    def test_submit_many_rejects_a_bad_gap(self, gap):
        """A negative gap would queue the new stream before the old one."""
        engine = make_engine()
        engine.submit_many(
            [bert_workload("mnli", 4, seed=s) for s in range(2)],
            interarrival_us=1000.0,
        )
        with pytest.raises(ValueError, match="interarrival_us"):
            engine.submit_many(
                [bert_workload("mnli", 4, seed=s) for s in range(2)],
                interarrival_us=gap,
            )
        assert len(engine._queue) == 2


class TestFailureMetrics:
    @staticmethod
    def _report():
        from repro.runtime import RequestReport, ServingReport

        report = ServingReport()
        report.requests = [
            RequestReport(request_id=0, batch_id=0, tokens=100,
                          arrival_us=0.0, start_us=100.0, queue_us=100.0,
                          exec_us=900.0, selection_us=10.0),
            RequestReport(request_id=1, batch_id=1, tokens=100,
                          arrival_us=0.0, start_us=300.0, queue_us=300.0,
                          exec_us=700.0, selection_us=10.0),
            # A failed (OOM) request with an enormous apparent latency: it
            # must not leak into the SLO metrics.
            RequestReport(request_id=2, batch_id=2, tokens=100,
                          arrival_us=0.0, start_us=1e6, queue_us=1e6,
                          exec_us=1e6, selection_us=10.0, ok=False,
                          error="OOM"),
        ]
        report.makespan_us = 2000.0
        return report

    def test_latency_metrics_exclude_failed_requests(self):
        report = self._report()
        assert report.mean_latency_us == pytest.approx(1000.0)
        assert report.p95_latency_us == pytest.approx(1000.0)
        assert report.mean_queue_us == pytest.approx(200.0)
        assert report.p95_queue_us == pytest.approx(290.0)

    def test_failed_requests_counted_separately(self):
        report = self._report()
        assert report.failed_requests == 1
        assert report.completed_tokens == 200
        assert "failed: 1" in report.describe()

    def test_throughput_counts_only_completed_tokens(self):
        report = self._report()
        assert report.throughput_tokens_per_s == pytest.approx(
            200 / (2000.0 / 1e6)
        )


class TestSignatureQuantum:
    """Batching and plan caching bucket at one width,
    ``SIGNATURE_QUANTUM``, so requests judged batch-compatible also
    quantize to one plan signature."""

    @staticmethod
    def _attn_request(request_id, density):
        """A longformer request whose attention density is exactly set."""
        import dataclasses

        w = longformer_workload(seq_len=2048, batch_size=1, seed=0)
        nnz = int(round(density * w.attn_stats.seq ** 2))
        w.attn_stats = dataclasses.replace(w.attn_stats, nnz=nnz)
        return InferenceRequest(request_id, w)

    def test_default_quantum_buckets_together(self):
        a = self._attn_request(0, 0.300)
        b = self._attn_request(1, 0.306)
        assert a.batch_signature() == b.batch_signature()

    def test_a_bucket_apart_splits_batches_and_plans_alike(self):
        a = self._attn_request(0, 0.300)
        b = self._attn_request(1, 0.300 + SIGNATURE_QUANTUM)
        assert a.batch_signature() != b.batch_signature()
        plan_density = [
            r.workload.attn_stats.plan_signature()[1] for r in (a, b)
        ]
        assert plan_density[0] != plan_density[1]
        engine = make_engine()
        assert [len(batch) for batch in engine.plan_batches([a, b])] == [1, 1]

    @pytest.mark.parametrize(
        "offset,sizes",
        [(SIGNATURE_QUANTUM / 5, [2]), (SIGNATURE_QUANTUM, [1, 1])],
        ids=["same-bucket", "a-bucket-apart"],
    )
    def test_continuous_scheduler_batches_at_the_quantum(self, offset, sizes):
        """The continuous policy admits by the same signature: densities
        in one bucket share a batch, densities a bucket apart do not."""
        engine = make_engine(batch_window_us=4000.0)
        for rid, density in ((0, 0.300), (1, 0.300 + offset)):
            request = self._attn_request(rid, density)
            engine.submit(request.workload, arrival_us=rid * 100.0)
        report = engine.run(policy="continuous")
        assert sorted(b.size for b in report.batches) == sizes

    @staticmethod
    def _bucket(kind, share):
        """The bucket index one signature gives a share in ``[0, 1]``."""
        if kind == "batch":
            request = TestSignatureQuantum._attn_request(0, share)
            return request.batch_signature()[2][1]
        if kind == "plan":
            stats = MaskStats(
                seq=64, nnz=int(round(share * 64 * 64)), micro_w=32,
                covered_micro=64, block=32, covered_blocks=4,
                row_blocks_nonzero=2,
            )
            return stats.plan_signature()[1]
        if kind == "routing":
            live = int(round(share * 100))
            counts = np.array([1] * live + [0] * (100 - live))
            return RoutingTable((1,), counts[None], live).signature[2]
        mask = np.zeros(100 * 100, dtype=bool)
        mask[: int(round(share * mask.size))] = True
        return sparsity_signature([mask.reshape(100, 100)])[0]

    @pytest.mark.parametrize("kind", ["batch", "plan", "routing", "sparsity"])
    def test_every_signature_buckets_at_one_width(self, kind):
        """Batching, attention and MoE plans and Algorithm 1's sample
        signature all quantize a share into ``SIGNATURE_QUANTUM``-wide
        buckets, so no two of them disagree on what is alike."""
        base = self._bucket(kind, 0.30)
        assert self._bucket(kind, 0.30 + SIGNATURE_QUANTUM / 5) == base
        assert self._bucket(kind, 0.30 + SIGNATURE_QUANTUM) == base + 1


class TestTokenMask:
    def test_tiny_density_keeps_one_live_row(self):
        """Regression: one real token in a heavily padded batch rounded to
        zero live rows, feeding Algorithm 1 an all-false mask for a
        non-empty workload."""
        from repro.models.config import bert_base

        from repro.models.workloads import Workload

        engine = make_engine()
        # One 4096-token sequence among 4095 single-token ones: density
        # 8191 / (4096 * 4096) ~ 0.0005, which rounds to zero live rows.
        lengths = np.array([4096] + [1] * 4095)
        w = Workload(config=bert_base(), lengths=lengths)
        assert 0 < w.total_tokens / (w.max_len * w.batch_size) < 1 / 1024
        mask = engine._token_mask(w)
        assert mask.any()
        # Exactly the clamped single row, not some larger artifact.
        assert mask.sum() == mask.shape[1]

    def test_empty_workload_mask_stays_empty(self):
        from repro.models.config import bert_base

        from repro.models.workloads import Workload

        engine = make_engine()
        w = Workload(config=bert_base(), lengths=np.array([], dtype=int))
        assert not engine._token_mask(w).any()


class TestHeterogeneousEngine:
    def test_distinct_device_classes_share_backends(self):
        from repro.hw import A100

        engine = make_engine(replica_specs=[A100, A100, V100])
        assert engine.replicas == 3
        # Replicas of one class share the backend/TileDB/planner.
        d0, d1, d2 = (engine.device_for_replica(i) for i in range(3))
        assert d0 is d1
        assert d2 is not d0
        assert d0.tiledb.cache_key != d2.tiledb.cache_key

    def test_homogeneous_shorthand_is_one_class(self):
        engine = make_engine(replicas=3)
        assert engine.replicas == 3
        assert [d.spec for d in engine.replica_devices] == [V100, V100, V100]
        assert engine.device_for_replica(2) is engine.device_for_replica(0)
        assert (
            engine.device_for_replica(1).backend
            is engine.device_for_replica(0).backend
        )

    def test_conflicting_replica_counts_rejected(self):
        from repro.hw import A100

        with pytest.raises(ValueError, match="contradicts"):
            make_engine(replicas=3, replica_specs=[A100, V100])
        with pytest.raises(ValueError, match="at least one"):
            make_engine(replica_specs=[])
        with pytest.raises(ValueError, match="placement"):
            make_engine(placement="round-robin")

    def test_plan_resolution_targets_the_replica_device(self):
        """A batch executed on a V100 replica of an A100-primary engine
        resolves plans against the V100 tile database (and the resolved
        plan records that provenance)."""
        from repro.hw import A100

        engine = ServingEngine(
            A100,
            replica_specs=[A100, V100],
            max_batch_tokens=8192,
            max_batch_size=8,
        )
        w = bert_workload("mnli", 4, seed=0)
        plans, _, _, _ = engine._select_plans(
            w, engine.device_for_replica(1)
        )
        assert all(
            p.spec.tiledb_key == engine.device_for_replica(1).tiledb.cache_key
            for p in plans.values()
        )
        assert all(p.device == V100.name for p in plans.values())

    def test_estimate_exec_memoizes_per_class(self):
        from repro.hw import A100

        engine = make_engine(replica_specs=[V100, A100])
        w = bert_workload("mnli", 4, seed=0)
        sig = InferenceRequest(0, w).batch_signature()
        slow = engine.estimate_exec_us(sig, w, engine.device_for_replica(0))
        fast = engine.estimate_exec_us(sig, w, engine.device_for_replica(1))
        # A100 beats V100 on every axis, so the analytical estimate must
        # order the classes.
        assert fast < slow
        assert len(engine._exec_estimates) == 2
        engine.estimate_exec_us(sig, w, engine.device_for_replica(0))
        assert len(engine._exec_estimates) == 2

    def test_transient_estimates_do_not_seed_the_memo(self):
        """The scheduler's batch-open prediction prices with a single
        request (memoize=False): that must not install an entry the
        dispatch-time merged-batch pricing would then reuse."""
        engine = make_engine(replicas=2)
        w = bert_workload("mnli", 4, seed=0)
        sig = InferenceRequest(0, w).batch_signature()
        solo = engine.estimate_exec_us(
            sig, w, engine.device_for_replica(0), memoize=False
        )
        assert solo > 0
        assert len(engine._exec_estimates) == 0
        merged = merge_workloads([w, bert_workload("mnli", 4, seed=1)])
        est = engine.estimate_exec_us(
            sig, merged, engine.device_for_replica(0)
        )
        assert len(engine._exec_estimates) == 1
        # The memoized value is the merged batch's price, not the solo one.
        assert est > solo

    def test_pricing_does_not_touch_the_plan_cache(self):
        from repro.hw import A100

        cache = PlanCache()
        engine = make_engine(replica_specs=[V100, A100], plan_cache=cache)
        w = bert_workload("mnli", 4, seed=0)
        sig = InferenceRequest(0, w).batch_signature()
        before = (cache.stats()["hits"], cache.misses, len(cache))
        for i in range(2):
            engine.estimate_exec_us(sig, w, engine.device_for_replica(i))
        assert (cache.stats()["hits"], cache.misses, len(cache)) == before


class TestRequestSignatures:
    def test_same_model_same_signature(self):
        a = InferenceRequest(0, bert_workload("mnli", 4, seed=0))
        b = InferenceRequest(1, bert_workload("mnli", 4, seed=5))
        assert a.batch_signature() == b.batch_signature()

    def test_act_sparsity_changes_signature(self):
        a = InferenceRequest(0, opt_inference_workload("125m", 2, seed=0))
        b = InferenceRequest(
            1, opt_inference_workload("125m", 2, act_sparsity=0.5, seed=0)
        )
        assert a.batch_signature() != b.batch_signature()

    def test_attention_stats_quantized(self):
        """Longformer masks jitter seed to seed; same config must bucket."""
        a = InferenceRequest(0, longformer_workload(seq_len=2048, seed=0))
        b = InferenceRequest(1, longformer_workload(seq_len=2048, seed=3))
        assert a.batch_signature() == b.batch_signature()
