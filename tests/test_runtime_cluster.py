"""Tests for the process-level worker pool (`repro.runtime.cluster`).

Five properties carry the cluster subsystem:

* **Wire fidelity** — the codec round-trips every admission-path object
  (workloads, requests, reports, fault configs, plan-cache entries)
  bit-identically, and refuses live handles.
* **Cross-process determinism** — plan cache keys and fault-injector
  decisions are identical across processes with different
  ``PYTHONHASHSEED`` values, and forked children get fresh shared
  registries instead of aliasing the parent's.
* **Decision equivalence** — ``cluster_replay_trace`` over real worker
  processes reproduces the golden decision traces
  (``tests/fixtures/decision_goldens.json``), timings included, over
  seeds, heterogeneous lineups and injected faults.
* **Single-flight plan sync** — N workers pay the cold-search bill of
  one process; deltas keep every replica warm.
* **Crash resilience** — a SIGKILL'd worker routes through
  ``resolve_failure`` exactly like an injected crash: zero lost
  requests, a counted failover, and the quarantine -> half-open ->
  healthy ladder once the worker respawns.
"""

import asyncio
import dataclasses
import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import decision_goldens
from repro.core.tiledb import TileDB
from repro.hw import V100
from repro.hw.costmodel import predicted_finish_us, transport_adjusted_finish_us
from repro.models import bert_workload, switch_workload
from repro.models.workloads import longformer_workload, opt_inference_workload
from repro.runtime import (
    ClusterConfig,
    ClusterFrontend,
    FaultSpec,
    InferenceRequest,
    ResilienceConfig,
    ServingEngine,
    WorkerLostError,
    cluster_replay_trace,
    decision_trace,
    serve_cluster,
)
from repro.runtime.cluster.codec import (
    decode_delta_entries,
    decode_exception,
    decode_wire,
    dispatch_message,
    encode_delta_entries,
    encode_wire,
)
from repro.runtime.cluster.transport import channel_pair
from repro.runtime.resilience import (
    HALF_OPEN,
    HEALTHY,
    QUARANTINED,
    WorkerCrashFault,
)

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def make_engine(**kwargs):
    defaults = dict(
        max_batch_tokens=8192,
        max_batch_size=4,
        batch_window_us=1500.0,
        enforce_memory=False,
        replicas=2,
        overlap_selection=False,
        charge_selection=False,
    )
    defaults.update(kwargs)
    return ServingEngine(V100, **defaults)


def mixed_trace(engine, n=8, interarrival_us=400.0):
    workloads = []
    for i in range(n):
        if i % 4 == 0:
            workloads.append(
                opt_inference_workload("125m", batch_size=2, seed=i)
            )
        elif i % 4 == 2:
            workloads.append(switch_workload(8, batch_size=2, seed=i))
        else:
            workloads.append(bert_workload("mnli", 2, seed=i))
    return engine.submit_many(workloads, interarrival_us=interarrival_us)


def assert_workload_equal(a, b):
    assert a.config == b.config
    assert np.array_equal(a.lengths, b.lengths)
    assert a.act_sparsity == b.act_sparsity
    assert a.attn_stats == b.attn_stats
    assert sorted(a.routing_by_layer) == sorted(b.routing_by_layer)
    for layer, routing in a.routing_by_layer.items():
        other = b.routing_by_layer[layer]
        assert np.array_equal(routing.assignment, other.assignment)
        assert np.array_equal(routing.counts, other.counts)
        assert np.array_equal(routing.probs, other.probs)
    assert a.seed == b.seed


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
class TestCodec:
    @pytest.mark.parametrize(
        "workload",
        [
            bert_workload("mnli", 3, seed=7),
            opt_inference_workload("125m", batch_size=2, seed=3),
            switch_workload(8, batch_size=2, seed=5),
            longformer_workload("base", seq_len=1024, seed=2),
        ],
        ids=["dense", "act-sparse", "moe", "attention"],
    )
    def test_workload_round_trip(self, workload):
        assert_workload_equal(workload, decode_wire(encode_wire(workload)))

    def test_request_round_trip(self):
        request = InferenceRequest(
            request_id=11,
            workload=switch_workload(8, batch_size=2, seed=1),
            arrival_us=1234.5,
            deadline_us=99999.0,
        )
        restored = decode_wire(encode_wire(request))
        assert restored.request_id == request.request_id
        assert restored.arrival_us == request.arrival_us
        assert restored.deadline_us == request.deadline_us
        assert_workload_equal(restored.workload, request.workload)

    def test_resilience_config_round_trip(self):
        config = ResilienceConfig(
            max_retries=3,
            retry_backoff_us=250.0,
            fault=FaultSpec(
                99, crash_prob=0.1, outages=((1, 2000.0, 4000.0),)
            ),
        )
        restored = decode_wire(encode_wire(config))
        assert restored == config

    def test_plan_cache_entries_round_trip(self):
        engine = make_engine(replicas=1)
        engine.submit(bert_workload("mnli", 2, seed=0))
        engine.run(policy="continuous")
        pairs = engine.plan_cache.entries()
        assert pairs, "warm run should have populated the cache"
        restored = decode_delta_entries(encode_delta_entries(pairs))
        assert restored == pairs

    def test_reports_round_trip_through_dispatch_reply(self):
        engine = make_engine(replicas=1)
        engine.submit(switch_workload(8, batch_size=2, seed=4))
        report = engine.run(policy="continuous")
        batch = report.batches[0]
        restored = decode_wire(encode_wire(batch))
        # The execution timeline is deliberately dropped on the wire (it is
        # diagnostic bulk, not a decision input); everything else survives.
        assert restored.run.timeline.reports == []
        for field in dataclasses.fields(restored.run):
            if field.name == "timeline":
                continue
            assert getattr(restored.run, field.name) == (
                getattr(batch.run, field.name)
            ), field.name
        for field in dataclasses.fields(restored):
            if field.name == "run":
                continue
            assert getattr(restored, field.name) == (
                getattr(batch, field.name)
            ), field.name
        request = report.requests[0]
        assert decode_wire(encode_wire(request)) == request

    def test_live_handles_are_rejected(self):
        with pytest.raises(TypeError):
            encode_wire(threading.Event())
        with pytest.raises(TypeError):
            encode_wire({"callback": (lambda: None)})

    def test_fault_exceptions_rebuild_by_name(self):
        exc = decode_exception("WorkerCrashFault", "replica 1 crashed")
        assert isinstance(exc, WorkerCrashFault)
        generic = decode_exception("KeyError", "boom")
        assert isinstance(generic, RuntimeError)
        assert "KeyError" in str(generic)

    def test_dispatch_message_is_json_ready(self):
        request = InferenceRequest(
            request_id=0, workload=bert_workload("mnli", 2, seed=0)
        )
        message = dispatch_message(
            [request],
            batch_id=3,
            attempt=1,
            start_us=500.0,
            replica_id=2,
            workload=request.workload,
            await_keys=[("plan", "proj")],
        )
        json.dumps(message)  # must not raise


# ----------------------------------------------------------------------
# Transport framing
# ----------------------------------------------------------------------
class TestChannel:
    def test_framed_round_trip_preserves_order(self):
        a, b = channel_pair()
        try:
            for i in range(5):
                a.send({"type": "ping", "seq": i})
            for i in range(5):
                assert b.recv() == {"type": "ping", "seq": i}
        finally:
            a.close()
            b.close()

    def test_peer_close_surfaces_as_worker_lost(self):
        a, b = channel_pair()
        a.close()
        with pytest.raises(WorkerLostError):
            b.recv()
        with pytest.raises(WorkerLostError):
            a.send({"type": "ping"})
        b.close()

    def test_recv_timeout_is_distinguishable_from_death(self):
        a, b = channel_pair()
        try:
            b.settimeout(0.05)
            with pytest.raises(socket.timeout):
                b.recv()
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Transport cost model
# ----------------------------------------------------------------------
class TestTransportCost:
    def test_zero_overhead_matches_predicted_finish(self):
        assert transport_adjusted_finish_us(
            100.0, 50.0, 400.0, 0.0
        ) == predicted_finish_us(100.0, 50.0, 400.0)

    def test_overhead_is_additive(self):
        base = predicted_finish_us(100.0, 50.0, 400.0)
        assert transport_adjusted_finish_us(100.0, 50.0, 400.0, 75.0) == (
            base + 75.0
        )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError, match="transport_overhead_us"):
            transport_adjusted_finish_us(0.0, 0.0, 1.0, -1.0)


# ----------------------------------------------------------------------
# Fork-aware shared registries (the PR's bugfix satellite)
# ----------------------------------------------------------------------
def _fork_registry_child(parent_db, conn):
    child_db = TileDB.shared(V100, "float32")
    conn.send({"db_is_parent": child_db is parent_db})
    conn.close()


class TestForkAwareRegistries:
    def test_forked_child_gets_fresh_registries(self):
        ctx = multiprocessing.get_context("fork")
        TileDB.clear_shared()
        parent_db = TileDB.shared(V100, "float32")
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_fork_registry_child, args=(parent_db, send_conn)
        )
        proc.start()
        send_conn.close()
        result = recv_conn.recv()
        proc.join(30)
        assert proc.exitcode == 0
        # The child rebuilt the registry: same lookup key, new object.
        assert not result["db_is_parent"]
        # The parent's registry is untouched.
        assert TileDB.shared(V100, "float32") is parent_db
        TileDB.clear_shared()


# ----------------------------------------------------------------------
# Cross-process determinism under PYTHONHASHSEED (the PR's test satellite)
# ----------------------------------------------------------------------
_HASHSEED_PROBE = """
import json
from repro.hw import V100
from repro.models import bert_workload, switch_workload
from repro.runtime import FaultInjector, FaultSpec, ServingEngine

engine = ServingEngine(
    V100, max_batch_tokens=8192, max_batch_size=4, enforce_memory=False,
    replicas=1, overlap_selection=False, charge_selection=False,
)
tiledb_key = engine.device_for_replica(0).tiledb.cache_key
keys = []
for workload in (
    bert_workload("mnli", 2, seed=0),
    switch_workload(8, batch_size=2, seed=1),
):
    for spec, _ in engine._plan_requests(workload, tiledb_key):
        keys.append(repr(spec.cache_key()))
injector = FaultInjector(
    FaultSpec(77, crash_prob=0.25, transient_prob=0.25, straggler_prob=0.2)
)
grid = []
for replica_id in range(3):
    for batch_id in range(6):
        try:
            injector.exec_fault(replica_id, batch_id, 0, 1000.0 * batch_id)
            grid.append("ok")
        except Exception as exc:
            grid.append(type(exc).__name__)
        grid.append(round(injector.slowdown(replica_id, batch_id, 0), 9))
print(json.dumps({"keys": keys, "grid": grid}, sort_keys=True))
"""


class TestCrossProcessDeterminism:
    def test_cache_keys_and_fault_decisions_survive_hash_randomization(self):
        outputs = []
        for hashseed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-c", _HASHSEED_PROBE],
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        decoded = json.loads(outputs[0])
        assert decoded["keys"], "probe should emit plan keys"
        assert any(entry != "ok" for entry in decoded["grid"][::2]), (
            "probe probabilities should inject at least one fault"
        )


# ----------------------------------------------------------------------
# Decision equivalence: every driver against the golden decision traces
# ----------------------------------------------------------------------
def assert_drivers_match_golden(case):
    """The process pool and both in-process drivers reproduce the golden."""
    golden = decision_goldens.load()[case]
    for driver in ("cluster", "run", "replay"):
        observed = decision_goldens.serve(case, driver)
        assert observed == decision_goldens.comparable(golden, driver), (
            f"{driver} diverged on {case}"
        )
    return golden


class TestClusterReplayEquivalence:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("lineup", ["heterogeneous", "homogeneous"])
    def test_decision_identical_to_simulated_scheduler(self, seed, lineup):
        assert_drivers_match_golden(f"cluster-{lineup}-{seed}")

    def test_decision_identical_under_fault_injection(self):
        golden = assert_drivers_match_golden("cluster-faulted")
        assert golden["retries"] > 0, "seed 1234 should exercise retries"

    def test_cold_searches_bounded_by_single_process_count(self):
        sim = make_engine(replicas=1)
        mixed_trace(sim, n=6)
        sim_report = sim.run(policy="continuous")

        clu = make_engine(replicas=3)
        mixed_trace(clu, n=6)
        clu_report = cluster_replay_trace(clu)

        sim_misses = sum(b.cache_misses for b in sim_report.batches)
        clu_misses = sum(b.cache_misses for b in clu_report.batches)
        # Three worker processes, each with a private cache, together pay
        # no more cold searches than the one-replica run: the deltas carry
        # every resolved plan (and memo) to the whole fleet.
        assert clu_misses <= sim_misses


# ----------------------------------------------------------------------
# Live serving over real processes
# ----------------------------------------------------------------------
class TestLiveCluster:
    def test_live_fleet_shares_cold_searches(self):
        workload = bert_workload("mnli", 2, seed=0)
        single = make_engine(replicas=1, max_batch_size=1)
        single_report = serve_cluster(single, [workload] * 4)
        assert all(r.ok for r in single_report.requests)
        single_misses = sum(b.cache_misses for b in single_report.batches)

        fleet = make_engine(replicas=2, max_batch_size=1)
        fleet_report = serve_cluster(fleet, [workload] * 4)
        assert all(r.ok for r in fleet_report.requests)
        fleet_misses = sum(b.cache_misses for b in fleet_report.batches)

        assert single_misses > 0
        # Identical signatures everywhere: the owner searches once and the
        # delta keeps every other batch (on either worker) warm.
        assert fleet_misses == single_misses
        # The host cache absorbed the deltas too.
        assert len(fleet.plan_cache) > 0

    def test_live_report_covers_every_request(self):
        engine = make_engine(replicas=2)
        workloads = [
            bert_workload("mnli", 2, seed=i) if i % 2 else
            switch_workload(8, batch_size=2, seed=i)
            for i in range(4)
        ]
        report = serve_cluster(engine, workloads)
        assert len(report.requests) == 4
        assert all(r.ok for r in report.requests)
        ids = [r.request_id for r in report.requests]
        assert len(set(ids)) == len(ids)


# ----------------------------------------------------------------------
# SIGKILL chaos: a real dead process is just another crash fault
# ----------------------------------------------------------------------
class TestWorkerKill:
    def test_sigkill_routes_through_resolve_failure(self):
        resilience = ResilienceConfig(
            max_retries=2,
            retry_backoff_us=1000.0,
            failure_detect_us=100.0,
            quarantine_after=1,
            quarantine_us=200_000.0,
            suspect_penalty_us=1000.0,
        )
        engine = make_engine(
            replicas=2, max_batch_size=1, resilience=resilience
        )
        cluster = ClusterConfig(
            heartbeat_interval_s=0.02,
            heartbeat_timeout_s=0.25,
            exec_delay_s=0.25,
        )

        async def run():
            frontend = ClusterFrontend(engine, cluster=cluster)
            await frontend.start()
            try:
                # Warm wave: both replicas execute, plans sync.
                warm = [
                    await frontend.submit(bert_workload("mnli", 2, seed=s))
                    for s in (0, 1)
                ]
                await frontend.drain()
                await asyncio.gather(*warm)

                # Victim dispatch: wait until it is on the wire, then
                # SIGKILL the worker mid-execution.
                fut = await frontend.submit(bert_workload("mnli", 2, seed=2))
                victim = None
                for _ in range(400):
                    for replica_id in (0, 1):
                        if frontend.dispatch_inflight(replica_id) is not None:
                            victim = replica_id
                            break
                    if victim is not None:
                        break
                    await asyncio.sleep(0.005)
                assert victim is not None, "dispatch never reached a worker"
                pid = frontend.worker_pid(victim)
                os.kill(pid, signal.SIGKILL)
                await frontend.drain()
                victim_report = await fut

                # Give the respawned worker time to pass quarantine.
                await asyncio.sleep(0.35)
                burst = [
                    await frontend.submit(bert_workload("mnli", 2, seed=s))
                    for s in range(3, 9)
                ]
                await frontend.drain()
                burst_reports = await asyncio.gather(*burst)
                return frontend.report(), victim, victim_report, burst_reports
            finally:
                await frontend.stop()

        report, victim, victim_report, burst_reports = asyncio.run(run())

        # Zero lost requests: the killed batch retried onto the peer.
        assert victim_report.ok
        assert victim_report.retries >= 1
        assert all(r.ok for r in burst_reports)
        assert len(report.requests) == 9
        assert all(r.ok for r in report.requests)
        ids = [r.request_id for r in report.requests]
        assert len(set(ids)) == len(ids)
        assert report.failovers >= 1

        # The breaker walked the same ladder an injected crash walks.
        states = [
            state for _, replica_id, state in report.health_timeline
            if replica_id == victim
        ]
        assert QUARANTINED in states
        tail = states[states.index(QUARANTINED):]
        assert HALF_OPEN in tail
        assert HEALTHY in tail[tail.index(HALF_OPEN):]
