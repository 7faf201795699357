"""Tests for the process-level worker pool (`repro.runtime.cluster`).

Five properties carry the cluster subsystem:

* **Wire fidelity** — the codec round-trips every admission-path object
  (workloads, requests, reports, fault exceptions, plan-cache entries)
  bit-identically, and refuses live handles.
* **Cross-process determinism** — plan cache keys and fault-injector
  decisions are identical across processes with different
  ``PYTHONHASHSEED`` values, and forked children get fresh shared
  registries instead of aliasing the parent's.
* **Decision equivalence** — ``cluster_replay_trace`` over real worker
  processes reproduces the golden decision traces
  (``tests/fixtures/decision_goldens.json``), timings included, over
  seeds, heterogeneous lineups and injected faults.
* **Plan sync** — N workers pay the cold-search bill of one process;
  deltas keep every replica warm.
* **Worker failure** — a worker that dies mid-dispatch routes through
  ``resolve_failure`` exactly like an injected crash: zero lost
  requests, a counted failover and a quarantined replica; a failed
  start-up leaves no worker process behind.
"""

import dataclasses
import json
import multiprocessing
import os
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
from repro.models import bert_workload, switch_workload
from repro.models.workloads import longformer_workload, opt_inference_workload
from repro.runtime import (
    InferenceRequest,
    ResilienceConfig,
    ServingEngine,
    WorkerLostError,
    cluster_replay_trace,
    decision_trace,
    replay_trace,
)
from repro.runtime.cluster import worker as cluster_worker
from repro.runtime.cluster.codec import (
    decode_delta_entries,
    decode_exception,
    decode_wire,
    dispatch_message,
    encode_delta_entries,
    encode_wire,
)
from repro.runtime.cluster.transport import channel_pair
from repro.runtime.resilience import QUARANTINED, WorkerCrashFault
from repro.sparsity import Router, RoutingTable

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
    if a.routing is None:
        assert b.routing is None
    else:
        assert a.routing.layers == b.routing.layers
        assert np.array_equal(a.routing.counts, b.routing.counts)
        assert a.routing.counts.dtype == b.routing.counts.dtype
        assert a.routing.num_tokens == b.routing.num_tokens
    assert a.seed == b.seed


def dispatch_bytes(workload) -> int:
    """Serialized size of a one-request dispatch frame."""
    message = dispatch_message(
        [InferenceRequest(request_id=0, workload=workload)],
        batch_id=0,
        attempt=0,
        start_us=0.0,
        replica_id=0,
    )
    return len(json.dumps(message))


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
        )
        restored = decode_wire(encode_wire(request))
        assert restored.request_id == request.request_id
        assert restored.arrival_us == request.arrival_us
        assert_workload_equal(restored.workload, request.workload)

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
        )
        json.dumps(message)  # must not raise

    def test_dispatch_frame_carries_routing_statistics(self):
        # Routing crosses as per-expert counts plus a token count, so the
        # frame no longer grows with the batch's token count.
        small = dispatch_bytes(switch_workload(64, 2, seed=0))
        large = dispatch_bytes(switch_workload(64, 32, seed=0))
        assert small < 16 * 1024
        assert abs(large - small) <= 1024

    def test_capped_routing_round_trips_its_token_count(self):
        routing = Router(8, concentration=0.2, seed=3).route(512, (1, 3), seed=0)
        capped = RoutingTable(routing.layers, np.minimum(routing.counts, 32),
                              routing.num_tokens)
        assert capped.num_tokens > capped.counts.sum(axis=1).max()
        restored = decode_wire(json.loads(json.dumps(encode_wire(capped))))
        assert restored.num_tokens == capped.num_tokens == 512
        assert restored.layers == capped.layers == (1, 3)
        assert np.array_equal(restored.counts, capped.counts)


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
# Fork-aware shared registries (the PR's bugfix satellite)
# ----------------------------------------------------------------------
def _fork_registry_child(parent_db, conn):
    child_db = TileDB.shared(V100, "float32")
    conn.send({"db_is_parent": child_db is parent_db})
    conn.close()


class TestForkAwareRegistries:
    def test_forked_child_gets_fresh_registries(self):
        ctx = multiprocessing.get_context("fork")
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

    def test_figure_8_sized_moe_request_serves(self):
        # Switch-128 at batch 32 once built a 74.6 MiB dispatch frame, over
        # the transport's 64 MiB limit: the worker refused it and the
        # request failed with a broken pipe.
        workload = switch_workload(128, 32, seed=0)
        in_process = make_engine()
        in_process.submit(workload)
        expected = replay_trace(in_process)

        pooled = make_engine()
        pooled.submit(workload)
        report = cluster_replay_trace(pooled)
        assert [r.ok for r in report.requests] == [True]
        assert decision_trace(report, include_timing=True) == (
            decision_trace(expected, include_timing=True)
        )


# ----------------------------------------------------------------------
# Worker failure: a dead process is just another crash fault
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_worker_dying_mid_dispatch_fails_over(self, monkeypatch):
        # The patch is in place before the workers fork, so replica 1's
        # worker exits the moment a dispatch reaches it.
        run_dispatch = cluster_worker._run_dispatch

        def exit_on_replica_1(engine, cache, message):
            if message["replica_id"] == 1:
                os._exit(9)
            return run_dispatch(engine, cache, message)

        monkeypatch.setattr(cluster_worker, "_run_dispatch", exit_on_replica_1)
        engine = make_engine(
            max_batch_size=1,
            resilience=ResilienceConfig(max_retries=2),
        )
        engine.submit_many(
            [bert_workload("mnli", 2)] * 4, interarrival_us=100.0
        )
        report = cluster_replay_trace(engine)

        assert len(report.requests) == 4
        assert all(r.ok for r in report.requests)
        assert report.retries >= 1
        assert report.failovers >= 1
        states = [
            state for _, replica_id, state in report.health_timeline
            if replica_id == 1
        ]
        assert QUARANTINED in states

    def test_failed_startup_shuts_every_worker_down(self, monkeypatch):
        monkeypatch.setattr(
            cluster_worker.WorkerProcess, "ping",
            lambda self, timeout=None: False,
        )
        engine = make_engine()
        engine.submit(bert_workload("mnli", 2))
        with pytest.raises(WorkerLostError):
            cluster_replay_trace(engine)
        assert multiprocessing.active_children() == []
