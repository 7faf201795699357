"""Tests for the thread-safe PlanCache.

The concurrency contract the live serving front end rests on:

* a cold Algorithm 1 search never head-of-line-blocks warm lookups (the
  single-flight protocol releases the cache's one lock around
  ``compute``);
* concurrent resolves of one key run the search exactly once, and the
  hit/miss totals match the sequential schedule;
* ``capacity`` holds exactly and eviction is least recently used first;
* the shared-cache registry survives being hammered from threads;
* persistence: a revived dump keeps its newest ``capacity`` entries, and
  multi-class dumps validate against every device class they contain.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.analysis import load_corpus, static_lock_order
from repro.analysis.runtime_checks import (
    debug_locks_installed,
    verify_against_static,
)
from repro.core import PlanCache, PlanCacheLoadError, Planner, TileDB
from repro.core.plan import encode_value
from repro.hw import A100, V100
from repro.sparsity import granular_mask

_SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def tiledb():
    return TileDB.shared(V100, "float32")


@pytest.fixture(scope="module")
def static_lock_edges():
    return static_lock_order(
        load_corpus([str(_SRC)], root=str(_SRC.parent))
    )["edges"]


@pytest.fixture
def lock_order_audit(static_lock_edges):
    """Run the test with audited locks; afterwards, every acquisition-order
    edge the threads actually produced must be predicted by the static
    lock-order graph (pitlint's lock-discipline rule)."""
    with debug_locks_installed():
        yield
        assert verify_against_static(static_lock_edges) == []


@pytest.mark.usefixtures("lock_order_audit")
class TestPlanCacheContention:
    def test_cold_search_does_not_block_warm_hits(self):
        """Single-flight releases the cache's lock during compute, so warm
        lookups, inserts and size reads all proceed during a cold search."""
        cache = PlanCache()
        cold_key = ("plan", "proj", 128, 64, 64, "A", (1,), True, "db")
        warm_key = ("plan", "proj", 128, 64, 64, "A", (2,), True, "db")
        other_key = ("plan", "proj", 128, 64, 64, "A", (3,), True, "db")
        cache.put(warm_key, "warm-value")

        in_search = threading.Event()
        release_search = threading.Event()

        def slow_search():
            in_search.set()
            assert release_search.wait(timeout=30.0)
            return "cold-value"

        owner = threading.Thread(
            target=lambda: cache.get_or_compute(cold_key, slow_search)
        )
        owner.start()
        try:
            assert in_search.wait(timeout=30.0)
            # The cold search is in flight right now.  Warm traffic must
            # complete without waiting for it — if the lock were held
            # across the search, this join would time out.
            warm_result = []

            def warm_traffic():
                warm_result.append(cache.get(warm_key))
                cache.put(other_key, "other-value")
                warm_result.append(len(cache))

            reader = threading.Thread(target=warm_traffic)
            reader.start()
            reader.join(timeout=30.0)
            assert not reader.is_alive(), (
                "warm lookup blocked behind a cold search"
            )
            assert warm_result == ["warm-value", 2]
        finally:
            release_search.set()
            owner.join(timeout=30.0)
        assert cache.get(cold_key) == "cold-value"

    def test_single_flight_runs_the_search_once(self):
        """N concurrent resolvers of one key: one search, N-1 hits."""
        cache = PlanCache()
        key = ("plan", "proj", 128, 64, 64, "A", (7,), True, "db")
        computes = []
        barrier = threading.Barrier(8)
        results = []

        def resolve():
            barrier.wait()
            value, hit = cache.get_or_compute(
                key, lambda: computes.append(1) or "value"
            )
            results.append((value, hit))

        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert len(computes) == 1
        assert all(value == "value" for value, _ in results)
        # Exactly one caller owned the miss; everyone else hit.
        assert sum(1 for _, hit in results if not hit) == 1
        assert cache.misses == 1
        assert cache.stats()["hits"] == 7

    def test_counters_and_capacity_survive_a_thread_storm(self):
        """More threads than cores, a tiny switch interval, and more keys
        than capacity: a lost update on an entry or a counter would break
        the books below."""
        cache = PlanCache()
        keys = [
            ("plan", "proj", 1, 1, 1, "A", (signature,), "db")
            for signature in range(PlanCache.CAPACITY + 16)
        ]
        barrier = threading.Barrier(8)
        tallies = []

        def storm(offset):
            hits = misses = 0
            barrier.wait()
            for i in range(200):
                key = keys[(7 * i + offset) % len(keys)]
                value, hit = cache.get_or_compute(key, lambda k=key: k[6])
                assert value == key[6]
                hits, misses = hits + hit, misses + (not hit)
            tallies.append((hits, misses))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=storm, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert len(tallies) == 8
        stats = cache.stats()
        assert stats["hits"] == sum(h for h, _ in tallies)
        assert stats["misses"] == sum(m for _, m in tallies)
        assert stats["hits"] + stats["misses"] == 8 * 200
        # Every miss inserted one new key; every eviction removed one.
        assert stats["size"] == PlanCache.CAPACITY
        assert stats["misses"] - stats["evictions"] == stats["size"]

    def test_failed_search_propagates_and_releases_waiters(self):
        cache = PlanCache()
        key = ("plan", "proj", 128, 64, 64, "A", (9,), True, "db")

        def boom():
            raise ValueError("no samples")

        with pytest.raises(ValueError, match="no samples"):
            cache.get_or_compute(key, boom)
        # The key is not poisoned: a later compute succeeds.
        value, hit = cache.get_or_compute(key, lambda: "ok")
        assert value == "ok" and not hit

    def test_failed_insert_releases_the_search_claim(self):
        """An owner whose insert raises after a successful search still
        drops its in-flight claim: a later resolve of the key searches
        again instead of waiting forever on the dead owner."""

        class FailingPut(PlanCache):
            fail = True

            def put(self, key, value):
                if self.fail:
                    raise MemoryError("insert failed")
                super().put(key, value)

        cache = FailingPut()
        key = ("plan", "proj", 128, 64, 64, "A", (10,), True, "db")
        with pytest.raises(MemoryError):
            cache.get_or_compute(key, lambda: "lost")
        cache.fail = False
        result = []
        retry = threading.Thread(
            target=lambda: result.append(
                cache.get_or_compute(key, lambda: "ok")
            ),
            daemon=True,
        )
        retry.start()
        retry.join(timeout=30.0)
        assert not retry.is_alive(), "resolve waited on a dead owner"
        assert result == [("ok", False)]

    def test_sequential_counters_match_legacy(self):
        """get/put/get_or_compute counting is unchanged single-threaded."""
        cache = PlanCache()
        key = ("plan", "proj", 128, 64, 64, "A", (3,), True, "db")
        assert cache.get(key) is None
        value, hit = cache.get_or_compute(key, lambda: "v")
        assert (value, hit) == ("v", False)
        assert cache.get(key) == "v"
        # One miss from the empty get, one from the owning compute, one hit
        # from the warm get.
        assert (cache.stats()["hits"], cache.misses) == (1, 2)

    def test_eviction_is_exact_lru(self):
        """Capacity holds exactly, and what survives is the newest entries
        in recency order."""
        cache = PlanCache()
        keys = [
            ("plan", "proj", 1, 1, 1, "A", (signature,), "db")
            for signature in range(PlanCache.CAPACITY + 28)
        ]
        for signature, key in enumerate(keys):
            cache.put(key, signature)
        assert len(cache) == PlanCache.CAPACITY
        assert cache.stats()["evictions"] == 28
        assert cache.entries() == [(key, 28 + i) for i, key in enumerate(keys[28:])]


@pytest.mark.usefixtures("lock_order_audit")
class TestSharedRegistryThreadSafety:
    def test_tiledb_shared_from_threads(self):
        barrier = threading.Barrier(8)
        instances = []

        def hammer():
            barrier.wait()
            instances.append(TileDB.shared(V100, "float32"))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert len({id(db) for db in instances}) == 1


class TestPersistence:
    def _planner_with_plan(self, tiledb, cache, seed=0):
        planner = Planner(tiledb, cache)
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=seed)
        spec = planner.make_spec("proj", [mask], 256, 256, 256)
        resolved = planner.resolve(spec, lambda: [mask])
        return planner, spec, resolved

    def test_multi_class_dump_serves_every_class_warm(self, tiledb, tmp_path):
        """A mixed lineup's cache is stamped with its primary class only;
        each entry keeps its own class's TileDB key, so every class
        resolves warm from the revived cache."""
        other = TileDB.shared(A100, "float32")
        cache = PlanCache()
        _, spec, _ = self._planner_with_plan(tiledb, cache, seed=0)
        _, other_spec, _ = self._planner_with_plan(other, cache, seed=0)
        path = tmp_path / "plans.json"
        cache.save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        assert payload["tiledb_key"] == encode_value(tuple(tiledb.cache_key))
        loaded = PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert not Planner(tiledb, loaded).resolve(spec).cold
        assert not Planner(other, loaded).resolve(other_spec).cold
        assert loaded.misses == 0

    def test_format_1_dump_is_unsupported(self, tiledb, tmp_path):
        """Dumps written before sharding (format 1) fail as an unsupported
        format: a plain ValueError, not a corruption error."""
        path = tmp_path / "plans.json"
        payload = {
            "format": 1,
            "capacity": 16,
            "quantum": 0.05,
            "tiledb_key": encode_value(tuple(tiledb.cache_key)),
            "entries": [],
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported") as excinfo:
            PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert not isinstance(excinfo.value, PlanCacheLoadError)

    def test_format_2_dump_is_unsupported(self, tiledb, tmp_path):
        """The sharded cache's dumps (format 2, with a ``shards`` header)
        fail as an unsupported format, like format 1."""
        path = tmp_path / "plans.json"
        PlanCache().save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        payload.update(format=2, shards=8)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported") as excinfo:
            PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert not isinstance(excinfo.value, PlanCacheLoadError)

    def test_load_keeps_the_newest_capacity_entries(self, tiledb, tmp_path):
        """A dump holding more than ``CAPACITY`` entries revives with the
        newest ``CAPACITY`` of them (the file is oldest first), and stays
        at capacity after another insert."""
        keys = [
            ("plan", "proj", 1, 1, 1, "A", (signature,), "db")
            for signature in range(PlanCache.CAPACITY + 3)
        ]
        path = tmp_path / "plans.json"
        PlanCache().save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        payload["entries"] = [
            {"key": encode_value(key), "value": signature}
            for signature, key in enumerate(keys)
        ]
        path.write_text(json.dumps(payload))

        revived = PlanCache.load(path)
        assert revived.entries() == [(key, 3 + i) for i, key in enumerate(keys[3:])]
        assert revived.stats()["evictions"] == 3
        revived.put(("plan", "proj", 1, 1, 1, "A", ("new",), "db"), 0)
        assert len(revived) == PlanCache.CAPACITY
