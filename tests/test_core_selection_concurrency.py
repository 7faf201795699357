"""Tests for the sharded, thread-safe PlanCache.

The concurrency contract the live serving front end rests on:

* a cold Algorithm 1 search never head-of-line-blocks warm lookups — not
  on other shards (per-shard locks) and not even on its own shard (the
  single-flight protocol releases the shard lock around ``compute``);
* concurrent resolves of one key run the search exactly once, and the
  hit/miss totals match the sequential schedule;
* the shared-cache registry survives being hammered from threads;
* persistence: LRU age-out caps a dump without losing the zero-cold-search
  replay property for what remains, and multi-class dumps validate against
  every device class they contain.
"""

import json
import threading
from pathlib import Path

import pytest

from repro.analysis import load_corpus, static_lock_order
from repro.analysis.runtime_checks import (
    debug_locks_installed,
    verify_against_static,
)
from repro.core import PlanCache, Planner, TileDB
from repro.core.plan import encode_value
from repro.core.selection import DEFAULT_PLAN_CACHE_SHARDS
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


def keys_on_distinct_shards(cache, count=2):
    """Generate plan-style keys until ``count`` land on distinct shards."""
    picked = []
    shards_seen = set()
    signature = 0
    while len(picked) < count:
        key = ("plan", "proj", 128, 64, 64, "A", (signature,), True, "db")
        shard = cache._shard_for(key)
        if id(shard) not in shards_seen:
            shards_seen.add(id(shard))
            picked.append(key)
        signature += 1
        assert signature < 1000, "shard routing is degenerate"
    return picked


@pytest.mark.usefixtures("lock_order_audit")
class TestShardContention:
    def test_cold_search_does_not_block_other_shards(self):
        """A get on shard B completes while a cold search holds shard A."""
        cache = PlanCache(shards=8)
        cold_key, warm_key = keys_on_distinct_shards(cache)
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
            # The cold search is in flight right now.  A warm lookup on the
            # other shard must complete without waiting for it — if the two
            # serialized on one lock, this join would time out.
            warm_result = []
            reader = threading.Thread(
                target=lambda: warm_result.append(cache.get(warm_key))
            )
            reader.start()
            reader.join(timeout=30.0)
            assert not reader.is_alive(), (
                "warm lookup blocked behind a cold search on another shard"
            )
            assert warm_result == ["warm-value"]
        finally:
            release_search.set()
            owner.join(timeout=30.0)
        assert cache.get(cold_key) == "cold-value"

    def test_cold_search_does_not_block_same_shard_warm_hits(self):
        """Single-flight releases the shard lock during compute, so even
        same-shard warm traffic proceeds during a cold search."""
        cache = PlanCache(shards=1)  # everything on one shard by force
        cold_key = ("plan", "proj", 128, 64, 64, "A", (1,), True, "db")
        warm_key = ("plan", "proj", 128, 64, 64, "A", (2,), True, "db")
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
            warm_result = []
            reader = threading.Thread(
                target=lambda: warm_result.append(cache.get(warm_key))
            )
            reader.start()
            reader.join(timeout=30.0)
            assert not reader.is_alive(), (
                "warm lookup blocked behind a same-shard cold search"
            )
            assert warm_result == ["warm-value"]
        finally:
            release_search.set()
            owner.join(timeout=30.0)

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
        assert cache.hits == 7

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

    def test_sequential_counters_match_legacy(self):
        """get/put/get_or_compute counting is unchanged single-threaded."""
        cache = PlanCache(shards=DEFAULT_PLAN_CACHE_SHARDS)
        key = ("plan", "proj", 128, 64, 64, "A", (3,), True, "db")
        assert cache.get(key) is None
        value, hit = cache.get_or_compute(key, lambda: "v")
        assert (value, hit) == ("v", False)
        assert cache.get(key) == "v"
        # One miss from the empty get, one from the owning compute, one hit
        # from the warm get.
        assert (cache.hits, cache.misses) == (1, 2)

    def test_eviction_spreads_no_worse_than_capacity_plus_shards(self):
        cache = PlanCache(capacity=4, shards=8)
        for signature in range(32):
            cache.put(
                ("plan", "proj", 1, 1, 1, "A", (signature,), True, "db"), signature
            )
        assert len(cache) <= 4 + 8 - 1
        assert cache.evictions >= 32 - (4 + 8 - 1)


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

    def test_age_out_keeps_most_recent_entries(self, tiledb, tmp_path):
        cache = PlanCache()
        old_key = ("plan", "proj", 1, 1, 1, "A", (1,), True, "db")
        new_key = ("plan", "proj", 1, 1, 1, "A", (2,), True, "db")
        cache.put(old_key, "old")
        cache.put(new_key, "new")
        cache.get(old_key)  # refresh: old_key is now the most recent
        path = tmp_path / "plans.json"
        stats = cache.save(path, tiledb_key=tiledb.cache_key, max_entries=1)
        assert stats == {"entries": 1, "skipped": 0, "aged_out": 1}
        revived = PlanCache.load(path)
        assert old_key in revived
        assert new_key not in revived

    def test_age_out_preserves_zero_cold_replay_under_cap(self, tiledb, tmp_path):
        """Entries that survive the cap still replay with zero searches."""
        cache = PlanCache()
        planner, spec, resolved = self._planner_with_plan(tiledb, cache)
        # Add a decoy the cap will age out (older than the plan's resolve).
        path = tmp_path / "plans.json"
        cache.put(("ad-hoc", "decoy"), [1, 2, 3])
        planner.resolve(spec)  # refresh the real plan past the decoy
        stats = cache.save(path, tiledb_key=tiledb.cache_key, max_entries=1)
        assert stats["aged_out"] == 1
        warm = Planner(tiledb, PlanCache.load(path))
        revived = warm.resolve(spec)  # no make_samples: must be a pure hit
        assert not revived.cold
        assert revived.choice == resolved.choice

    def test_multi_class_dump_header_lists_every_class(self, tiledb, tmp_path):
        other = TileDB.shared(A100, "float32")
        cache = PlanCache()
        self._planner_with_plan(tiledb, cache, seed=0)
        self._planner_with_plan(other, cache, seed=0)
        path = tmp_path / "plans.json"
        cache.save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        assert payload["format"] == PlanCache.DUMP_FORMAT
        assert len(payload["tiledb_keys"]) == 2
        # Primary first, then every other class found among the entries.
        assert payload["tiledb_keys"][0] == encode_value(tuple(tiledb.cache_key))
        assert encode_value(tuple(other.cache_key)) in payload["tiledb_keys"]

    def test_multi_class_load_validates_full_set(self, tiledb, tmp_path):
        other = TileDB.shared(A100, "float32")
        cache = PlanCache()
        self._planner_with_plan(tiledb, cache, seed=0)
        self._planner_with_plan(other, cache, seed=0)
        path = tmp_path / "plans.json"
        cache.save(path, tiledb_key=tiledb.cache_key)
        # The full lineup loads fine.
        loaded = PlanCache.load(
            path,
            expected_tiledb_keys=[tiledb.cache_key, other.cache_key],
        )
        assert len(loaded) == len(cache)
        # A lineup missing the A100 class must refuse the dump even though
        # the primary header matches.
        with pytest.raises(ValueError, match="does not match any expected"):
            PlanCache.load(
                path,
                expected_tiledb_key=tiledb.cache_key,
                expected_tiledb_keys=[tiledb.cache_key],
            )

    def test_format_1_dump_still_loads(self, tiledb, tmp_path):
        """Dumps written before sharding (format 1) remain readable."""
        path = tmp_path / "plans.json"
        payload = {
            "format": 1,
            "capacity": 16,
            "quantum": 0.05,
            "tiledb_key": encode_value(tuple(tiledb.cache_key)),
            "entries": [],
        }
        path.write_text(json.dumps(payload))
        cache = PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert cache.capacity == 16
        assert cache.shards == DEFAULT_PLAN_CACHE_SHARDS

    def test_load_respects_dump_shards_and_override(self, tiledb, tmp_path):
        cache = PlanCache(shards=3)
        path = tmp_path / "plans.json"
        cache.save(path, tiledb_key=tiledb.cache_key)
        assert PlanCache.load(path).shards == 3
        assert PlanCache.load(path, shards=5).shards == 5

    def test_save_reports_negative_cap_rejected(self, tiledb, tmp_path):
        cache = PlanCache()
        with pytest.raises(ValueError, match="max_entries"):
            cache.save(
                tmp_path / "plans.json",
                tiledb_key=tiledb.cache_key,
                max_entries=-1,
            )
