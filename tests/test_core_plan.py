"""Tests for the unified planning API: PlanSpec, Planner, persistence.

The contract under test is the one the serving stack's warm-start rests on:
a spec is a pure, serializable description of "the plan I need"; spec ->
json -> spec is an identity; cache keys are stable across processes; and a
PlanCache dump only loads against the tile database it was built for.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    PLAN_KINDS,
    KernelChoice,
    PlanCache,
    PlanCacheLoadError,
    Planner,
    PlanSpec,
    ResolvedPlan,
    MicroTile,
    PermutedChoice,
    TileDB,
    kernel_selection,
)
from repro.core.plan import decode_value, encode_value
from repro.hw import A100, V100, TileConfig
from repro.sparsity import granular_mask


@pytest.fixture(scope="module")
def tiledb():
    return TileDB.shared(V100, "float32")


def make_spec(tiledb, **overrides):
    kwargs = dict(
        kind="proj", m=128, k=64, n=64, sparse_operand="A",
        signature=(7, 20, 20), tiledb_key=tiledb.cache_key,
    )
    kwargs.update(overrides)
    return PlanSpec(**kwargs)


class TestPlanSpec:
    @pytest.mark.parametrize("overrides", [
        {},
        dict(kind="attention", sparse_operand="B",
             signature=(2048, 3, ("nested", 1))),
        dict(kind="nm-sparse", sparse_operand="B", pattern=(2, 4)),
    ], ids=["proj", "nested-signature", "nm-sparse"])
    def test_cache_key_round_trips_the_plan_codec(self, tiledb, overrides):
        """Plan dumps key on ``cache_key()``: through JSON it decodes to an
        equal, equally hashing key."""
        key = make_spec(tiledb, **overrides).cache_key()
        revived = decode_value(json.loads(json.dumps(encode_value(key))))
        assert revived == key and hash(revived) == hash(key)

    def test_signature_lists_normalize_to_tuples(self, tiledb):
        a = make_spec(tiledb, signature=[7, 20, 20])
        b = make_spec(tiledb, signature=(7, 20, 20))
        assert a == b and hash(a) == hash(b)

    def test_lists_nested_in_tuples_normalize_too(self, tiledb):
        """A tuple is kept as is only when nothing inside it is a sequence:
        a list one level down still normalizes."""
        a = make_spec(tiledb, signature=(7, [20, 20]))
        b = make_spec(tiledb, signature=(7, (20, 20)))
        assert a == b and hash(a) == hash(b)
        assert a.signature == (7, (20, 20))
        assert a.cache_key() == b.cache_key()
        nm = dict(kind="nm-sparse", sparse_operand="B")
        c = make_spec(tiledb, pattern=[2, 4], **nm)
        d = make_spec(tiledb, pattern=(2, 4), **nm)
        assert c == d and hash(c) == hash(d)

    def test_invalid_kind_rejected(self, tiledb):
        with pytest.raises(ValueError, match="kind"):
            make_spec(tiledb, kind="conv")
        assert set(PLAN_KINDS) == {
            "proj",
            "ffn-act",
            "attention",
            "moe-grouped",
            "weight-sparse",
            "nm-sparse",
        }

    def test_invalid_dims_and_operand_rejected(self, tiledb):
        with pytest.raises(ValueError, match="dims"):
            make_spec(tiledb, m=0)
        with pytest.raises(ValueError, match="sparse_operand"):
            make_spec(tiledb, sparse_operand="C")

    def test_specs_differing_only_in_signature_are_distinct(self, tiledb):
        a = make_spec(tiledb, signature=(7,))
        b = make_spec(tiledb, signature=(8,))
        assert a != b
        assert a.cache_key() != b.cache_key()

    def test_cache_key_stable_across_processes(self, tiledb):
        """The persistence property: an identically described spec built in
        a different interpreter encodes to the identical cache key."""
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        code = (
            "import json\n"
            "from repro.core import PlanSpec, TileDB\n"
            "from repro.hw import V100\n"
            "db = TileDB.shared(V100, 'float32')\n"
            "from repro.core.plan import encode_value\n"
            "spec = PlanSpec(kind='proj', m=128, k=64, n=64,\n"
            "                signature=(7, 20, 20), tiledb_key=db.cache_key)\n"
            "print(json.dumps(encode_value(spec.cache_key())))\n"
        )
        env = dict(os.environ, PYTHONPATH=src_dir)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        theirs = out.stdout.strip()
        mine = json.dumps(encode_value(make_spec(tiledb).cache_key()))
        assert theirs == mine
        # And the decoded key compares equal to the in-process key.
        assert decode_value(json.loads(theirs)) == make_spec(tiledb).cache_key()


class TestChoiceSerialization:
    def test_choice_round_trip(self, tiledb):
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        choice = kernel_selection([mask], 256, 256, 256, tiledb)
        revived = decode_value(json.loads(json.dumps(encode_value(choice))))
        assert isinstance(revived, KernelChoice)
        assert revived == choice

    def test_dense_fallback_round_trip(self, tiledb):
        choice = kernel_selection(
            [np.ones((128, 128), dtype=bool)], 128, 128, 128, tiledb
        )
        assert choice.is_dense_fallback
        revived = decode_value(encode_value(choice))
        assert revived.is_dense_fallback
        assert revived == choice

    def test_encoded_json_is_pinned(self):
        """The dump format, byte for byte: dumps written by earlier builds
        must keep loading, so every tagged type's encoding is literal."""
        tile = TileConfig(32, 8, 64)
        micro = MicroTile((1, 8))
        choice = KernelChoice(
            tile=tile, pit_axis="m", microtile=micro, est_cost_us=12.5,
            covered_sparsity=0.75, search_time_us=40.0,
        )
        dense = KernelChoice(
            tile=tile, pit_axis=None, microtile=None, est_cost_us=30.0,
            covered_sparsity=0.0, search_time_us=2.0,
        )
        permuted = PermutedChoice(
            choice=choice, permutation=(2, 0, 1, 3), pattern=(2, 4)
        )
        choice_json = (
            '{"tile": [32, 8, 64], "pit_axis": "m", "microtile": [1, 8], '
            '"est_cost_us": 12.5, "covered_sparsity": 0.75, '
            '"search_time_us": 40.0}'
        )
        expected = {
            tile: '{"__tile__": [32, 8, 64]}',
            micro: '{"__microtile__": [1, 8]}',
            choice: '{"__choice__": ' + choice_json + '}',
            dense: (
                '{"__choice__": {"tile": [32, 8, 64], "pit_axis": null, '
                '"microtile": null, "est_cost_us": 30.0, '
                '"covered_sparsity": 0.0, "search_time_us": 2.0}}'
            ),
            permuted: (
                '{"__permchoice__": {"choice": ' + choice_json + ', '
                '"permutation": [2, 0, 1, 3], "pattern": [2, 4]}}'
            ),
        }
        for obj, text in expected.items():
            assert json.dumps(encode_value(obj)) == text
            assert decode_value(json.loads(text)) == obj


class TestPlanner:
    def test_cold_then_warm_resolve(self, tiledb):
        planner = Planner(tiledb)
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        spec = planner.make_spec("proj", [mask], 256, 256, 256)
        cold = planner.resolve(spec, lambda: [mask])
        warm = planner.resolve(spec)
        assert isinstance(cold, ResolvedPlan)
        assert cold.cold and not warm.cold
        assert warm.choice is cold.choice
        assert planner.cache.stats()["hits"] == 1 and planner.cache.misses == 1
        assert cold.search_us > warm.search_us

    def test_cold_resolve_without_samples_raises(self, tiledb):
        planner = Planner(tiledb)
        with pytest.raises(ValueError, match="make_samples"):
            planner.resolve(make_spec(tiledb))

    def test_resolve_rejects_foreign_tiledb_spec(self, tiledb):
        planner = Planner(tiledb)
        other = TileDB.shared(A100, "float32")
        spec = make_spec(other)
        with pytest.raises(ValueError, match="tile database"):
            planner.resolve(spec, lambda: [np.ones((128, 64), dtype=bool)])

    def test_make_spec_quantizes_alike_samples_to_one_spec(self, tiledb):
        planner = Planner(tiledb)
        m1 = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        m2 = granular_mask((256, 256), (8, 1), 0.95, seed=9)
        assert not np.array_equal(m1, m2)
        s1 = planner.make_spec("proj", [m1], 256, 256, 256)
        s2 = planner.make_spec("proj", [m2], 256, 256, 256)
        assert s1 == s2

    def test_resolve_records_device_provenance(self, tiledb):
        """Plans are device-specific: the resolved plan names the device
        class whose tile database it was selected against, hit or miss."""
        planner = Planner(tiledb)
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        spec = planner.make_spec("proj", [mask], 256, 256, 256)
        cold = planner.resolve(spec, lambda: [mask])
        warm = planner.resolve(spec)
        assert cold.device == tiledb.spec.name
        assert warm.device == tiledb.spec.name

    def test_memo_keys_never_collide_with_plans(self, tiledb):
        planner = Planner(tiledb)
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        spec = planner.make_spec("proj", [mask], 256, 256, 256)
        planner.resolve(spec, lambda: [mask])
        value = planner.memo(spec, lambda: (0.25, 4.0))
        assert value == (0.25, 4.0)
        assert planner.memo(spec, lambda: pytest.fail("recompute")) == value
        assert planner.resolve(spec).choice is not None


class TestPlanCachePersistence:
    def _populated(self, tiledb):
        planner = Planner(tiledb)
        mask = granular_mask((256, 256), (8, 1), 0.95, seed=0)
        spec = planner.make_spec("proj", [mask], 256, 256, 256)
        resolved = planner.resolve(spec, lambda: [mask])
        planner.memo(spec, lambda: (0.5, 2.0))
        return planner, spec, resolved

    def test_save_load_round_trip(self, tiledb, tmp_path):
        planner, spec, resolved = self._populated(tiledb)
        path = tmp_path / "plans.json"
        stats = planner.cache.save(path, tiledb_key=tiledb.cache_key)
        assert stats == {"entries": 2, "skipped": 0}
        payload = json.loads(path.read_text())
        assert list(payload) == ["format", "tiledb_key", "entries"]
        assert payload["format"] == PlanCache.DUMP_FORMAT == 5

        loaded = PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert len(loaded) == 2
        assert loaded.stats()["hits"] == 0 and loaded.misses == 0
        warm = Planner(tiledb, loaded)
        revived = warm.resolve(spec)
        assert not revived.cold
        assert revived.choice == resolved.choice
        assert warm.memo(spec, lambda: pytest.fail("recompute")) == (0.5, 2.0)
        assert loaded.misses == 0

    def test_load_rejects_different_tiledb_key(self, tiledb, tmp_path):
        planner, _, _ = self._populated(tiledb)
        path = tmp_path / "plans.json"
        planner.cache.save(path, tiledb_key=tiledb.cache_key)
        other = TileDB.shared(A100, "float32")
        with pytest.raises(ValueError, match="does not match"):
            PlanCache.load(path, expected_tiledb_key=other.cache_key)
        # Without an expectation the dump loads (caller's responsibility).
        assert len(PlanCache.load(path)) == 2

    @pytest.mark.parametrize("fmt", [99, 4])
    def test_load_rejects_unknown_format(self, tiledb, tmp_path, fmt):
        """Format 4 keyed nm-sparse plans on a permutation-policy slot that
        no spec builds any more; its nm entries could never hit."""
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format": fmt, "entries": []}))
        with pytest.raises(ValueError, match="format"):
            PlanCache.load(path)

    def test_save_skips_unserializable_entries(self, tiledb, tmp_path):
        planner, _, _ = self._populated(tiledb)
        planner.cache.put(("ad-hoc",), object())
        path = tmp_path / "plans.json"
        stats = planner.cache.save(path, tiledb_key=tiledb.cache_key)
        assert stats["skipped"] == 1
        assert len(PlanCache.load(path)) == 2

    def test_load_raises_load_error_on_truncated_dump(self, tiledb, tmp_path):
        planner, _, _ = self._populated(tiledb)
        path = tmp_path / "plans.json"
        planner.cache.save(path, tiledb_key=tiledb.cache_key)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # a torn write
        with pytest.raises(PlanCacheLoadError, match="not valid JSON"):
            PlanCache.load(path)
        # The distinguished subclass still reads as ValueError to old code.
        with pytest.raises(ValueError):
            PlanCache.load(path)

    def test_load_raises_load_error_on_missing_header(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format": PlanCache.DUMP_FORMAT}))
        with pytest.raises(PlanCacheLoadError, match="tiledb_key"):
            PlanCache.load(path)

    def test_load_raises_load_error_on_undecodable_entry(
        self, tiledb, tmp_path
    ):
        planner, _, _ = self._populated(tiledb)
        path = tmp_path / "plans.json"
        planner.cache.save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        payload["entries"][0] = {"key": None}  # no value, junk key
        path.write_text(json.dumps(payload))
        with pytest.raises(PlanCacheLoadError, match="entry 0"):
            PlanCache.load(path)

    def test_load_raises_load_error_on_non_object_dump(self, tmp_path):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(PlanCacheLoadError, match="JSON object"):
            PlanCache.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            pytest.param(
                "tiledb_key", {"__tuple__": 5}, id="tiledb_key-tuple-of-int"
            ),
            pytest.param(
                "tiledb_key", {"__unknown__": [1]}, id="tiledb_key-unknown-tag"
            ),
            pytest.param(
                "tiledb_key", {"__gpuspec__": {"no_such_field": 1}},
                id="tiledb_key-bad-gpuspec",
            ),
            ("entries", 5),
            ("entries", None),
            ("entries", "x"),
            pytest.param(
                "entries", {"key": 1, "value": 2}, id="entries-object"
            ),
        ],
    )
    def test_load_raises_load_error_on_bad_header_value(
        self, tiledb, tmp_path, field, value
    ):
        """A header that parses but cannot be decoded, or cannot fill a
        cache, fails at load, naming the field."""
        path = tmp_path / "plans.json"
        PlanCache().save(path, tiledb_key=tiledb.cache_key)
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(PlanCacheLoadError, match=field):
            PlanCache.load(path)

    def test_incompatible_but_wellformed_dumps_stay_plain_valueerror(
        self, tiledb, tmp_path
    ):
        path = tmp_path / "plans.json"
        path.write_text(json.dumps({"format": 99, "entries": []}))
        with pytest.raises(ValueError) as excinfo:
            PlanCache.load(path)
        assert not isinstance(excinfo.value, PlanCacheLoadError)

    def test_save_is_atomic_under_a_torn_write(
        self, tiledb, tmp_path, monkeypatch
    ):
        planner, spec, _ = self._populated(tiledb)
        path = tmp_path / "plans.json"
        planner.cache.save(path, tiledb_key=tiledb.cache_key)
        good = path.read_text()

        # A dump that dies mid-write (full disk, killed process, codec
        # bug) must leave the existing good dump untouched: save writes a
        # temp file and renames only on success.
        def torn_dump(payload, f, **kwargs):
            f.write('{"format":')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", torn_dump)
        with pytest.raises(OSError, match="no space"):
            planner.cache.save(path, tiledb_key=tiledb.cache_key)
        monkeypatch.undo()

        assert path.read_text() == good
        assert not list(tmp_path.glob("*.tmp"))
        revived = PlanCache.load(path, expected_tiledb_key=tiledb.cache_key)
        assert len(revived) == 2

    def test_save_replaces_an_existing_dump_in_place(self, tiledb, tmp_path):
        planner, _, _ = self._populated(tiledb)
        path = tmp_path / "plans.json"
        path.write_text("stale contents from a previous run")
        planner.cache.save(path, tiledb_key=tiledb.cache_key)
        assert len(PlanCache.load(path)) == 2
        assert not list(tmp_path.glob("*.tmp"))


class TestCodec:
    def test_nested_structures_round_trip(self, tiledb):
        key = ("plan", "proj", 1, 2.5, None, True, ("x", (3,)), V100)
        assert decode_value(json.loads(json.dumps(encode_value(key)))) == key

    def test_gpuspec_round_trip_hashes_equal(self):
        revived = decode_value(encode_value(V100))
        assert revived == V100 and hash(revived) == hash(V100)

    def test_unserializable_raises_typeerror(self):
        with pytest.raises(TypeError):
            encode_value(object())
        with pytest.raises(TypeError):
            decode_value({"unknown": 1})
