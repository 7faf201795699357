"""The per-shape memo behind ``TileDB.best_dense_tile``.

Every memoized entry must be the very object a linear scan over the
database's tiles picks, for one database and across many threads.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import sys
import threading
import time

import pytest

from repro.core import TileDB
from repro.core.tiledb import TileEntry
from repro.hw import A100, V100


def scan_best_dense_tile(db: TileDB, m: int, k: int, n: int) -> TileEntry:
    """The unmemoized linear scan: first tile with the lowest dense cost."""
    best, best_cost = None, float("inf")
    for entry in db.tiles():
        tiles_m = math.ceil(m / entry.tile.tm)
        tiles_n = math.ceil(n / entry.tile.tn)
        waves = math.ceil(tiles_m * tiles_n / db.spec.num_sms)
        cost = waves * entry.tile_cost_us(k)
        if cost < best_cost:
            best, best_cost = entry, cost
    return best


def _shapes() -> list:
    shapes = set()
    # Token projections / FFNs: token counts that are not tile multiples.
    for m in (1, 7, 31, 33, 100, 155, 573, 1000, 4096, 16384):
        for k, n in ((768, 768), (768, 3072), (3072, 768), (5120, 20480)):
            shapes.add((m, k, n))
    # PITBackend._scores_matmul_us: 32x32 output tiles over head_dim.
    for head_dim in (32, 64, 80, 128):
        shapes.add((32, head_dim, 32))
    # PITBackend.moe_ffn: tokens per expert (floored at 32) x d_model x d_ff.
    for tokens, experts in ((155, 8), (573, 64), (4096, 128), (20, 64)):
        shapes.add((max(32, tokens // experts), 768, 3072))
    # ServingEngine._degraded_plan: the sampled plan-spec shapes.
    for d_model, d_ff, seq, head_dim, experts in (
        (768, 3072, 2048, 64, 64), (5120, 20480, 4096, 128, 8),
    ):
        shapes.add((512, min(d_model, 256), min(d_model, 256)))
        shapes.add((256, min(d_ff, 1024), min(d_model, 256)))
        shapes.add((min(seq, 512), min(seq, 512), head_dim))
        shapes.add((512, experts, min(d_ff, 1024)))
    return sorted(shapes)


SHAPES = _shapes()


@pytest.fixture
def db():
    return TileDB(V100, "float32")


class TestBestDenseTileMemo:
    def test_memoized_entry_is_the_scan_winner(self, db):
        for m, k, n in SHAPES:
            expected = scan_best_dense_tile(db, m, k, n)
            assert db.best_dense_tile(m, k, n) is expected
            assert db.best_dense_tile(m, k, n) is expected  # memo hit

    def test_repeat_lookup_skips_the_scan(self, db, monkeypatch):
        first = db.best_dense_tile(155, 768, 3072)
        costed = []
        original = TileEntry.tile_cost_us
        monkeypatch.setattr(
            TileEntry, "tile_cost_us",
            lambda self, k: costed.append(k) or original(self, k),
        )
        assert db.best_dense_tile(155, 768, 3072) is first
        assert costed == []
        db.best_dense_tile(156, 768, 3072)
        assert len(costed) == len(db.tiles())

    def test_databases_do_not_share_entries(self):
        small = dataclasses.replace(V100, name="V100-8sm", num_sms=8)
        dbs = [
            TileDB(V100, "float32"),
            TileDB(A100, "float32"),
            TileDB(V100, "float16", tensor_core=True),
            TileDB(small, "float32"),
        ]
        winners = {}
        for db_, (m, k, n) in itertools.product(dbs, SHAPES):
            best = db_.best_dense_tile(m, k, n)
            assert best is scan_best_dense_tile(db_, m, k, n)
            assert any(best is entry for entry in db_.tiles())
            winners.setdefault((m, k, n), set()).add(best.tile)
        # The specs really disagree somewhere, so a shared memo would show.
        assert any(len(tiles) > 1 for tiles in winners.values())


def test_threaded_lookups_return_the_scan_winner():
    """Threads race on the same missing keys; every answer is the scan's."""
    db = TileDB(V100, "float32")
    shapes = [(m, 768, 3072) for m in range(1, 1500)] + SHAPES
    expected = {shape: scan_best_dense_tile(db, *shape) for shape in shapes}
    num_threads = 4 * (os.cpu_count() or 1)
    start = threading.Barrier(num_threads)
    deadline = time.monotonic() + 2.0
    mismatches, finished = [], []

    def worker(offset: int) -> None:
        start.wait(timeout=10)
        for i in range(len(shapes)):
            if time.monotonic() > deadline:
                break
            shape = shapes[(i + offset) % len(shapes)]
            if db.best_dense_tile(*shape) is not expected[shape]:
                mismatches.append(shape)
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i % 2,), daemon=True)
            for i in range(num_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(finished) == num_threads
    assert mismatches == []
