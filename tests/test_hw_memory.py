"""Tests for the memory transaction model and the memory tracker."""

import pytest

from repro.hw import (
    V100,
    MemoryTracker,
    OutOfMemoryError,
    gather_efficiency,
    stream_time_us,
    tensor_bytes,
)


class TestStreaming:
    def test_linear_in_bytes(self):
        assert stream_time_us(2_000_000, V100) == pytest.approx(
            2 * stream_time_us(1_000_000, V100)
        )

    def test_bandwidth_value(self):
        # 900 GB/s -> 900 KB per us
        assert stream_time_us(900_000, V100) == pytest.approx(1.0)


class TestGatherEfficiency:
    def test_full_transaction_run_is_near_peak(self):
        assert gather_efficiency(32, V100) == pytest.approx(V100.gather_efficiency)
        assert gather_efficiency(128, V100) == pytest.approx(V100.gather_efficiency)

    def test_narrow_run_wastes_transaction(self):
        # A 4-byte run through a 32-byte transaction uses 1/8 of the bytes.
        assert gather_efficiency(4, V100) == pytest.approx(
            V100.gather_efficiency / 8
        )

    def test_rejects_nonpositive_run(self):
        with pytest.raises(ValueError):
            gather_efficiency(0, V100)


class TestHelpers:
    def test_tensor_bytes(self):
        assert tensor_bytes((4096, 4096), "float32") == 4096 * 4096 * 4


class TestMemoryTracker:
    def test_alloc_free_roundtrip(self):
        t = MemoryTracker(V100)
        t.alloc(1 << 30, "weights", category="weights")
        assert t.current_bytes == 1 << 30
        assert t.free_category("weights") == 1 << 30
        assert t.current_bytes == 0
        assert t.peak_gib == pytest.approx(1.0)

    def test_oom_at_capacity(self):
        t = MemoryTracker(V100)
        t.alloc(31 * (1 << 30), "big")
        with pytest.raises(OutOfMemoryError) as exc:
            t.alloc(2 * (1 << 30), "overflow")
        assert "overflow" in str(exc.value)

    def test_enforcement_can_be_disabled(self):
        t = MemoryTracker(V100, enforce_capacity=False)
        t.alloc(100 * (1 << 30), "huge")
        assert t.peak_gib == pytest.approx(100.0)

    def test_free_category(self):
        t = MemoryTracker(V100)
        t.alloc(100, "a", category="activations")
        t.alloc(200, "b", category="activations")
        t.alloc(300, "w", category="weights")
        freed = t.free_category("activations")
        assert freed == 300
        assert t.current_bytes == 300
        assert t.free_category("weights") == 300

    def test_negative_alloc_rejected(self):
        t = MemoryTracker(V100)
        with pytest.raises(ValueError):
            t.alloc(-1, "bad")
