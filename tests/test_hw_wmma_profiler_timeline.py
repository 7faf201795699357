"""Tests for the wmma model, offline profiler, and execution timeline."""

import dataclasses

import numpy as np
import pytest

from repro.hw import (
    A100,
    V100,
    ExecReport,
    SparseTensorCore,
    Timeline,
    is_two_four_eligible,
    profile_matmul_tiles,
    wmma_supports,
)


class TestWmma:
    def test_supported_fragments(self):
        assert wmma_supports(16, 16, 16)
        assert wmma_supports(32, 8, 16)
        assert wmma_supports(8, 32, 16)

    def test_multiples_supported(self):
        assert wmma_supports(64, 64, 32)
        assert wmma_supports(32, 64, 16)

    def test_thin_tiles_unsupported(self):
        """A 32x1 granularity cannot feed wmma directly — the motivation for
        PIT's transformation in Figure 17."""
        assert not wmma_supports(32, 1, 16)
        assert not wmma_supports(1, 32, 16)

    def test_two_four_eligibility(self):
        ok = np.array([[1, 0, 2, 0, 0, 3, 0, 4]], dtype=float)
        assert is_two_four_eligible(ok)
        bad = np.array([[1, 2, 3, 0, 0, 0, 0, 4]], dtype=float)
        assert not is_two_four_eligible(bad)

    def test_two_four_requires_multiple_of_four(self):
        assert not is_two_four_eligible(np.ones((2, 6)))

    def test_sparse_tensor_core_speedup(self):
        stc = SparseTensorCore(A100)
        assert stc.fragment_time_ratio(eligible=True) == pytest.approx(0.5)
        assert stc.fragment_time_ratio(eligible=False) == pytest.approx(1.0)


class TestProfiler:
    def test_profiles_nonempty_and_sorted(self):
        profs = profile_matmul_tiles(V100, "float32")
        assert len(profs) > 20
        eff = [p.time_per_k_us / (2 * p.tile.tm * p.tile.tn) for p in profs]
        assert eff == sorted(eff)

    def test_profile_cached(self):
        a = profile_matmul_tiles(V100, "float32")
        b = profile_matmul_tiles(V100, "float32")
        assert a is b

    def test_tensor_core_profiles_only_wmma_tiles(self):
        profs = profile_matmul_tiles(A100, "float16", tensor_core=True)
        assert profs
        from repro.hw import wmma_supports as ok

        assert all(ok(p.tile.tm, p.tile.tn, p.tile.tk) for p in profs)

    def test_profile_predicts_tile_time(self):
        from repro.hw import matmul_tile_time_us

        profs = profile_matmul_tiles(V100, "float32")
        p = profs[0]
        predicted = p.time_per_k_us * 4096 + p.fixed_us
        actual = matmul_tile_time_us(p.tile, 4096, "float32", V100)
        assert predicted == pytest.approx(actual, rel=0.02)


class TestTimeline:
    def test_totals(self):
        tl = Timeline()
        tl.record("a", 10.0)
        tl.record("b", 5.0, convert_us=2.0)
        assert tl.total_us == pytest.approx(15.0)
        assert tl.convert_us == pytest.approx(2.0)
        assert tl.total_ms == pytest.approx(0.015)

    def test_by_op_groups(self):
        tl = Timeline()
        tl.record("matmul", 10.0)
        tl.record("matmul", 10.0)
        tl.record("softmax", 1.0)
        assert tl.by_op() == {"matmul": 20.0, "softmax": 1.0}

    def test_scaled(self):
        tl = Timeline()
        tl.record("x", 10.0, convert_us=1.0)
        doubled = tl.scaled(2.0)
        assert doubled.total_us == pytest.approx(20.0)
        assert doubled.convert_us == pytest.approx(2.0)
        assert tl.total_us == pytest.approx(10.0)  # original untouched

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ExecReport(op="x", latency_us=-1.0)
        with pytest.raises(ValueError):
            ExecReport(op="x", latency_us=1.0, convert_us=2.0)

    def test_replace_validates_the_copy(self):
        report = ExecReport("x", 2.0, convert_us=1.0, detail={"k": 1})
        halved = dataclasses.replace(report, latency_us=1.0, convert_us=0.5)
        assert halved == ExecReport("x", 1.0, 0.5, detail={"k": 1})
        with pytest.raises(ValueError, match="convert_us"):
            dataclasses.replace(report, convert_us=3.0)
        with pytest.raises(ValueError, match="non-negative"):
            dataclasses.replace(report, latency_us=-1.0)
        assert [f.name for f in dataclasses.fields(report)] == [
            "op", "latency_us", "convert_us", "wasted_fraction", "detail",
        ]

    def test_reports_without_detail_own_their_dicts(self):
        a, b = ExecReport("x", 1.0), ExecReport("y", 1.0)
        assert a.detail == b.detail == {}
        assert a.detail is not b.detail
        a.detail["k"] = 1
        assert b.detail == {}

    def test_extend(self):
        a, b = Timeline(), Timeline()
        a.record("x", 1.0)
        b.record("y", 2.0)
        a.extend(b)
        assert a.total_us == pytest.approx(3.0)
