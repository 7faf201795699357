"""Tests for the device specification model."""

import dataclasses
import os
import pickle
import subprocess
import sys

import pytest

from repro.hw import (
    A100,
    V100,
    V100_16GB,
    TileConfig,
    dtype_bytes,
    get_gpu,
    parse_lineup,
)


class TestDtypeBytes:
    def test_known_dtypes(self):
        assert dtype_bytes("float32") == 4
        assert dtype_bytes("float16") == 2
        assert dtype_bytes("float64") == 8
        assert dtype_bytes("int8") == 1

    def test_unknown_dtype_raises_with_candidates(self):
        with pytest.raises(KeyError, match="float32"):
            dtype_bytes("float33")


class TestGPUSpec:
    def test_a100_parameters(self):
        assert A100.num_sms == 108
        assert A100.mem_capacity_gib == 80.0
        assert A100.transaction_bytes == 32

    def test_v100_parameters(self):
        assert V100.num_sms == 80
        assert V100.mem_capacity_gib == 32.0

    def test_fp16_uses_tensor_cores(self):
        assert A100.peak_flops("float16") == pytest.approx(312e12)
        assert A100.peak_flops("float32") == pytest.approx(19.5e12)

    def test_fp64_is_half_fp32(self):
        assert V100.peak_flops("float64") == pytest.approx(V100.peak_flops("float32") / 2)

    def test_bandwidth_bytes_us(self):
        # 900 GB/s == 900e9 / 1e6 bytes per microsecond
        assert V100.bandwidth_bytes_us() == pytest.approx(900e3)

    def test_per_sm_shares_sum_to_device(self):
        assert V100.bandwidth_per_sm_us() * V100.num_sms == pytest.approx(
            V100.bandwidth_bytes_us()
        )

    def test_mem_capacity_bytes(self):
        assert V100.mem_capacity_bytes() == 32 * (1 << 30)

    def test_hash_agrees_with_equality_after_replace(self):
        renamed = dataclasses.replace(V100, name="V100-renamed")
        assert renamed != V100 and hash(renamed) != hash(V100)
        back = dataclasses.replace(renamed, name=V100.name)
        assert back == V100 and hash(back) == hash(V100)
        assert back.bandwidth_bytes_us() == V100.bandwidth_bytes_us()
        faster = dataclasses.replace(V100, mem_bandwidth_gbs=1800.0)
        assert faster.bandwidth_bytes_us() == 2 * V100.bandwidth_bytes_us()
        tile = TileConfig(32, 16, 64)
        assert dataclasses.replace(tile, tk=32) == TileConfig(32, 32, 64)
        assert hash(dataclasses.replace(tile, tk=32)) == hash(TileConfig(32, 32, 64))
        assert {V100: 1}[back] == 1

    def test_pickled_hash_is_rebuilt_by_the_receiver(self):
        """A spec's hash covers its name, a str, whose hash differs between
        interpreters: a spec hashed and pickled in a child under another
        hash seed must unpickle to this interpreter's hash."""
        src_dir = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
        )
        code = (
            "import pickle, sys\n"
            "from repro.hw import V100\n"
            "hash(V100)\n"
            "sys.stdout.buffer.write(pickle.dumps(V100))\n"
        )
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "2" else "2"
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, env=env,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        revived = pickle.loads(out.stdout)
        fresh = dataclasses.replace(V100)
        assert revived == fresh and hash(revived) == hash(fresh)
        assert {fresh: "v100"}[revived] == "v100"

class TestRegistry:
    def test_lookup_case_insensitive(self):
        assert get_gpu("A100") is A100
        assert get_gpu("v100-16gb") is V100_16GB

    def test_unknown_gpu_raises(self):
        with pytest.raises(KeyError, match="known GPUs"):
            get_gpu("H100")

    def test_specs_are_frozen(self):
        with pytest.raises(Exception):
            A100.num_sms = 1  # type: ignore[misc]


class TestParseLineup:
    def test_single_device(self):
        assert parse_lineup("v100") == [V100]

    def test_counts_and_mixed_classes_preserve_order(self):
        assert parse_lineup("2xa100+v100") == [A100, A100, V100]
        assert parse_lineup("v100-16gb, 2 x a100") == [
            V100_16GB, A100, A100,
        ]

    def test_case_insensitive_throughout(self):
        assert parse_lineup("2XA100+V100") == [A100, A100, V100]

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError, match="known GPUs"):
            parse_lineup("a100+h100")

    def test_empty_term_raises(self):
        with pytest.raises(ValueError, match="empty term"):
            parse_lineup("a100++v100")
