"""Tests for the dense reference operators."""

import numpy as np
import pytest

from repro.tensor.ops import gelu, layernorm, masked_softmax, relu, softmax


class TestBasics:
    def test_relu(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0, 0, 2])

    def test_gelu_limits(self):
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0, rel=1e-3)
        assert gelu(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-3)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        s = softmax(rng.standard_normal((8, 16)))
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(8), atol=1e-12)

    def test_stable_for_large_values(self):
        s = softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_masked_softmax_zeroes_masked(self):
        x = np.zeros((2, 4))
        mask = np.array([[True, True, False, False], [True, False, False, False]])
        s = masked_softmax(x, mask)
        np.testing.assert_allclose(s[0], [0.5, 0.5, 0, 0])
        np.testing.assert_allclose(s[1], [1, 0, 0, 0])

    def test_masked_softmax_fully_masked_row(self):
        s = masked_softmax(np.ones((1, 3)), np.zeros((1, 3), dtype=bool))
        np.testing.assert_array_equal(s, np.zeros((1, 3)))


class TestLayernorm:
    def test_normalizes(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 64)) * 5 + 3
        y = layernorm(x, np.ones(64), np.zeros(64))
        np.testing.assert_allclose(y.mean(axis=-1), np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), np.ones(4), atol=1e-2)

    def test_affine_params(self):
        x = np.ones((1, 4)) * 7
        y = layernorm(x, np.full(4, 2.0), np.full(4, 1.5))
        np.testing.assert_allclose(y, np.full((1, 4), 1.5))
