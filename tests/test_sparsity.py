"""Tests for the dynamic-sparsity workload generators."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity import (
    BERT_DATASETS,
    MagnitudePruner,
    MaskStats,
    PatternHitCounter,
    PruningSchedule,
    Router,
    RoutingResult,
    as_mask_stats,
    capacity_tokens,
    drop_overflow,
    dynamic_token_mask,
    get_dataset,
    granular_mask,
    longformer_mask,
    longformer_mask_stats,
    mask_sparsity,
    measured_sparsity,
    museformer_mask,
    museformer_mask_stats,
    pad_to_multiple,
    pattern_fingerprint,
    relu_activation_mask,
    sliding_window_mask,
    two_four_mask,
)
from repro.sparsity.moe import _apportion, routing_sample_mask, scale_routings


def deficit_loop(counts, scale, total):
    """The apportioning loop ``scaled_to`` and ``routing_sample_mask`` ran
    before it was vectorized: one token at a time, largest expert first."""
    share = np.floor(counts * scale).astype(int)
    deficit = total - int(share.sum())
    order = np.argsort(-counts)
    for i in range(deficit):
        share[order[i % order.size]] += 1
    return share


#: Per-expert loads: zeros, a single expert and up to 64 experts.
expert_counts = st.lists(st.integers(0, 5000), min_size=1, max_size=64).map(
    np.array
)


def scaled_to_oracle(routing, num_tokens):
    """``RoutingResult.scaled_to``'s counts as it ran before the rescale
    was vectorized, one layer at a time."""
    if num_tokens == routing.num_tokens:
        return routing.counts
    if routing.num_tokens == 0:
        counts = np.zeros_like(routing.counts)
        counts[0] = num_tokens
        return counts
    routed = int(routing.counts.sum()) * num_tokens // routing.num_tokens
    return deficit_loop(
        routing.counts, num_tokens / routing.num_tokens, routed
    )


@st.composite
def layer_routings(draw):
    """One run's MoE routings: tied loads (counts 0-2), capped routings
    (tokens that reached no expert), routings of zero tokens and, when
    ``mixed``, layers over different expert counts."""
    experts = draw(st.integers(1, 64))
    mixed = draw(st.booleans())
    routings = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, 64)) if mixed else experts
        top = draw(st.sampled_from([2, 5000]))
        counts = np.array(draw(st.lists(st.integers(0, top), min_size=n,
                                        max_size=n)))
        if draw(st.integers(0, 9)) == 0:
            counts[:] = 0
        dropped = draw(st.integers(0, 50))
        num_tokens = int(counts.sum()) + dropped if counts.any() else 0
        routings.append(RoutingResult(counts, num_tokens))
    return routings


class TestSeqLen:
    def test_all_bert_datasets_registered(self):
        for name in BERT_DATASETS:
            assert get_dataset(name).mean > 0

    def test_lengths_within_bounds(self):
        d = get_dataset("mnli")
        lengths = d.sample(1000, seed=0)
        assert lengths.min() >= d.min_len
        assert lengths.max() <= d.max_len

    def test_mean_roughly_matches(self):
        d = get_dataset("mnli")
        lengths = d.sample(5000, seed=1)
        assert lengths.mean() == pytest.approx(d.mean, rel=0.15)

    def test_seeded_reproducible(self):
        d = get_dataset("cola")
        np.testing.assert_array_equal(d.sample(64, seed=5), d.sample(64, seed=5))

    def test_batches_differ(self):
        d = get_dataset("mnli")
        batches = list(d.batches(2, 32, seed=0))
        assert not np.array_equal(batches[0], batches[1])

    def test_padding_ratio_positive(self):
        ratio = get_dataset("mnli").padding_ratio(32, seed=0)
        assert 0.1 < ratio < 0.9

    def test_pad_to_multiple(self):
        np.testing.assert_array_equal(
            pad_to_multiple(np.array([16, 33, 64]), 32), [32, 64, 64]
        )

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="known"):
            get_dataset("imagenet21k")


class TestActivation:
    def test_target_sparsity(self):
        mask = relu_activation_mask(512, 3072, 0.99, seed=0)
        assert measured_sparsity(mask) == pytest.approx(0.99, abs=0.005)

    def test_dynamic_across_seeds(self):
        a = relu_activation_mask(64, 512, 0.95, seed=0)
        b = relu_activation_mask(64, 512, 0.95, seed=1)
        assert not np.array_equal(a, b)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            relu_activation_mask(8, 8, 1.0)

    @pytest.mark.parametrize("shape", [(0, 10), (3, 0)])
    def test_empty_mask_warns_nothing(self, shape):
        """An empty mask has no used share to average (it warned "Mean of
        empty slice")."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = relu_activation_mask(*shape, 0.5)
        assert mask.shape == shape


class TestAttentionMasks:
    def test_sliding_window_bandwidth(self):
        mask = sliding_window_mask(64, 8)
        assert mask[0, 0] and mask[0, 4] and not mask[0, 5]
        assert (mask == mask.T).all()

    def test_longformer_has_global_stripes(self):
        mask = longformer_mask(256, 32, num_global=4, seed=0)
        full_rows = (mask.all(axis=1)).sum()
        assert full_rows >= 4

    def test_longformer_dynamic(self):
        a = longformer_mask(128, 16, num_global=4, seed=0)
        b = longformer_mask(128, 16, num_global=4, seed=1)
        assert not np.array_equal(a, b)

    def test_museformer_causal(self):
        mask = museformer_mask(512, bar_len=64, seed=0)
        assert not np.triu(mask, k=1).any()

    def test_museformer_fine_bars(self):
        mask = museformer_mask(512, bar_len=64, fine_bars=1, summary_stride=100, seed=0)
        # Token in bar 4 must see bar 3 and 4 but not bar 0 (except summaries).
        assert mask[4 * 64 + 1, 3 * 64 + 1]
        row = mask[4 * 64 + 1]
        assert row[: 2 * 64].sum() <= 2  # only summary tokens, if any

    def test_dynamic_token_mask(self):
        mask = dynamic_token_mask(128, 0.25, seed=0)
        assert 0 < mask_sparsity(mask) < 1
        # active x active structure: rank-1 boolean
        rows = mask.any(axis=1)
        np.testing.assert_array_equal(mask, np.outer(rows, rows))


class TestMaskStats:
    def test_matches_full_mask(self):
        mask = longformer_mask(512, 64, num_global=4, seed=3)
        direct = MaskStats.from_mask(mask)
        chunked = longformer_mask_stats(512, 64, num_global=4, seed=3)
        assert direct == chunked

    def test_museformer_chunked_matches(self):
        mask = museformer_mask(1024, bar_len=128, seed=2)
        assert MaskStats.from_mask(mask) == museformer_mask_stats(
            1024, bar_len=128, seed=2
        )

    def test_large_seq_stats_scalable(self):
        stats = museformer_mask_stats(16384, bar_len=256, seed=0)
        assert 0 < stats.density < 0.3
        assert stats.covered_micro_elems() >= stats.nnz

    def test_as_mask_stats_passthrough(self):
        stats = longformer_mask_stats(256, 32, seed=0)
        assert as_mask_stats(stats) is stats

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            MaskStats.from_mask(np.ones((4, 8), dtype=bool))


class TestMoE:
    def test_routing_conserves_tokens(self):
        router = Router(16, seed=0)
        result = router.route(1024, seed=1)
        assert result.counts.sum() == 1024
        assert result.num_experts == 16

    def test_routing_is_imbalanced(self):
        router = Router(64, concentration=0.3, seed=0)
        result = router.route(2048, seed=0)
        assert result.imbalance() > 2.0

    def test_popularity_stable_assignments_vary(self):
        router = Router(8, seed=0)
        a = router.assign(256, seed=1)
        b = router.assign(256, seed=2)
        assert not np.array_equal(a, b)

    def test_route_counts_the_assign_draw(self):
        router = Router(8, concentration=0.3, seed=2)
        assignment = router.assign(300, seed=5)
        routing = router.route(300, seed=5)
        assert np.array_equal(
            routing.counts, np.bincount(assignment, minlength=8)
        )
        assert routing.num_tokens == assignment.size == 300

    def test_capacity(self):
        assert capacity_tokens(1000, 10, 1.25) == 125

    def test_drop_overflow(self):
        router = Router(4, concentration=0.2, seed=3)
        result = router.route(512, seed=0)
        capped = drop_overflow(result, capacity=64)
        assert np.array_equal(capped.counts, np.minimum(result.counts, 64))
        # Dropped tokens still reached the layer.
        assert capped.num_tokens == result.num_tokens == 512
        assert capped.counts.sum() < 512
        # Reference: fill each expert's buffer token by token, in order.
        kept = np.zeros(4, dtype=int)
        for expert in router.assign(512, seed=0):
            if kept[expert] < 64:
                kept[expert] += 1
        assert np.array_equal(capped.counts, kept)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Router(0)
        with pytest.raises(ValueError):
            capacity_tokens(10, 2, 0)

    def test_scaled_capped_routing_keeps_dropping(self):
        """Rescaling a capped routing apportions its routed tokens only: the
        dropped share stays dropped, so the capped experts stay within one
        token of the capacity scaled by the same factor (20 here)."""
        capped = drop_overflow(Router(16, seed=1).route(512, seed=3), 40)
        assert capped.counts.sum() == 157
        scaled = capped.scaled_to(256)
        assert scaled.num_tokens == 256
        assert scaled.counts.sum() == 157 * 256 // 512
        assert np.all(np.abs(scaled.counts - capped.counts * 256 / 512) <= 1)

    @settings(max_examples=200, deadline=None)
    @given(
        expert_counts,
        st.floats(0.01, 4.0),
        st.integers(0, 200),
    )
    def test_apportion_matches_the_loop(self, counts, scale, extra):
        """``extra`` tokens beyond the floors: a deficit of zero, below the
        expert count and several times it."""
        total = int(np.floor(counts * scale).astype(int).sum()) + extra
        got = _apportion(counts, scale, total)
        expected = deficit_loop(counts, scale, total)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    @settings(max_examples=100, deadline=None)
    @given(expert_counts, st.integers(0, 20000))
    def test_scaled_to_matches_the_loop(self, counts, num_tokens):
        routing = RoutingResult(counts=counts, num_tokens=int(counts.sum()))
        scaled = routing.scaled_to(num_tokens)
        assert scaled.num_tokens == num_tokens
        if routing.num_tokens == 0 or num_tokens == routing.num_tokens:
            return  # the loop never ran on these paths
        expected = deficit_loop(counts, num_tokens / routing.num_tokens,
                                num_tokens)
        assert np.array_equal(scaled.counts, expected)
        assert int(scaled.counts.sum()) == num_tokens

    @settings(max_examples=150, deadline=None)
    @given(layer_routings(), st.data())
    def test_scale_routings_matches_the_per_layer_loop(self, routings, data):
        """The token count is any count, zero, or one of the routings' own
        (the identity case)."""
        num_tokens = data.draw(st.one_of(
            st.integers(0, 20000),
            st.sampled_from([r.num_tokens for r in routings]),
        ))
        scaled = scale_routings(routings, num_tokens)
        assert len(scaled) == len(routings)
        for routing, got in zip(routings, scaled):
            assert got.num_tokens == num_tokens
            assert np.array_equal(
                got.counts, scaled_to_oracle(routing, num_tokens)
            )
            if routing.num_tokens == num_tokens:
                assert got is routing

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 64),
        st.lists(st.tuples(st.floats(0.01, 4.0), st.integers(0, 200)),
                 min_size=1, max_size=8),
        st.data(),
    )
    def test_apportion_rows_match_the_loop(self, experts, rows, data):
        """Row-wise apportioning with a deficit of zero, below the expert
        count and several times it in each row."""
        counts = np.array([
            data.draw(st.lists(st.integers(0, data.draw(
                st.sampled_from([2, 5000]))), min_size=experts,
                max_size=experts))
            for _ in rows
        ])
        scale = np.array([s for s, _ in rows])
        total = np.array([
            int(np.floor(c * s).astype(int).sum()) + extra
            for c, (s, extra) in zip(counts, rows)
        ])
        got = _apportion(counts, scale, total)
        for row, c, s, t in zip(got, counts, scale, total):
            assert np.array_equal(row, deficit_loop(c, s, int(t)))

    @settings(max_examples=100, deadline=None)
    @given(expert_counts, st.integers(1, 512))
    def test_routing_sample_mask_matches_the_loop(self, counts, rows):
        mask = routing_sample_mask(counts, rows)
        assert mask.shape == (rows, counts.size)
        assert np.array_equal(mask.sum(axis=1), np.ones(rows))
        total = int(counts.sum())
        if total:
            share = deficit_loop(counts, rows / total, rows)
            assert np.array_equal(mask.sum(axis=0), share)


class TestPruning:
    def test_schedule_monotone(self):
        s = PruningSchedule(0.0, 0.98, 10)
        vals = [s.sparsity_at(i) for i in range(10)]
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(0.98)

    def test_magnitude_pruner_keeps_largest(self):
        w = np.zeros((8, 8))
        w[0:4, 0:4] = 100.0  # one overwhelmingly large block
        mask = MagnitudePruner((4, 4)).mask(w, sparsity=0.75)
        assert mask[0:4, 0:4].all()
        assert mask.sum() == 16

    def test_mask_sparsity_exact(self):
        w = np.random.default_rng(0).standard_normal((64, 64))
        mask = MagnitudePruner((32, 1)).mask(w, 0.9)
        assert mask_sparsity(mask) == pytest.approx(0.9, abs=0.02)

    def test_mask_stream_changes(self):
        w = np.random.default_rng(1).standard_normal((64, 64))
        stream = list(
            MagnitudePruner((32, 1)).mask_stream(
                w, PruningSchedule(0.5, 0.9, 4), drift=0.5, seed=0
            )
        )
        assert len(stream) == 4
        assert not np.array_equal(stream[0][2], stream[-1][2])

    def test_granular_mask_shape_check(self):
        with pytest.raises(ValueError):
            granular_mask((100, 100), (32, 1), 0.5)

    def test_two_four_mask(self):
        mask = two_four_mask((16, 64), seed=0)
        runs = mask.reshape(16, 16, 4)
        assert (runs.sum(axis=-1) == 2).all()


class TestPatternStudy:
    def test_fingerprint_sensitive(self):
        a = np.array([[True, False]])
        b = np.array([[False, True]])
        assert pattern_fingerprint(a) != pattern_fingerprint(b)

    def test_hit_counter(self):
        c = PatternHitCounter()
        p = np.eye(4, dtype=bool)
        assert not c.observe(p)
        assert c.observe(p)
        assert c.hit_ratio == pytest.approx(0.5)

    def test_relu_patterns_never_repeat(self):
        """Figure 20's conclusion at small scale: fresh masks don't repeat."""
        from repro.sparsity import relu_pattern_stream

        c = PatternHitCounter()
        for mask in relu_pattern_stream(32, 128, 0.95, 50, seed=0):
            c.observe(mask)
        assert c.hit_ratio == 0.0
