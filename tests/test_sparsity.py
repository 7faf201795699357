"""Tests for the dynamic-sparsity workload generators."""

import hashlib
import warnings
from types import SimpleNamespace

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
    RoutingTable,
    as_mask_stats,
    capacity_tokens,
    get_dataset,
    global_token_positions,
    granular_mask,
    longformer_mask,
    longformer_mask_rows,
    longformer_mask_stats,
    mask_sparsity,
    museformer_mask_rows,
    museformer_mask_stats,
    museformer_summary_positions,
    pattern_fingerprint,
    relu_activation_mask,
    seqlen_pattern_stream,
    two_four_mask,
)
from repro.sparsity.attention import representative_attention_mask
from repro.sparsity.moe import _apportion, routing_sample_mask

from moe_oracle import deficit_loop, layer_routings, scaled_to


def museformer_mask(seq_len, *, bar_len=256, fine_bars=2, summary_stride=4, seed=0):
    """The full ``[seq, seq]`` Museformer mask: the dense reference for
    :func:`museformer_mask_stats`, which streams the same rows in chunks."""
    summaries = museformer_summary_positions(seq_len, bar_len, summary_stride, seed)
    return museformer_mask_rows(0, seq_len, seq_len, bar_len, fine_bars, summaries)


def cover_cells(mask, h, w):
    """Which ``(h, w)`` cells of ``mask`` hold a non-zero, the mask padded
    with zeros to whole cells."""
    rows = -(-mask.shape[0] // h) * h
    cols = -(-mask.shape[1] // w) * w
    padded = np.zeros((rows, cols), dtype=bool)
    padded[: mask.shape[0], : mask.shape[1]] = mask
    return padded.reshape(rows // h, h, cols // w, w).any(axis=(1, 3))


#: Masks for the statistics oracle: sequence lengths off the 32/48 grids,
#: an empty mask, and one longer than a 2048-row statistics chunk.
STATS_MASKS = {
    "longformer": lambda: longformer_mask(256, 32, num_global=4, seed=1),
    "museformer": lambda: museformer_mask(300, bar_len=64, seed=2),
    "random": lambda: np.random.default_rng(3).random((200, 200)) < 0.05,
    "empty": lambda: np.zeros((64, 64), dtype=bool),
    "longformer-2100": lambda: longformer_mask(2100, 64, num_global=8, seed=4),
}


#: Per-expert loads: zeros, a single expert and up to 64 experts.
expert_counts = st.lists(st.integers(0, 5000), min_size=1, max_size=64).map(
    np.array
)


@st.composite
def routing_tables(draw):
    """One request's routing table: tied loads (counts 0-2), rows nothing
    reached, capped rows (tokens that reached no expert) and tables of zero
    tokens."""
    experts = draw(st.integers(1, 64))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        top = draw(st.sampled_from([2, 5000]))
        row = draw(st.lists(st.integers(0, top), min_size=experts,
                            max_size=experts))
        rows.append([0] * experts if draw(st.integers(0, 9)) == 0 else row)
    counts = np.array(rows)
    num_tokens = int(counts.sum(axis=1).max()) + draw(st.integers(0, 50))
    if draw(st.integers(0, 9)) == 0:
        counts[:] = num_tokens = 0
    return RoutingTable(tuple(range(len(rows))), counts, num_tokens)


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

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="known"):
            get_dataset("imagenet21k")


class TestActivation:
    def test_target_sparsity(self):
        mask = relu_activation_mask(512, 3072, 0.99, seed=0)
        assert mask_sparsity(mask) == pytest.approx(0.99, abs=0.005)

    def test_dynamic_across_seeds(self):
        a = relu_activation_mask(64, 512, 0.95, seed=0)
        b = relu_activation_mask(64, 512, 0.95, seed=1)
        assert not np.array_equal(a, b)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            relu_activation_mask(8, 8, 1.0)

    @pytest.mark.parametrize("args,digest", [
        # 0 rows
        ((0, 4096, 0.99, 0),
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # 1 row
        ((1, 3072, 0.95, 1),
         "7148b738fabfa33d31da61411d2d25277924478dff8758662d1e55b92643095d"),
        # a row count that is not a multiple of the draw block
        ((209, 3072, 0.99, 2),
         "6ef5a5962a3fe82dacab5ac3b994a5e6305105f93d03e969133c839157d31af5"),
        # hidden < 50: no hot neurons
        ((100, 40, 0.9, 3),
         "26497ce6ddcfd590c01e3fc67d93c2fbd923e1a4ca42574d520795087a0eb873"),
        # sparsity 0.0
        ((128, 256, 0.0, 4),
         "434b6e372dc701bd9fb3bd2cfa4d37124d553bb6943d665ce8d83bb6dd8c6304"),
        # the largest backend ffn-act draw of a drifting serving pass
        ((920, 4096, 0.95, 5),
         "ba4d07a08f206bf03f67a9c22a49d0667c587eee9ad69ef3e69121f33acc3077"),
    ])
    def test_draw_stream_is_pinned(self, args, digest):
        """The masks' bytes, pinned from the one full-size uniform draw:
        drawing in row blocks must consume the same PCG64 stream."""
        rows, hidden, sparsity, seed = args
        mask = relu_activation_mask(rows, hidden, sparsity, seed=seed)
        assert mask.shape == (rows, hidden) and mask.dtype == bool
        assert hashlib.sha256(mask.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("shape", [(0, 10), (3, 0)])
    def test_empty_mask_warns_nothing(self, shape):
        """An empty mask has no used share to average (it warned "Mean of
        empty slice")."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = relu_activation_mask(*shape, 0.5)
        assert mask.shape == shape


def banded_mask_loop(density: float, rows: int, cols: int) -> np.ndarray:
    """The per-row loop that built the banded cold-plan stand-in: the
    reference for :func:`representative_attention_mask`."""
    width = max(1, min(cols, int(round(density * cols))))
    mask = np.zeros((rows, cols), dtype=bool)
    for i in range(rows):
        center = int(round(i * (cols - 1) / max(1, rows - 1)))
        lo = max(0, min(center - width // 2, cols - width))
        mask[i, lo:lo + width] = True
    return mask


class TestAttentionMasks:
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

    def test_longformer_rows_concatenate_to_the_full_mask(self):
        full = longformer_mask(300, 40, num_global=5, seed=4)
        globals_ = global_token_positions(300, 5, 4)
        chunks = [
            longformer_mask_rows(lo, min(300, lo + 64), 300, 40, globals_)
            for lo in range(0, 300, 64)
        ]
        np.testing.assert_array_equal(np.vstack(chunks), full)

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

    @pytest.mark.parametrize("micro_w,block", [(32, 32), (16, 48)])
    @pytest.mark.parametrize("name", list(STATS_MASKS))
    def test_counts_match_a_dense_oracle(self, name, micro_w, block):
        mask = STATS_MASKS[name]()
        stats = MaskStats.from_mask(mask, micro_w=micro_w, block=block)
        blocks = cover_cells(mask, block, block)
        assert (stats.seq, stats.micro_w, stats.block) == (mask.shape[0], micro_w, block)
        assert stats.nnz == int(mask.sum())
        assert stats.covered_micro == int(cover_cells(mask, 1, micro_w).sum())
        assert stats.covered_micro_fine == int(cover_cells(mask, 1, 8).sum())
        assert stats.covered_blocks == int(blocks.sum())
        assert stats.row_blocks_nonzero == int(blocks.any(axis=1).sum())

    def test_best_micro_cover_takes_the_finer_width_on_scattered_columns(self):
        """Two global-token columns: a 32-wide micro-tile stores 32 elements
        per hit, the 8-wide one only 8."""
        mask = np.zeros((64, 64), dtype=bool)
        mask[:, [3, 40]] = True
        stats = MaskStats.from_mask(mask)
        assert stats.covered_micro_elems() == 64 * 2 * 32
        assert stats.best_micro_cover_elems() == 64 * 2 * 8
        assert stats.covered_block_elems() == 2 * 2 * 32 * 32

    def test_best_micro_cover_without_a_fine_count(self):
        stats = MaskStats(
            seq=64, nnz=40, micro_w=32, covered_micro=4, block=32,
            covered_blocks=1, row_blocks_nonzero=1,
        )
        assert stats.best_micro_cover_elems() == stats.covered_micro_elems() == 128

    def test_plan_signature_quantizes_density_and_cover(self):
        """Density 0.25 and micro-cover 0.5 land in buckets 5 and 10 at the
        default quantum; a density within half a quantum shares them."""
        base = dict(seq=64, micro_w=32, covered_micro=64, block=32,
                    covered_blocks=4, row_blocks_nonzero=2)
        stats = MaskStats(nnz=1024, **base)
        assert stats.plan_signature() == (64, 5, 10, 32, 32)
        assert MaskStats(nnz=1050, **base).plan_signature() == stats.plan_signature()

    def test_plan_signature_moves_with_the_mask_structure(self):
        base = longformer_mask_stats(1024, 128, num_global=8, seed=0)
        wider = longformer_mask_stats(1024, 512, num_global=8, seed=0)
        more_global = longformer_mask_stats(1024, 128, num_global=64, seed=0)
        signatures = {s.plan_signature() for s in (base, wider, more_global)}
        assert len(signatures) == 3

    def test_merged_weights_every_count(self):
        a = longformer_mask_stats(256, 32, num_global=4, seed=0)
        b = longformer_mask_stats(256, 96, num_global=4, seed=1)
        merged = MaskStats.merged([a, b], weights=[3, 1])
        for field in ("nnz", "covered_micro", "covered_micro_fine",
                      "covered_blocks", "row_blocks_nonzero"):
            expected = round(0.75 * getattr(a, field) + 0.25 * getattr(b, field))
            assert getattr(merged, field) == expected, field
        assert (merged.seq, merged.micro_w, merged.block) == (256, 32, 32)
        assert MaskStats.merged([a]) is a

    def test_merged_rejects_incompatible_inputs(self):
        a = longformer_mask_stats(256, 32, seed=0)
        with pytest.raises(ValueError, match="zero"):
            MaskStats.merged([])
        with pytest.raises(ValueError, match="shapes"):
            MaskStats.merged([a, longformer_mask_stats(128, 32, seed=0)])
        with pytest.raises(ValueError, match="weights"):
            MaskStats.merged([a, a], weights=[1, 1, 1])
        with pytest.raises(ValueError, match="weights"):
            MaskStats.merged([a, a], weights=[0, 0])

    def test_representative_mask_is_one_band_per_row(self):
        """The cold-plan stand-in: one contiguous run per row at the stats'
        density, following the scaled diagonal, the same on every call."""
        stats = longformer_mask_stats(1024, 128, seed=0)
        sample = representative_attention_mask(stats, 64, 256)
        assert sample.shape == (64, 256)
        assert (sample.sum(axis=1) == round(stats.density * 256)).all()
        rising = np.diff(sample.astype(int), axis=1, prepend=0) == 1
        assert (rising.sum(axis=1) == 1).all()
        assert sample[0, 0] and sample[-1, -1]
        np.testing.assert_array_equal(
            sample, representative_attention_mask(stats, 64, 256)
        )

    def test_representative_mask_matches_the_row_loop(self):
        """The vectorized build equals the per-row loop it replaced, kept
        here as the reference, on random (rows, cols, density) triples
        and the edges (one row, one column, empty and full density)."""
        rng = np.random.default_rng(23)
        triples = [(1, 1, 0.0), (1, 9, 1.0), (7, 1, 0.5), (2, 2, 0.5),
                   (512, 512, 0.1), (255, 1023, 0.999)]
        triples += [
            (int(rng.integers(1, 300)), int(rng.integers(1, 300)),
             float(rng.random()))
            for _ in range(300)
        ]
        for rows, cols, density in triples:
            stats = SimpleNamespace(density=density)
            sample = representative_attention_mask(stats, rows, cols)
            assert sample.dtype == bool
            np.testing.assert_array_equal(
                sample, banded_mask_loop(density, rows, cols),
                err_msg=f"{(rows, cols, density)}",
            )

    def test_representative_mask_rejects_an_empty_shape(self):
        stats = longformer_mask_stats(256, 32, seed=0)
        with pytest.raises(ValueError):
            representative_attention_mask(stats, 0, 8)


class TestMoE:
    def test_routing_conserves_tokens(self):
        router = Router(16, seed=0)
        result = router.route(1024, (1, 3), seed=1)
        assert result.counts.shape == (2, 16)
        assert result.num_experts == 16
        assert result.counts.sum(axis=1).tolist() == [1024, 1024]

    def test_routing_is_imbalanced(self):
        router = Router(64, concentration=0.3, seed=0)
        counts = router.route(2048, (0,), seed=0).counts
        assert counts.max() / counts.mean() > 2.0

    def test_popularity_stable_assignments_vary(self):
        router = Router(8, seed=0)
        a = router.assign(256, seed=1)
        b = router.assign(256, seed=2)
        assert not np.array_equal(a, b)

    def test_route_counts_each_layers_assign_draw(self):
        router = Router(8, concentration=0.3, seed=2)
        routing = router.route(300, (1, 4), seed=5)
        assert routing.layers == (1, 4) and routing.num_tokens == 300
        for row, layer in zip(routing.counts, routing.layers):
            assignment = router.assign(300, seed=5 * 131 + layer)
            assert np.array_equal(row, np.bincount(assignment, minlength=8))

    def test_capacity(self):
        assert capacity_tokens(1000, 10, 1.25) == 125

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Router(0)
        with pytest.raises(ValueError):
            capacity_tokens(10, 2, 0)
        with pytest.raises(ValueError):
            Router(4).route(8, (1,)).scaled(-1)

    def test_merged_tables_add_counts_and_tokens(self):
        a = RoutingTable((1, 3), np.array([[3, 0, 5], [0, 8, 0]]), 10)
        b = RoutingTable((1, 3), np.array([[1, 4, 0], [5, 0, 0]]), 5)
        merged = RoutingTable.merged([a, b])  # a cap dropped 2 of a's tokens
        assert merged.layers == (1, 3)
        np.testing.assert_array_equal(merged.counts, [[4, 4, 5], [5, 8, 0]])
        assert merged.num_tokens == 15
        assert RoutingTable.merged([a]) is a

    def test_merged_rejects_incompatible_tables(self):
        table = RoutingTable((1, 3), np.ones((2, 3), dtype=int), 3)
        with pytest.raises(ValueError, match="zero"):
            RoutingTable.merged([])
        with pytest.raises(ValueError, match="experts"):
            RoutingTable.merged(
                [table, RoutingTable((1, 3), np.ones((2, 4), dtype=int), 4)]
            )
        with pytest.raises(ValueError, match="layer sets"):
            RoutingTable.merged(
                [table, RoutingTable((1,), np.ones((1, 3), dtype=int), 3)]
            )

    def test_signature_quantizes_imbalance_and_live_experts(self):
        """Loads [6, 2, 0, 0]: imbalance 6 / 2 = 3.0, half the experts live."""
        routing = RoutingTable((1,), np.array([[6, 2, 0, 0]]), 8)
        assert routing.signature == (4, 60, 10)
        empty = RoutingTable((1, 3), np.zeros((2, 4), int), 0)
        assert empty.signature == (4, 0, 0)

    def test_signature_is_that_of_the_summed_rows(self):
        """A table's signature reads the loads summed across its layers, so
        a merge of several tables signs as their summed loads do."""
        tables = [Router(16, seed=0).route(512, (1, 3, 5), seed=s)
                  for s in range(3)]
        merged = RoutingTable.merged(tables)
        summed = RoutingTable((1,), merged.counts.sum(axis=0, keepdims=True),
                              merged.num_tokens)
        assert merged.signature == summed.signature

    def test_signature_separates_skewed_from_even_routers(self):
        skewed = Router(16, concentration=0.3, seed=0).route(4096, (1,), seed=1)
        even = Router(16, concentration=50.0, seed=0).route(4096, (1,), seed=1)
        assert skewed.signature != even.signature
        assert skewed.signature[1] > even.signature[1]  # the imbalance

    def test_scaled_capped_routing_keeps_dropping(self):
        """Rescaling a capped routing apportions its routed tokens only: the
        dropped share stays dropped, so the capped experts stay within one
        token of the capacity scaled by the same factor."""
        routing = Router(16, seed=1).route(512, (1,), seed=3)
        capped = RoutingTable(routing.layers, np.minimum(routing.counts, 40),
                              routing.num_tokens)
        routed = int(capped.counts.sum())
        assert routed < 512
        scaled = capped.scaled(256)
        assert scaled.num_tokens == 256
        assert scaled.counts.sum() == routed * 256 // 512
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

    @settings(max_examples=150, deadline=None)
    @given(routing_tables(), st.data())
    def test_scaled_table_matches_the_per_row_loop(self, table, data):
        """One apportioning pass over every row equals rescaling each row
        by itself; the token count is any count, zero, or the table's own
        (the identity case)."""
        num_tokens = data.draw(st.one_of(
            st.integers(0, 20000), st.just(table.num_tokens),
        ))
        scaled = table.scaled(num_tokens)
        assert scaled.num_tokens == num_tokens
        assert scaled.layers == table.layers
        for got, routing in zip(scaled.counts, layer_routings(table)):
            assert np.array_equal(got, scaled_to(routing, num_tokens).counts)
        if table.num_tokens == num_tokens:
            assert scaled is table

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 64),
        st.floats(0.01, 4.0),
        st.lists(st.integers(0, 200), min_size=1, max_size=8),
        st.data(),
    )
    def test_apportion_rows_match_the_loop(self, experts, scale, extras, data):
        """Row-wise apportioning at one scale, with a deficit of zero, below
        the expert count and several times it in each row."""
        counts = np.array([
            data.draw(st.lists(st.integers(0, data.draw(
                st.sampled_from([2, 5000]))), min_size=experts,
                max_size=experts))
            for _ in extras
        ])
        total = np.array([
            int(np.floor(c * scale).astype(int).sum()) + extra
            for c, extra in zip(counts, extras)
        ])
        got = _apportion(counts, scale, total)
        for row, c, t in zip(got, counts, total):
            assert np.array_equal(row, deficit_loop(c, scale, int(t)))

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

    def test_seqlen_pattern_stream_is_sorted_and_seeded(self):
        d = get_dataset("mnli")
        batches = list(seqlen_pattern_stream("mnli", 16, 3, seed=1))
        assert len(batches) == 3
        for lengths in batches:
            assert lengths.shape == (16,)
            assert (np.diff(lengths) >= 0).all()
            assert d.min_len <= lengths.min() and lengths.max() <= d.max_len
        assert not np.array_equal(batches[0], batches[1])
        for a, b in zip(batches, seqlen_pattern_stream("mnli", 16, 3, seed=1)):
            np.testing.assert_array_equal(a, b)
