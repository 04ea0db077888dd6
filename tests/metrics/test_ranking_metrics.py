"""Ranking metrics: ranks, aggregation, AUC scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    RankingMetrics,
    aggregate_ranks,
    average_precision,
    rank_of,
    roc_auc,
)


class TestRankOf:
    def test_best(self):
        assert rank_of(1.0, np.array([0.1, 0.2])) == 1.0

    def test_worst(self):
        assert rank_of(0.0, np.array([0.1, 0.2])) == 3.0

    def test_tie_counts_half(self):
        # One tied competitor: mean of ranks 1 and 2.
        assert rank_of(0.5, np.array([0.5, 0.1])) == 1.5
        # Two tied competitors: mean of ranks 1, 2 and 3.
        assert rank_of(0.5, np.array([0.5, 0.5])) == 2.0

    def test_empty_candidates(self):
        assert rank_of(0.5, np.empty(0)) == 1.0


class TestAggregate:
    def test_hand_computed(self):
        metrics = aggregate_ranks([1.0, 2.0, 4.0])
        assert metrics.mrr == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert metrics.hits_at(1) == pytest.approx(1 / 3)
        assert metrics.hits_at(3) == pytest.approx(2 / 3)
        assert metrics.mean_rank == pytest.approx(7 / 3)
        assert metrics.num_queries == 3

    def test_empty(self):
        metrics = aggregate_ranks([])
        assert metrics.mrr == 0.0
        assert metrics.num_queries == 0

    def test_array_and_iterables_aggregate_alike(self, rng):
        ranks = rng.integers(1, 50, size=20).astype(float)
        keyed = dict(enumerate(ranks.tolist()))
        from_array = aggregate_ranks(ranks)
        assert aggregate_ranks(keyed.values()) == from_array
        assert aggregate_ranks(iter(ranks.tolist())) == from_array

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            aggregate_ranks([0.5])

    def test_metric_lookup(self):
        metrics = aggregate_ranks([1.0, 2.0])
        assert metrics.metric("mrr") == metrics.mrr
        assert metrics.metric("hits@10") == metrics.hits_at(10)
        assert metrics.metric("mean_rank") == metrics.mean_rank
        with pytest.raises(KeyError):
            metrics.metric("ndcg")

    def test_as_dict(self):
        d = aggregate_ranks([1.0]).as_dict()
        assert set(d) == {"mrr", "mean_rank", "hits@1", "hits@3", "hits@10"}

    @settings(max_examples=50)
    @given(st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=50))
    def test_property_mrr_bounds(self, ranks):
        metrics = aggregate_ranks(ranks)
        assert 0.0 < metrics.mrr <= 1.0
        assert metrics.hits_at(1) <= metrics.hits_at(3) <= metrics.hits_at(10)


class TestAUC:
    def test_perfect_separation(self):
        assert roc_auc(np.array([2.0, 3.0]), np.array([0.0, 1.0])) == 1.0

    def test_chance_level(self):
        assert roc_auc(np.array([1.0]), np.array([1.0])) == 0.5

    def test_inverted(self):
        assert roc_auc(np.array([0.0]), np.array([1.0])) == 0.0

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_auc(np.empty(0), np.array([1.0]))

    def test_average_precision_perfect(self):
        assert average_precision(np.array([2.0, 3.0]), np.array([0.0])) == 1.0

    def test_average_precision_hand_computed(self):
        # Order: pos(3), neg(2), pos(1) -> AP = (1/1 + 2/3) / 2.
        ap = average_precision(np.array([3.0, 1.0]), np.array([2.0]))
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    @settings(max_examples=40)
    @given(
        pos=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
        neg=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
    )
    def test_property_auc_bounds(self, pos, neg):
        value = roc_auc(np.asarray(pos), np.asarray(neg))
        assert 0.0 <= value <= 1.0
