"""Sampling-complexity accounting (Table 3)."""

import pytest

from repro.core import sampling_complexity
from repro.core.complexity import distinct_test_relations
from repro.kg.stats import distinct_query_pairs


class TestCounts:
    def test_pairs_counted_per_side(self, tiny_graph):
        # test split: one triple (0, likes, 3) -> 1 (h,r) + 1 (r,t) pair.
        assert distinct_query_pairs(tiny_graph.test) == 2

    def test_relations_in_split(self, tiny_graph):
        assert distinct_test_relations(tiny_graph.test) == 1
        assert distinct_test_relations(tiny_graph.train) == 3

    def test_empty_split(self, tiny_graph):
        from repro.kg import TripleSet

        assert distinct_test_relations(TripleSet([])) == 0


class TestComplexity:
    def test_sample_counts(self, codex_s):
        graph = codex_s.graph
        complexity = sampling_complexity(graph, sample_fraction=0.025)
        per_pool = round(0.025 * graph.num_entities)
        assert complexity.samples_per_pool == per_pool
        assert complexity.entity_aware_samples == complexity.test_pairs * per_pool
        assert (
            complexity.relational_samples
            == 2 * complexity.test_relations * per_pool
        )

    def test_relational_is_cheaper(self, codex_s):
        """Table 3's conclusion: at least an order of magnitude on real shapes."""
        complexity = sampling_complexity(codex_s.graph, sample_fraction=0.025)
        assert complexity.reduction_factor > 2.0

    def test_reduction_independent_of_fraction(self, codex_s):
        a = sampling_complexity(codex_s.graph, sample_fraction=0.01)
        b = sampling_complexity(codex_s.graph, sample_fraction=0.2)
        assert a.reduction_factor == pytest.approx(b.reduction_factor, rel=0.05)

    def test_fraction_validation(self, codex_s):
        with pytest.raises(ValueError):
            sampling_complexity(codex_s.graph, sample_fraction=0.0)

    def test_as_row_columns(self, codex_s):
        row = sampling_complexity(codex_s.graph).as_row()
        assert "Sampling reduction" in row
        assert row["Dataset"] == codex_s.graph.name
