"""Sampling-complexity accounting (paper Section 4, Table 3).

An entity-aware candidate generator must draw one candidate pool per
distinct ``(h, r)`` / ``(r, t)`` query pair, so its sampling cost grows as
``O(f_s * |E| * |KG_test|)``.  A relation recommender is agnostic to the
anchoring entity and draws once per (relation, side): ``2 * |R|`` pools of
``f_s * |E|`` candidates.  These functions compute both counts and the
resulting reduction factor for any graph, reproducing Table 3's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kg.graph import KnowledgeGraph, TripleSet
from repro.kg.stats import distinct_query_pairs


def distinct_test_relations(split: TripleSet) -> int:
    """Distinct relations occurring in the split (the (·,r,·)-instances row)."""
    if len(split) == 0:
        return 0
    return int(len(set(split.relations.tolist())))


@dataclass(frozen=True)
class SamplingComplexity:
    """One Table 3 column: sampling costs of both generator families."""

    dataset_name: str
    sample_fraction: float
    num_entities: int
    num_relations: int
    test_pairs: int
    test_relations: int

    @property
    def samples_per_pool(self) -> int:
        return int(round(self.sample_fraction * self.num_entities))

    @property
    def entity_aware_samples(self) -> int:
        """Pools per distinct query pair (the upper block of Table 3)."""
        return self.test_pairs * self.samples_per_pool

    @property
    def relational_samples(self) -> int:
        """Pools per (relation, side): ``2 |R|`` draws (the lower block).

        Only relations actually present in the test split need pools, so
        the count uses ``2 * test_relations`` exactly as the paper counts
        (·,r,·)-instances rather than the full vocabulary.
        """
        return 2 * self.test_relations * self.samples_per_pool

    @property
    def reduction_factor(self) -> float:
        """How many times fewer samples the relational scheme draws."""
        if self.relational_samples == 0:
            return float("inf")
        return self.entity_aware_samples / self.relational_samples

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "Dataset": self.dataset_name,
            "# (h,r)- & (r,t)-pairs": self.test_pairs,
            "# Samples (entity-aware)": self.entity_aware_samples,
            "(.,r,.)-instances": self.test_relations,
            "# Samples (relational)": self.relational_samples,
            "Sampling reduction": round(self.reduction_factor, 2),
        }


def sampling_complexity(
    graph: KnowledgeGraph,
    sample_fraction: float = 0.025,
    split: str = "test",
) -> SamplingComplexity:
    """Compute Table 3's sampling-cost comparison for one dataset."""
    if not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample_fraction must be in (0, 1], got {sample_fraction}")
    triples: TripleSet = getattr(graph, split)
    return SamplingComplexity(
        dataset_name=graph.name,
        sample_fraction=sample_fraction,
        num_entities=graph.num_entities,
        num_relations=graph.num_relations,
        test_pairs=distinct_query_pairs(triples),
        test_relations=distinct_test_relations(triples),
    )
