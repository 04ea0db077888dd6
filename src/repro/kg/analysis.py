"""Structural analysis of knowledge graphs.

Two analyses the paper's discussion leans on:

* **relation cardinality classification** (Section 2's 1-1 / 1-M / M-1 /
  M-M taxonomy) — classified empirically from the training split using
  the classic Bordes et al. criterion (average tails per head and heads
  per tail, thresholded at 1.5).  PT's failure mode lives exactly in the
  1-1 / M-1 head sets and 1-1 / 1-M tail sets this classifier finds;
* **connectivity summary** — component structure of the underlying
  undirected entity graph (via networkx), which bounds what any
  structure-only recommender can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.datasets.schema import Cardinality
from repro.kg.graph import HEAD, TAIL, KnowledgeGraph


@dataclass(frozen=True)
class RelationProfile:
    """Empirical shape of one relation in the training split."""

    relation: int
    name: str
    num_triples: int
    tails_per_head: float
    heads_per_tail: float
    cardinality: Cardinality

    def as_row(self) -> dict[str, float | int | str]:
        return {
            "Relation": self.name,
            "Triples": self.num_triples,
            "Tails/head": round(self.tails_per_head, 2),
            "Heads/tail": round(self.heads_per_tail, 2),
            "Class": self.cardinality.value,
        }


def classify_cardinality(
    tails_per_head: float, heads_per_tail: float, threshold: float = 1.5
) -> Cardinality:
    """Bordes et al. (2013) cardinality classification.

    A side is "many" when its average multiplicity exceeds ``threshold``.
    """
    head_many = heads_per_tail > threshold
    tail_many = tails_per_head > threshold
    if head_many and tail_many:
        return Cardinality.MANY_TO_MANY
    if head_many:
        return Cardinality.MANY_TO_ONE
    if tail_many:
        return Cardinality.ONE_TO_MANY
    return Cardinality.ONE_TO_ONE


def relation_profiles(
    graph: KnowledgeGraph, threshold: float = 1.5
) -> list[RelationProfile]:
    """Empirical cardinality profile of every relation (training split)."""
    profiles: list[RelationProfile] = []
    triples = graph.train.array
    for relation in range(graph.num_relations):
        mask = triples[:, 1] == relation
        count = int(mask.sum())
        if count == 0:
            tails_per_head = heads_per_tail = 0.0
        else:
            heads = triples[mask, 0]
            tails = triples[mask, 2]
            tails_per_head = count / np.unique(heads).size
            heads_per_tail = count / np.unique(tails).size
        profiles.append(
            RelationProfile(
                relation=relation,
                name=graph.relations.label_of(relation),
                num_triples=count,
                tails_per_head=float(tails_per_head),
                heads_per_tail=float(heads_per_tail),
                cardinality=classify_cardinality(
                    tails_per_head, heads_per_tail, threshold
                ),
            )
        )
    return profiles


def unseen_candidate_exposure(graph: KnowledgeGraph) -> dict[str, float]:
    """Fraction of test queries whose answer was unseen on its side.

    This is the mass PT structurally misses (its "CR Unseen = 0"): test
    triples whose head was never a training head of the relation, or
    whose tail never a training tail.  Dominated by the 1-1 / 1-M / M-1
    relations, which is why the paper calls PT's limitation "detrimental"
    exactly there.
    """
    test = graph.test
    exposure = {}
    for side in (HEAD, TAIL):
        seen = graph.observed_index[side].contains(test.relations, test.entities(side))
        exposure[side] = int(np.count_nonzero(~seen)) / len(test) if len(test) else 0.0
    return exposure


@dataclass(frozen=True)
class ConnectivitySummary:
    """Component structure of the undirected entity graph."""

    num_entities: int
    num_components: int
    largest_component: int
    density: float

    def as_row(self) -> dict[str, float | int]:
        return {
            "|E|": self.num_entities,
            "Components": self.num_components,
            "Largest": self.largest_component,
            "Density": round(self.density, 5),
        }


def connectivity_summary(graph: KnowledgeGraph) -> ConnectivitySummary:
    """Component count / giant-component size / density of the train graph."""
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_entities))
    g.add_edges_from(
        (int(h), int(t)) for h, _, t in graph.train
    )
    components = list(nx.connected_components(g))
    largest = max((len(c) for c in components), default=0)
    return ConnectivitySummary(
        num_entities=graph.num_entities,
        num_components=len(components),
        largest_component=largest,
        density=float(nx.density(g)),
    )
