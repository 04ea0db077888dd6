"""Knowledge-graph substrate: vocabularies, triples, typing, splits, IO."""

from repro.kg.analysis import (
    ConnectivitySummary,
    RelationProfile,
    classify_cardinality,
    connectivity_summary,
    relation_profiles,
    unseen_candidate_exposure,
)
from repro.kg.graph import (
    HEAD,
    SIDES,
    TAIL,
    FilterIndexCSR,
    KnowledgeGraph,
    Side,
    TripleSet,
    build_filter_csr,
    build_graph,
    id_dtype,
)
from repro.kg.triples import open_compact, save_compact, unique_rows_in_order
from repro.kg.split import SplitFractions, random_split, split_graph, transductive_split
from repro.kg.stats import DatasetStatistics, dataset_statistics, distinct_query_pairs
from repro.kg.typing import TypeStore, build_type_store
from repro.kg.vocabulary import Vocabulary

__all__ = [
    "HEAD",
    "SIDES",
    "TAIL",
    "ConnectivitySummary",
    "DatasetStatistics",
    "FilterIndexCSR",
    "KnowledgeGraph",
    "RelationProfile",
    "Side",
    "SplitFractions",
    "TripleSet",
    "TypeStore",
    "Vocabulary",
    "build_filter_csr",
    "build_graph",
    "build_type_store",
    "classify_cardinality",
    "connectivity_summary",
    "dataset_statistics",
    "distinct_query_pairs",
    "id_dtype",
    "open_compact",
    "random_split",
    "save_compact",
    "unique_rows_in_order",
    "relation_profiles",
    "split_graph",
    "transductive_split",
    "unseen_candidate_exposure",
]
