"""Compact on-disk triple store for out-of-core evaluation.

A :class:`CompactGraph` is the million-entity counterpart of the in-memory
:class:`~repro.kg.graph.KnowledgeGraph`: the three splits live on disk as
``(n, 3)`` int32 ``.npy`` files (12 bytes per triple) that are memory-mapped
on open, the vocabularies stay on disk as plain label files that are only
read when labels are actually requested, and the filter index is the same
vectorised CSR build (:func:`~repro.kg.graph.build_filter_csr`) the
in-memory graph uses, run straight over the memory maps.

The store directory layout is::

    manifest.json     format/version, counts, dataset name, ingest stats
    train.npy         (n_train, 3) int32 (int64 when ids do not fit)
    valid.npy         (n_valid, 3)
    test.npy          (n_test, 3)
    entities.txt      one label per line, line i = label of entity id i
    relations.txt     one label per line

Both graph backends build their index with the one builder, so on the
same triples the CSR arrays are bitwise-equal and evaluation ranks are
identical between them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.kg.graph import (
    FilterIndexCSR,
    KnowledgeGraph,
    Side,
    TripleSet,
    build_filter_csr,
    id_dtype,
)

COMPACT_FORMAT = "repro-compact-graph"
COMPACT_VERSION = 1

SPLITS = ("train", "valid", "test")


def unique_rows_in_order(rows: np.ndarray) -> np.ndarray:
    """Drop duplicate rows of an ``(n, k)`` integer array, keeping first
    occurrences in encounter order.

    Works on the raw row bytes (a void view), so it never forms composite
    integer keys that could overflow for very large vocabularies.
    """
    if rows.shape[0] == 0:
        return rows
    contiguous = np.ascontiguousarray(rows)
    void = contiguous.view(
        np.dtype((np.void, contiguous.dtype.itemsize * contiguous.shape[1]))
    ).ravel()
    _, first = np.unique(void, return_index=True)
    return contiguous[np.sort(first)]


def _read_labels(path: Path) -> list[str]:
    with path.open("r", encoding="utf-8") as handle:
        return [line.rstrip("\n") for line in handle]


def _write_labels(path: Path, labels: Sequence[str]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for label in labels:
            handle.write(label)
            handle.write("\n")


class CompactGraph:
    """A memory-mapped, evaluation-ready view of a compact store directory.

    Duck-types the slice of the :class:`~repro.kg.graph.KnowledgeGraph`
    interface the evaluation engine touches — ``num_entities`` /
    ``num_relations`` / ``name``, the split :class:`TripleSet` properties,
    ``filter_index``, ``true_answers`` and the ``evaluation_plans``
    cache — while keeping memory flat in
    the vocabulary size: split arrays are int32 memory maps, the filter
    index is built from them without an int64 copy of the triples, and
    label files are read lazily.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        manifest_path = self.directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        if manifest.get("format") != COMPACT_FORMAT:
            raise ValueError(
                f"{manifest_path} is not a {COMPACT_FORMAT} manifest"
            )
        if int(manifest.get("version", 0)) > COMPACT_VERSION:
            raise ValueError(
                f"compact store version {manifest['version']} is newer than "
                f"supported version {COMPACT_VERSION}"
            )
        self.manifest = manifest
        self.name: str = manifest.get("name", self.directory.name)
        self.num_entities: int = int(manifest["num_entities"])
        self.num_relations: int = int(manifest["num_relations"])
        self._splits: dict[str, np.ndarray] = {}
        self._triple_sets: dict[str, TripleSet] = {}
        self._filter_index: FilterIndexCSR | None = None
        #: Evaluation plans over this graph (see ``KnowledgeGraph``).
        self.evaluation_plans: list = []
        self._entity_labels: list[str] | None = None
        self._relation_labels: list[str] | None = None

    # ------------------------------------------------------------------
    # Splits
    # ------------------------------------------------------------------
    def split_array(self, split: str) -> np.ndarray:
        """The raw ``(n, 3)`` memory-mapped array of one split."""
        if split not in SPLITS:
            raise KeyError(
                f"unknown split {split!r}; expected train, valid or test"
            )
        if split not in self._splits:
            self._splits[split] = np.load(
                self.directory / f"{split}.npy", mmap_mode="r"
            )
        return self._splits[split]

    def _triple_set(self, split: str) -> TripleSet:
        # TripleSet casts to int64; eval splits are small so this is cheap,
        # and the filter index below never goes through TripleSet at all.
        if split not in self._triple_sets:
            self._triple_sets[split] = TripleSet(
                np.asarray(self.split_array(split))
            )
        return self._triple_sets[split]

    @property
    def train(self) -> TripleSet:
        return self._triple_set("train")

    @property
    def valid(self) -> TripleSet:
        return self._triple_set("valid")

    @property
    def test(self) -> TripleSet:
        return self._triple_set("test")

    def num_triples(self, split: str) -> int:
        return int(self.manifest["splits"][split])

    # ------------------------------------------------------------------
    # Filter index
    # ------------------------------------------------------------------
    @property
    def filter_index(self) -> FilterIndexCSR:
        """The CSR filter index over all splits, built once, lazily."""
        if self._filter_index is None:
            self._filter_index = build_filter_csr(
                self.num_entities,
                self.num_relations,
                [self.split_array(split) for split in SPLITS],
            )
        return self._filter_index

    def true_answers(self, anchor: int, relation: int, side: Side) -> np.ndarray:
        """Known true answers across all splits."""
        return self.filter_index.true_answers(anchor, relation, side)

    # ------------------------------------------------------------------
    # Vocabularies (lazy — label files are only read when asked for)
    # ------------------------------------------------------------------
    def entity_labels(self) -> list[str]:
        if self._entity_labels is None:
            self._entity_labels = _read_labels(self.directory / "entities.txt")
        return self._entity_labels

    def relation_labels(self) -> list[str]:
        if self._relation_labels is None:
            self._relation_labels = _read_labels(
                self.directory / "relations.txt"
            )
        return self._relation_labels

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def to_knowledge_graph(self) -> KnowledgeGraph:
        """Materialise a full in-memory :class:`KnowledgeGraph`.

        Intended for small stores (tests, inspection); this loads the
        vocabularies and casts every split to int64.
        """
        from repro.kg.vocabulary import Vocabulary

        return KnowledgeGraph(
            entities=Vocabulary(self.entity_labels()),
            relations=Vocabulary(self.relation_labels()),
            train=self.train,
            valid=self.valid,
            test=self.test,
            name=self.name,
        )

    def __iter__(self) -> Iterator[str]:  # pragma: no cover — guard
        raise TypeError("CompactGraph is not iterable; use .train/.valid/.test")

    def __repr__(self) -> str:
        splits = self.manifest.get("splits", {})
        return (
            f"CompactGraph(name={self.name!r}, |E|={self.num_entities}, "
            f"|R|={self.num_relations}, "
            + ", ".join(f"{s}={splits.get(s, '?')}" for s in SPLITS)
            + f", dir={str(self.directory)!r})"
        )


def save_compact(
    graph: KnowledgeGraph,
    directory: str | Path,
    stats: Mapping[str, object] | None = None,
) -> Path:
    """Write an in-memory graph as a compact store directory.

    The inverse of :func:`open_compact` for graphs that already fit in
    memory; the streaming ingestion path
    (:func:`repro.datasets.ingest.ingest_directory`) writes the same layout
    without ever holding a full graph.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dtype = id_dtype(graph.num_entities)
    counts: dict[str, int] = {}
    for split in SPLITS:
        array = getattr(graph, split).array
        np.save(directory / f"{split}.npy", array.astype(dtype, copy=False))
        counts[split] = int(array.shape[0])
    _write_labels(directory / "entities.txt", graph.entities.labels())
    _write_labels(directory / "relations.txt", graph.relations.labels())
    manifest = {
        "format": COMPACT_FORMAT,
        "version": COMPACT_VERSION,
        "name": graph.name,
        "num_entities": graph.num_entities,
        "num_relations": graph.num_relations,
        "id_dtype": dtype.name,
        "splits": counts,
    }
    if stats:
        manifest["stats"] = dict(stats)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return directory


def open_compact(directory: str | Path) -> CompactGraph:
    """Open a compact store directory as a :class:`CompactGraph`."""
    return CompactGraph(directory)
