"""Compact on-disk triple store for out-of-core evaluation.

:func:`open_compact` opens a store directory as a plain
:class:`~repro.kg.graph.KnowledgeGraph`, so every graph method, index and
evaluator runs on a store as on any other graph:

* each split is an ``(n, 3)`` int32 ``.npy`` file (12 bytes per triple),
  memory-mapped into its :class:`~repro.kg.graph.TripleSet` without a
  copy — the filter and observed indexes are built straight over the
  maps;
* each vocabulary is a :meth:`~repro.kg.vocabulary.Vocabulary.from_file`
  label file, read on the first label lookup, never to answer a size;
* the graph validates the stored ids when it opens, and the store's row
  and label counts against its manifest.

The store directory layout is::

    manifest.json     format/version, counts, dataset name, ingest stats
    train.npy         (n_train, 3) int32 (int64 when ids do not fit)
    valid.npy         (n_valid, 3)
    test.npy          (n_test, 3)
    entities.txt      one label per line, line i = label of entity id i
    relations.txt     one label per line

:func:`save_compact` writes it from an in-memory graph and
:func:`repro.datasets.ingest.ingest_files` streams it from raw files,
both through :func:`write_store_metadata`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Mapping

import numpy as np

from repro.kg.graph import KnowledgeGraph, TripleSet, id_dtype
from repro.kg.vocabulary import Vocabulary

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


def _write_labels(path: Path, labels: Collection[str]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        handle.writelines(f"{label}\n" for label in labels)


def write_store_metadata(
    directory: Path,
    name: str,
    entities: Collection[str],
    relations: Collection[str],
    splits: Mapping[str, int],
    stats: Mapping[str, object] | None = None,
) -> None:
    """Write every file of a store but its split arrays: the two label
    files (in id order) and the manifest, whose ``splits`` are the row
    counts of the split arrays the caller has saved."""
    _write_labels(directory / "entities.txt", entities)
    _write_labels(directory / "relations.txt", relations)
    manifest = {
        "format": COMPACT_FORMAT,
        "version": COMPACT_VERSION,
        "name": name,
        "num_entities": len(entities),
        "num_relations": len(relations),
        "id_dtype": id_dtype(len(entities)).name,
        "splits": dict(splits),
    }
    if stats:
        manifest["stats"] = dict(stats)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
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
    for split in SPLITS:
        np.save(directory / f"{split}.npy", getattr(graph, split).array.astype(dtype, copy=False))
    write_store_metadata(
        directory,
        graph.name,
        graph.entities.labels(),
        graph.relations.labels(),
        {split: len(getattr(graph, split)) for split in SPLITS},
        stats,
    )
    return directory


def open_compact(directory: str | Path) -> KnowledgeGraph:
    """Open a compact store directory as a :class:`KnowledgeGraph`.

    ``ValueError`` for a foreign or newer manifest, a split whose row
    count is not the manifest's, or an id outside the vocabulary; a label
    file of the wrong length raises on the first label lookup.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("format") != COMPACT_FORMAT:
        raise ValueError(f"{manifest_path} is not a {COMPACT_FORMAT} manifest")
    if int(manifest.get("version", 0)) > COMPACT_VERSION:
        raise ValueError(
            f"compact store version {manifest['version']} is newer than "
            f"supported version {COMPACT_VERSION}"
        )
    splits: dict[str, TripleSet] = {}
    for split in SPLITS:
        array = np.load(directory / f"{split}.npy", mmap_mode="r")
        expected = int(manifest["splits"][split])
        if array.shape[0] != expected:
            raise ValueError(
                f"{directory / split}.npy holds {array.shape[0]} triples; "
                f"the manifest says {expected}"
            )
        splits[split] = TripleSet(array)
    return KnowledgeGraph(
        entities=Vocabulary.from_file(directory / "entities.txt", manifest["num_entities"]),
        relations=Vocabulary.from_file(directory / "relations.txt", manifest["num_relations"]),
        name=manifest.get("name", directory.name),
        **splits,
    )
