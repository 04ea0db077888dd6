"""Streaming TSV / N-Triples ingestion into the compact triple store.

The ETL pass reads each split file line by line — the raw file is never
materialised — assigning vocabulary ids as labels are first encountered
(train, then valid, then test, each file top to bottom).  That is exactly
the id-assignment order of :func:`repro.kg.graph.build_graph`, so a graph
ingested from files and a graph built from the same triples in memory are
id-for-id identical.

Parsed triples are buffered as fixed-size int32 chunks (12 bytes per
triple), deduplicated per split in encounter order, and written straight
into a :mod:`repro.kg.triples` compact store directory — peak memory is
the vocabulary plus one split's id array, flat in the raw file size.

Formats:

* **TSV** — three tab-separated labels per line.  Blank lines are
  skipped, ``\r\n`` line endings are accepted, anything that does not
  split into exactly three fields raises :class:`IngestError` with the
  offending ``path:line``.
* **N-Triples** — ``<iri>`` or ``_:bnode`` subjects/objects, ``<iri>``
  predicates, a terminating ``.``.  ``#`` comment lines and blank lines
  are skipped.  IRIs are stored without their angle brackets.

Files ending in ``.gz`` are decompressed on the fly.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.kg.graph import INT32_LIMIT
from repro.kg.triples import SPLITS, unique_rows_in_order, write_store_metadata

#: Counter tracking triples written to compact stores, labelled by split
#: (documented in docs/observability.md).
INGEST_TRIPLES_COUNTER = "repro_ingest_triples_total"

#: Triples buffered per in-memory chunk during streaming ingestion.
_CHUNK_ROWS = 262_144

#: File stems recognised per split by :func:`discover_split_files`.
_SPLIT_SUFFIXES = (".tsv", ".txt", ".nt")

_NT_LINE = re.compile(
    r"^\s*(<[^<>\s]*>|_:\S+)"  # subject: IRI or blank node
    r"\s+(<[^<>\s]*>)"  # predicate: IRI
    r"\s+(<[^<>\s]*>|_:\S+)"  # object: IRI or blank node
    r"\s*\.\s*$"
)


class IngestError(ValueError):
    """A malformed input line or an unusable input layout."""


def _ingest_counter():
    from repro.obs import get_registry

    return get_registry().counter(
        INGEST_TRIPLES_COUNTER,
        "Triples written to compact stores by streaming ingestion",
        labels=("split",),
    )


def _open_text(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def _strip_iri(token: str) -> str:
    return token[1:-1] if token.startswith("<") and token.endswith(">") else token


def resolve_format(path: str | Path, fmt: str = "auto") -> str:
    """Resolve ``"auto"`` to ``"tsv"`` or ``"nt"`` from the file name."""
    if fmt not in ("auto", "tsv", "nt"):
        raise IngestError(f"unknown ingest format {fmt!r}; expected auto, tsv or nt")
    if fmt != "auto":
        return fmt
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    return "nt" if name.endswith(".nt") else "tsv"


def iter_triples(path: str | Path, fmt: str = "auto") -> Iterator[tuple[str, str, str]]:
    """Stream ``(head, relation, tail)`` label triples from one file."""
    path = Path(path)
    resolved = resolve_format(path, fmt)
    with _open_text(path) as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                continue
            if resolved == "nt":
                if line.lstrip().startswith("#"):
                    continue
                match = _NT_LINE.match(line)
                if match is None:
                    raise IngestError(
                        f"{path}:{lineno}: not a valid N-Triples statement: "
                        f"{line[:120]!r}"
                    )
                yield (
                    _strip_iri(match.group(1)),
                    _strip_iri(match.group(2)),
                    _strip_iri(match.group(3)),
                )
            else:
                fields = line.split("\t")
                if len(fields) != 3 or any(not f for f in fields):
                    raise IngestError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, "
                        f"got {len(fields)}: {line[:120]!r}"
                    )
                yield fields[0], fields[1], fields[2]


def discover_split_files(directory: str | Path) -> dict[str, Path]:
    """Find one input file per split inside ``directory``.

    Looks for ``<split><ext>`` and ``<split><ext>.gz`` with ``ext`` in
    ``.tsv`` / ``.txt`` / ``.nt``.  ``train`` is required; ``valid`` and
    ``test`` are optional.  Two candidate files for one split is an error.
    """
    directory = Path(directory)
    found: dict[str, Path] = {}
    for split in SPLITS:
        candidates = [
            directory / f"{split}{suffix}{gz}"
            for suffix in _SPLIT_SUFFIXES
            for gz in ("", ".gz")
        ]
        present = [c for c in candidates if c.exists()]
        if len(present) > 1:
            raise IngestError(
                f"ambiguous input for split {split!r}: "
                + ", ".join(str(p) for p in present)
            )
        if present:
            found[split] = present[0]
    if "train" not in found:
        raise IngestError(
            f"no train split found in {directory} "
            f"(expected train.tsv/.txt/.nt, optionally .gz)"
        )
    return found


@dataclass
class IngestResult:
    """What one streaming ingestion pass produced."""

    directory: Path
    name: str
    num_entities: int
    num_relations: int
    splits: dict[str, int]
    stats: dict[str, dict] = field(default_factory=dict)


class _ChunkBuffer:
    """Fixed-size int32 row chunks; O(chunk) resident, O(n) total ids."""

    def __init__(self, chunk_rows: int = _CHUNK_ROWS):
        self._chunk_rows = chunk_rows
        self._chunks: list[np.ndarray] = []
        self._current = np.empty((chunk_rows, 3), dtype=np.int32)
        self._fill = 0

    def append(self, h: int, r: int, t: int) -> None:
        if self._fill == self._chunk_rows:
            self._chunks.append(self._current)
            self._current = np.empty((self._chunk_rows, 3), dtype=np.int32)
            self._fill = 0
        self._current[self._fill, 0] = h
        self._current[self._fill, 1] = r
        self._current[self._fill, 2] = t
        self._fill += 1

    def concat(self) -> np.ndarray:
        parts = self._chunks + [self._current[: self._fill]]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def ingest_files(
    split_paths: Mapping[str, str | Path],
    out: str | Path,
    fmt: str = "auto",
    name: str = "ingested",
) -> IngestResult:
    """Stream split files into a compact store directory at ``out``.

    One pass per split in train → valid → test order; vocabulary ids are
    assigned as labels appear, duplicates within a split are dropped
    (first occurrence kept) and counted in the manifest stats, as are
    valid/test entities never seen in train.
    """
    unknown = set(split_paths) - set(SPLITS)
    if unknown:
        raise IngestError(f"unknown splits {sorted(unknown)}; expected {SPLITS}")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)

    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}

    def intern(table: dict[str, int], label: str) -> int:
        value = table.get(label)
        if value is None:
            value = len(table)
            if value >= INT32_LIMIT:
                raise IngestError(
                    "vocabulary exceeds int32 ids (2**31 labels); the compact "
                    "store caps out here by design"
                )
            table[label] = value
        return value

    counter = _ingest_counter()
    counts: dict[str, int] = {}
    stats: dict[str, dict] = {}
    train_entities = 0
    for split in SPLITS:
        path = split_paths.get(split)
        if path is None:
            rows = np.empty((0, 3), dtype=np.int32)
            read = 0
        else:
            buffer = _ChunkBuffer()
            read = 0
            for h, r, t in iter_triples(path, fmt):
                buffer.append(
                    intern(entity_ids, h),
                    intern(relation_ids, r),
                    intern(entity_ids, t),
                )
                read += 1
            rows = buffer.concat()
            del buffer
            rows = unique_rows_in_order(rows)
        np.save(out / f"{split}.npy", rows)
        counts[split] = int(rows.shape[0])
        split_stats: dict[str, int] = {
            "read": read,
            "written": int(rows.shape[0]),
            "duplicates": read - int(rows.shape[0]),
        }
        if split == "train":
            train_entities = len(entity_ids)
        elif rows.shape[0]:
            unseen = np.unique(rows[:, [0, 2]])
            split_stats["unseen_in_train_entities"] = int(
                np.count_nonzero(unseen >= train_entities)
            )
        else:
            split_stats["unseen_in_train_entities"] = 0
        stats[split] = split_stats
        counter.inc(int(rows.shape[0]), split=split)
        del rows

    write_store_metadata(out, name, entity_ids, relation_ids, counts, stats)
    return IngestResult(
        directory=out,
        name=name,
        num_entities=len(entity_ids),
        num_relations=len(relation_ids),
        splits=counts,
        stats=stats,
    )


def ingest_directory(
    input_dir: str | Path,
    out: str | Path,
    fmt: str = "auto",
    name: str | None = None,
) -> IngestResult:
    """Discover split files in ``input_dir`` and ingest them into ``out``."""
    input_dir = Path(input_dir)
    paths = discover_split_files(input_dir)
    return ingest_files(
        paths, out, fmt=fmt, name=name if name is not None else input_dir.name
    )
