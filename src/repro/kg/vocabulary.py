"""Vocabularies mapping symbolic labels to dense integer ids.

Knowledge graphs are manipulated internally as integer arrays; the
:class:`Vocabulary` keeps the bidirectional mapping between human-readable
labels (entity QIDs, relation names, type names) and the contiguous integer
ids used by every array-based component in the library.  A vocabulary
can also stand for a label file that is read only when a label is first
looked up (:meth:`Vocabulary.from_file`), as the compact triple store's
million-entity vocabularies are.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence


class Vocabulary:
    """A bidirectional mapping ``label <-> contiguous int id``.

    Ids are assigned in insertion order starting from zero, so a vocabulary
    with ``n`` symbols always uses exactly the ids ``0 .. n-1``.  This is the
    invariant every index structure in :mod:`repro.kg.graph` relies on.
    """

    __slots__ = ("_label_to_id", "_labels", "_source")

    def __init__(self, labels: Iterable[str] = ()):
        self._label_to_id: dict[str, int] = {}
        self._labels: list[str] = []
        self._source: tuple[Path, int] | None = None
        for label in labels:
            self.add(label)

    @classmethod
    def from_file(cls, path: str | Path, size: int) -> "Vocabulary":
        """The ``size`` labels of a file, one per line (line ``i`` labels
        id ``i``).  ``len`` answers from ``size``; the first label lookup
        reads the file, once, and raises ``ValueError`` unless it holds
        ``size`` distinct labels."""
        vocabulary = cls()
        vocabulary._source = (Path(path), int(size))
        return vocabulary

    def _read(self) -> None:
        """Load the labels of a :meth:`from_file` vocabulary not yet read."""
        if self._source is None:
            return
        path, size = self._source
        with path.open("r", encoding="utf-8") as handle:
            labels = [line.rstrip("\n") for line in handle]
        label_to_id = dict(zip(labels, range(len(labels))))
        if len(labels) != size or len(label_to_id) != size:
            raise ValueError(
                f"{path} holds {len(labels)} lines of {len(label_to_id)} distinct "
                f"labels; expected {size}"
            )
        self._labels, self._label_to_id, self._source = labels, label_to_id, None

    def add(self, label: str) -> int:
        """Add ``label`` if missing and return its id."""
        self._read()
        existing = self._label_to_id.get(label)
        if existing is not None:
            return existing
        new_id = len(self._labels)
        self._label_to_id[label] = new_id
        self._labels.append(label)
        return new_id

    def update(self, labels: Iterable[str]) -> None:
        """Add every label in ``labels`` (idempotent)."""
        for label in labels:
            self.add(label)

    def id_of(self, label: str) -> int:
        """Return the id of ``label``; raise ``KeyError`` if absent."""
        self._read()
        return self._label_to_id[label]

    def get(self, label: str, default: int | None = None) -> int | None:
        """Return the id of ``label`` or ``default`` when absent."""
        self._read()
        return self._label_to_id.get(label, default)

    def label_of(self, index: int) -> str:
        """Return the label of ``index``; raise ``IndexError`` if absent."""
        self._read()
        if index < 0:
            raise IndexError(f"vocabulary ids are non-negative, got {index}")
        return self._labels[index]

    def labels(self) -> Sequence[str]:
        """All labels in id order (read-only view by convention)."""
        self._read()
        return tuple(self._labels)

    def ids_of(self, labels: Iterable[str]) -> list[int]:
        """Map many labels to ids, raising on the first unknown label."""
        self._read()
        return [self._label_to_id[label] for label in labels]

    def __contains__(self, label: object) -> bool:
        self._read()
        return label in self._label_to_id

    def __len__(self) -> int:
        return self._source[1] if self._source is not None else len(self._labels)

    def __iter__(self) -> Iterator[str]:
        self._read()
        return iter(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        self._read()
        other._read()
        return self._labels == other._labels

    def __repr__(self) -> str:
        if self._source is not None:
            return f"Vocabulary({len(self)} symbols in {str(self._source[0])!r})"
        preview = ", ".join(self._labels[:4])
        suffix = ", ..." if len(self._labels) > 4 else ""
        return f"Vocabulary({len(self)} symbols: [{preview}{suffix}])"
