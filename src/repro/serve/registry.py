"""Named serving checkpoints + lazily built candidate sets.

The artifact cache (:mod:`repro.store.artifacts`) is key-addressed —
perfect for provenance-exact reuse, useless for "serve the model I call
``complex-prod``".  The registry adds the human-addressable layer: a
``serve/`` directory of named ``.npz`` checkpoints under the experiment
store root, loaded lazily and validated against the serving graph.

Candidate sets are a per-recommender (not per-checkpoint) cost, so the
registry builds them lazily on first use, shares them between models
that use the same recommender, and persists them through the store's
artifact cache so a service restart skips the recommender fit entirely.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.candidates import CandidateSets, build_static_candidates
from repro.kg.graph import KnowledgeGraph
from repro.kg.typing import TypeStore
from repro.models.io import load_model, save_model
from repro.recommenders.registry import build_recommender
from repro.store.store import ExperimentStore

#: Subdirectory of the store root holding named serving checkpoints.
CHECKPOINT_DIR = "serve"


def parse_model_path(spec: str) -> tuple[str | None, str]:
    """Split one ``[NAME=]PATH`` checkpoint spec into ``(name, path)``.

    Accepts ``NAME=PATH`` or a bare path (``name`` is then ``None`` and
    callers fall back to the file stem).  A spec that exists on disk is
    always one bare path, so '=' inside a real filename (``run=3/dm.npz``)
    never splits; otherwise split at the first '=' unless the would-be
    name contains a path separator.  Shared by the CLI's ``--model-path``
    and :class:`~repro.experiment.ServeSpec.model_paths`.
    """
    if Path(spec).exists():
        return None, spec
    name, sep, path = spec.partition("=")
    if not sep or "/" in name or "\\" in name:
        return None, spec
    return name or None, path


@dataclass(eq=False)
class ServingEntry:
    """One named model in the registry.

    ``model`` is populated lazily from ``path`` on first access; a
    ``None`` path means the model only lives in this process (it was
    registered with ``persist=False``).  Entries compare and hash by
    identity, so the service's result cache can key on the entry: a
    re-registered name is a new entry and never hits the old answers.
    """

    name: str
    path: Path | None = None
    model: object | None = field(default=None, repr=False)
    recommender: str | None = None  # None = the registry default

    @property
    def loaded(self) -> bool:
        return self.model is not None


class ModelRegistry:
    """Named checkpoints + shared candidate sets for one serving graph.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ExperimentStore` (or its root path)
        whose ``serve/`` directory holds the named checkpoints and whose
        artifact cache persists the built candidate sets.
    graph:
        The knowledge graph served against; checkpoints must match its
        vocabulary sizes.
    types:
        Entity types, required by the typed recommenders.
    recommender:
        Default recommender for candidate filtering (entries may
        override it).
    include_observed:
        Union observed (PT) entities into the static sets — the paper's
        practical default.
    """

    def __init__(
        self,
        store: ExperimentStore | str | os.PathLike[str],
        graph: KnowledgeGraph,
        types: TypeStore | None = None,
        recommender: str = "l-wd",
        include_observed: bool = True,
    ):
        if not isinstance(store, ExperimentStore):
            store = ExperimentStore(store)
        self.store = store
        self.graph = graph
        self.types = types
        self.default_recommender = recommender
        self.include_observed = include_observed
        self.checkpoint_dir = store.root / CHECKPOINT_DIR
        self._entries: dict[str, ServingEntry] = {}
        self._candidates: dict[str, CandidateSets] = {}  # by recommender name
        self._lock = threading.RLock()
        # Candidate builds can take seconds-to-minutes on large graphs;
        # they serialise on their own lock so names()/model()/describe()
        # (and hence /healthz, /v1/models) never block behind a build.
        self._candidates_build_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        model,
        recommender: str | None = None,
        persist: bool = True,
    ) -> ServingEntry:
        """Register an in-memory model under ``name``.

        With ``persist`` (the default) the checkpoint is also written to
        ``<root>/serve/<name>.npz`` so the next process can
        :meth:`discover` it.  ``persist=False`` admits wrapper scorers
        (anything with the batch-scoring surface) that cannot round-trip
        through ``repro.models.io``.
        """
        self._check_vocab(name, model)
        path: Path | None = None
        if persist:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            path = self.checkpoint_dir / f"{name}.npz"
            save_model(model, path)
        entry = ServingEntry(name=name, path=path, model=model, recommender=recommender)
        with self._lock:
            self._entries[name] = entry
        return entry

    def register_path(
        self,
        path: str | os.PathLike[str],
        name: str | None = None,
        recommender: str | None = None,
    ) -> ServingEntry:
        """Register a checkpoint file; loading is deferred to first use."""
        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"checkpoint {path} does not exist")
        entry = ServingEntry(name=name or path.stem, path=path, recommender=recommender)
        with self._lock:
            self._entries[entry.name] = entry
        return entry

    def discover(self) -> list[str]:
        """Register every ``serve/*.npz`` checkpoint not yet known.

        Returns the newly registered names (sorted, for determinism).
        """
        added: list[str] = []
        with self._lock:
            for path in sorted(self.checkpoint_dir.glob("*.npz")):
                if path.stem not in self._entries:
                    self._entries[path.stem] = ServingEntry(name=path.stem, path=path)
                    added.append(path.stem)
        return added

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entry(self, name: str) -> ServingEntry:
        with self._lock:
            if name not in self._entries:
                raise KeyError(
                    f"unknown model {name!r}; serving: {', '.join(self.names()) or '(none)'}"
                )
            return self._entries[name]

    def model(self, name: str):
        """The model behind ``name``, loading its checkpoint on first use."""
        entry = self.entry(name)
        with self._lock:
            if entry.model is None:
                assert entry.path is not None  # register() always sets one
                model = load_model(entry.path)
                self._check_vocab(name, model)
                entry.model = model
            return entry.model

    def _check_vocab(self, name: str, model) -> None:
        if (
            model.num_entities != self.graph.num_entities
            or model.num_relations != self.graph.num_relations
        ):
            raise ValueError(
                f"model {name!r} embeds {model.num_entities} entities / "
                f"{model.num_relations} relations but the serving graph "
                f"{self.graph.name!r} has {self.graph.num_entities} / "
                f"{self.graph.num_relations}"
            )

    # ------------------------------------------------------------------
    # Candidate sets
    # ------------------------------------------------------------------
    def _candidates_key(self, recommender: str) -> str:
        from repro.store.keys import cache_key, graph_fingerprint

        return cache_key(
            "serve-candidates",
            {
                "graph": graph_fingerprint(self.graph),
                "recommender": recommender,
                "include_observed": self.include_observed,
            },
        )

    def candidates(self, name: str) -> CandidateSets:
        """The candidate sets the named model filters through.

        Built lazily on first use (recommender fit + thresholding),
        shared across models with the same recommender, and persisted in
        the store's artifact cache so restarts skip the build.
        """
        entry = self.entry(name)
        recommender = entry.recommender or self.default_recommender
        with self._candidates_build_lock:
            cached = self._candidates.get(recommender)
            if cached is not None:
                return cached
            key = self._candidates_key(recommender)
            sets = self.store.artifacts.get_candidates(key)
            if sets is None:
                fitted = build_recommender(recommender).fit(self.graph, self.types)
                sets = build_static_candidates(
                    fitted, self.graph, include_observed=self.include_observed
                )
                self.store.artifacts.put_candidates(
                    key,
                    sets,
                    labels={"graph": self.graph.name, "recommender": recommender},
                )
            self._candidates[recommender] = sets
            return sets

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self, name: str) -> dict:
        """One ``/v1/models`` row; loads the checkpoint if necessary."""
        entry = self.entry(name)
        model = self.model(name)
        recommender = entry.recommender or self.default_recommender
        return {
            "name": name,
            "model": getattr(model, "name", type(model).__name__),
            "dim": getattr(model, "dim", None),
            "num_entities": model.num_entities,
            "num_relations": model.num_relations,
            "parameters": model.num_parameters() if hasattr(model, "num_parameters") else None,
            "checkpoint": str(entry.path) if entry.path is not None else None,
            "recommender": recommender,
            "candidates_built": recommender in self._candidates,
        }

    def rows(self) -> list[dict]:
        """``describe`` every model (sorted), for tables and ``/v1/models``."""
        return [self.describe(name) for name in self.names()]

    def __repr__(self) -> str:
        return (
            f"ModelRegistry({str(self.store.root)!r}, graph={self.graph.name!r}, "
            f"{len(self)} models)"
        )
