"""Stable cache keys for experiment artifacts.

Every artifact in the store is addressed by a hex digest of its full
provenance: what data it was computed from (graph fingerprint), with what
configuration (strategy, sample size, seeds, hyperparameters) and by which
code path (the ``kind`` label).  Keys are stable across processes and
machines because hashing goes through a canonical JSON form — dict order,
tuple/list distinctions and numpy scalar types never leak into the digest.

Key composition (documented here because it *is* the cache contract):

* ``graph_fingerprint``  — name, vocabulary sizes, split sizes and a
  content hash of the three triple arrays;
* ``model_fingerprint``  — constructor metadata plus a content hash of
  every parameter tensor, so two bit-identical models share ground truth;
* ``preparation_key``    — graph + (recommender, strategy, sample size,
  include_observed, pool seed): the once-per-dataset prepare() artifacts;
* ``pools_key``          — like ``preparation_key`` but per strategy (the
  training-study runner draws all three strategies from one RNG);
* ``ground_truth_key``   — graph + model + (split, hits@K): one full
  filtered-ranking evaluation;
* ``study_key``          — every argument of ``run_training_study``;
* ``experiment_key``     — the resolved dict form of one declarative
  :class:`~repro.experiment.ExperimentSpec` (sweep-variant identity).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

#: Hex digest length used for artifact keys (128 bits of sha256).
KEY_LENGTH = 32


def canonicalize(value: Any) -> Any:
    """Normalise a value into a JSON-stable form.

    Dicts sort by key, tuples become lists, numpy scalars collapse to
    Python scalars and arrays to nested lists, so logically equal configs
    hash identically no matter how they were built.
    """
    if isinstance(value, Mapping):
        return {str(k): canonicalize(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [canonicalize(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return canonicalize(value.item())
    if isinstance(value, float):
        # repr() round-trips doubles exactly; f-strings would truncate.
        return float(repr(value))
    return value


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding hashed by :func:`cache_key`."""
    return json.dumps(
        canonicalize(value), sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def cache_key(kind: str, fields: Mapping[str, Any]) -> str:
    """Stable hex key of ``fields`` under a ``kind`` namespace."""
    digest = hashlib.sha256()
    digest.update(kind.encode("utf-8"))
    digest.update(b"\n")
    digest.update(canonical_json(fields).encode("utf-8"))
    return digest.hexdigest()[:KEY_LENGTH]


def _array_digest(array: np.ndarray) -> str:
    # The int64 form, so a store's int32 splits hash as their in-memory twin's.
    data = np.ascontiguousarray(array, dtype=np.int64)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def graph_fingerprint(graph) -> dict[str, Any]:
    """Identity of a :class:`~repro.kg.graph.KnowledgeGraph` as hash fields.

    Includes a content hash of each split's triple array — two graphs with
    the same name but different triples never share artifacts.  The result
    is memoized on the graph object (splits are immutable after
    construction), so per-epoch key computations don't re-hash the
    unchanged triple arrays.
    """
    cached = getattr(graph, "_store_fingerprint", None)
    if cached is not None:
        return cached
    fingerprint = _graph_fingerprint(graph)
    try:
        graph._store_fingerprint = fingerprint
    except AttributeError:
        pass  # slotted/frozen graph variants just recompute
    return fingerprint


def _graph_fingerprint(graph) -> dict[str, Any]:
    return {
        "name": graph.name,
        "num_entities": graph.num_entities,
        "num_relations": graph.num_relations,
        "splits": {
            split: {
                "size": len(getattr(graph, split)),
                "digest": _array_digest(getattr(graph, split).array),
            }
            for split in ("train", "valid", "test")
        },
    }


def model_fingerprint(model) -> str:
    """Content hash of a model: constructor metadata + every parameter.

    Two models score identically iff their parameters are bit-identical,
    so this fingerprint is exactly the right ground-truth cache key: a
    re-trained model with the same seeds hits, a further-trained one
    misses.

    Models attached to mmap shards (``model.shard_source``) fingerprint
    by the shard manifest digest instead — it was computed from the same
    bytes at save time, and re-hashing here would stream the whole
    out-of-core parameter file through memory.  The mmap fingerprint
    therefore differs from the in-memory one for equal parameters; the
    two backends keep separate ground-truth cache entries by design.
    """
    source = getattr(model, "shard_source", None)
    if source is not None:
        return cache_key(
            "model-shards",
            {
                "name": model.name,
                "num_entities": model.num_entities,
                "num_relations": model.num_relations,
                "dim": model.dim,
                "digest": source.digest,
            },
        )
    digest = hashlib.sha256()
    meta = {
        "name": model.name,
        "num_entities": model.num_entities,
        "num_relations": model.num_relations,
        "dim": model.dim,
    }
    digest.update(canonical_json(meta).encode("utf-8"))
    for name in sorted(model.parameters):
        tensor = model.parameters[name]
        digest.update(name.encode("utf-8"))
        digest.update(str(tensor.data.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(tensor.data).tobytes())
    return digest.hexdigest()[:KEY_LENGTH]


# ----------------------------------------------------------------------
# Composed keys for the framework's cacheable stages
# ----------------------------------------------------------------------
def preparation_key(
    graph,
    recommender_name: str,
    strategy: str,
    num_samples: int | None,
    sample_fraction: float | None,
    include_observed: bool,
    seed: int,
) -> str:
    """Key of one ``EvaluationProtocol.prepare()`` artifact bundle."""
    return cache_key(
        "preparation",
        {
            "graph": graph_fingerprint(graph),
            "recommender": recommender_name,
            "strategy": strategy,
            "num_samples": num_samples,
            "sample_fraction": sample_fraction,
            "include_observed": include_observed,
            "seed": seed,
        },
    )


def pools_key(
    graph,
    recommender_name: str,
    strategy: str,
    sample_fraction: float,
    seed: int,
) -> str:
    """Key of one strategy's pools in a training-study preparation."""
    return cache_key(
        "pools",
        {
            "graph": graph_fingerprint(graph),
            "recommender": recommender_name,
            "strategy": strategy,
            "sample_fraction": sample_fraction,
            "seed": seed,
        },
    )


def ground_truth_key(
    graph,
    model,
    split: str,
    hits_at: tuple[int, ...],
) -> str:
    """Key of one full filtered-ranking evaluation (the expensive truth)."""
    return cache_key(
        "ground-truth",
        {
            "graph": graph_fingerprint(graph),
            "model": model_fingerprint(model),
            "split": split,
            "hits_at": list(hits_at),
        },
    )


def experiment_key(spec_fields: Mapping[str, Any]) -> str:
    """Key of one declarative experiment spec (``repro.experiment``).

    Hashes the spec's fully resolved dict form, so two specs that differ
    only in JSON field order or in spelling out defaults share a key,
    and any differing field — a sweep variant's override, a new pool
    seed — produces a new one.
    """
    return cache_key("experiment", dict(spec_fields))


def study_key(graph, **config: Any) -> str:
    """Key of one ``run_training_study`` invocation.

    Covers every argument of the study *and* the dataset content, so a
    regenerated dataset with an unchanged zoo name misses the cache.
    """
    return cache_key(
        "study", {"graph": graph_fingerprint(graph), "config": config}
    )
