"""Disk formats for the framework's cacheable artifacts.

Arrays (pools, candidate sets) go to single ``.npz`` files with a JSON
metadata blob embedded under a reserved key — the same trick
:mod:`repro.models.io` uses for checkpoints, so every binary artifact in
the store is a self-describing numpy archive.  Result objects (full
evaluations, training studies) are plain JSON: they are small, diffable
and survive refactors of the in-memory dataclasses.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.core.candidates import CandidateSets
from repro.core.sampling import NegativePools
from repro.engine.chunking import Query
from repro.engine.engine import EvaluationResult
from repro.kg.graph import SIDES, KeyedCSR, Side
from repro.metrics.ranking import RankingMetrics

_META_KEY = "__meta__"


def _write_npz(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    arrays = dict(arrays)
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def _read_npz(path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError(f"{os.fspath(path)} is not a repro store artifact")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        arrays = {key: archive[key] for key in archive.files if key != _META_KEY}
    return arrays, meta


# ----------------------------------------------------------------------
# Negative pools and static candidate sets: three arrays per side
# ----------------------------------------------------------------------
def _side_arrays(indexes: dict[Side, KeyedCSR]) -> dict[str, np.ndarray]:
    return {
        name: array for side in SIDES for name, array in indexes[side].arrays(side).items()
    }


def _read_sides(arrays: dict[str, np.ndarray]) -> dict[Side, KeyedCSR]:
    """Each side's index; an archive in another layout raises ``KeyError``
    (a store miss), never reads as a wrong answer."""
    return {side: KeyedCSR.from_arrays(arrays, side) for side in SIDES}


def _read_artifact(path, artifact: str) -> tuple[dict[str, np.ndarray], dict]:
    arrays, meta = _read_npz(path)
    if meta.get("artifact") != artifact:
        raise ValueError(f"{os.fspath(path)} is not a {artifact} artifact")
    return arrays, meta


def save_pools(pools: NegativePools, path) -> None:
    """Persist the pools as one ``.npz``: each side's keys, offsets and values."""
    meta = {
        "artifact": "negative-pools",
        "strategy": pools.strategy,
        "num_entities": pools.num_entities,
        "sample_size": pools.sample_size,
        "build_seconds": pools.build_seconds,
    }
    _write_npz(path, _side_arrays(pools.pools), meta)


def load_pools(path) -> NegativePools:
    """Load a negative-pools artifact written by :func:`save_pools`."""
    arrays, meta = _read_artifact(path, "negative-pools")
    return NegativePools(
        strategy=meta["strategy"],
        pools=_read_sides(arrays),
        num_entities=int(meta["num_entities"]),
        sample_size=int(meta["sample_size"]),
        build_seconds=float(meta["build_seconds"]),
    )


def save_candidates(sets: CandidateSets, path) -> None:
    """Persist thresholded candidate sets: each side's keys, offsets,
    values and ``(|R|,)`` thresholds."""
    arrays = _side_arrays(sets.sets)
    for side in SIDES:
        arrays[f"{side}_thresholds"] = sets.thresholds[side]
    meta = {
        "artifact": "candidate-sets",
        "num_entities": sets.num_entities,
        "recommender_name": sets.recommender_name,
        "build_seconds": sets.build_seconds,
    }
    _write_npz(path, arrays, meta)


def load_candidates(path) -> CandidateSets:
    """Load a candidate-sets artifact written by :func:`save_candidates`."""
    arrays, meta = _read_artifact(path, "candidate-sets")
    return CandidateSets(
        sets=_read_sides(arrays),
        thresholds={side: arrays[f"{side}_thresholds"] for side in SIDES},
        num_entities=int(meta["num_entities"]),
        recommender_name=meta["recommender_name"],
        build_seconds=float(meta["build_seconds"]),
    )


# ----------------------------------------------------------------------
# Ranking metrics and full evaluation results (JSON)
# ----------------------------------------------------------------------
def metrics_to_dict(metrics: RankingMetrics) -> dict:
    """JSON-ready form of :class:`RankingMetrics`."""
    return {
        "mrr": metrics.mrr,
        "hits": {str(k): v for k, v in metrics.hits.items()},
        "mean_rank": metrics.mean_rank,
        "num_queries": metrics.num_queries,
    }


def metrics_from_dict(payload: dict) -> RankingMetrics:
    """Inverse of :func:`metrics_to_dict`."""
    return RankingMetrics(
        mrr=float(payload["mrr"]),
        hits={int(k): float(v) for k, v in payload["hits"].items()},
        mean_rank=float(payload["mean_rank"]),
        num_queries=int(payload["num_queries"]),
    )


def _query_to_str(query: Query) -> str:
    h, r, t, side = query
    return f"{h},{r},{t},{side}"


def _query_from_str(text: str) -> Query:
    h, r, t, side = text.split(",")
    return int(h), int(r), int(t), side


def full_result_to_dict(result: EvaluationResult) -> dict:
    """JSON-ready form of a full evaluation (metrics plus per-query ranks)."""
    return {
        "artifact": "full-evaluation",
        "metrics": metrics_to_dict(result.metrics),
        "ranks": {_query_to_str(q): rank for q, rank in result.ranks.items()},
        "seconds": result.seconds,
        "num_scored": result.num_scored,
    }


def full_result_from_dict(payload: dict) -> EvaluationResult:
    """Inverse of :func:`full_result_to_dict`; validates the artifact tag."""
    if payload.get("artifact") != "full-evaluation":
        raise ValueError("payload is not a full-evaluation artifact")
    return EvaluationResult(
        metrics=metrics_from_dict(payload["metrics"]),
        ranks={
            _query_from_str(text): float(rank)
            for text, rank in payload["ranks"].items()
        },
        seconds=float(payload["seconds"]),
        num_scored=int(payload["num_scored"]),
    )


# ----------------------------------------------------------------------
# Training studies (JSON)
# ----------------------------------------------------------------------
def study_to_dict(study) -> dict:
    """Serialise a :class:`repro.bench.runner.StudyResult`."""
    return {
        "artifact": "training-study",
        "dataset_name": study.dataset_name,
        "model_name": study.model_name,
        "records": [
            {
                "epoch": record.epoch,
                "true_metrics": metrics_to_dict(record.true_metrics),
                "estimated": {
                    strategy: metrics_to_dict(metrics)
                    for strategy, metrics in record.estimated.items()
                },
                "kp_values": record.kp_values,
                "true_seconds": record.true_seconds,
                "estimated_seconds": record.estimated_seconds,
                "kp_seconds": record.kp_seconds,
            }
            for record in study.records
        ],
    }


def study_from_dict(payload: dict):
    """Rebuild a :class:`repro.bench.runner.StudyResult` from JSON."""
    # Imported lazily: repro.bench.runner itself imports this module.
    from repro.bench.runner import EpochEvaluation, StudyResult

    if payload.get("artifact") != "training-study":
        raise ValueError("payload is not a training-study artifact")
    records = [
        EpochEvaluation(
            epoch=int(record["epoch"]),
            true_metrics=metrics_from_dict(record["true_metrics"]),
            estimated={
                strategy: metrics_from_dict(metrics)
                for strategy, metrics in record["estimated"].items()
            },
            kp_values={k: float(v) for k, v in record["kp_values"].items()},
            true_seconds=float(record["true_seconds"]),
            estimated_seconds={
                k: float(v) for k, v in record["estimated_seconds"].items()
            },
            kp_seconds={k: float(v) for k, v in record["kp_seconds"].items()},
        )
        for record in payload["records"]
    ]
    return StudyResult(
        dataset_name=payload["dataset_name"],
        model_name=payload["model_name"],
        records=records,
    )
