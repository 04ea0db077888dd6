"""The parallel chunked evaluation engine (`repro.engine`).

One execution core for both evaluation protocols: queries are grouped by
``(relation, side)`` and their known answers mapped onto the candidate
axis once per graph, split, sides and pools (the cached
:class:`EvaluationPlan`), cut into bounded chunks, scored — serially, or
in parallel on a persistent worker pool that reads the model and the plan
from ``multiprocessing.shared_memory``, published once per plan and model
layout and refreshed in place across runs (:mod:`repro.engine.pool` /
:mod:`repro.engine.shm`) — and returned as one :class:`EvaluationResult`:
a rank per distinct query, in plan order, and the :class:`RankingMetrics`
aggregated from those ranks.

Entry points
------------
* :class:`EvaluationEngine` — ``run()`` a model over a split with
  ``workers=`` / ``chunk_size=`` / ``start_method=`` control (env:
  ``$REPRO_ENGINE_START_METHOD``);
* the same knobs surface on :class:`repro.core.protocol.EvaluationProtocol`,
  :func:`repro.bench.runner.run_training_study` and the CLI
  (``repro evaluate --workers N``);
* :func:`get_engine_pool` / :func:`shutdown_engine_pools` — the
  persistent pool registry behind every parallel run.
"""

from repro.engine.chunking import (
    DEFAULT_CHUNK_SIZE,
    ChunkTask,
    Query,
    chunk_filtered_ranks,
    collect_known_answers,
    plan_chunks,
    pool_positions,
    query_chunks,
    query_table,
    split_triples,
)
from repro.engine.engine import EvaluationEngine, EvaluationResult, resolve_workers
from repro.engine.pool import (
    EngineWorkerError,
    PersistentWorkerPool,
    active_pools,
    get_engine_pool,
    resolve_start_method,
    shutdown_engine_pools,
)
from repro.engine.shm import (
    ShmArena,
    StateManifest,
    attach_state,
    publish_state,
)
from repro.engine.worker import (
    EvaluationPlan,
    EvaluationState,
    build_state,
    evaluation_plan,
    score_chunk,
    worker_main,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ChunkTask",
    "EngineWorkerError",
    "EvaluationEngine",
    "EvaluationResult",
    "EvaluationPlan",
    "EvaluationState",
    "PersistentWorkerPool",
    "Query",
    "ShmArena",
    "StateManifest",
    "active_pools",
    "attach_state",
    "build_state",
    "chunk_filtered_ranks",
    "collect_known_answers",
    "evaluation_plan",
    "get_engine_pool",
    "plan_chunks",
    "pool_positions",
    "publish_state",
    "query_chunks",
    "query_table",
    "resolve_start_method",
    "resolve_workers",
    "score_chunk",
    "shutdown_engine_pools",
    "split_triples",
    "worker_main",
]
