"""The link-prediction serving surface: rank / score / models / health.

One :class:`LinkPredictionService` fronts a :class:`~repro.serve.registry.
ModelRegistry` with the :class:`~repro.serve.scheduler.BatchScheduler`
and an LRU result cache:

* :meth:`rank` — top-k entity completion for one query, scored against
  the model's static candidate set (or the full vocabulary) with known
  true answers optionally filtered out, and cached as an immutable
  :class:`TopK` record each response is rendered from;
* :meth:`score` — triple scores *and filtered ranks* computed by the
  offline engine's rank step (:func:`~repro.engine.worker.score_rank_rows`
  + `collect_known_answers` + `chunk_filtered_ranks`), so a served rank
  equals the same query's rank in :func:`repro.core.ranking.evaluate_full`
  except for competitors within a few ulp of the truth (a product's
  rounding may depend on its batch height);
* :meth:`evaluate_model` — a full offline evaluation of one registered
  model, executed on a **service-owned persistent worker pool**
  (``engine_workers > 1``) that stays warm across requests — the shared
  state is published into shared memory once per model layout and
  refreshed in place until :meth:`close`;
* :meth:`models` / :meth:`health` — introspection for ``/v1/models`` and
  ``/healthz``.

Every response is a plain JSON-serialisable dict, so the HTTP layer and
the in-process client expose byte-identical payloads.
"""

from __future__ import annotations

import threading
import time
from typing import NamedTuple

import numpy as np

from repro.engine.chunking import chunk_filtered_ranks, collect_known_answers, pool_positions
from repro.engine.engine import EvaluationEngine
from repro.engine.pool import PersistentWorkerPool
from repro.engine.worker import score_rank_rows
from repro.kg.graph import SIDES, Side
from repro.obs.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import BatchKey, BatchScheduler, RankQuery
from repro.store.lru import LRUCache

#: Default ceiling on requests coalesced into one scoring call.
DEFAULT_MAX_BATCH = 64

#: Default top-k result cache capacity (entries, not bytes).
DEFAULT_CACHE_SIZE = 1024

#: Default per-request resolution timeout (seconds).
DEFAULT_TIMEOUT = 30.0


def _engine_metrics_text(exclude: MetricsRegistry) -> str:
    """Engine-pool families from the process-global registry.

    The engine publishes its shm/pool gauges process-globally (workers
    must never touch a registry), while the service renders its own
    isolated registry — so a ``/metrics`` scrape would miss the pool
    unless the engine families are appended here.  ``exclude`` guards
    the double-render when a caller wired the global registry in.
    """
    from repro.obs import get_registry

    registry = get_registry()
    if registry is exclude:
        return ""
    lines = []
    for line in registry.render().splitlines():
        name = line.split(" ", 3)[2] if line.startswith("#") else line
        if name.startswith("repro_engine_"):
            lines.append(line)
    return "\n".join(lines) + "\n" if lines else ""


class TopK(NamedTuple):
    """One top-k answer: what the result cache holds per key.

    Immutable, so cache hits share it without copying; every response
    dict is rendered fresh from it (:meth:`LinkPredictionService._render`).
    """

    results: tuple[tuple[int, float], ...]  # (entity id, score), best first
    num_candidates: int


def _best_k(negated: np.ndarray, entity_ids: np.ndarray, k: int) -> TopK:
    """The ``k`` best finite candidates of one negated score row.

    Ordered by ``(-score, entity id)`` — exactly the prefix a full
    ``np.lexsort((entity_ids, negated))`` yields — without sorting the
    row: a partition finds the k-th smallest negated score and only the
    candidates not above it are sorted, so ties straddling the boundary
    are all kept and broken by id.  ``~(negated > kth)`` also keeps NaN
    scores (sorted last either way), so a row with fewer than ``k``
    comparable scores still matches the full sort.  Excluded candidates
    are ``+inf`` here; the answer stops at the first non-finite score.
    """
    if k < negated.size:
        kth = np.partition(negated, k - 1)[k - 1]
        keep = np.flatnonzero(~(negated > kth))
    else:
        keep = np.arange(negated.size)
    best = keep[np.lexsort((entity_ids[keep], negated[keep]))[:k]]
    values = negated[best]
    finite = np.isfinite(values)
    count = finite.size if finite.all() else int(np.argmin(finite))
    ids = entity_ids[best[:count]].tolist()
    scores = np.negative(values[:count]).tolist()
    return TopK(tuple(zip(ids, scores)), int(negated.size))


class LinkPredictionService:
    """Micro-batched online scoring over a model registry.

    Parameters
    ----------
    registry:
        The models and candidate sets to serve.
    max_batch_size:
        Most requests coalesced into one scoring call (see
        :class:`BatchScheduler`).
    cache_size:
        LRU capacity of the top-k result cache; ``0`` disables caching
        (every request is scored).
    timeout:
        Seconds a request may wait for its batch before failing.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` to publish
        into; the service builds its own by default so ``/metrics``
        reflects exactly this service.
    engine_workers / engine_start_method:
        Evaluation fan-out for :meth:`evaluate_model`.  ``engine_workers
        <= 1`` (default) evaluates serially in-process; ``> 1`` lazily
        starts one :class:`~repro.engine.pool.PersistentWorkerPool` owned
        by this service and reuses it for every evaluation request until
        :meth:`close`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch_size: int = DEFAULT_MAX_BATCH,
        cache_size: int = DEFAULT_CACHE_SIZE,
        timeout: float = DEFAULT_TIMEOUT,
        metrics: MetricsRegistry | None = None,
        engine_workers: int = 1,
        engine_start_method: str | None = None,
    ):
        self.registry = registry
        self.graph = registry.graph
        self.timeout = timeout
        self.engine_workers = max(1, engine_workers)
        self.engine_start_method = engine_start_method
        self._engine_pool = None
        self._engine_lock = threading.Lock()
        self._evaluations_total = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.scheduler = BatchScheduler(
            self._score_batch,
            max_batch_size=max_batch_size,
            metrics=self.metrics,
        )
        self._cache = LRUCache(cache_size)
        self._cache_lock = threading.Lock()
        self._started_at = time.time()
        self._requests_total = self.metrics.counter(
            "repro_serve_requests_total",
            "Requests served, by endpoint",
            labels=("endpoint",),
        )
        self._request_seconds = self.metrics.histogram(
            "repro_serve_request_seconds",
            "End-to-end request latency, by endpoint",
            labels=("endpoint",),
        )
        self._cache_hits = self.metrics.counter(
            "repro_serve_cache_hits_total", "Top-k cache hits"
        )
        self._cache_misses = self.metrics.counter(
            "repro_serve_cache_misses_total", "Top-k cache misses"
        )

    # ------------------------------------------------------------------
    # Request surface
    # ------------------------------------------------------------------
    def rank(
        self,
        model: str,
        anchor: int | str,
        relation: int | str,
        side: Side = "tail",
        k: int = 10,
        filter_known: bool = True,
        candidates: str = "filtered",
    ) -> dict:
        """Top-k completion of ``(anchor, relation, ?)`` (or ``(?, relation,
        anchor)`` for ``side="head"``).

        ``filter_known`` drops entities already linked to the anchor in
        any split — the "recommend *new* links" setting.  Results are
        deterministic: ties break toward the smaller entity id.
        """
        start = time.perf_counter()
        try:
            return self._rank(
                model, anchor, relation, side, k, filter_known, candidates
            )
        finally:
            self._requests_total.inc(endpoint="rank")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="rank"
            )

    def _rank(
        self,
        model: str,
        anchor: int | str,
        relation: int | str,
        side: Side,
        k: int,
        filter_known: bool,
        candidates: str,
    ) -> dict:
        anchor_id = self._entity_id(anchor)
        relation_id = self._relation_id(relation)
        self._check_side(side)
        # Keyed on the entry, not the name: re-registering a name makes a
        # new entry, so the old model's answers are never hit again.
        entry = self.registry.entry(model)
        key = (entry, anchor_id, relation_id, side, k, filter_known, candidates)
        with self._cache_lock:
            record = self._cache.get(key)
        if record is not None:
            self._cache_hits.inc()
            return self._render(key, record, cached=True)
        self._cache_misses.inc()
        query = RankQuery(
            model=model,
            relation=relation_id,
            side=side,
            anchor=anchor_id,
            kind="topk",
            k=k,
            filter_known=filter_known,
            candidates=candidates,
        )
        record = self.scheduler.submit(query).result(self.timeout)
        with self._cache_lock:
            self._cache.put(key, record)
        return self._render(key, record, cached=False)

    def _render(self, key: tuple, record: TopK, cached: bool) -> dict:
        """A fresh ``rank`` response dict (callers may mutate it freely)."""
        entry, anchor_id, relation_id, side, k, filter_known, candidates = key
        label_of = self.graph.entities.label_of
        return {
            "model": entry.name,
            "anchor": label_of(anchor_id),
            "anchor_id": anchor_id,
            "relation": self.graph.relations.label_of(relation_id),
            "relation_id": relation_id,
            "side": side,
            "k": k,
            "candidates": candidates,
            "num_candidates": record.num_candidates,
            "filter_known": filter_known,
            "results": [
                {
                    "rank": position + 1,
                    "entity": label_of(entity_id),
                    "entity_id": entity_id,
                    "score": score,
                }
                for position, (entity_id, score) in enumerate(record.results)
            ],
            "cached": cached,
        }

    def score(
        self,
        model: str,
        triples,
        sides: tuple[Side, ...] = SIDES,
        candidates: str = "all",
    ) -> list[dict]:
        """Scores and filtered ranks of explicit ``(h, r, t)`` triples.

        With the default ``candidates="all"`` each rank is computed by
        the offline engine's rank step over the full entity axis, so it
        equals the rank :func:`~repro.core.ranking.evaluate_full` reports
        for the same ``(h, r, t, side)`` query, up to competitors within
        a few ulp of the truth.  ``candidates="filtered"`` ranks within
        the model's static candidate set instead (the sampled-protocol
        semantics; an empty set ranks 1).

        All queries are submitted before any result is awaited, so one
        call batches into few scoring calls even single-threaded.
        """
        start = time.perf_counter()
        try:
            return self._score(model, triples, sides, candidates)
        finally:
            self._requests_total.inc(endpoint="score")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="score"
            )

    def _score(
        self,
        model: str,
        triples,
        sides: tuple[Side, ...],
        candidates: str,
    ) -> list[dict]:
        submitted: list[tuple[dict, object]] = []
        for triple in triples:
            raw_h, raw_r, raw_t = triple
            h = self._entity_id(raw_h)
            t = self._entity_id(raw_t)
            r = self._relation_id(raw_r)
            for side in sides:
                self._check_side(side)
                anchor, truth = (t, h) if side == "head" else (h, t)
                query = RankQuery(
                    model=model,
                    relation=r,
                    side=side,
                    anchor=anchor,
                    kind="rank",
                    truth=truth,
                    candidates=candidates,
                )
                meta = {
                    "head": self.graph.entities.label_of(h),
                    "relation": self.graph.relations.label_of(r),
                    "tail": self.graph.entities.label_of(t),
                    "head_id": h,
                    "relation_id": r,
                    "tail_id": t,
                    "side": side,
                }
                submitted.append((meta, self.scheduler.submit(query)))
        rows: list[dict] = []
        for meta, pending in submitted:
            payload = pending.result(self.timeout)
            rows.append({**meta, "score": payload["score"], "rank": payload["rank"]})
        return rows

    def evaluate_model(self, model: str, split: str = "test") -> dict:
        """``/v1/evaluate``: full filtered ranking of one registered model.

        Runs the offline engine on the serving graph's ``split``.  With
        ``engine_workers > 1`` the run executes on the service's private
        persistent worker pool — the first request pays pool start and
        state publication, repeat requests for the same model reuse both,
        so the shared-memory footprint stays flat across requests.
        """
        start = time.perf_counter()
        try:
            kge = self.registry.model(model)  # KeyError -> 404 upstream
            engine = EvaluationEngine(
                workers=self.engine_workers,
                start_method=self.engine_start_method,
                pool=self._ensure_engine_pool(),
            )
            result = engine.run(kge, self.graph, split=split)
            self._evaluations_total += 1
            return {
                "model": model,
                "split": split,
                "metrics": result.metrics.as_dict(),
                "num_queries": result.num_queries,
                "num_scored": result.num_scored,
                "seconds": round(result.seconds, 6),
                "workers": engine.workers,
            }
        finally:
            self._requests_total.inc(endpoint="evaluate")
            self._request_seconds.observe(
                time.perf_counter() - start, endpoint="evaluate"
            )

    def _ensure_engine_pool(self):
        """The service-owned persistent pool (lazily started, auto-healed)."""
        if self.engine_workers <= 1:
            return None
        with self._engine_lock:
            pool = self._engine_pool
            if pool is not None and not pool.alive():
                pool.shutdown(force=True)
                pool = None
            if pool is None:
                pool = PersistentWorkerPool(
                    self.engine_workers, start_method=self.engine_start_method
                )
                self._engine_pool = pool
            return pool

    def engine_pool_stats(self) -> dict:
        """Lifecycle counters of the service-owned evaluation pool."""
        with self._engine_lock:
            pool = self._engine_pool
            if pool is None:
                return {
                    "workers": self.engine_workers,
                    "started": False,
                    "evaluations": self._evaluations_total,
                }
            return {
                "workers": pool.workers,
                "started": True,
                "alive": pool.alive(),
                "start_method": pool.start_method,
                "runs_completed": pool.runs_completed,
                "states_published": pool.states_published,
                "evaluations": self._evaluations_total,
            }

    def models(self) -> list[dict]:
        """``/v1/models``: every registered model with its metadata."""
        return self.registry.rows()

    def health(self) -> dict:
        """``/healthz``: liveness plus scheduler / cache counters."""
        with self._cache_lock:
            cache = {
                "capacity": self._cache.capacity,
                "entries": len(self._cache),
                "hits": self._cache.hits,
                "misses": self._cache.misses,
            }
        return {
            "status": "ok",
            "graph": self.graph.name,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "models": self.registry.names(),
            "scheduler": self.scheduler.stats(),
            "cache": cache,
            "engine_pool": self.engine_pool_stats(),
        }

    def metrics_text(self) -> str:
        """``/metrics``: Prometheus text exposition of this service.

        Derived gauges (uptime, cache hit rate, mean batch size, cache
        occupancy) are refreshed at render time; counters and histograms
        accumulate live on the request path.
        """
        self.metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since the service started"
        ).set(round(time.time() - self._started_at, 3))
        with self._cache_lock:
            hits, misses = self._cache.hits, self._cache.misses
            entries = len(self._cache)
        lookups = hits + misses
        self.metrics.gauge(
            "repro_serve_cache_hit_rate", "Top-k cache hit rate over all lookups"
        ).set(hits / lookups if lookups else 0.0)
        self.metrics.gauge(
            "repro_serve_cache_entries", "Top-k cache occupancy"
        ).set(entries)
        self.metrics.gauge(
            "repro_serve_mean_batch_size", "Mean requests per scoring call"
        ).set(round(self.scheduler.mean_batch_size, 4))
        text = self.metrics.render()
        engine = _engine_metrics_text(exclude=self.metrics)
        return text + engine if engine else text

    def close(self) -> None:
        """Flush in-flight batches, stop the scheduler and the engine pool."""
        self.scheduler.close()
        with self._engine_lock:
            pool, self._engine_pool = self._engine_pool, None
        if pool is not None:
            pool.shutdown()

    def __enter__(self) -> "LinkPredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Id resolution
    # ------------------------------------------------------------------
    def _entity_id(self, entity: int | str) -> int:
        if isinstance(entity, str):
            entity_id = self.graph.entities.get(entity)
            if entity_id is None:
                raise KeyError(f"unknown entity {entity!r}")
            return entity_id
        entity_id = int(entity)
        if not 0 <= entity_id < self.graph.num_entities:
            raise KeyError(
                f"entity id {entity_id} outside [0, {self.graph.num_entities})"
            )
        return entity_id

    def _relation_id(self, relation: int | str) -> int:
        if isinstance(relation, str):
            relation_id = self.graph.relations.get(relation)
            if relation_id is None:
                raise KeyError(f"unknown relation {relation!r}")
            return relation_id
        relation_id = int(relation)
        if not 0 <= relation_id < self.graph.num_relations:
            raise KeyError(
                f"relation id {relation_id} outside [0, {self.graph.num_relations})"
            )
        return relation_id

    @staticmethod
    def _check_side(side: str) -> None:
        if side not in SIDES:
            raise ValueError(f"side must be 'head' or 'tail', got {side!r}")

    # ------------------------------------------------------------------
    # The batched scoring kernel (runs on the scheduler thread)
    # ------------------------------------------------------------------
    def _score_batch(self, key: BatchKey, queries: list[RankQuery]) -> list[dict]:
        """Score one micro-batch: one vectorized model call for its rank
        rows and one for its top-k rows."""
        name, relation, side, mode = key
        model = self.registry.model(name)
        sets = self.registry.candidates(name).sets[side] if mode == "filtered" else None
        results: list[dict | None] = [None] * len(queries)
        rank_rows = [i for i, query in enumerate(queries) if query.kind == "rank"]
        topk_rows = [i for i, query in enumerate(queries) if query.kind == "topk"]
        if rank_rows:
            self._resolve_ranks(model, queries, results, rank_rows, relation, side, sets)
        if topk_rows:
            pool = None if sets is None else sets.segment(relation)
            if pool is not None and not pool.size:
                # The recommender admitted nothing for this (relation,
                # side): top-k falls back to the full vocabulary rather
                # than serving an empty answer.
                pool = None
            self._resolve_topk(model, queries, results, topk_rows, relation, side, pool)
        return results  # type: ignore[return-value] — every slot is filled

    def _resolve_ranks(self, model, queries, results, rows, relation, side, sets) -> None:
        """Filtered ranks for the batch's ``kind="rank"`` ``rows``: the
        offline engine's rank step, done per request.

        :func:`~repro.engine.worker.score_rank_rows` scores the rows as
        :func:`~repro.engine.worker.score_chunk` does, against the side's
        candidate ``sets`` (a :class:`~repro.kg.graph.KeyedCSR` keyed by
        relation) or, without them, every entity.  The known answers are
        mapped onto that axis as the evaluation plan maps them
        (:func:`collect_known_answers` given the sets as pools), and one
        rank pass masks them.  An empty candidate set ranks every row
        first over 0 candidates, as an empty pool does in the engine.
        """
        anchors = np.asarray([queries[i].anchor for i in rows], dtype=np.int64)
        truths = np.asarray([queries[i].truth for i in rows], dtype=np.int64)
        pool = None if sets is None else sets.segment(relation)
        scores, true_scores = score_rank_rows(model, anchors, truths, relation, side, pool)
        known_rows, known_cols = collect_known_answers(
            self.graph.filter_index, anchors, truths, relation, side, sets
        )
        ranks = chunk_filtered_ranks(scores, true_scores, known_rows, known_cols)
        for j, i in enumerate(rows):
            results[i] = {
                "score": float(true_scores[j]),
                "rank": float(ranks[j]),
                "num_candidates": int(scores.shape[1]),
            }

    def _resolve_topk(self, model, queries, results, rows, relation, side, pool) -> None:
        """Top-k selection for the batch's ``kind="topk"`` ``rows``, scored
        in one call against ``pool`` (every entity when ``None``).

        Ordering is ``(-score, entity id)`` — fully deterministic under
        ties — with known answers and the anchor itself removed when the
        query asks for filtering (a self-loop is never a *new* link).
        Each row then takes its :func:`_best_k`, with exclusions as ``+inf``
        in its negated scores.
        """
        anchors = np.asarray([queries[i].anchor for i in rows], dtype=np.int64)
        scores = model.score_candidates_batch(anchors, relation, side, pool)
        entity_ids = pool if pool is not None else np.arange(scores.shape[1])
        for row, i in zip(scores, rows):
            query = queries[i]
            negated = np.negative(row, dtype=np.float64)
            if query.filter_known:
                known = self.graph.true_answers(query.anchor, relation, side)
                if pool is None:
                    negated[known] = np.inf
                    negated[query.anchor] = np.inf
                else:
                    excluded = np.append(known, query.anchor)
                    inside, positions = pool_positions(pool, excluded)
                    negated[positions[inside]] = np.inf
            results[i] = _best_k(negated, entity_ids, query.k)

    def __repr__(self) -> str:
        return (
            f"LinkPredictionService({self.registry!r}, "
            f"scheduler={self.scheduler!r})"
        )
