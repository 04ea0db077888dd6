"""The one-call evaluation framework API (the library's front door).

:class:`EvaluationProtocol` packages the paper's pipeline — fit a relation
recommender, build candidate sets, draw per-(relation, side) pools, rank
the test queries against them — behind two calls::

    protocol = EvaluationProtocol(graph, recommender="l-wd", strategy="static")
    protocol.prepare()                      # recommender + pools (once)
    estimate = protocol.evaluate(model)     # fast, per model/epoch
    truth = protocol.evaluate_full(model)   # the expensive ground truth

``prepare`` is deliberately split out: its cost is paid once per dataset
while ``evaluate`` runs per model per epoch, which is where the paper's
90-fold speed-up on large graphs comes from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.candidates import CandidateSets, build_static_candidates
from repro.core.estimators import evaluate_sampled
from repro.core.ranking import evaluate_full
from repro.core.sampling import NegativePools, Strategy, build_pools
from repro.engine.chunking import DEFAULT_CHUNK_SIZE
from repro.engine.engine import EvaluationResult
from repro.engine.worker import evaluation_plan
from repro.kg.graph import SIDES, KnowledgeGraph
from repro.kg.typing import TypeStore
from repro.metrics.ranking import HITS_AT
from repro.models.base import KGEModel
from repro.recommenders.base import FittedRecommender, RelationRecommender
from repro.recommenders.registry import build_recommender

if TYPE_CHECKING:
    from repro.store.store import ExperimentStore


@dataclass
class PreparationReport:
    """Timings of the once-per-dataset preparation stage.

    ``from_cache`` marks reports restored from an experiment store; the
    timing fields then describe the *original* build, not this process.
    """

    recommender_name: str
    strategy: str
    fit_seconds: float
    candidates_seconds: float
    pools_seconds: float
    from_cache: bool = False

    @property
    def total_seconds(self) -> float:
        return self.fit_seconds + self.candidates_seconds + self.pools_seconds


class EvaluationProtocol:
    """Fast, accurate sampled evaluation of KGC models.

    Parameters
    ----------
    graph:
        The knowledge graph (train split fits the recommender; valid/test
        splits are evaluated).
    recommender:
        Recommender name (see :func:`repro.recommenders.build_recommender`)
        or an already-constructed :class:`RelationRecommender`.
    strategy:
        ``"random"``, ``"probabilistic"`` or ``"static"``.
    num_samples / sample_fraction:
        Per-pool sample size ``n_s`` — exactly one must be given.
    types:
        Entity types, required by the typed recommenders.
    include_observed:
        Union PT candidates into static sets (the paper's default).
    seed:
        Seed of the pool draws.
    store:
        Optional :class:`repro.store.ExperimentStore`.  With a store,
        ``prepare()`` reloads previously built candidates/pools instead of
        refitting, and ``evaluate_full`` serves cached ground truths for
        bit-identical (graph, model, split) configurations.
    workers:
        Scoring processes for ``evaluate`` / ``evaluate_full`` (1 =
        serial in-process, negative = all cores).  The engine fans query
        chunks across the workers; ranks are bitwise-identical at any
        worker count.
    chunk_size:
        Queries ranked per score-matrix chunk — bounds the per-chunk
        ``chunk_size x num_candidates`` intermediate.
    """

    def __init__(
        self,
        graph: KnowledgeGraph,
        recommender: str | RelationRecommender = "l-wd",
        strategy: Strategy = "static",
        num_samples: int | None = None,
        sample_fraction: float | None = None,
        types: TypeStore | None = None,
        include_observed: bool = True,
        seed: int = 0,
        store: "ExperimentStore | None" = None,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ):
        if num_samples is None and sample_fraction is None:
            sample_fraction = 0.1  # the paper's default operating point
        self.graph = graph
        self.strategy: Strategy = strategy
        self.num_samples = num_samples
        self.sample_fraction = sample_fraction
        self.types = types
        self.include_observed = include_observed
        self.seed = seed
        self.store = store
        self.workers = workers
        self.chunk_size = chunk_size
        if isinstance(recommender, str):
            recommender = build_recommender(recommender)
        self.recommender = recommender
        self.fitted: FittedRecommender | None = None
        self.candidates: CandidateSets | None = None
        self.pools: NegativePools | None = None
        self.preparation: PreparationReport | None = None

    # ------------------------------------------------------------------
    def _preparation_key(self) -> str:
        from repro.store.keys import preparation_key

        return preparation_key(
            self.graph,
            self.recommender.name,
            self.strategy,
            self.num_samples,
            self.sample_fraction,
            self.include_observed,
            self.seed,
        )

    def _restore_preparation(self, key: str) -> PreparationReport | None:
        """Reload a previous prepare() from the store, or None on miss."""
        assert self.store is not None
        artifacts = self.store.artifacts
        report = artifacts.get_json("prep", key)
        if report is None:
            return None
        pools = artifacts.get_pools(key)
        if pools is None:
            return None
        if self.strategy == "static":
            self.candidates = artifacts.get_candidates(key)
            if self.candidates is None:
                return None
        self.pools = pools
        return PreparationReport(
            recommender_name=report["recommender_name"],
            strategy=report["strategy"],
            fit_seconds=report["fit_seconds"],
            candidates_seconds=report["candidates_seconds"],
            pools_seconds=report["pools_seconds"],
            from_cache=True,
        )

    def _persist_preparation(self, key: str, report: PreparationReport) -> None:
        assert self.store is not None and self.pools is not None
        artifacts = self.store.artifacts
        labels = {
            "graph": self.graph.name,
            "recommender": self.recommender.name,
            "strategy": self.strategy,
        }
        artifacts.put_pools(key, self.pools, labels=labels)
        if self.strategy == "static" and self.candidates is not None:
            artifacts.put_candidates(key, self.candidates, labels=labels)
        artifacts.put_json(
            "prep",
            key,
            {
                "recommender_name": report.recommender_name,
                "strategy": report.strategy,
                "fit_seconds": report.fit_seconds,
                "candidates_seconds": report.candidates_seconds,
                "pools_seconds": report.pools_seconds,
            },
            labels=labels,
        )

    def prepare(self) -> PreparationReport:
        """Fit the recommender and draw the pools (idempotent).

        With a store attached, a previously persisted preparation of the
        same (graph, recommender, strategy, sample size, seed) is reloaded
        instead of rebuilt; the recommender is then left unfitted until
        something (e.g. :meth:`resample` under ``probabilistic``) needs it.
        """
        if self.preparation is not None:
            return self.preparation
        # Warm the filtered-ranking index: a once-per-dataset cost that
        # belongs to preparation, not to any timed evaluation — on the
        # cache-restored path too, or the build would land inside the
        # first timed evaluate() call.
        self.graph.filter_index  # noqa: B018 — deliberate cache warm-up
        if self.store is not None:
            restored = self._restore_preparation(self._preparation_key())
            if restored is not None:
                self.preparation = restored
                self._warm_plan()
                return restored
        needs_recommender = self.strategy in ("probabilistic", "static")
        fit_seconds = 0.0
        if needs_recommender:
            self.fitted = self.recommender.fit(self.graph, self.types)
            fit_seconds = self.fitted.fit_seconds
        candidates_seconds = 0.0
        if self.strategy == "static":
            assert self.fitted is not None
            self.candidates = build_static_candidates(
                self.fitted, self.graph, include_observed=self.include_observed
            )
            candidates_seconds = self.candidates.build_seconds
        start = time.perf_counter()
        self.pools = build_pools(
            self.graph,
            self.strategy,
            rng=np.random.default_rng(self.seed),
            num_samples=self.num_samples,
            sample_fraction=self.sample_fraction,
            fitted=self.fitted,
            candidates=self.candidates,
        )
        pools_seconds = time.perf_counter() - start
        self.preparation = PreparationReport(
            recommender_name=self.recommender.name,
            strategy=self.strategy,
            fit_seconds=fit_seconds,
            candidates_seconds=candidates_seconds,
            pools_seconds=pools_seconds,
        )
        if self.store is not None:
            self._persist_preparation(self._preparation_key(), self.preparation)
        self._warm_plan()
        return self.preparation

    def _warm_plan(self) -> None:
        """Build the test split's evaluation plan over the current pools.

        Like the filter index, the plan (grouped queries, known answers
        mapped into the pools) is a once-per-pools cost: it belongs to
        preparation, not to the first timed :meth:`evaluate`.  Other
        splits get theirs on first use.
        """
        if len(self.graph.test):
            evaluation_plan(self.graph, "test", SIDES, self.pools)

    def resample(self, seed: int) -> None:
        """Redraw the pools with a new seed (for repeated-sampling CIs).

        The protocol's ``seed`` is updated to the new draw, so the store
        cache key follows the pools: resampled artifacts persist under
        the *new* seed's preparation key and never collide with (or
        overwrite) the original draw's cached pools.  With a store
        attached, a previously persisted draw of the same seed is
        restored instead of redrawn — ``resample`` is exactly as
        cache-friendly as ``prepare``.
        """
        if self.preparation is None:
            self.seed = seed
            self.prepare()
            return
        self.seed = seed
        if self.store is not None:
            restored = self._restore_preparation(self._preparation_key())
            if restored is not None:
                self.preparation = restored
                self._warm_plan()
                return
        if self.strategy == "probabilistic" and self.fitted is None:
            # A cache-restored preparation skips fitting; resampling under
            # the probabilistic strategy genuinely needs the score matrix.
            self.fitted = self.recommender.fit(self.graph, self.types)
        start = time.perf_counter()
        self.pools = build_pools(
            self.graph,
            self.strategy,
            rng=np.random.default_rng(seed),
            num_samples=self.num_samples,
            sample_fraction=self.sample_fraction,
            fitted=self.fitted,
            candidates=self.candidates,
        )
        self.preparation = PreparationReport(
            recommender_name=self.preparation.recommender_name,
            strategy=self.preparation.strategy,
            fit_seconds=self.preparation.fit_seconds,
            candidates_seconds=self.preparation.candidates_seconds,
            pools_seconds=time.perf_counter() - start,
        )
        if self.store is not None:
            self._persist_preparation(self._preparation_key(), self.preparation)
        self._warm_plan()

    # ------------------------------------------------------------------
    def evaluate(
        self,
        model: KGEModel,
        split: str = "test",
        hits_at: tuple[int, ...] = HITS_AT,
        workers: int | None = None,
    ) -> EvaluationResult:
        """Fast sampled estimate of the filtered ranking metrics.

        ``workers`` overrides the protocol-level worker count for this
        call (None = use the protocol's setting).
        """
        if self.pools is None:
            self.prepare()
        assert self.pools is not None
        return evaluate_sampled(
            model,
            self.graph,
            self.pools,
            split=split,
            hits_at=hits_at,
            workers=self.workers if workers is None else workers,
            chunk_size=self.chunk_size,
        )

    def evaluate_full(
        self,
        model: KGEModel,
        split: str = "test",
        hits_at: tuple[int, ...] = HITS_AT,
        workers: int | None = None,
    ) -> EvaluationResult:
        """The full filtered ranking protocol (the expensive ground truth).

        With a store attached, the result is served from / saved to the
        ground-truth cache, keyed by the model's exact parameters; on a
        miss the recomputation fans out across ``workers`` processes.
        """
        workers = self.workers if workers is None else workers
        if self.store is not None:
            return self.store.cached_evaluate_full(
                model,
                self.graph,
                split=split,
                hits_at=hits_at,
                workers=workers,
                chunk_size=self.chunk_size,
            )
        return evaluate_full(
            model,
            self.graph,
            split=split,
            hits_at=hits_at,
            workers=workers,
            chunk_size=self.chunk_size,
        )

    def __repr__(self) -> str:
        size = self.num_samples if self.num_samples is not None else f"{self.sample_fraction:.0%}"
        return (
            f"EvaluationProtocol({self.graph.name!r}, recommender={self.recommender.name!r}, "
            f"strategy={self.strategy!r}, n_s={size})"
        )
