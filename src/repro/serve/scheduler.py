"""Micro-batching request scheduler for the serving layer.

Online traffic arrives one query at a time, but the scoring surface is
batched: :meth:`~repro.models.base.KGEModel.score_candidates_batch`
scores ``b`` same-``(relation, side)`` queries in one vectorized call,
and in the serving regime (large score slabs, accelerator or remote
scorers) the per-call cost dominates the per-row cost.  The scheduler
closes that gap: concurrent requests queue per *batch key* —
``(model, relation, side, candidate mode)`` — and a single dispatcher
thread drains each queue in micro-batches bounded by ``max_batch_size``.

Dispatch is continuous: whenever the dispatcher is free it takes the
key whose oldest request arrived first and scores up to
``max_batch_size`` of its queued requests at once.  Nothing waits for
company — a lone request is scored immediately, and requests arriving
while a batch is in flight queue up to form the next one, so load (not
a timer) sets the batch size.

Batching is an execution knob with one caveat: a product's last-ulp
rounding may depend on how many rows it scores, so a request's scores
may differ in the last ulp with the batch it landed in, and its rank
only where a competitor scores within those few ulp of the truth.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.kg.graph import Side
from repro.obs import get_tracer
from repro.obs.context import current_context, use_context
from repro.obs.metrics import MetricsRegistry

#: Batch-size histogram buckets: powers of two up to the default ceiling.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

BatchKey = tuple[str, int, str, str]
"""``(model name, relation id, side, candidate mode)`` — requests sharing
a key can share one vectorized scoring call."""


@dataclass(frozen=True)
class RankQuery:
    """One schedulable serving query.

    ``kind`` selects the post-processing applied to the query's score
    row: ``"topk"`` returns the best ``k`` candidates, ``"rank"``
    returns the filtered rank of ``truth`` (the offline protocol's
    semantics).  ``candidates`` picks the scoring axis: ``"filtered"``
    ranks against the model's static candidate set, ``"all"`` against
    the whole entity vocabulary.
    """

    model: str
    relation: int
    side: Side
    anchor: int
    kind: str = "topk"
    k: int = 10
    truth: int | None = None
    filter_known: bool = True
    candidates: str = "filtered"

    def __post_init__(self) -> None:
        if self.kind not in ("topk", "rank"):
            raise ValueError(f"unknown query kind {self.kind!r}")
        if self.candidates not in ("filtered", "all"):
            raise ValueError(f"unknown candidate mode {self.candidates!r}")
        if self.kind == "rank" and self.truth is None:
            raise ValueError("rank queries need a truth entity")
        if self.kind == "topk" and self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")

    @property
    def batch_key(self) -> BatchKey:
        return (self.model, self.relation, self.side, self.candidates)


class PendingResult:
    """A one-shot future the scheduler resolves when the batch scores."""

    __slots__ = ("_event", "_value", "_error", "batch_size")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None
        self.batch_size = 0  # how many requests shared the scoring call

    def _resolve(self, value, batch_size: int) -> None:
        self._value = value
        self.batch_size = batch_size
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block until the batch resolves; re-raises scoring errors."""
        if not self._event.wait(timeout):
            raise TimeoutError("serving request did not resolve in time")
        if self._error is not None:
            raise self._error
        return self._value


class BatchScheduler:
    """Coalesce concurrent queries into per-key micro-batches.

    Parameters
    ----------
    score_batch:
        ``score_batch(key, queries) -> list[result]`` — one result per
        query, computed with a single vectorized model call (the
        service provides this).
    max_batch_size:
        Most queries scored per call; ``1`` disables coalescing (the
        sequential baseline the load test compares against).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the
        scheduler publishes its queue-depth gauge, batch-size histogram
        and batch counter into (the service passes its own).
    """

    def __init__(
        self,
        score_batch: Callable[[BatchKey, list[RankQuery]], list],
        max_batch_size: int = 64,
        metrics: MetricsRegistry | None = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._score_batch = score_batch
        self.max_batch_size = max_batch_size
        self._queue_depth = self._batch_hist = self._batches_total = None
        if metrics is not None:
            self._queue_depth = metrics.gauge(
                "repro_serve_queue_depth", "Requests queued awaiting a batch"
            )
            self._batch_hist = metrics.histogram(
                "repro_serve_batch_size",
                "Requests coalesced per scoring call",
                buckets=BATCH_SIZE_BUCKETS,
            )
            self._batches_total = metrics.counter(
                "repro_serve_batches_total", "Micro-batches dispatched"
            )
        self._cond = threading.Condition()
        self._queues: dict[BatchKey, deque] = {}
        self._closed = False
        self.num_requests = 0
        self.num_batches = 0
        self.num_batched_requests = 0
        self.max_batch_observed = 0
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, query: RankQuery) -> PendingResult:
        """Enqueue one query; returns immediately with its pending result."""
        pending = PendingResult()
        with self._cond:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            # The submitter's trace context rides along so the dispatcher
            # thread can score the batch under the originating request's
            # trace id (the oldest query's context wins for the batch).
            self._queues.setdefault(query.batch_key, deque()).append(
                (query, pending, time.monotonic(), current_context())
            )
            self.num_requests += 1
            if self._queue_depth is not None:
                self._queue_depth.inc()
            self._cond.notify_all()
        return pending

    def _oldest_key(self) -> BatchKey:
        """The key whose first queued request arrived earliest."""
        return min(self._queues, key=lambda key: self._queues[key][0][2])

    def _loop(self) -> None:
        while True:
            with self._cond:
                # Empty queues are deleted, so any key left has work;
                # close() only stops the loop once every queue drained.
                while not self._queues:
                    if self._closed:
                        return
                    self._cond.wait()
                key = self._oldest_key()
                queue = self._queues[key]
                batch = [
                    queue.popleft()
                    for _ in range(min(len(queue), self.max_batch_size))
                ]
                if not queue:
                    del self._queues[key]
            self._dispatch(key, batch)

    def _dispatch(self, key: BatchKey, batch: list) -> None:
        queries = [query for query, _, _, _ in batch]
        if self._queue_depth is not None:
            self._queue_depth.dec(len(batch))
        try:
            with use_context(batch[0][3]), get_tracer().span("serve.batch"):
                results = self._score_batch(key, queries)
            if len(results) != len(batch):
                raise RuntimeError(
                    f"score_batch returned {len(results)} results for "
                    f"{len(batch)} queries"
                )
        except BaseException as error:  # noqa: BLE001 — forwarded to callers
            for _, pending, _, _ in batch:
                pending._fail(error)
            return
        self.num_batches += 1
        self.num_batched_requests += len(batch)
        self.max_batch_observed = max(self.max_batch_observed, len(batch))
        if self._batch_hist is not None:
            self._batch_hist.observe(len(batch))
            self._batches_total.inc()
        for (_, pending, _, _), value in zip(batch, results):
            pending._resolve(value, len(batch))

    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        if self.num_batches == 0:
            return 0.0
        return self.num_batched_requests / self.num_batches

    def stats(self) -> dict:
        """Scheduler counters for ``/healthz``."""
        return {
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch_size": self.max_batch_observed,
        }

    def close(self, timeout: float = 5.0) -> None:
        """Flush every queued request, then stop the dispatcher thread."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"BatchScheduler(max_batch_size={self.max_batch_size}, "
            f"batches={self.num_batches}, "
            f"mean={self.mean_batch_size:.1f})"
        )
