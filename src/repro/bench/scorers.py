"""Instrumented scorer wrappers shared by the systems benchmarks.

The parallel-engine and serving benchmarks both need a scoring backend
whose *per-call* latency dominates its per-row cost — the regime where
fanning chunks across workers (engine) or coalescing requests into
micro-batches (serve) pays.  :class:`LatencyBoundScorer` pins that
per-call cost to a fixed, hardware-independent floor, so the asserted
speed-up ratios measure the machinery under test rather than how many
idle cores the host happens to have.
"""

from __future__ import annotations

import time


class LatencyBoundScorer:
    """A model wrapper with a fixed sleep per batched scoring call.

    Delegates every computation to the wrapped model — scores, and hence
    ranks, are exactly the wrapped model's — but sleeps ``delay``
    seconds per :meth:`score_candidates_batch` call, emulating a backend
    where batch latency (huge score slabs, accelerator or remote
    round-trips) dominates.
    """

    def __init__(self, inner, delay: float):
        self.inner = inner
        self.delay = delay
        self.num_entities = inner.num_entities
        self.num_relations = inner.num_relations

    def score_candidates_batch(self, anchors, relation, side, candidates=None, truths=None):
        time.sleep(self.delay)
        return self.inner.score_candidates_batch(anchors, relation, side, candidates, truths)

    def score_candidates(self, anchor, relation, side, candidates):
        return self.inner.score_candidates(anchor, relation, side, candidates)

    def score_all(self, anchor, relation, side):
        return self.inner.score_all(anchor, relation, side)
