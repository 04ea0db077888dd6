"""BatchScheduler: dispatch when idle, coalescing, exactness of the contract."""

import threading
import time

import pytest

from repro.serve import BatchScheduler, RankQuery


def _query(anchor=0, relation=0, model="m", side="tail", **kwargs):
    return RankQuery(model=model, relation=relation, side=side, anchor=anchor, **kwargs)


def _echo_batch(key, queries):
    """A scorer that records its batches and returns each query's anchor."""
    return [query.anchor for query in queries]


class _Recorder:
    def __init__(self, delay=0.0):
        self.batches = []
        self.delay = delay
        self._lock = threading.Lock()

    def __call__(self, key, queries):
        if self.delay:
            time.sleep(self.delay)
        with self._lock:
            self.batches.append((key, [query.anchor for query in queries]))
        return [query.anchor for query in queries]


class _Gated(_Recorder):
    """A recorder whose scoring calls block until ``gate`` is set.

    ``entered`` fires when the first call starts, i.e. once a batch is
    in flight, so a test can queue requests behind it deterministically.
    """

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def __call__(self, key, queries):
        self.entered.set()
        assert self.gate.wait(5.0), "test never opened the gate"
        return super().__call__(key, queries)


class TestQueryValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            _query(kind="nope")

    def test_rank_needs_truth(self):
        with pytest.raises(ValueError, match="truth"):
            _query(kind="rank")

    def test_bad_candidate_mode_rejected(self):
        with pytest.raises(ValueError, match="candidate mode"):
            _query(candidates="some")

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError, match="k must be positive"):
            _query(k=0)

    def test_batch_key_groups_by_model_relation_side_mode(self):
        assert _query(anchor=1).batch_key == _query(anchor=9).batch_key
        assert _query().batch_key != _query(relation=1).batch_key
        assert _query().batch_key != _query(side="head").batch_key
        assert _query().batch_key != _query(candidates="all").batch_key
        assert _query().batch_key != _query(model="other").batch_key


class TestCoalescing:
    def test_concurrent_submits_share_batches(self):
        recorder = _Recorder(delay=0.01)
        with BatchScheduler(recorder, max_batch_size=64) as scheduler:
            pendings = [scheduler.submit(_query(anchor=i)) for i in range(32)]
            results = [p.result(5.0) for p in pendings]
        assert results == list(range(32))
        # 32 same-key requests submitted faster than one batch scores
        # must land in far fewer than 32 scoring calls.
        assert scheduler.num_batches < 8
        assert scheduler.mean_batch_size > 4
        assert sum(len(anchors) for _, anchors in recorder.batches) == 32

    def test_max_batch_size_bounds_every_batch(self):
        recorder = _Recorder(delay=0.005)
        with BatchScheduler(recorder, max_batch_size=4) as scheduler:
            pendings = [scheduler.submit(_query(anchor=i)) for i in range(10)]
            for p in pendings:
                p.result(5.0)
        assert all(len(anchors) <= 4 for _, anchors in recorder.batches)
        assert scheduler.max_batch_observed <= 4

    def test_sequential_mode_scores_one_at_a_time(self):
        recorder = _Recorder()
        with BatchScheduler(recorder, max_batch_size=1) as scheduler:
            pendings = [scheduler.submit(_query(anchor=i)) for i in range(5)]
            for p in pendings:
                p.result(5.0)
        assert all(len(anchors) == 1 for _, anchors in recorder.batches)
        assert scheduler.num_batches == 5

    def test_different_keys_never_mix(self):
        recorder = _Recorder(delay=0.005)
        with BatchScheduler(recorder, max_batch_size=64) as scheduler:
            pendings = [
                scheduler.submit(_query(anchor=i, relation=i % 3)) for i in range(12)
            ]
            for p in pendings:
                p.result(5.0)
        for (_, relation, _, _), anchors in recorder.batches:
            assert all(anchor % 3 == relation for anchor in anchors)

    def test_lone_request_dispatches_without_company(self):
        gated = _Gated()
        with BatchScheduler(gated, max_batch_size=1024) as scheduler:
            pending = scheduler.submit(_query(anchor=7))
            # Scoring starts with nothing else queued: no window to fill.
            assert gated.entered.wait(5.0)
            gated.gate.set()
            assert pending.result(5.0) == 7
        assert pending.batch_size == 1
        assert gated.batches == [(_query().batch_key, [7])]

    def test_requests_queued_behind_an_in_flight_batch_form_the_next(self):
        gated = _Gated()
        with BatchScheduler(gated, max_batch_size=64) as scheduler:
            first = scheduler.submit(_query(anchor=0))
            assert gated.entered.wait(5.0)  # batch [0] is in flight
            queued = [scheduler.submit(_query(anchor=i)) for i in range(1, 9)]
            gated.gate.set()
            assert [p.result(5.0) for p in [first, *queued]] == list(range(9))
        assert [anchors for _, anchors in gated.batches] == [[0], list(range(1, 9))]
        assert [p.batch_size for p in queued] == [8] * 8

    def test_queued_burst_splits_at_max_batch_size(self):
        gated = _Gated()
        with BatchScheduler(gated, max_batch_size=4) as scheduler:
            scheduler.submit(_query(anchor=0))
            assert gated.entered.wait(5.0)
            queued = [scheduler.submit(_query(anchor=i)) for i in range(1, 11)]
            gated.gate.set()
            for p in queued:
                p.result(5.0)
        assert [anchors for _, anchors in gated.batches] == [
            [0],
            [1, 2, 3, 4],
            [5, 6, 7, 8],
            [9, 10],
        ]

    def test_oldest_key_dispatches_first(self):
        gated = _Gated()
        with BatchScheduler(gated, max_batch_size=64) as scheduler:
            scheduler.submit(_query(anchor=0, relation=0))
            assert gated.entered.wait(5.0)
            later = [
                scheduler.submit(_query(anchor=anchor, relation=relation))
                for anchor, relation in [(1, 1), (2, 0), (3, 1)]
            ]
            gated.gate.set()
            for p in later:
                p.result(5.0)
        # Relation 1's queue holds the oldest waiting request, so it goes
        # before relation 0's, and each key's requests share one batch.
        assert [(key[1], anchors) for key, anchors in gated.batches] == [
            (0, [0]),
            (1, [1, 3]),
            (0, [2]),
        ]

    def test_batch_size_reported_on_the_result(self):
        with BatchScheduler(_echo_batch, max_batch_size=1) as scheduler:
            pending = scheduler.submit(_query())
            pending.result(5.0)
            assert pending.batch_size == 1


class TestLifecycle:
    def test_scoring_errors_propagate_to_every_caller(self):
        def boom(key, queries):
            raise RuntimeError("scorer exploded")

        with BatchScheduler(boom, max_batch_size=8) as scheduler:
            pendings = [scheduler.submit(_query(anchor=i)) for i in range(3)]
            for pending in pendings:
                with pytest.raises(RuntimeError, match="scorer exploded"):
                    pending.result(5.0)

    def test_result_count_mismatch_is_an_error(self):
        with BatchScheduler(lambda k, q: [], max_batch_size=1) as scheduler:
            with pytest.raises(RuntimeError, match="results"):
                scheduler.submit(_query()).result(5.0)

    def test_close_flushes_queued_requests(self):
        gated = _Gated()
        scheduler = BatchScheduler(gated, max_batch_size=64)
        pendings = [scheduler.submit(_query(anchor=0))]
        assert gated.entered.wait(5.0)
        pendings += [scheduler.submit(_query(anchor=i)) for i in range(1, 8)]
        closer = threading.Thread(target=scheduler.close)
        closer.start()  # close while a batch is in flight and more are queued
        gated.gate.set()
        closer.join(5.0)
        assert [p.result(1.0) for p in pendings] == list(range(8))

    def test_submit_after_close_rejected(self):
        scheduler = BatchScheduler(_echo_batch)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(_query())

    def test_stats_shape(self):
        with BatchScheduler(_echo_batch, max_batch_size=4) as scheduler:
            scheduler.submit(_query()).result(5.0)
            stats = scheduler.stats()
        assert stats["requests"] == 1
        assert stats["batches"] == 1
        assert set(stats) == {"requests", "batches", "mean_batch_size", "max_batch_size"}
