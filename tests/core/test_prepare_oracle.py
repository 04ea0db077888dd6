"""Differential oracle for the preparation indexes.

The observed (PT) sets, the training truths, the static candidate sets
and their thresholds, the negative pools and the split pairs of
:func:`evaluate_tradeoff` are all read off keyed CSR indexes
(:func:`repro.kg.graph.build_keyed_csr`).  The reference functions below
are the set- and dict-of-arrays builders those indexes replaced, kept
here as the oracle: on seeded small graphs with duplicate triples,
self-loops, relations absent from train, an empty valid split and
zero-score columns, every output must be bitwise-equal to theirs.  The
indexes must also survive the store and the engine's shared memory
byte for byte, and an artifact in the old per-(side, relation) layout
must read as a store miss.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.candidates import build_static_candidates, choose_threshold, evaluate_tradeoff
from repro.core.protocol import EvaluationProtocol
from repro.core.sampling import STRATEGIES, NegativePools, build_pools, resolve_sample_size
from repro.engine import build_state, evaluation_plan
from repro.engine.chunking import collect_known_answers, pool_positions, query_table
from repro.engine.shm import attach_state, publish_state
from repro.kg import KnowledgeGraph, TripleSet, Vocabulary
from repro.kg.graph import (
    HEAD,
    SIDES,
    TAIL,
    KeyedCSR,
    build_filter_csr,
    build_keyed_csr,
    entities_by_relation,
    id_dtype,
)
from repro.metrics.tradeoff import TradeoffPoint
from repro.models import build_model
from repro.recommenders import build_recommender
from repro.recommenders.base import FittedRecommender, column_index
from repro.store import ArtifactStore, ExperimentStore
from repro.store import artifacts as artifacts_module

RECOMMENDERS = ("pt", "dbh", "l-wd")
SEEDS = tuple(range(6))


# ----------------------------------------------------------------------
# Reference builders (the set-based implementations the CSR replaced)
# ----------------------------------------------------------------------
def reference_observed(graph):
    observed = {HEAD: {}, TAIL: {}}
    for h, r, t in graph.train:
        observed[HEAD].setdefault(r, set()).add(h)
        observed[TAIL].setdefault(r, set()).add(t)
    dtype = id_dtype(graph.num_entities)
    return {
        side: {r: np.asarray(sorted(vals), dtype=dtype) for r, vals in mapping.items()}
        for side, mapping in observed.items()
    }


def reference_training_truths(graph, relation, side):
    seen = set(reference_observed(graph)[side].get(relation, np.empty(0)).tolist())
    for h, r, t in graph.valid:
        if r == relation:
            seen.add(h if side == HEAD else t)
    return np.asarray(sorted(seen), dtype=np.int64)


def reference_keyed_csr(keys, values, value_dtype):
    """The lexsort builder the packed single sort replaced."""
    keys = np.asarray(keys, dtype=np.int64)
    order = np.lexsort((values, keys))
    keys, values = keys[order], values[order].astype(value_dtype, copy=False)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = (keys[1:] != keys[:-1]) | (values[1:] != values[:-1])
    keys, values = keys[fresh], values[fresh]
    unique, starts = np.unique(keys, return_index=True)
    offsets = np.append(starts, keys.size).astype(np.int64, copy=False)
    return KeyedCSR(unique, offsets, np.ascontiguousarray(values))


def reference_column(fitted, relation, side):
    """A dense score column by scipy column slicing, as it was read before
    the column store's own slices."""
    col = column_index(relation, side, fitted.num_relations)
    return np.asarray(fitted.matrix.tocsc()[:, col].todense()).reshape(-1)


def reference_choose_threshold(scores, truths, num_thresholds=32):
    positive = scores[scores > 0]
    if positive.size == 0:
        return np.inf, TradeoffPoint(
            candidate_recall=1.0 if truths.size == 0 else 0.0, reduction_rate=1.0
        )
    quantiles = np.unique(np.quantile(positive, np.linspace(0.0, 1.0, num_thresholds)))
    num_entities = scores.shape[0]
    truth_scores = scores[truths] if truths.size else np.empty(0)
    best_threshold = float(quantiles[0])
    best_point = None
    best_distance = np.inf
    for threshold in quantiles:
        kept = int(np.count_nonzero(scores >= threshold))
        recall = (
            float(np.count_nonzero(truth_scores >= threshold)) / truths.size
            if truths.size
            else 1.0
        )
        point = TradeoffPoint(candidate_recall=recall, reduction_rate=1.0 - kept / num_entities)
        distance = point.distance_to_ideal()
        if distance < best_distance:
            best_distance = distance
            best_threshold = float(threshold)
            best_point = point
    return best_threshold, best_point


def reference_static_candidates(fitted, graph, include_observed):
    """Dict-of-arrays sets and thresholds: ``sets[side][relation]``."""
    observed = reference_observed(graph)
    sets = {side: {} for side in SIDES}
    thresholds = {side: {} for side in SIDES}
    for side in SIDES:
        for relation in range(graph.num_relations):
            column = reference_column(fitted, relation, side)
            truths = reference_training_truths(graph, relation, side)
            threshold, _ = reference_choose_threshold(column, truths)
            selected = np.flatnonzero(column >= threshold).astype(np.int64)
            seen = observed[side].get(relation, np.empty(0, dtype=np.int64))
            if include_observed and seen.size:
                selected = np.union1d(selected, seen)
            sets[side][relation] = np.sort(selected)
            thresholds[side][relation] = threshold
    return sets, thresholds


def reference_mean_reduction_rate(sets, num_entities):
    sizes = [pool.size for side in SIDES for pool in sets[side].values()]
    return float(np.mean([1.0 - size / num_entities for size in sizes])) if sizes else 0.0


def reference_pools(graph, strategy, seed, sample_size, fitted, sets):
    """The per-column draws, in the same (side, relation) order and RNG
    stream, into a dict of sorted int64 arrays."""
    rng = np.random.default_rng(seed)
    pools = {side: {} for side in SIDES}
    for side in SIDES:
        for relation in range(graph.num_relations):
            if strategy == "random":
                pool = rng.choice(graph.num_entities, size=sample_size, replace=False)
            elif strategy == "static":
                candidates = sets[side][relation]
                pool = candidates
                if candidates.size:
                    take = min(sample_size, candidates.size)
                    pool = rng.choice(candidates, size=take, replace=False)
            else:
                probabilities = fitted.column_probabilities(relation, side)
                take = min(sample_size, int(np.count_nonzero(probabilities)))
                pool = np.empty(0, dtype=np.int64)
                if take:
                    pool = rng.choice(
                        probabilities.shape[0], size=take, replace=False, p=probabilities
                    )
            pools[side][relation] = np.sort(pool).astype(np.int64)
    return pools


def reference_plan(graph, split, sides, pools):
    """The plan's exclusion pairs, one gather and one pool lookup per
    (relation, side) group, as the plan was built before it went per side."""
    queries, groups, starts = query_table(graph, split, sides)
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for g, (relation, side) in enumerate(groups):
        block = queries[starts[g] : starts[g + 1]]
        group_rows, group_cols = collect_known_answers(
            graph.filter_index, block[:, 0], block[:, 1], relation, side
        )
        if pools is not None:
            inside, positions = pool_positions(pools.pool(relation, side), group_cols)
            group_rows, group_cols = group_rows[inside], positions[inside]
        rows.append(group_rows + starts[g])
        cols.append(group_cols)
    excluded_rows = np.concatenate(rows).astype(id_dtype(queries.shape[0]))
    excluded_cols = np.concatenate(cols).astype(id_dtype(graph.num_entities))
    counts = np.bincount(excluded_rows, minlength=queries.shape[0])
    return {
        "starts": starts,
        "queries": queries,
        "excluded_starts": np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)]),
        "excluded_rows": excluded_rows,
        "excluded_cols": excluded_cols,
    }


def reference_test_pairs(graph, split):
    pairs = {side: set() for side in SIDES}
    for h, r, t in getattr(graph, split):
        pairs[HEAD].add((h, r))
        pairs[TAIL].add((t, r))
    return pairs


def reference_tradeoff(sets, num_entities, recommender_name, graph, split="test"):
    """Table 5 from dict-of-arrays sets, by plain set membership."""
    members = {
        side: {relation: set(pool.tolist()) for relation, pool in sets[side].items()}
        for side in SIDES
    }
    pairs = reference_test_pairs(graph, split)
    seen = {side: set() for side in SIDES}
    for source in ("train", "valid"):
        for side, combos in reference_test_pairs(graph, source).items():
            seen[side] |= combos
    hits_test = total_test = hits_unseen = total_unseen = 0
    rr_terms = []
    for side in SIDES:
        for entity, relation in sorted(pairs[side]):
            covered = entity in members[side][relation]
            total_test += 1
            hits_test += int(covered)
            if (entity, relation) not in seen[side]:
                total_unseen += 1
                hits_unseen += int(covered)
            rr_terms.append(1.0 - len(members[side][relation]) / num_entities)
    return {
        "recommender_name": recommender_name,
        "candidate_recall_test": hits_test / total_test if total_test else 1.0,
        "candidate_recall_unseen": hits_unseen / total_unseen if total_unseen else 1.0,
        "reduction_rate": float(np.mean(rr_terms)) if rr_terms else 0.0,
        "num_test_pairs": total_test,
        "num_unseen_pairs": total_unseen,
        "fit_seconds": 0.0,
    }


# ----------------------------------------------------------------------
# Seeded graphs with every edge case the indexes must agree on
# ----------------------------------------------------------------------
def make_graph(seed: int) -> KnowledgeGraph:
    """Small random graph: duplicates, self-loops, a test-only relation,
    and (on even seeds) an empty valid split."""
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(8, 30))
    num_relations = int(rng.integers(3, 6))
    absent = num_relations - 1  # never in train: its columns score zero

    def draw(size, relations):
        return np.stack(
            [
                rng.integers(num_entities, size=size),
                rng.choice(relations, size=size),
                rng.integers(num_entities, size=size),
            ],
            axis=1,
        )

    present = np.arange(num_relations - 1)
    train = draw(int(rng.integers(20, 60)), present)
    loops = rng.integers(num_entities, size=4)
    train = np.concatenate(
        [train, train[: train.shape[0] // 3], np.stack([loops, rng.choice(present, 4), loops], 1)]
    )
    valid = np.empty((0, 3), dtype=np.int64) if seed % 2 == 0 else draw(10, np.arange(num_relations))
    test = draw(15, np.arange(num_relations))
    test = np.concatenate([test, test[:3], [[0, absent, 0]]])
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(num_entities)]),
        relations=Vocabulary([f"r{i}" for i in range(num_relations)]),
        train=TripleSet(rng.permutation(train)),
        valid=TripleSet(valid),
        test=TripleSet(test),
        name=f"oracle-{seed}",
    )


@pytest.fixture(scope="module", params=SEEDS)
def graph(request):
    return make_graph(request.param)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestIndexes:
    def test_observed_sets(self, graph):
        reference = reference_observed(graph)
        for side in SIDES:
            for relation in range(graph.num_relations):
                want = reference[side].get(relation, np.empty(0, dtype=id_dtype(graph.num_entities)))
                assert_same_array(graph.observed(relation, side), want)

    def test_observed_dtype_for_missing_and_present_relations(self, graph):
        dtype = id_dtype(graph.num_entities)
        missing = graph.num_relations - 1
        assert graph.observed(missing, TAIL).size == 0
        assert graph.observed(missing, TAIL).dtype == dtype
        present = int(graph.train.relations[0])
        assert graph.observed(present, HEAD).size > 0
        assert graph.observed(present, HEAD).dtype == dtype

    def test_training_truths(self, graph):
        truths = entities_by_relation(graph.num_entities, [graph.train.array, graph.valid.array])
        for side in SIDES:
            for relation in range(graph.num_relations):
                want = reference_training_truths(graph, relation, side)
                got = truths[side].segment(relation)
                assert got.dtype == id_dtype(graph.num_entities)
                assert_same_array(got.astype(np.int64), want)


class TestThresholds:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_columns_with_ties_and_zeros(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            size = int(rng.integers(1, 60))
            scores = rng.choice([0.0, 0.25, 0.5, 1.0, 3.0], size=size) * (rng.random(size) > 0.4)
            if rng.random() < 0.5:
                scores = scores + rng.random(size) * (scores > 0)
            truths = np.unique(rng.integers(size, size=int(rng.integers(0, size + 1))))
            threshold, point = choose_threshold(scores, truths)
            want_threshold, want_point = reference_choose_threshold(scores, truths)
            assert float(threshold).hex() == float(want_threshold).hex()
            assert point == want_point

    def test_zero_column(self):
        for truths in (np.empty(0, dtype=np.int64), np.array([1, 3])):
            assert choose_threshold(np.zeros(5), truths) == reference_choose_threshold(
                np.zeros(5), truths
            )


def assert_same_column(got: np.ndarray, want: np.ndarray, num_entities: int) -> None:
    """One (relation, side) segment: the narrow id dtype, the reference's values."""
    assert got.dtype == id_dtype(num_entities)
    assert_same_array(got.astype(np.int64), want)


@pytest.mark.parametrize("recommender", RECOMMENDERS)
@pytest.mark.parametrize("include_observed", [True, False])
class TestCandidates:
    def test_sets_thresholds_and_report(self, graph, recommender, include_observed):
        fitted = build_recommender(recommender).fit(graph)
        got = build_static_candidates(fitted, graph, include_observed=include_observed)
        want_sets, want_thresholds = reference_static_candidates(fitted, graph, include_observed)
        for side in SIDES:
            for relation in range(graph.num_relations):
                assert_same_column(
                    got.candidates(relation, side), want_sets[side][relation], graph.num_entities
                )
                assert got.set_size(relation, side) == want_sets[side][relation].size
            assert got.thresholds[side].dtype == np.float64
            assert [float(v).hex() for v in got.thresholds[side]] == [
                float(want_thresholds[side][r]).hex() for r in range(graph.num_relations)
            ]
        assert float(got.mean_reduction_rate()).hex() == reference_mean_reduction_rate(
            want_sets, graph.num_entities
        ).hex()
        for split in ("test", "valid", "train"):
            report = asdict(evaluate_tradeoff(got, graph, split=split))
            expected = reference_tradeoff(
                want_sets, graph.num_entities, fitted.name, graph, split=split
            )
            assert report.keys() == expected.keys()
            for name, value in expected.items():
                if isinstance(value, float):
                    assert float(report[name]).hex() == value.hex(), (split, name)
                else:
                    assert report[name] == value, (split, name)

    @pytest.mark.parametrize("size", [{"num_samples": 3}, {"sample_fraction": 0.5}])
    def test_pools_every_strategy(self, graph, recommender, include_observed, size):
        fitted = build_recommender(recommender).fit(graph)
        sets = build_static_candidates(fitted, graph, include_observed=include_observed)
        want_sets, _ = reference_static_candidates(fitted, graph, include_observed)
        sample_size = resolve_sample_size(graph.num_entities, **size)
        for strategy in STRATEGIES:
            got = build_pools(
                graph, strategy, np.random.default_rng(7), fitted=fitted, candidates=sets, **size
            )
            want = reference_pools(graph, strategy, 7, sample_size, fitted, want_sets)
            for side in SIDES:
                for relation in range(graph.num_relations):
                    assert_same_column(
                        got.pool(relation, side), want[side][relation], graph.num_entities
                    )
            assert got.total_sampled() == sum(
                pool.size for side in SIDES for pool in want[side].values()
            )


def prepared(graph, strategy="static"):
    fitted = build_recommender("l-wd").fit(graph)
    sets = build_static_candidates(fitted, graph)
    pools = build_pools(
        graph, strategy, np.random.default_rng(1), sample_fraction=0.5, fitted=fitted, candidates=sets
    )
    return sets, pools


def assert_same_index(got, want) -> None:
    """Two per-side keyed CSRs, bitwise on keys, offsets and values."""
    for side in SIDES:
        for name, array in want[side].arrays(side).items():
            assert_same_array(got[side].arrays(side)[name], array)


class TestRoundTrips:
    def test_store_save_load(self, graph, tmp_path):
        sets, pools = prepared(graph)
        store = ArtifactStore(tmp_path)
        store.put_pools("p" * 32, pools)
        store.put_candidates("c" * 32, sets)
        store.memory.clear()
        loaded_pools = store.get_pools("p" * 32)
        loaded_sets = store.get_candidates("c" * 32)
        assert_same_index(loaded_pools.pools, pools.pools)
        assert_same_index(loaded_sets.sets, sets.sets)
        for side in SIDES:
            assert_same_array(loaded_sets.thresholds[side], sets.thresholds[side])
        assert (loaded_pools.strategy, loaded_pools.sample_size) == ("static", pools.sample_size)

    def test_shm_publish_attach(self, graph):
        _, pools = prepared(graph, strategy="random")
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=4, seed=0)
        published = publish_state(build_state(model, graph, "test", pools=pools))
        attached = None
        try:
            attached = attach_state(published.manifest)
            shared = attached.state.plan.pools
            scalars = (shared.strategy, shared.num_entities, shared.sample_size)
            # Copied out so a failed assertion never reads an unmapped segment.
            copies = {
                side: KeyedCSR(*(np.array(part) for part in shared.pools[side].arrays(side).values()))
                for side in SIDES
            }
        finally:
            if attached is not None:
                attached.close()
            published.close()
        assert_same_index(copies, pools.pools)
        assert scalars == (pools.strategy, pools.num_entities, pools.sample_size)


def save_old_layout(arrays: dict, meta: dict, path) -> None:
    """The per-(side, relation) npz layout the keyed CSRs replaced."""
    arrays = dict(arrays, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))
    np.savez_compressed(path, **arrays)


def save_old_pools(pools, path) -> None:
    arrays = {
        f"{side}:{relation}": pools.pool(relation, side).astype(np.int64)
        for side in SIDES
        for relation in pools.pools[side].keys.tolist()
    }
    meta = {
        "artifact": "negative-pools",
        "strategy": pools.strategy,
        "num_entities": pools.num_entities,
        "sample_size": pools.sample_size,
        "build_seconds": pools.build_seconds,
    }
    save_old_layout(arrays, meta, path)


def save_old_candidates(sets, path) -> None:
    num_relations = sets.thresholds[HEAD].size
    arrays = {
        f"{side}:{relation}": sets.candidates(relation, side).astype(np.int64)
        for side in SIDES
        for relation in range(num_relations)
    }
    meta = {
        "artifact": "candidate-sets",
        "num_entities": sets.num_entities,
        "recommender_name": sets.recommender_name,
        "build_seconds": sets.build_seconds,
        "thresholds": {
            side: {str(r): float(v) for r, v in enumerate(sets.thresholds[side])} for side in SIDES
        },
    }
    save_old_layout(arrays, meta, path)


class TestOldLayout:
    def test_old_layout_artifacts_are_misses(self, graph, tmp_path, monkeypatch):
        sets, pools = prepared(graph)
        store = ArtifactStore(tmp_path)
        monkeypatch.setattr(artifacts_module, "save_pools", save_old_pools)
        monkeypatch.setattr(artifacts_module, "save_candidates", save_old_candidates)
        store.put_pools("p" * 32, pools)
        store.put_candidates("c" * 32, sets)
        store.memory.clear()
        assert store.get_pools("p" * 32) is None
        assert store.get_candidates("c" * 32) is None

    def test_protocol_recomputes_over_old_layout(self, graph, tmp_path, monkeypatch):
        def protocol():
            return EvaluationProtocol(
                graph, strategy="static", sample_fraction=0.5, store=ExperimentStore(tmp_path)
            )

        with monkeypatch.context() as patch:
            patch.setattr(artifacts_module, "save_pools", save_old_pools)
            patch.setattr(artifacts_module, "save_candidates", save_old_candidates)
            old = protocol()
            assert not old.prepare().from_cache
        fresh = protocol()
        assert not fresh.prepare().from_cache
        assert_same_index(fresh.pools.pools, old.pools.pools)
        assert_same_index(fresh.candidates.sets, old.candidates.sets)
        assert protocol().prepare().from_cache  # the recomputation was stored


class TestKeyedCSR:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_segments_and_membership_match_sets(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 12, size=80) * 7  # sparse keys, many repeats
        values = rng.integers(0, 20, size=80)
        csr = build_keyed_csr(keys, values, np.dtype(np.int32))
        oracle: dict[int, set[int]] = {}
        for key, value in zip(keys.tolist(), values.tolist()):
            oracle.setdefault(key, set()).add(value)
        assert csr.keys.tolist() == sorted(oracle)
        assert csr.values.dtype == np.int32
        for key in range(-1, 90):
            assert csr.segment(key).tolist() == sorted(oracle.get(key, ()))
        # Values run past the stored ones, and below zero: packed as
        # slot * bound + value, (k, -1) would alias the previous key's
        # largest value, e.g. (2, -1) as (1, 5) in {1: [0, 5], 2: [3]}.
        for high in (25, int(values.max()) + 1):
            probe_keys = rng.integers(-1, 90, size=200)
            probe_values = rng.integers(-3, high, size=200)
            want = [
                v in oracle.get(k, ()) for k, v in zip(probe_keys.tolist(), probe_values.tolist())
            ]
            assert csr.contains(probe_keys, probe_values).tolist() == want
            inside, positions = csr.locate(probe_keys, probe_values)
            assert inside.tolist() == want and positions.dtype == np.int64
            for key, value, position in zip(
                probe_keys[inside].tolist(), probe_values[inside].tolist(), positions[inside]
            ):
                assert sorted(oracle[key]).index(value) == position
            grid = csr.contains(probe_keys.reshape(20, 10), probe_values.reshape(20, 10))
            assert grid.ravel().tolist() == want

    def test_empty(self):
        csr = build_keyed_csr(np.empty(0, np.int64), np.empty(0, np.int64), np.dtype(np.int32))
        assert csr.offsets.tolist() == [0]
        assert csr.segment(3).dtype == np.int32 and csr.segment(3).size == 0
        assert csr.contains(np.array([1, 2]), np.array([0, 0])).tolist() == [False, False]
        inside, positions = csr.locate(np.array([[1], [2]]), np.array([[0], [0]]))
        assert inside.shape == positions.shape == (2, 1) and not inside.any()


def assert_same_csr(got: KeyedCSR, want: KeyedCSR) -> None:
    for name in ("keys", "offsets", "values"):
        assert_same_array(getattr(got, name), getattr(want, name))


class TestPackedBuilder:
    """``build_keyed_csr`` (one packed sort) against the lexsort builder."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_duplicates_sparse_keys_and_negative_values(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-5, 40, size=300) * 11
        values = rng.integers(-3, 25, size=300)
        for dtype in (np.dtype(np.int32), np.dtype(np.int64)):
            assert_same_csr(
                build_keyed_csr(keys, values, dtype), reference_keyed_csr(keys, values, dtype)
            )

    def test_int32_memory_mapped_columns(self, tmp_path):
        triples = np.random.default_rng(0).integers(0, [40, 5, 40], size=(500, 3)).astype(np.int32)
        triples.tofile(tmp_path / "triples.bin")
        mapped = np.memmap(tmp_path / "triples.bin", dtype=np.int32, mode="r", shape=triples.shape)
        keys = mapped[:, 2].astype(np.int64) * 5 + mapped[:, 1]
        for key_column, values in ((keys, mapped[:, 0]), (mapped[:, 1], mapped[:, 2])):
            assert_same_csr(
                build_keyed_csr(key_column, values, np.dtype(np.int32)),
                reference_keyed_csr(key_column, values, np.dtype(np.int32)),
            )
        index = build_filter_csr(40, 5, [mapped])
        assert_same_csr(index.sides[HEAD], reference_keyed_csr(keys, mapped[:, 0], np.dtype(np.int32)))

    def test_one_key(self):
        values = np.array([5, 1, 5, 3, 1, 9])
        got = build_keyed_csr(np.full(values.size, 7), values, np.dtype(np.int32))
        assert_same_csr(got, reference_keyed_csr(np.full(values.size, 7), values, np.dtype(np.int32)))
        assert got.keys.tolist() == [7] and got.values.tolist() == [1, 3, 5, 9]

    def test_empty_input(self):
        empty = np.empty(0, dtype=np.int64)
        for dtype in (np.dtype(np.int32), np.dtype(np.int64)):
            assert_same_csr(build_keyed_csr(empty, empty, dtype), reference_keyed_csr(empty, empty, dtype))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_span_past_int64_packs_key_ordinals(self, seed):
        rng = np.random.default_rng(seed)
        keys = rng.choice([-(2**62), -7, 3, 2**40, 2**62], size=60)
        keys[:2] = [-(2**62), 2**62]
        values = rng.integers(0, 12, size=60)
        # Packing key - min key would need (2**63 + 1) * value span codes.
        assert (int(keys.max()) - int(keys.min()) + 1) * (int(values.max()) + 1) >= 2**63
        got = build_keyed_csr(keys, values, np.dtype(np.int32))
        assert_same_csr(got, reference_keyed_csr(keys, values, np.dtype(np.int32)))
        assert got.segment(2**62).tolist() == sorted(set(values[keys == 2**62].tolist()))


def sparse_fitted(num_entities: int, num_relations: int, seed: int) -> FittedRecommender:
    """A score matrix whose columns cycle through: nothing stored, only
    explicit zeros, and a random support mixing explicit zeros and tied
    positive scores (every column of a small graph has < 32 positives)."""
    rng = np.random.default_rng(seed)
    indices, data, indptr = [], [], [0]
    for col in range(2 * num_relations):
        kind = col % 3
        size = 0 if kind == 0 else int(rng.integers(1, num_entities + 1))
        support = np.sort(rng.choice(num_entities, size=size, replace=False))
        scores = rng.choice([0.0, 0.5, 1.0, 2.0], size=size) if kind == 2 else np.zeros(size)
        if kind == 2:
            scores = scores + rng.random(size) * (scores > 0) * (rng.random(size) > 0.5)
        indices.append(support)
        data.append(scores)
        indptr.append(indptr[-1] + size)
    csc = sp.csc_matrix(
        (np.concatenate(data), np.concatenate(indices), np.asarray(indptr)),
        shape=(num_entities, 2 * num_relations),
    )
    return FittedRecommender(matrix=csc.tocsr(), name="sparse", num_relations=num_relations)


def wide_graph(seed: int) -> KnowledgeGraph:
    """A 120-entity graph, so score columns can hold more than 32 positives."""
    rng = np.random.default_rng(seed)
    triples = rng.integers(0, [120, 3, 120], size=(400, 3))
    return KnowledgeGraph(
        entities=Vocabulary([f"e{i}" for i in range(120)]),
        relations=Vocabulary(["r0", "r1", "r2"]),
        train=TripleSet(triples[:300]),
        valid=TripleSet(triples[300:350]),
        test=TripleSet(triples[350:]),
        name=f"wide-{seed}",
    )


class TestSparseColumns:
    """The threshold search read off the column store's sparse slices."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("include_observed", [True, False])
    def test_stored_zeros_few_positives_and_zero_columns(self, seed, include_observed):
        for graph in (make_graph(seed), wide_graph(seed)):
            fitted = sparse_fitted(graph.num_entities, graph.num_relations, seed)
            assert (fitted.matrix.data == 0).any()
            got = build_static_candidates(fitted, graph, include_observed=include_observed)
            want_sets, want_thresholds = reference_static_candidates(fitted, graph, include_observed)
            for side in SIDES:
                assert [float(v).hex() for v in got.thresholds[side]] == [
                    float(want_thresholds[side][r]).hex() for r in range(graph.num_relations)
                ]
                for relation in range(graph.num_relations):
                    assert_same_column(
                        got.candidates(relation, side), want_sets[side][relation], graph.num_entities
                    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_column_matches_scipy_column_slice(self, seed):
        graph = make_graph(seed)
        fitted_models = [sparse_fitted(graph.num_entities, graph.num_relations, seed)]
        fitted_models += [build_recommender(name).fit(graph) for name in RECOMMENDERS]
        for fitted in fitted_models:
            for side in SIDES:
                for relation in range(graph.num_relations):
                    assert_same_array(
                        fitted.column(relation, side), reference_column(fitted, relation, side)
                    )


def assert_same_plan(plan, want: dict) -> None:
    for name, array in want.items():
        assert_same_array(getattr(plan, name), array)


class TestPlan:
    """The per-side plan build against the per-group reference."""

    @pytest.mark.parametrize("split", ["test", "valid", "train"])
    @pytest.mark.parametrize("sides", [SIDES, (TAIL,), (HEAD,)])
    def test_full_and_pooled_plans(self, graph, split, sides):
        fitted = build_recommender("l-wd").fit(graph)
        sets = build_static_candidates(fitted, graph)
        for strategy in (None, *STRATEGIES):
            pools = None
            if strategy is not None:
                pools = build_pools(
                    graph, strategy, np.random.default_rng(3), sample_fraction=0.5,
                    fitted=fitted, candidates=sets,
                )
            assert_same_plan(
                evaluation_plan(graph, split, sides, pools), reference_plan(graph, split, sides, pools)
            )

    def test_empty_pools(self, graph):
        empty = build_keyed_csr(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), id_dtype(graph.num_entities)
        )
        pools = NegativePools(
            strategy="random", pools={side: empty for side in SIDES},
            num_entities=graph.num_entities, sample_size=1,
        )
        plan = evaluation_plan(graph, "test", SIDES, pools)
        assert_same_plan(plan, reference_plan(graph, "test", SIDES, pools))
        assert plan.excluded_rows.size == 0

    def test_truth_missing_from_the_index(self, graph):
        """Over a filter index of train alone, a test truth the index never
        saw is still excluded from its own row (as a pool position when
        pooled)."""
        partial = graph.relabel("train-only-index")
        partial._filter_index = build_filter_csr(
            graph.num_entities, graph.num_relations, [graph.train.array]
        )
        test = graph.test.array
        assert not partial.filter_index.sides[TAIL].contains(
            test[:, 0] * graph.num_relations + test[:, 1], test[:, 2]
        ).all()
        pools = build_pools(partial, "random", np.random.default_rng(5), sample_fraction=0.5)
        for pooled in (None, pools):
            assert_same_plan(
                evaluation_plan(partial, "test", SIDES, pooled),
                reference_plan(partial, "test", SIDES, pooled),
            )
