"""LinkPredictionService: top-k semantics, offline-exact ranks, caching."""

import numpy as np
import pytest

from repro.core.candidates import CandidateSets
from repro.core.estimators import sampled_rank
from repro.core.ranking import evaluate_full
from repro.datasets import load
from repro.kg.graph import SIDES, keyed_by_relation
from repro.models import build_model
from repro.serve import LinkPredictionService, ModelRegistry
from repro.serve.scheduler import RankQuery
from repro.serve.service import _best_k
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def dataset():
    return load("codex-s-lite")


@pytest.fixture(scope="module")
def model(dataset):
    graph = dataset.graph
    return build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=0)


@pytest.fixture
def service(tmp_path, dataset, model):
    registry = ModelRegistry(
        ExperimentStore(tmp_path / "store"), dataset.graph, types=dataset.types
    )
    registry.register("dm", model)
    with LinkPredictionService(registry) as svc:
        yield svc


class TestRank:
    def test_topk_matches_manual_ranking(self, service, dataset, model):
        graph = dataset.graph
        response = service.rank("dm", 3, 0, side="tail", k=5, candidates="all")
        scores = model.score_all(3, 0, "tail").astype(np.float64).copy()
        scores[graph.true_answers(3, 0, "tail")] = -np.inf
        scores[3] = -np.inf  # the anchor itself is never a *new* link
        order = np.lexsort((np.arange(scores.size), -scores))
        expected = [int(e) for e in order[:5] if np.isfinite(scores[e])]
        assert [row["entity_id"] for row in response["results"]] == expected
        assert [row["rank"] for row in response["results"]] == list(
            range(1, len(expected) + 1)
        )
        assert response["num_candidates"] == graph.num_entities
        assert response["cached"] is False

    def test_filter_known_drops_observed_links(self, service, dataset):
        graph = dataset.graph
        h, r, t = next(iter(graph.train))
        known = set(graph.true_answers(h, r, "tail").tolist())
        filtered = service.rank("dm", h, r, k=graph.num_entities, candidates="all")
        assert known.isdisjoint(row["entity_id"] for row in filtered["results"])
        unfiltered = service.rank(
            "dm", h, r, k=graph.num_entities, filter_known=False, candidates="all"
        )
        assert known.issubset(row["entity_id"] for row in unfiltered["results"])

    def test_candidate_filtering_restricts_the_pool(self, service, dataset):
        graph = dataset.graph
        # Find a column whose candidate set is a strict subset.
        sets = service.registry.candidates("dm")
        relation = next(
            r
            for r in range(graph.num_relations)
            if 0 < sets.set_size(r, "tail") < graph.num_entities
        )
        pool = set(sets.candidates(relation, "tail").tolist())
        response = service.rank("dm", 0, relation, k=20, filter_known=False)
        assert response["num_candidates"] == len(pool)
        assert all(row["entity_id"] in pool for row in response["results"])

    def test_filter_known_excludes_the_anchor_itself(self, service, dataset):
        graph = dataset.graph
        for anchor in range(5):
            response = service.rank(
                "dm", anchor, 0, k=graph.num_entities, candidates="all"
            )
            assert anchor not in {row["entity_id"] for row in response["results"]}

    def test_cached_response_survives_caller_mutation(self, service):
        first = service.rank("dm", 2, 2, k=4)
        first["results"].clear()  # an in-process caller mangles its copy
        second = service.rank("dm", 2, 2, k=4)
        assert second["cached"] is True
        assert len(second["results"]) > 0

    def test_labels_accepted_and_returned(self, service, dataset):
        graph = dataset.graph
        by_label = service.rank(
            "dm", graph.entities.label_of(5), graph.relations.label_of(1), k=3
        )
        by_id = service.rank("dm", 5, 1, k=3)
        assert by_label["results"] == by_id["results"]
        assert by_label["anchor_id"] == 5 and by_label["relation_id"] == 1
        assert by_label["anchor"] == graph.entities.label_of(5)

    def test_head_side_ranks_heads(self, service, dataset, model):
        response = service.rank("dm", 2, 0, side="head", k=3, candidates="all")
        scores = model.score_all(2, 0, "head")
        top = response["results"][0]
        assert scores[top["entity_id"]] == pytest.approx(top["score"])

    def test_unknown_names_raise_key_errors(self, service):
        with pytest.raises(KeyError, match="unknown model"):
            service.rank("nope", 0, 0)
        with pytest.raises(KeyError, match="unknown entity"):
            service.rank("dm", "martian", 0)
        with pytest.raises(KeyError, match="outside"):
            service.rank("dm", 10**9, 0)
        with pytest.raises(ValueError, match="side"):
            service.rank("dm", 0, 0, side="middle")


class TestScoreExactness:
    def test_served_ranks_equal_evaluate_full(self, service, dataset, model):
        """The tentpole guarantee: serving is the offline engine online."""
        graph = dataset.graph
        truth = evaluate_full(model, graph)
        rows = service.score("dm", graph.test.as_tuples())
        assert len(rows) == 2 * len(graph.test)
        for row in rows:
            query = (row["head_id"], row["relation_id"], row["tail_id"], row["side"])
            assert truth.ranks[query] == row["rank"]

    def test_filtered_ranks_equal_sampled_rank(self, tmp_path, dataset):
        """``candidates="filtered"`` ranks each query within its candidate
        set as the sampled protocol's scalar rank does.  At dim 1 a
        batched and a scalar product round alike, so the ranks compare
        exactly."""
        graph = dataset.graph
        model = build_model("distmult", graph.num_entities, graph.num_relations, dim=1, seed=0)
        registry = ModelRegistry(
            ExperimentStore(tmp_path / "store"), graph, types=dataset.types
        )
        registry.register("dm1", model)
        with LinkPredictionService(registry) as service:
            rows = service.score("dm1", graph.test.as_tuples(), candidates="filtered")
            sets = registry.candidates("dm1")
        assert len(rows) == 2 * len(graph.test)
        for row in rows:
            h, r, t, side = row["head_id"], row["relation_id"], row["tail_id"], row["side"]
            anchor, truth = (t, h) if side == "head" else (h, t)
            rank, _ = sampled_rank(model, graph, anchor, r, side, truth, sets.candidates(r, side))
            assert row["rank"] == rank

    def test_empty_candidate_set_ranks_first(self, tmp_path, dataset, model):
        """A filtered rank row whose candidate set is empty ranks first
        over 0 candidates, as the engine ranks an empty pool; top-k over
        the same empty set falls back to every entity."""
        graph = dataset.graph
        registry = ModelRegistry(ExperimentStore(tmp_path / "store"), graph, types=dataset.types)
        registry.register("dm", model, persist=False)
        empty = CandidateSets(
            sets={side: keyed_by_relation({}, graph.num_entities) for side in SIDES},
            thresholds={side: np.full(graph.num_relations, np.inf) for side in SIDES},
            num_entities=graph.num_entities,
        )
        registry.candidates = lambda name: empty
        triples = graph.test.as_tuples()
        h, r, t = triples[0]
        with LinkPredictionService(registry) as service:
            rows = service.score("dm", triples, candidates="filtered")
            (result,) = service._score_batch(
                ("dm", r, "tail", "filtered"), [RankQuery("dm", r, "tail", h, kind="rank", truth=t)]
            )
            response = service.rank("dm", h, r, k=5)
        assert [row["rank"] for row in rows] == [1.0] * len(rows)
        assert result["rank"] == 1.0 and result["num_candidates"] == 0
        assert response["num_candidates"] == graph.num_entities
        assert len(response["results"]) == 5

    @pytest.mark.parametrize("candidates", ["filtered", "all"])
    def test_rank_rows_never_mask_topk_rows(self, service, dataset, candidates):
        """A batch's rank rows and top-k rows are scored in separate calls
        and the rank pass masks only the rank rows' slab, so each top-k
        list of a mixed batch is the one served without a rank row.  The
        reference batches have the heights of the mixed batch's two calls
        (two top-k rows, one rank row, all of one anchor), since a
        product's rounding may depend on its height."""
        graph = dataset.graph
        h, r, t = max(
            graph.train.as_tuples(), key=lambda x: graph.true_answers(x[0], x[1], "tail").size
        )
        key = ("dm", r, "tail", candidates)
        topk = RankQuery(
            "dm", r, "tail", h, k=graph.num_entities, filter_known=False, candidates=candidates
        )
        rank = RankQuery("dm", r, "tail", h, kind="rank", truth=t, candidates=candidates)
        alone = service._score_batch(key, [topk] * 2)[0]
        (rank_alone,) = service._score_batch(key, [rank])
        # The unfiltered list holds every known answer on the candidate
        # axis: the very cells the rank row masks.
        axis = np.arange(graph.num_entities)
        if candidates == "filtered":
            selected = service.registry.candidates("dm").candidates(r, "tail")
            axis = selected if selected.size else axis
        known = set(graph.true_answers(h, r, "tail").tolist()) & set(axis.tolist())
        assert known and known <= {entity for entity, _ in alone.results}
        together = service._score_batch(key, [topk, rank, topk])
        assert together[0] == alone and together[2] == alone
        assert together[1] == rank_alone

    def test_scores_are_the_models(self, service, dataset, model):
        h, r, t = next(iter(dataset.graph.test))
        (row,) = service.score("dm", [(h, r, t)], sides=("tail",))
        assert row["score"] == pytest.approx(float(model.score_all(h, r, "tail")[t]))


class TestCache:
    def test_repeat_rank_hits_the_cache(self, service):
        first = service.rank("dm", 1, 1, k=4)
        second = service.rank("dm", 1, 1, k=4)
        assert second["cached"] is True
        assert second["results"] == first["results"]
        assert service.health()["cache"]["hits"] == 1

    def test_distinct_queries_miss(self, service):
        service.rank("dm", 1, 1, k=4)
        different_k = service.rank("dm", 1, 1, k=5)
        assert different_k["cached"] is False

    def test_cache_disabled_by_capacity_zero(self, tmp_path, dataset, model):
        registry = ModelRegistry(
            ExperimentStore(tmp_path / "s2"), dataset.graph, types=dataset.types
        )
        registry.register("dm", model, persist=False)
        with LinkPredictionService(registry, cache_size=0) as svc:
            svc.rank("dm", 1, 1)
            assert svc.rank("dm", 1, 1)["cached"] is False

    def test_reregistering_a_name_drops_its_cached_answers(self, tmp_path, dataset, model):
        graph = dataset.graph
        other = build_model("distmult", graph.num_entities, graph.num_relations, dim=8, seed=1)
        registry = ModelRegistry(ExperimentStore(tmp_path / "s3"), graph, types=dataset.types)
        registry.register("m", model, persist=False)
        with LinkPredictionService(registry) as svc:
            first = svc.rank("m", 1, 1, k=5, candidates="all")
            assert svc.rank("m", 1, 1, k=5, candidates="all")["cached"] is True
            registry.register("m", other, persist=False)
            after = svc.rank("m", 1, 1, k=5, candidates="all")
        fresh_registry = ModelRegistry(
            ExperimentStore(tmp_path / "s4"), graph, types=dataset.types
        )
        fresh_registry.register("m", other, persist=False)
        with LinkPredictionService(fresh_registry) as fresh:
            expected = fresh.rank("m", 1, 1, k=5, candidates="all")
        assert after["results"] != first["results"]  # the models really differ
        assert after["cached"] is False
        assert after == expected


class TestHealth:
    def test_health_counters(self, service, dataset):
        service.rank("dm", 0, 0, k=2)
        service.score("dm", [next(iter(dataset.graph.test))], sides=("tail",))
        health = service.health()
        assert health["status"] == "ok"
        assert health["models"] == ["dm"]
        assert health["graph"] == dataset.graph.name
        assert health["scheduler"]["requests"] >= 2
        assert health["scheduler"]["batches"] >= 1


def _reference_topk(row, entity_ids, k):
    """The selection before partitioning: a full lexsort by (-score, id)."""
    order = np.lexsort((entity_ids, -row))
    top = []
    for position in order[:k]:
        if not np.isfinite(row[position]):
            break  # only excluded entities remain
        top.append((int(entity_ids[position]), float(row[position])))
    return top


class _Tied:
    """``inner``'s scores rounded to 3 decimals: ~20 values over 400
    entities, so ties straddle every top-k boundary."""

    def __init__(self, inner):
        self.inner = inner
        self.num_entities = inner.num_entities
        self.num_relations = inner.num_relations

    def score_candidates_batch(self, anchors, relation, side, candidates=None, truths=None):
        scores = self.inner.score_candidates_batch(anchors, relation, side, candidates, truths)
        if truths is None:
            return np.round(scores, 3)
        return tuple(np.round(part, 3) for part in scores)


class TestTopKOracle:
    """Partitioned top-k equals the full-sort reference, bit for bit."""

    @pytest.mark.parametrize("k", [1, 3, 24, 25, 26, 50, 1000])
    @pytest.mark.parametrize("excluded_fraction", [0.0, 0.3, 0.9, 1.0])
    def test_best_k_matches_full_sort(self, k, excluded_fraction):
        rng = np.random.default_rng(k)
        for _ in range(25):
            size = 50
            row = rng.integers(-3, 4, size=size).astype(np.float64)  # ties everywhere
            # 1.0 excludes every candidate: rng.random() is always < 1.
            row[rng.random(size) < excluded_fraction] = -np.inf
            entity_ids = np.sort(rng.choice(1000, size=size, replace=False))
            got = _best_k(np.negative(row), entity_ids, k)
            assert list(got.results) == _reference_topk(row, entity_ids, k)
            assert got.num_candidates == size

    def test_nan_and_positive_infinity_follow_the_full_sort(self):
        entity_ids = np.arange(6)
        for row in (
            np.array([1.0, np.nan, 2.0, np.nan, 0.5, -np.inf]),
            np.array([1.0, np.inf, 2.0, 0.0, 0.5, 3.0]),
        ):
            for k in range(1, 8):
                got = _best_k(np.negative(row), entity_ids, k)
                assert list(got.results) == _reference_topk(row, entity_ids, k)

    @pytest.fixture(scope="class")
    def tied(self, tmp_path_factory, dataset, model):
        registry = ModelRegistry(
            ExperimentStore(tmp_path_factory.mktemp("tied")),
            dataset.graph,
            types=dataset.types,
        )
        scorer = _Tied(model)
        registry.register("tied", scorer, persist=False)
        with LinkPredictionService(registry, cache_size=0) as svc:
            yield svc, scorer

    @pytest.mark.parametrize("candidates", ["filtered", "all"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("k", [1, 10, 10_000])  # 10_000 exceeds every pool
    @pytest.mark.parametrize("filter_known", [True, False])
    def test_served_topk_matches_full_sort(self, tied, dataset, candidates, side, k, filter_known):
        service, scorer = tied
        graph = dataset.graph
        rng = np.random.default_rng(0)
        triples = graph.train.as_tuples()
        for index in rng.choice(len(triples), size=8, replace=False):
            h, r, t = (int(v) for v in triples[index])
            anchor = t if side == "head" else h
            pool = None
            if candidates == "filtered":
                selected = service.registry.candidates("tied").candidates(r, side)
                pool = selected if selected.size else None
            entity_ids = pool if pool is not None else np.arange(graph.num_entities)
            row = scorer.score_candidates_batch(np.array([anchor]), r, side, pool)[0]
            row = row.astype(np.float64)
            if filter_known:
                # Known answers (-inf) and the anchor itself are excluded.
                excluded = np.append(graph.true_answers(anchor, r, side), anchor)
                row[np.isin(entity_ids, excluded)] = -np.inf
            response = service.rank(
                "tied",
                anchor,
                r,
                side=side,
                k=k,
                filter_known=filter_known,
                candidates=candidates,
            )
            got = [(item["entity_id"], item["score"]) for item in response["results"]]
            assert got == _reference_topk(row, entity_ids, k)
            assert response["num_candidates"] == entity_ids.size


class TestEvaluateParity:
    """``/v1/evaluate`` is the offline full evaluation, to the last bit.

    codex-m-lite is a graph whose metrics a differently summed mean
    would round differently in the last ulp.
    """

    @pytest.fixture(scope="class")
    def medium(self):
        dataset = load("codex-m-lite")
        graph = dataset.graph
        model = build_model(
            "distmult", graph.num_entities, graph.num_relations, dim=16, seed=0
        )
        return dataset, model, evaluate_full(model, graph)

    @pytest.mark.parametrize("engine_workers", [1, 2])
    def test_served_metrics_equal_evaluate_full(
        self, tmp_path, medium, engine_workers
    ):
        dataset, model, offline = medium
        registry = ModelRegistry(
            ExperimentStore(tmp_path / "store"), dataset.graph, types=dataset.types
        )
        registry.register("dm", model)
        with LinkPredictionService(registry, engine_workers=engine_workers) as svc:
            served = svc.evaluate_model("dm")
        assert served["metrics"] == offline.metrics.as_dict()
        assert served["num_queries"] == offline.num_queries
        assert served["num_scored"] == offline.num_scored
        assert served["workers"] == engine_workers
