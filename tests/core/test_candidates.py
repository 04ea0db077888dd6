"""Static candidate sets: threshold search, CR/RR evaluation, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_static_candidates, choose_threshold, evaluate_tradeoff
from repro.kg.graph import HEAD, TAIL
from repro.recommenders import build_recommender


class TestChooseThreshold:
    def test_zero_column_yields_empty_set(self):
        threshold, point = choose_threshold(np.zeros(10), np.empty(0, dtype=np.int64))
        assert threshold == np.inf
        assert point.reduction_rate == 1.0

    def test_clean_separation_picks_the_gap(self):
        """Truths at 1.0, junk at 0.01: the optimum keeps exactly the truths."""
        scores = np.full(100, 0.01)
        truths = np.arange(5)
        scores[truths] = 1.0
        threshold, point = choose_threshold(scores, truths)
        assert 0.01 < threshold <= 1.0
        assert point.candidate_recall == 1.0
        assert point.reduction_rate == pytest.approx(0.95)

    def test_trade_off_sacrifices_tail_of_truths(self):
        """A straggler truth tied with a big junk mass is worth dropping:
        keeping it would mean keeping 500 junk entities too."""
        scores = np.full(1000, 0.0)
        scores[:49] = 1.0  # 49 clean truths
        scores[400:900] = 0.001  # junk plateau
        straggler = 899  # one truth hiding inside the plateau
        truths = np.append(np.arange(49), straggler)
        threshold, point = choose_threshold(scores, truths)
        assert threshold > 0.001
        assert point.candidate_recall == pytest.approx(49 / 50)
        assert point.reduction_rate > 0.9

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_property_kept_set_shrinks_with_threshold(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(50) * (rng.random(50) > 0.3)
        thresholds = np.unique(scores[scores > 0])
        sizes = [(scores >= t).sum() for t in thresholds]
        assert sizes == sorted(sizes, reverse=True)


class TestBuildStaticCandidates:
    @pytest.fixture(scope="class")
    def sets(self, codex_s):
        fitted = build_recommender("l-wd").fit(codex_s.graph)
        return build_static_candidates(fitted, codex_s.graph)

    def test_every_column_present(self, sets, codex_s):
        graph = codex_s.graph
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                assert sets.candidates(relation, side) is not None

    def test_candidates_sorted_unique(self, sets, codex_s):
        for side in (HEAD, TAIL):
            for relation in range(codex_s.graph.num_relations):
                pool = sets.candidates(relation, side)
                assert np.all(np.diff(pool) > 0)

    def test_observed_entities_always_included(self, sets, codex_s):
        graph = codex_s.graph
        for side in (HEAD, TAIL):
            for relation in range(graph.num_relations):
                observed = set(graph.observed(relation, side).tolist())
                pool = set(sets.candidates(relation, side).tolist())
                assert observed <= pool

    def test_exclude_observed_option(self, codex_s):
        fitted = build_recommender("l-wd").fit(codex_s.graph)
        bare = build_static_candidates(fitted, codex_s.graph, include_observed=False)
        merged = build_static_candidates(fitted, codex_s.graph, include_observed=True)
        total_bare = sum(
            bare.set_size(r, s) for s in (HEAD, TAIL) for r in range(codex_s.graph.num_relations)
        )
        total_merged = sum(
            merged.set_size(r, s) for s in (HEAD, TAIL) for r in range(codex_s.graph.num_relations)
        )
        assert total_bare <= total_merged

    def test_contains(self, sets):
        pool = sets.candidates(0, TAIL)
        entities = np.arange(sets.num_entities)
        inside = sets.sets[TAIL].contains(np.zeros_like(entities), entities)
        assert np.flatnonzero(inside).tolist() == pool.tolist()

    def test_mean_reduction_rate_positive(self, sets):
        assert 0.0 < sets.mean_reduction_rate() < 1.0


class TestEvaluateTradeoff:
    def test_report_fields(self, codex_s):
        fitted = build_recommender("l-wd").fit(codex_s.graph)
        sets = build_static_candidates(fitted, codex_s.graph)
        report = evaluate_tradeoff(sets, codex_s.graph, fit_seconds=fitted.fit_seconds)
        assert 0.0 <= report.candidate_recall_test <= 1.0
        assert 0.0 <= report.candidate_recall_unseen <= 1.0
        assert 0.0 <= report.reduction_rate <= 1.0
        assert report.num_test_pairs > report.num_unseen_pairs >= 0

    def test_pt_has_zero_unseen_recall(self, codex_s):
        """The paper's structural result for PT (Table 5)."""
        fitted = build_recommender("pt").fit(codex_s.graph)
        sets = build_static_candidates(fitted, codex_s.graph)
        report = evaluate_tradeoff(sets, codex_s.graph)
        assert report.candidate_recall_unseen == 0.0

    def test_ontosim_recall_beats_pt(self, codex_s):
        pt_sets = build_static_candidates(
            build_recommender("pt").fit(codex_s.graph), codex_s.graph
        )
        onto_sets = build_static_candidates(
            build_recommender("ontosim").fit(codex_s.graph, codex_s.types), codex_s.graph
        )
        pt_report = evaluate_tradeoff(pt_sets, codex_s.graph)
        onto_report = evaluate_tradeoff(onto_sets, codex_s.graph)
        assert onto_report.candidate_recall_test >= pt_report.candidate_recall_test
        # ... at the price of a worse reduction rate.
        assert onto_report.reduction_rate <= pt_report.reduction_rate

    def test_full_entity_sets_give_perfect_recall(self, codex_s):
        """Degenerate candidate sets containing everything: CR = 1, RR = 0."""
        from repro.core.candidates import CandidateSets
        from repro.kg.graph import keyed_by_relation

        graph = codex_s.graph
        everything = np.arange(graph.num_entities)
        sets = CandidateSets(
            sets={
                side: keyed_by_relation(
                    {r: everything for r in range(graph.num_relations)}, graph.num_entities
                )
                for side in (HEAD, TAIL)
            },
            thresholds={side: np.zeros(graph.num_relations) for side in (HEAD, TAIL)},
            num_entities=graph.num_entities,
            recommender_name="all",
        )
        report = evaluate_tradeoff(sets, graph)
        assert report.candidate_recall_test == 1.0
        assert report.candidate_recall_unseen == 1.0
        assert report.reduction_rate == 0.0
