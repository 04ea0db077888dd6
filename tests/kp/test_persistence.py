"""H0 persistence: hand-checkable diagrams and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kp import PersistenceDiagram, UnionFind, h0_diagram, score_graph_diagram


class TestPersistenceDiagram:
    def test_empty(self):
        diagram = PersistenceDiagram(np.empty((0, 2)))
        assert diagram.num_points == 0
        assert diagram.total_persistence() == 0.0

    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            PersistenceDiagram(np.array([[2.0, 1.0]]))

    def test_persistences(self):
        diagram = PersistenceDiagram(np.array([[0.0, 2.0], [1.0, 1.5]]))
        np.testing.assert_allclose(diagram.persistences(), [2.0, 0.5])


class TestUnionFind:
    def test_merge_reports_younger_death(self):
        uf = UnionFind(2, births=np.array([0.0, 1.0]))
        dying = uf.union(0, 1, weight=3.0)
        assert dying == (1.0, 3.0)

    def test_second_union_is_cycle(self):
        uf = UnionFind(2, births=np.zeros(2))
        assert uf.union(0, 1, 1.0) is not None
        assert uf.union(1, 0, 2.0) is None

    def test_path_compression_find(self):
        uf = UnionFind(4, births=np.zeros(4))
        uf.union(0, 1, 1.0)
        uf.union(1, 2, 1.0)
        uf.union(2, 3, 1.0)
        root = uf.find(3)
        assert uf.find(0) == root


class TestH0Diagram:
    def test_empty_graph(self):
        diagram = h0_diagram(np.empty((0, 2)), np.empty(0))
        assert diagram.num_points == 0

    def test_single_edge(self):
        """One edge: both vertices born at w, component essential at w."""
        diagram = h0_diagram(np.array([[0, 1]]), np.array([2.0]))
        assert diagram.num_points == 2  # one merge death + one essential
        births = sorted(diagram.points[:, 0].tolist())
        assert births == [2.0, 2.0]

    def test_path_graph_hand_computed(self):
        """Path 0-1-2 with weights 1 then 2.

        At w=1 vertices 0,1 are born and merge immediately (death 1); at
        w=2 vertex 2 is born (birth 2) and merges into the older
        component (death 2).  The essential class is (1, 2).
        """
        diagram = h0_diagram(np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0]))
        points = sorted(map(tuple, diagram.points.tolist()))
        assert points == [(1.0, 1.0), (1.0, 2.0), (2.0, 2.0)]

    def test_two_components_two_essentials(self):
        edges = np.array([[0, 1], [2, 3]])
        diagram = h0_diagram(edges, np.array([1.0, 5.0]))
        # Four touched vertices -> four points: two merge deaths (1,1) and
        # (5,5) plus two essential classes (1,5) and (5,5).
        assert diagram.num_points == 4
        points = sorted(map(tuple, diagram.points.tolist()))
        assert points == [(1.0, 1.0), (1.0, 5.0), (5.0, 5.0), (5.0, 5.0)]

    def test_cycle_edges_ignored(self):
        """A triangle has the same H0 as its spanning tree."""
        tree = h0_diagram(np.array([[0, 1], [1, 2]]), np.array([1.0, 2.0]))
        triangle = h0_diagram(
            np.array([[0, 1], [1, 2], [0, 2]]), np.array([1.0, 2.0, 3.0])
        )
        # The extra cycle edge only raises the essential death to 3.
        assert triangle.num_points == tree.num_points
        assert triangle.points[:, 1].max() == 3.0

    def test_isolated_vertices_produce_no_points(self):
        diagram = h0_diagram(np.array([[0, 1]]), np.array([1.0]), num_vertices=10)
        assert diagram.num_points == 2

    def test_self_loops_skipped(self):
        diagram = h0_diagram(np.array([[0, 0], [0, 1]]), np.array([0.5, 1.0]))
        assert np.isfinite(diagram.points).all()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            h0_diagram(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            h0_diagram(np.zeros((2, 2), dtype=int), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 60))
    def test_property_point_count_is_vertices_touched(self, seed, m):
        """Every touched vertex is born once and dies exactly once (merge
        or essential), so #points == #touched vertices."""
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 20, size=(m, 2))
        weights = rng.random(m)
        diagram = h0_diagram(edges, weights, num_vertices=20)
        touched = np.unique(edges[edges[:, 0] != edges[:, 1]])
        loops_only = np.setdiff1d(np.unique(edges), touched)
        # Vertices appearing only in self-loops are born but never merge;
        # they die essentially as singleton components.
        assert diagram.num_points == touched.size + loops_only.size

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_births_never_after_deaths(self, seed):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 15, size=(30, 2))
        weights = rng.random(30)
        diagram = h0_diagram(edges, weights, num_vertices=15)
        assert (diagram.points[:, 1] >= diagram.points[:, 0] - 1e-12).all()


def _reference_h0(edges, weights, num_vertices):
    """The per-edge loops: births by scanning every edge in weight order,
    then union-find merges and the essential classes."""
    order = np.argsort(weights, kind="stable")
    edges, weights = edges[order], weights[order]
    births = np.full(num_vertices, np.inf)
    for (u, v), w in zip(edges, weights):
        if w < births[u]:
            births[u] = w
        if w < births[v]:
            births[v] = w
    uf = UnionFind(num_vertices, births)
    points = [
        merged
        for (u, v), w in zip(edges, weights)
        if u != v and (merged := uf.union(int(u), int(v), float(w))) is not None
    ]
    roots = {uf.find(int(vertex)) for vertex in np.flatnonzero(np.isfinite(births))}
    points += [(float(births[root]), float(weights[-1])) for root in sorted(roots)]
    return np.asarray(points, dtype=np.float64).reshape(-1, 2)


class TestH0Reference:
    def test_matches_the_per_edge_loops_bitwise(self):
        """Ties, signed zeros, infinities and NaN weights included."""
        rng = np.random.default_rng(0)
        for trial in range(400):
            n, m = int(rng.integers(1, 30)), int(rng.integers(1, 60))
            edges = rng.integers(0, n, size=(m, 2))
            weights = [
                rng.standard_normal(m),
                rng.integers(0, 4, m).astype(float),
                np.where(rng.random(m) < 0.2, np.nan, rng.standard_normal(m)),
                rng.choice([0.0, -0.0, 1.0, np.inf, -np.inf], m),
            ][trial % 4]
            expected = _reference_h0(edges, weights, n + 2)
            points = h0_diagram(edges, weights, num_vertices=n + 2).points
            assert points.tobytes() == expected.tobytes(), trial


class TestScoreGraphDiagram:
    def test_builds_from_triples(self):
        triples = np.array([[0, 0, 1], [1, 1, 2]])
        diagram = score_graph_diagram(triples, np.array([0.3, 0.7]), num_entities=5)
        assert diagram.num_points == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            score_graph_diagram(np.zeros((2, 2), dtype=int), np.zeros(2), 5)
