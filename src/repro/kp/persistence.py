"""H0 persistent homology of weighted graphs (the KP substrate).

Knowledge Persistence (Bastos et al., WWW 2023) summarises a KGC model's
score geometry by the 0-dimensional persistence diagrams of two weighted
graphs built from scored positive and negative triples.  This module
implements the underlying machinery from first principles:

* a sublevel filtration on edge weights — vertices are born when their
  first incident edge appears, components merge as heavier edges arrive;
* union-find with the *elder rule*: when two components merge, the one
  with the younger (larger) birth dies, producing a ``(birth, death)``
  point; the globally oldest component never dies and is recorded with
  ``death = max weight`` (the standard finite truncation for graphs).

The result is an exact H0 persistence diagram in ``O(m log m)`` for ``m``
edges — no external TDA dependency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PersistenceDiagram:
    """A multiset of (birth, death) points with ``death >= birth``.

    Examples
    --------
    >>> import numpy as np
    >>> diagram = PersistenceDiagram(np.asarray([[0.0, 1.0], [0.5, 0.5]]))
    >>> diagram.num_points
    2
    >>> diagram.persistences().tolist()
    [1.0, 0.0]
    >>> diagram.total_persistence()
    1.0
    """

    points: np.ndarray  # (n, 2) float64

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=np.float64)
        if points.size == 0:
            points = points.reshape(0, 2)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(f"diagram points must be (n, 2), got {points.shape}")
        if points.size and (points[:, 1] < points[:, 0] - 1e-12).any():
            raise ValueError("every diagram point needs death >= birth")
        object.__setattr__(self, "points", points)

    @property
    def num_points(self) -> int:
        return int(self.points.shape[0])

    def persistences(self) -> np.ndarray:
        """Lifetimes ``death - birth`` of all points."""
        if self.num_points == 0:
            return np.empty(0)
        return self.points[:, 1] - self.points[:, 0]

    def total_persistence(self) -> float:
        return float(self.persistences().sum())

    def __repr__(self) -> str:
        return f"PersistenceDiagram({self.num_points} points)"


class UnionFind:
    """Union-find with birth tracking for the elder rule.

    Examples
    --------
    >>> import numpy as np
    >>> uf = UnionFind(3, births=np.asarray([0.1, 0.2, 0.3]))
    >>> uf.union(0, 1, weight=0.5)  # the younger component (born 0.2) dies
    (0.2, 0.5)
    >>> uf.union(0, 1, weight=0.9) is None  # already connected: a cycle
    True
    """

    def __init__(self, size: int, births: np.ndarray):
        # Python lists: the merge loop reads and writes one element at a
        # time, which lists do several times faster than numpy arrays.
        self.parent = list(range(size))
        self.birth = np.asarray(births, dtype=np.float64).tolist()

    def find(self, node: int) -> int:
        parent = self.parent
        root = node
        while parent[root] != root:
            root = parent[root]
        # Path compression.
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(self, a: int, b: int, weight: float) -> tuple[float, float] | None:
        """Merge the components of ``a`` and ``b`` at filtration ``weight``.

        Returns the dying ``(birth, death)`` pair, or None if ``a`` and
        ``b`` were already connected (the edge creates a cycle — an H1
        event H0 ignores).
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return None
        # Elder rule: the younger (later-born) component dies.
        if self.birth[root_a] > self.birth[root_b]:
            root_a, root_b = root_b, root_a
        self.parent[root_b] = root_a
        return self.birth[root_b], float(weight)


def h0_diagram(
    edges: np.ndarray,
    weights: np.ndarray,
    num_vertices: int | None = None,
) -> PersistenceDiagram:
    """H0 persistence diagram of a weighted (multi)graph.

    Parameters
    ----------
    edges:
        ``(m, 2)`` integer endpoints; directions are ignored (H0 of the
        underlying undirected graph).
    weights:
        ``(m,)`` filtration values — a vertex is born at its lightest
        incident edge, and components merge in weight order.
    num_vertices:
        Total vertex count (isolated vertices produce no points); inferred
        from the edges when omitted.

    The essential class of every connected component is closed at the
    maximum edge weight, so diagrams of finite graphs are finite and
    Wasserstein distances stay well-defined.

    Examples
    --------
    A path ``0 -- 1 -- 2`` whose second edge arrives later: the merge at
    0.3 kills one just-born component, the merge at 0.7 kills the
    late-born vertex 2, and the surviving component closes at the
    maximum weight.

    >>> import numpy as np
    >>> edges = np.asarray([[0, 1], [1, 2]])
    >>> h0_diagram(edges, np.asarray([0.3, 0.7])).points.tolist()
    [[0.3, 0.3], [0.7, 0.7], [0.3, 0.7]]
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if edges.size == 0:
        return PersistenceDiagram(np.empty((0, 2)))
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (m, 2), got {edges.shape}")
    if weights.shape != (edges.shape[0],):
        raise ValueError(
            f"weights must be ({edges.shape[0]},), got {weights.shape}"
        )
    if num_vertices is None:
        num_vertices = int(edges.max()) + 1

    order = np.argsort(weights, kind="stable")
    edges = edges[order]
    weights = weights[order]

    # Vertex births: the weight of the first (lightest) incident edge,
    # which in weight order is the vertex's first appearance; a NaN
    # weight (sorted last) gives no birth.
    births = np.full(num_vertices, np.inf)
    vertices, first = np.unique(edges.ravel(), return_index=True)
    first_weights = weights[first // 2]
    births[vertices] = np.where(np.isnan(first_weights), np.inf, first_weights)

    uf = UnionFind(num_vertices, births)
    max_weight = float(weights[-1])
    points: list[tuple[float, float]] = []
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        if u == v:
            continue
        merged = uf.union(u, v, w)
        if merged is not None:
            points.append(merged)

    # Essential classes: surviving component roots die at the max weight.
    touched = np.flatnonzero(np.isfinite(births))
    roots = {uf.find(vertex) for vertex in touched.tolist()}
    for root in sorted(roots):
        points.append((float(births[root]), max_weight))
    return PersistenceDiagram(np.asarray(points, dtype=np.float64))


def score_graph_diagram(
    triples: np.ndarray,
    scores: np.ndarray,
    num_entities: int,
) -> PersistenceDiagram:
    """Diagram of a KP score graph: entities as vertices, scored triples as edges.

    This is the construction of Bastos et al.: each triple ``(h, r, t)``
    contributes the edge ``h -- t`` weighted by the model's score of the
    triple, and the geometry of the resulting component structure tracks
    how the model separates its score mass.

    Examples
    --------
    >>> import numpy as np
    >>> triples = np.asarray([[0, 0, 1], [1, 0, 2]])
    >>> scores = np.asarray([0.2, 0.9])
    >>> score_graph_diagram(triples, scores, num_entities=3).num_points
    3
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError(f"triples must be (n, 3), got {triples.shape}")
    return h0_diagram(triples[:, [0, 2]], scores, num_vertices=num_entities)
