"""The KGE model interface every component of the framework scores through.

A :class:`KGEModel` owns embedding parameters (as autodiff
:class:`~repro.autodiff.engine.Tensor` leaves) and exposes two scoring
surfaces:

* an *autodiff* surface — :meth:`score_triples` returns a differentiable
  Tensor of scores for a batch of ``(h, r, t)`` triples.  It is the
  training path of models without hand-written gradients and the
  gradient oracle for those with them;
* an *inference* surface — :meth:`score_candidates_batch` returns plain
  numpy ``(b, k)`` scores computed outside the autodiff graph, because
  evaluation scores millions of candidates and must not build graphs.
  Its ``relation`` and ``side`` are one value for the whole batch or one
  per row (``(b,)`` arrays, sides as codes into ``SIDES``), so the full
  ranking scores a chunk that spans several ``(relation, side)`` groups
  with one product.  Given each query's truth it also returns the
  ``(b,)`` truth scores, each truth scored against its own query row
  only, from the same query rows.  :meth:`score_all` and
  :meth:`score_candidates` are its one-query views.

A model implements inference once, as two pieces:

* :meth:`query_vectors` — one ``(q,)`` row per query anchor, folding the
  anchor and relation into whatever the candidates are compared against;
* :meth:`score_rows` — the product of those rows with the candidates'
  entity rows.  It defaults to ``queries @ rows.T``; override it only for
  a score that is not an inner product (a distance, an added bias).

Every inference call goes through one validated entry point, so engine,
serve and the scalar reference all rank from the same kernel.  Per-row
sides cost one :meth:`query_vectors` call per side present, its rows
stacked in batch order before the one :meth:`score_rows`.  An embedding
model's chunk truth scores are the paired rows
``score_rows(queries, truths[:, None])`` of its query rows, never the
diagonal of an anchor x truth matrix.  Scorers without embedding tables
(the hash scorers) derive from :class:`HashScorer` and override
:meth:`KGEModel._score_batch`, which always sees one relation and one
side: a per-row batch is one call per distinct ``(relation, side)``,
rows stacked.  They still score a ``b x b`` truth block and keep its
diagonal (see :class:`HashScorer`).
Both surfaces must agree: ``score_all(anchor, r, side)[e]`` equals
``score_triples`` of the corresponding triple.  The evaluation
framework is agnostic to everything else about the model, which is the
property the paper's "model-agnostic" claim rests on.

The same two pieces are also the fused *training* forward
(:mod:`repro.models.fused`): a batch's corruptions of one side share a
query row, so :meth:`query_vectors` takes an ``(b,)`` relation array and
:meth:`score_rows` a ``(b, k)`` candidate array (one candidate set per
row).  A model trains on it when it supplies the backward of each piece
next to its forward: :meth:`score_rows_vjp` once per score family (the
inner product lives here) and :meth:`query_vectors_vjp` per model.
"""

from __future__ import annotations

import abc
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.autodiff.engine import Tensor, parameter
from repro.kg.graph import SIDES, Side

Array = np.ndarray

#: One gradient contribution of a VJP: (parameter name, row ids, row
#: grads).  Row ids may repeat; accumulation is the optimizer's job
#: (:func:`repro.models.optim.coalesce_rows`).
RowGrad = tuple[str, Array, Array]

#: Parameter dtypes a model may be built with.  float64 is the substrate
#: default (and the precision the gradient-equivalence tests run at);
#: float32 halves memory traffic for fused training.
DTYPES: dict[str, np.dtype] = {
    "float32": np.dtype(np.float32),
    "float64": np.dtype(np.float64),
}

#: Triples per kernel call in :meth:`KGEModel.score_triples_numpy`.
TRIPLE_CHUNK = 64

#: The candidate array of a truth-only kernel call.
_NO_CANDIDATES = np.empty(0, dtype=np.int64)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> Array:
    """Xavier/Glorot uniform initialisation used by all embedding tables."""
    fan_in = shape[0] if len(shape) == 1 else shape[-2]
    fan_out = shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class KGEModel(abc.ABC):
    """Base class for knowledge-graph embedding models.

    Parameters
    ----------
    num_entities, num_relations:
        Vocabulary sizes of the graph the model embeds.
    dim:
        Embedding dimensionality (interpretation is model-specific; complex
        models use ``dim`` complex numbers stored as ``2 * dim`` reals).
    seed:
        Initialisation seed; two models built with the same arguments are
        bit-identical.
    dtype:
        ``"float64"`` (default) or ``"float32"``.  Initial values are
        always drawn in float64 and then cast, so a float32 model starts
        at the float32 rounding of its float64 twin.
    """

    name: str = "kge"

    #: Constructor kwargs beyond the common four (``num_entities``,
    #: ``num_relations``, ``dim``, ``seed``) that checkpoints must carry.
    #: Subclasses adding constructor parameters MUST list them here (each
    #: must also be an attribute of the built model) or ``save_model``
    #: would silently drop them; ``tests/models/test_model_io.py``
    #: enforces the invariant against every registered constructor.
    extra_init_fields: tuple[str, ...] = ()

    def __init__(
        self,
        num_entities: int,
        num_relations: int,
        dim: int = 32,
        seed: int = 0,
        dtype: str = "float64",
    ):
        if num_entities <= 0 or num_relations <= 0:
            raise ValueError("model needs at least one entity and one relation")
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        if dtype not in DTYPES:
            raise ValueError(
                f"dtype must be one of {sorted(DTYPES)}, got {dtype!r}"
            )
        self.num_entities = num_entities
        self.num_relations = num_relations
        self.dim = dim
        self.seed = seed
        self.dtype = dtype
        self._rng = np.random.default_rng(seed)
        self._params: dict[str, Tensor] = {}
        self.training = False
        self._build_parameters(self._rng)

    # ------------------------------------------------------------------
    # Parameter management
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_parameters(self, rng: np.random.Generator) -> None:
        """Create all parameter tensors via :meth:`_add_parameter`."""

    def _add_parameter(self, name: str, data: Array) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter {name!r}")
        tensor = parameter(np.asarray(data, dtype=self.np_dtype))
        self._params[name] = tensor
        return tensor

    @property
    def np_dtype(self) -> np.dtype:
        """The numpy dtype all parameter tables are stored in."""
        return DTYPES[self.dtype]

    @property
    def parameters(self) -> Mapping[str, Tensor]:
        """All named parameter tensors."""
        return dict(self._params)

    def parameter_list(self) -> list[Tensor]:
        """Parameters in insertion order (matches optimizer state order)."""
        return list(self._params.values())

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self._params.values())

    def parameter_arrays(self) -> dict[str, Array]:
        """The raw numpy array behind every parameter tensor (no copy).

        The returned arrays *are* the model's live parameters — mutating
        one mutates the model.  Checkpointing and the shared-memory
        evaluation transport both read parameters through this surface.
        """
        return {name: tensor.data for name, tensor in self._params.items()}

    def attach_parameter_arrays(
        self, arrays: Mapping[str, Array], strict: bool = True
    ) -> None:
        """Replace every parameter's storage with the given arrays, zero-copy.

        Each array must match the existing parameter's shape and dtype
        exactly — this is a storage swap, not a cast — which is what lets
        worker processes back a freshly built model with shared-memory
        views instead of private copies.  Gradients are reset because
        they no longer correspond to the new storage.

        With ``strict=False`` the *first* axis may differ while dtype and
        trailing axes still must match.  This is the out-of-core loader's
        hook (:func:`repro.models.io.open_mmap`): it builds a probe model
        with a tiny entity vocabulary, attaches full-size memory-mapped
        tables, and then corrects ``num_entities`` — the full xavier
        initialisation is never materialised.  Callers own the semantic
        check that only entity-indexed tables actually grow.
        """
        missing = set(self._params) - set(arrays)
        if missing:
            raise KeyError(f"missing parameter arrays: {sorted(missing)}")
        for name, tensor in self._params.items():
            array = arrays[name]
            expected = tensor.data.shape if strict else tensor.data.shape[1:]
            got = array.shape if strict else array.shape[1:]
            if (
                got != expected
                or array.ndim != tensor.data.ndim
                or array.dtype != tensor.data.dtype
            ):
                raise ValueError(
                    f"parameter {name!r} expects {tensor.data.shape} "
                    f"{tensor.data.dtype}, got {array.shape} {array.dtype}"
                )
            tensor.data = array
            tensor.grad = None

    def init_spec(self) -> dict:
        """The constructor metadata needed to rebuild this model.

        Includes the common five arguments plus every declared
        :attr:`extra_init_fields` entry; :func:`repro.models.io.
        build_from_spec` consumes it.  This is also exactly what
        ``save_model`` stamps into checkpoints.
        """
        spec = {
            "name": self.name,
            "num_entities": self.num_entities,
            "num_relations": self.num_relations,
            "dim": self.dim,
            "seed": self.seed,
            "dtype": self.dtype,
        }
        for field in self.extra_init_fields:
            spec[field] = getattr(self, field)
        return spec

    def zero_grad(self) -> None:
        for param in self._params.values():
            param.zero_grad()

    def train_mode(self, training: bool = True) -> "KGEModel":
        """Toggle training mode (enables dropout in models that use it)."""
        self.training = training
        return self

    # ------------------------------------------------------------------
    # Scoring surfaces
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def score_triples(self, heads: Array, relations: Array, tails: Array) -> Tensor:
        """Differentiable scores for a batch of triples (shape ``(b,)``)."""

    def query_vectors(self, anchors: Array, relation: int | Array, side: Side) -> Array:
        """``(b, q)`` query rows for validated ``anchors`` of one side.

        Row ``i`` is what :meth:`score_rows` compares every candidate
        entity row against for the query anchored at ``anchors[i]``.
        ``relation`` is one id shared by every row, or an ``(b,)`` array
        aligned with ``anchors``; row ``i`` is then bitwise the row a
        scalar call over the anchors of ``relation[i]`` returns.
        """
        raise NotImplementedError(f"{type(self).__name__} has no query vectors")

    def query_vectors_vjp(
        self, anchors: Array, relations: Array, side: Side, d_queries: Array
    ) -> list[RowGrad]:
        """Row gradients of ``sum(d_queries * query_vectors(anchors, relations, side))``.

        Supplied next to a model's :meth:`query_vectors`; without it the
        model trains through :meth:`score_triples` instead.
        """
        raise NotImplementedError(f"{type(self).__name__} has no query-vector VJP")

    def _query_vectors_by_relation(
        self, anchors: Array, relations: Array, side: Side
    ) -> Array:
        """:meth:`query_vectors` of an ``(b,)`` relation array, one scalar call
        per distinct relation — for models whose query is a matrix product,
        whose rounding depends on the batch it is computed in."""
        return _stacked_by_key(
            relations, lambda rows, relation: self.query_vectors(anchors[rows], relation, side)
        )

    def _query_rows(self, anchors: Array, relation: int | Array, side: Side | Array) -> Array:
        """:meth:`query_vectors` of validated arguments whose ``side`` may
        be per-row codes: one call per side present, rows stacked."""
        if isinstance(side, str):
            return self.query_vectors(anchors, relation, side)
        per_row = isinstance(relation, np.ndarray)
        return _stacked_by_key(
            side,
            lambda rows, code: self.query_vectors(
                anchors[rows], relation[rows] if per_row else relation, SIDES[code]
            ),
        )

    def score_rows(self, queries: Array, candidates: Array | None = None) -> Array:
        """``(b, k)`` scores of ``queries`` against candidate entity rows.

        ``candidates`` is a validated id array — ``(k,)`` shared by every
        query or ``(b, k)`` with one set per query — or None for every
        entity.  The default is the inner product every factorisation
        model ends in.
        """
        rows = self._entity_rows(candidates)
        if rows.ndim == 3:
            return np.einsum("bkd,bd->bk", rows, queries)
        return queries @ rows.T

    def score_rows_vjp(
        self, queries: Array, candidates: Array, d_scores: Array
    ) -> tuple[Array, list[RowGrad]]:
        """Backward of :meth:`score_rows` for ``(b, k)`` ``candidates``.

        Returns ``d_queries`` and the candidates' row gradients of
        ``sum(d_scores * score_rows(queries, candidates))``.
        """
        rows = self._entity_rows(candidates)
        d_queries = np.einsum("bk,bkd->bd", d_scores, rows)
        return d_queries, [("entity", candidates, d_scores[..., None] * queries[:, None, :])]

    def _entity_rows(self, candidates: Array | None) -> Array:
        # np.take gathers the same rows as fancy indexing, faster.
        entities = self.entity.data
        return entities if candidates is None else np.take(entities, candidates, axis=0)

    def _score_batch(
        self, anchors: Array, relation: int, side: Side, candidates: Array | None
    ) -> Array:
        """The one inference kernel of one relation and one side, called
        with validated arguments only.

        Scorers without embedding tables (the hash scorers) override this
        instead of :meth:`query_vectors`.
        """
        return self.score_rows(self.query_vectors(anchors, relation, side), candidates)

    def _score_queries(
        self, anchors: Array, relation: int | Array, side: Side | Array, candidates: Array | None
    ) -> Array:
        """:meth:`_score_batch` of validated arguments whose ``relation``
        and ``side`` may be per-row: the query rows, then one product."""
        return self.score_rows(self._query_rows(anchors, relation, side), candidates)

    def _score_with_truths(
        self,
        anchors: Array,
        relation: int | Array,
        side: Side | Array,
        candidates: Array | None,
        truths: Array,
    ) -> tuple[Array, Array]:
        """:meth:`_score_queries`'s scores and the ``(b,)`` scores of each
        row's own truth, from the same query rows: truth ``i`` is the one
        per-row candidate of query row ``i``, so no ``(b, b)`` anchor x
        truth block is ever scored."""
        queries = self._query_rows(anchors, relation, side)
        return self.score_rows(queries, candidates), self.score_rows(queries, truths[:, None])[:, 0]

    def _validate_query(
        self,
        anchors: Iterable[int],
        relation: int | Array,
        side: Side | Array,
        candidates: Iterable[int] | None,
    ) -> tuple[Array, int | Array, Side | Array, Array | None]:
        anchors = check_ids(anchors, self.num_entities, "anchor")
        if isinstance(relation, (int, np.integer)) or np.ndim(relation) == 0:
            if not 0 <= relation < self.num_relations:
                raise IndexError(
                    f"relation id must lie in [0, {self.num_relations}), got {relation}"
                )
            relation = int(relation)
        else:
            relation = check_ids(relation, self.num_relations, "relation")
            _check_per_row(relation, anchors, "relation")
        if isinstance(side, str) or np.ndim(side) == 0:
            if side not in SIDES:
                raise ValueError(f"side must be one of {SIDES}, got {side!r}")
        else:
            side = np.asarray(side, dtype=np.int64)
            _check_per_row(side, anchors, "side")
            if side.size and (side.min() < 0 or side.max() >= len(SIDES)):
                raise ValueError(
                    f"side codes must lie in [0, {len(SIDES)}), "
                    f"got range [{side.min()}, {side.max()}]"
                )
        if candidates is not None:
            candidates = check_ids(candidates, self.num_entities, "candidate")
        return anchors, relation, side, candidates

    def score_candidates_batch(
        self,
        anchors: Array,
        relation: int | Array,
        side: Side | Array,
        candidates: Array | None = None,
        truths: Array | None = None,
    ) -> Array | tuple[Array, Array]:
        """``(b, k)`` scores for many queries.

        Row ``i`` holds the scores of ``candidates`` (all entities when
        None) for the query anchored at ``anchors[i]``: one query-vector
        build and one product, which is what makes batched evaluation
        fast.  ``relation`` and ``side`` are one value shared by every
        row, or ``(b,)`` arrays aligned with ``anchors`` (sides as codes
        into ``SIDES``); row ``i`` then scores as its own relation and
        side would alone.  With ``truths`` (one entity per anchor) the
        call returns ``(scores, truth_scores)`` instead,
        ``truth_scores[i]`` being the score of ``truths[i]`` for query
        ``i`` alone, from the same query rows.  Out-of-range anchors,
        relations, candidates or truths raise ``IndexError``; an unknown
        side or side code, or a per-row array or truth count other than
        the anchor count, ``ValueError``.  Callers chunk ``anchors`` to
        bound the ``b * k`` intermediate.
        """
        query = self._validate_query(anchors, relation, side, candidates)
        if truths is None:
            return self._score_queries(*query)
        truths = check_ids(truths, self.num_entities, "truth")
        if truths.shape != query[0].shape:
            raise ValueError(
                f"expected one truth per anchor ({query[0].shape[0]}), got shape {truths.shape}"
            )
        return self._score_with_truths(*query, truths)

    def score_all(self, anchor: int, relation: int, side: Side) -> Array:
        """Scores of *every* entity as the missing side of one query.

        ``side == "tail"`` scores all tails of ``(anchor, relation, ?)``;
        ``side == "head"`` scores all heads of ``(?, relation, anchor)``.
        Row 0 of :meth:`score_candidates_batch` for the single anchor.
        """
        return self._score_batch(*self._validate_query([anchor], relation, side, None))[0]

    def score_candidates(
        self, anchor: int, relation: int, side: Side, candidates: Array
    ) -> Array:
        """Scores of selected candidate entities for one query."""
        return self._score_batch(
            *self._validate_query([anchor], relation, side, candidates)
        )[0]

    def score_triples_numpy(self, heads: Array, relations: Array, tails: Array) -> Array:
        """Inference-path float64 scores of a batch of triples (no graph).

        Same-relation triples are scored together: each chunk of up to
        :data:`TRIPLE_CHUNK` is one kernel call over its heads with each
        tail as its head's truth, instead of one call per triple.
        """
        heads = np.asarray(heads, dtype=np.int64)
        relations = np.asarray(relations, dtype=np.int64)
        tails = np.asarray(tails, dtype=np.int64)
        scores = np.empty(len(heads))
        for relation in np.unique(relations).tolist():
            rows = np.flatnonzero(relations == relation)
            for start in range(0, rows.size, TRIPLE_CHUNK):
                chunk = rows[start : start + TRIPLE_CHUNK]
                anchors, relation_id, side, truths = self._validate_query(
                    heads[chunk], relation, "tail", tails[chunk]
                )
                scores[chunk] = self._score_with_truths(
                    anchors, relation_id, side, _NO_CANDIDATES, truths
                )[1]
        return scores

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(|E|={self.num_entities}, |R|={self.num_relations}, "
            f"dim={self.dim}, params={self.num_parameters()})"
        )


class HashScorer(KGEModel):
    """A scorer without embedding tables, scored by a hash of its ids.

    It overrides :meth:`KGEModel._score_batch`, whose score of each
    ``(anchor, candidate)`` pair does not depend on the other pairs of the
    call.  So a batch with per-row relations or sides is one
    ``_score_batch`` call per distinct ``(relation, side)``, rows stacked
    back in batch order: bitwise each group's own call.  And a chunk's
    truths ride along as extra candidates of its call, and truth ``i`` is
    read from row ``i``: bitwise what the scorer's ``_score_batch`` gives
    for ``(anchors[i], truths[i])``.  That call scores a ``b x b`` anchor
    x truth block and keeps only its diagonal, on purpose: routing the
    truths through ``_score_batch`` itself is what keeps them bitwise
    equal to it, for every subclass.
    """

    def _score_queries(
        self, anchors: Array, relation: int | Array, side: Side | Array, candidates: Array | None
    ) -> Array:
        if isinstance(relation, int) and isinstance(side, str):
            return self._score_batch(anchors, relation, side, candidates)
        codes = SIDES.index(side) if isinstance(side, str) else side
        keys = np.broadcast_to(relation, anchors.shape) * len(SIDES) + codes
        return _stacked_by_key(
            keys,
            lambda rows, key: self._score_batch(
                anchors[rows], key // len(SIDES), SIDES[key % len(SIDES)], candidates
            ),
        )

    def _score_with_truths(
        self,
        anchors: Array,
        relation: int | Array,
        side: Side | Array,
        candidates: Array | None,
        truths: Array,
    ) -> tuple[Array, Array]:
        if candidates is None:
            candidates = np.arange(self.num_entities, dtype=np.int64)
        k = candidates.size
        block = self._score_queries(anchors, relation, side, np.concatenate([candidates, truths]))
        rows = np.arange(len(anchors))
        return block[:, :k], block[rows, k + rows]


def _stacked_by_key(keys: Array, compute: Callable[[Array | slice, int], Array]) -> Array:
    """``compute(rows, key)`` for each distinct key, its rows stacked back
    in batch order.

    ``rows`` selects the rows holding ``key``: every row (a full slice,
    one call and no copy) when the keys are all one value, and the empty
    selection under key 0 when there are no rows at all.
    """
    distinct = np.unique(keys).tolist()
    if len(distinct) <= 1:
        return compute(slice(None), distinct[0] if distinct else 0)
    out = None
    for key in distinct:
        rows = np.flatnonzero(keys == key)
        part = compute(rows, key)
        if out is None:
            out = np.empty((len(keys),) + part.shape[1:], part.dtype)
        out[rows] = part
    return out


def _check_per_row(values: Array, anchors: Array, what: str) -> None:
    """Raise ``ValueError`` unless ``values`` holds one entry per anchor."""
    if values.shape != anchors.shape:
        raise ValueError(
            f"expected one {what} per anchor ({anchors.shape[0]}), got shape {values.shape}"
        )


def check_ids(values: Iterable[int], limit: int, what: str) -> Array:
    """Validate and convert an id array, raising a clear error on overflow.

    One reduction checks both ends: read as uint64, a negative id is
    larger than any limit.  The min and max are taken only for the error.
    """
    array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.int64)
    if array.size and array.view(np.uint64).max() >= limit:
        raise IndexError(f"{what} ids must lie in [0, {limit}), got range [{array.min()}, {array.max()}]")
    return array
