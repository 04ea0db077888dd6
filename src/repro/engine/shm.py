"""The shared-memory plane of the parallel evaluation engine.

Parallel runs never pickle the evaluation state's arrays or the ranks:
the state is published into shared memory once per plan and model
layout, and workers write ranks into a shared buffer.  This module is
that plane:

* :class:`ShmArena` — a named set of ``multiprocessing.shared_memory``
  segments, one per numpy array, created once in the parent.  The arena
  owns the segments (close + unlink exactly once, crash- and
  interrupt-safe via ``atexit``) and keeps the process-wide
  ``repro_engine_shm_bytes`` / ``repro_engine_shm_segments`` gauges
  truthful.
* :func:`publish_state` — flattens an
  :class:`~repro.engine.worker.EvaluationState` into shared memory:
  embedding tables (zero-copy through
  :meth:`~repro.models.base.KGEModel.parameter_arrays`), the arrays of
  its :class:`~repro.engine.worker.EvaluationPlan` (query table and
  per-query exclusions, already in candidate coordinates), each side's
  negative pools (the keys, offsets and values of its
  :class:`~repro.kg.graph.KeyedCSR`, as they are) and a
  per-query **result buffer** workers write ranks into directly —
  nothing heavier than a :class:`StateManifest` ever crosses a queue.
* :func:`attach_state` — the worker-side inverse: attach every segment
  by name and rebuild a view-backed ``EvaluationState`` whose arrays
  alias the parent's bytes; its plan is rebuilt over the attached views,
  so workers never see a graph and never gather known answers.
* :meth:`PublishedState.refresh` — the reuse rule: a later state with the
  same plan and model layout (another checkpoint, a training step) is
  served by copying its parameters into the live segments, which the
  workers' parameter views alias; nothing is hashed, created or sent.

Models that do not expose ``parameter_arrays`` (wrapper scorers such as
:class:`repro.bench.LatencyBoundScorer`) or that a worker cannot rebuild
from the model registry (the hash scorers, subclasses) fall back to
travelling as one pickle inside the manifest; everything else still goes
through shared memory, and exactness is unaffected either way.

Memory-mapped models (:func:`repro.models.io.open_mmap`) take a third
route: their parameter bytes already live in files every process can map,
so :func:`publish_state` ships only the shard manifest — workers re-open
the same shards and share the pages through the OS cache, and a refresh
compares the manifest digest instead of reading the mapped bytes, so
repeat runs republish nothing (see ``docs/scale.md``).
"""

from __future__ import annotations

import pickle
import secrets
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING

import numpy as np

from repro.kg.graph import SIDES, KeyedCSR, Side
from repro.obs import get_registry

if TYPE_CHECKING:
    from repro.engine.worker import EvaluationPlan, EvaluationState

#: Gauge names (documented in docs/observability.md).
SHM_BYTES_GAUGE = "repro_engine_shm_bytes"
SHM_SEGMENTS_GAUGE = "repro_engine_shm_segments"


def _shm_gauges():
    registry = get_registry()
    return (
        registry.gauge(SHM_BYTES_GAUGE, "Live shared-memory bytes owned by engine arenas"),
        registry.gauge(SHM_SEGMENTS_GAUGE, "Live shared-memory segments owned by engine arenas"),
    )


class ShmArena:
    """A named family of shared-memory segments, one per exported array.

    The *parent* creates an arena (``owner=True``): every :meth:`put`
    copies an array into a fresh segment exactly once.  The arena is the
    single owner of those segments — :meth:`close` unlinks them, is
    idempotent, and is also registered on interpreter exit through the
    engine pool registry, so no segment survives the process even when a
    run dies on an exception or a ``KeyboardInterrupt``.
    """

    def __init__(self, tag: str = "repro"):
        self.tag = tag
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._specs: dict[str, tuple[str, tuple[int, ...], str]] = {}
        self._views: dict[str, np.ndarray] = {}
        self._bytes = 0
        self.closed = False

    # ------------------------------------------------------------------
    def put(self, name: str, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a new segment; returns the shared view."""
        if self.closed:
            raise RuntimeError("arena is closed")
        if name in self._segments:
            raise ValueError(f"duplicate arena array {name!r}")
        array = np.ascontiguousarray(array)
        nbytes = max(int(array.nbytes), 1)  # zero-size arrays still need a segment
        segment = shared_memory.SharedMemory(
            create=True, size=nbytes, name=f"{self.tag}_{secrets.token_hex(4)}_{len(self._segments)}"
        )
        view = _mapped_view(segment, array.shape, array.dtype)
        view[...] = array
        self._segments[name] = segment
        self._specs[name] = (segment.name, tuple(array.shape), array.dtype.str)
        self._views[name] = view
        self._bytes += nbytes
        bytes_gauge, segments_gauge = _shm_gauges()
        bytes_gauge.inc(nbytes)
        segments_gauge.inc()
        return view

    def view(self, name: str) -> np.ndarray:
        """The parent-side shared view of one exported array."""
        return self._views[name]

    @property
    def specs(self) -> dict[str, tuple[str, tuple[int, ...], str]]:
        """``name -> (segment name, shape, dtype)`` — the attach manifest."""
        return dict(self._specs)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def close(self) -> None:
        """Unlink every segment and drop the arena's views (idempotent).

        Each segment is unmapped once the last view over it is gone
        (:func:`_mapped_view`), so a view kept past ``close`` stays
        readable."""
        if self.closed:
            return
        self.closed = True
        self._views.clear()
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # already gone (e.g. double cleanup paths)
                pass
        self._segments.clear()
        bytes_gauge, segments_gauge = _shm_gauges()
        bytes_gauge.dec(self._bytes)
        segments_gauge.dec(len(self._specs))
        self._bytes = 0

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{len(self._specs)} segments, {self._bytes} bytes"
        return f"ShmArena({self.tag!r}, {state})"


def _mapped_view(
    segment: shared_memory.SharedMemory, shape: tuple[int, ...], dtype: np.dtype
) -> np.ndarray:
    """An array over ``segment``'s bytes that keeps the segment mapped.

    numpy holds no buffer export, so closing the segment would unmap it
    under a live view and a later read would kill the process (SIGSEGV).
    The segment is closed once its last view is gone instead; at exit the
    process unmaps it anyway.
    """
    view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
    weakref.finalize(view, segment.close).atexit = False
    return view


def attach_array(spec: tuple[str, tuple[int, ...], str]) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Attach one exported array by its ``(segment, shape, dtype)`` spec.

    The attaching process is *not* the owner, so registration with the
    ``resource_tracker`` is suppressed for the duration of the attach —
    Python < 3.13 has no ``track=False`` (bpo-39959), and letting workers
    register segments they merely view would make the shared tracker try
    to unlink the parent's segments (and log spurious KeyErrors when
    several workers attach the same one).
    """
    segment_name, shape, dtype = spec
    original_register = resource_tracker.register

    def _register_skip_shm(name, rtype):  # the tracker API is private but stable
        if rtype != "shared_memory":
            original_register(name, rtype)

    resource_tracker.register = _register_skip_shm
    try:
        segment = shared_memory.SharedMemory(name=segment_name)
    finally:
        resource_tracker.register = original_register
    return _mapped_view(segment, shape, np.dtype(dtype)), segment


# ----------------------------------------------------------------------
# State manifest: everything a worker needs, none of it heavy
# ----------------------------------------------------------------------
@dataclass
class StateManifest:
    """The picklable description of one published evaluation state."""

    state_id: str
    arrays: dict[str, tuple[str, tuple[int, ...], str]]
    groups: list[tuple[int, Side]]  # the plan's (relation, side) groups
    split: str
    sides: tuple[Side, ...]
    model_spec: dict | None = None  # registry model: rebuild + attach arrays
    model_pickle: bytes | None = field(default=None, repr=False)  # wrapper fallback
    model_shards: dict | None = None  # mmap model: workers re-open the shards
    pools_meta: dict | None = None  # sampled path: NegativePools' scalars
    num_queries: int = 0


@dataclass
class PublishedState:
    """Parent-side handle: the arena plus its manifest and result view.

    It holds the published plan itself, not its id: while the handle
    lives the plan (and the pools it holds) cannot be freed, so a new
    plan can never reuse its id and be mistaken for it.
    """

    manifest: StateManifest
    arena: ShmArena
    plan: "EvaluationPlan" = field(repr=False)

    @property
    def result_view(self) -> np.ndarray:
        return self.arena.view("result")

    def refresh(self, state: "EvaluationState") -> bool:
        """Make this arena serve ``state`` in place; ``False`` if it cannot.

        It can when the plan is the published one (``is``) and the model
        has the published layout:

        * a memory-mapped model with the published shard digest — the
          workers already map those shards, so nothing is copied;
        * a rebuildable registry model whose :meth:`init_spec` equals the
          published one except for ``seed`` (which only seeds the init)
          and whose parameters match their segments in shape and dtype —
          its live parameters are copied into those segments, which the
          workers' parameter views alias, so they score the new bytes
          with no message and no re-attach.

        Pickled wrappers are never refreshed.
        """
        manifest = self.manifest
        if self.plan is not state.plan or manifest.model_pickle is not None:
            return False
        model = state.model
        source = getattr(model, "shard_source", None)
        if manifest.model_shards is not None:
            return source is not None and source.digest == manifest.model_shards["digest"]
        if source is not None or not _rebuildable(model):
            return False
        if dict(model.init_spec(), seed=None) != dict(manifest.model_spec, seed=None):
            return False
        arrays = model.parameter_arrays()
        layout = {
            f"param_{name}": (array.shape, array.dtype.str) for name, array in arrays.items()
        }
        published = {
            name: entry[1:] for name, entry in manifest.arrays.items() if name.startswith("param_")
        }
        if layout != published:
            return False
        for name, array in arrays.items():
            np.copyto(self.arena.view(f"param_{name}"), array)
        return True

    def close(self) -> None:
        self.arena.close()


def _rebuildable(model) -> bool:
    """Whether a worker can rebuild ``model`` from its init spec: only an
    exact registry class can (hash scorers and subclasses pickle instead)."""
    from repro.models import MODEL_REGISTRY

    return hasattr(model, "init_spec") and MODEL_REGISTRY.get(model.name) is type(model)


def publish_state(state: "EvaluationState") -> PublishedState:
    """Flatten one parent-built state into shared memory.

    Exports, each as its own segment: every model parameter table, the
    plan's arrays (:meth:`~repro.engine.worker.EvaluationPlan.arrays`),
    each side's pool index (sampled path only) and the ``(N,)``
    float64 result buffer workers write ranks into.  Raises nothing
    halfway: on failure the partial arena is unlinked before the error
    propagates.
    """
    state_id = secrets.token_hex(8)
    arena = ShmArena(tag=f"repro_{state_id[:8]}")
    try:
        model = state.model
        model_spec = None
        model_pickle = None
        model_shards = None
        source = getattr(model, "shard_source", None)
        if source is not None:
            # Memory-mapped model: the shards on disk *are* the shared
            # plane (every process maps the same file pages), so nothing
            # is copied into shm — workers re-open the manifest.
            model_spec = model.init_spec()
            model_shards = {
                "directory": source.directory,
                "digest": source.digest,
                "nbytes": source.nbytes,
            }
        elif hasattr(model, "parameter_arrays") and _rebuildable(model):
            model_spec = model.init_spec()
            for name, array in model.parameter_arrays().items():
                arena.put(f"param_{name}", array)
        else:
            model_pickle = pickle.dumps(model)

        plan = state.plan
        for name, array in plan.arrays().items():
            arena.put(name, array)
        arena.put("result", np.zeros(plan.num_queries, dtype=np.float64))

        pools_meta = None
        if plan.pools is not None:
            pools = plan.pools
            pools_meta = {
                "strategy": pools.strategy,
                "num_entities": pools.num_entities,
                "sample_size": pools.sample_size,
            }
            for side in SIDES:
                for name, array in pools.pools[side].arrays(f"pools_{side}").items():
                    arena.put(name, array)

        manifest = StateManifest(
            state_id=state_id,
            arrays=arena.specs,
            groups=list(plan.groups),
            split=plan.split,
            sides=plan.sides,
            model_spec=model_spec,
            model_pickle=model_pickle,
            model_shards=model_shards,
            pools_meta=pools_meta,
            num_queries=plan.num_queries,
        )
    except BaseException:
        arena.close()
        raise
    return PublishedState(manifest=manifest, arena=arena, plan=state.plan)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
@dataclass
class AttachedState:
    """A worker's live view of one published state."""

    state_id: str
    state: "EvaluationState | None"
    result: np.ndarray | None

    def close(self) -> None:
        """Drop this handle's views.  Each segment is unmapped once the last
        view over it is gone (:func:`_mapped_view`), so an array kept past
        ``close`` stays readable."""
        self.state = None
        self.result = None


def attach_state(manifest: StateManifest) -> AttachedState:
    """Rebuild a view-backed evaluation state inside a worker process."""
    from repro.core.sampling import NegativePools
    from repro.engine.worker import EvaluationPlan, EvaluationState

    arrays = {name: attach_array(spec)[0] for name, spec in manifest.arrays.items()}

    if manifest.model_pickle is not None:
        model = pickle.loads(manifest.model_pickle)
    elif manifest.model_shards is not None:
        from repro.models.io import open_mmap

        model = open_mmap(manifest.model_shards["directory"])
        if model.shard_source.digest != manifest.model_shards["digest"]:
            raise RuntimeError(
                f"sharded model at {manifest.model_shards['directory']} "
                f"changed underneath the published state "
                f"({model.shard_source.digest} != "
                f"{manifest.model_shards['digest']})"
            )
    else:
        from repro.models.io import build_from_spec

        assert manifest.model_spec is not None
        model = build_from_spec(manifest.model_spec)
        model.attach_parameter_arrays(
            {
                name[len("param_") :]: view
                for name, view in arrays.items()
                if name.startswith("param_")
            }
        )

    pools = None
    if manifest.pools_meta is not None:
        pools = NegativePools(
            pools={side: KeyedCSR.from_arrays(arrays, f"pools_{side}") for side in SIDES},
            **manifest.pools_meta,
        )
    plan = EvaluationPlan.from_arrays(
        manifest.split, manifest.sides, pools, manifest.groups, arrays
    )
    state = EvaluationState(model=model, plan=plan)
    return AttachedState(
        state_id=manifest.state_id,
        state=state,
        result=arrays["result"],
    )
