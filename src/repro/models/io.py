"""Saving and loading trained KGE models.

Checkpoints are a single ``.npz`` holding every parameter tensor plus the
constructor metadata needed to rebuild the model; loading reconstructs
through :func:`repro.models.build_model` and overwrites the freshly
initialised parameters, so a round-tripped model scores bit-identically.

Out-of-core checkpoints are a *directory* of ``.npy`` shards instead
(:func:`save_sharded` / :func:`open_mmap`): each parameter table lives in
one ``.npy`` file that is memory-mapped read-only at open, so a
million-entity embedding table costs pages, not resident memory, and
every process that opens the same shards shares them through the OS
page cache.  The manifest carries per-parameter digests, so the
engine can tell a sharded model is already published without ever
paging its bytes in (:meth:`repro.engine.shm.PublishedState.refresh`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.models.base import KGEModel

_META_KEY = "__meta__"

SHARD_FORMAT = "repro-mmap-model"
SHARD_VERSION = 1

#: Gauge tracking bytes of model parameters currently served via mmap
#: shards in this process (documented in docs/observability.md).
MMAP_BYTES_GAUGE = "repro_engine_mmap_bytes"

#: Entity-vocabulary size of the probe model :func:`open_mmap` builds
#: before swapping in the full-size memory-mapped tables.
_PROBE_ENTITIES = 8

#: Rows initialised per block by :func:`init_sharded`.
_INIT_BLOCK_ROWS = 65536


def save_model(model: KGEModel, path: str | os.PathLike[str]) -> None:
    """Write ``model`` to ``path`` as a ``.npz`` checkpoint.

    Only registry models can round-trip (oracle/random scorers derive
    from a graph and have nothing worth persisting).  Model-specific
    constructor kwargs come from the class's
    :attr:`~repro.models.base.KGEModel.extra_init_fields` declaration,
    so a model cannot silently drop them here: new constructor
    parameters fail the signature-coverage test until declared.
    """
    meta = model.init_spec()
    arrays = model.parameter_arrays()
    if _META_KEY in arrays:
        raise ValueError(f"parameter name {_META_KEY!r} is reserved")
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


def build_from_spec(spec: dict) -> KGEModel:
    """Rebuild an untrained model from an :meth:`~repro.models.base.
    KGEModel.init_spec` dict (freshly initialised parameters).

    The shared-memory evaluation transport rebuilds worker-side models
    this way and then swaps in the parent's parameter storage with
    :meth:`~repro.models.base.KGEModel.attach_parameter_arrays`.
    """
    # Imported here to keep repro.models importable before this module.
    from repro.models import build_model

    meta = dict(spec)
    return build_model(
        meta.pop("name"),
        meta.pop("num_entities"),
        meta.pop("num_relations"),
        dim=meta.pop("dim"),
        seed=meta.pop("seed"),
        # Checkpoints written before the dtype knob default to float64,
        # which is exactly what they were trained in.
        dtype=meta.pop("dtype", "float64"),
        **meta,
    )


def _mmap_gauge():
    from repro.obs import get_registry

    return get_registry().gauge(
        MMAP_BYTES_GAUGE,
        "Bytes of model parameters served via mmap shards in this process",
    )


def _digest_array(array: np.ndarray, block_rows: int = 1 << 16) -> str:
    """Blake2b digest of an array's raw bytes, streamed in row blocks.

    Row blocks keep the resident set bounded when the array is a memory
    map — pages are touched once and can be evicted behind the cursor.
    """
    digest = hashlib.blake2b(digest_size=16)
    if array.ndim == 0 or array.shape[0] == 0:
        digest.update(np.ascontiguousarray(array).tobytes())
    else:
        for start in range(0, array.shape[0], block_rows):
            digest.update(
                np.ascontiguousarray(array[start : start + block_rows]).tobytes()
            )
    return digest.hexdigest()


def _manifest_digest(spec: dict, params: dict) -> str:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(spec, sort_keys=True).encode("utf-8"))
    for name in sorted(params):
        digest.update(name.encode("utf-8"))
        digest.update(params[name]["digest"].encode("utf-8"))
    return digest.hexdigest()


@dataclass(frozen=True)
class ShardSource:
    """Where a memory-mapped model's parameters live on disk.

    ``open_mmap`` stamps this onto the returned model as
    ``model.shard_source``; the engine treats its ``digest`` as the
    model's content identity, so the engine's state reuse and the store
    keys never hash the mapped bytes.
    """

    directory: str
    digest: str
    nbytes: int


def save_sharded(model: KGEModel, directory: str | os.PathLike[str]) -> ShardSource:
    """Write ``model`` as a directory of ``.npy`` parameter shards.

    Each parameter becomes one ``<name>.0.npy`` file plus an entry in
    ``manifest.json`` carrying the model's
    :meth:`~repro.models.base.KGEModel.init_spec`, per-parameter shapes,
    digests and the ``entity_indexed`` flag that tells
    :func:`open_mmap` which tables are allowed to outgrow the probe
    model.  The inverse of :func:`open_mmap`; round-tripped scores are
    bit-identical because the bytes are copied verbatim.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    spec = model.init_spec()
    params: dict[str, dict] = {}
    total = 0
    for name, array in model.parameter_arrays().items():
        array = np.ascontiguousarray(array)
        file = f"{name}.0.npy"
        np.save(directory / file, array)
        shards = [{"file": file, "rows": int(array.shape[0]) if array.ndim else 1}]
        params[name] = {
            "dtype": array.dtype.name,
            "shape": list(array.shape),
            "entity_indexed": bool(
                array.ndim >= 1 and array.shape[0] == model.num_entities
            ),
            "shards": shards,
            "digest": _digest_array(array),
        }
        total += int(array.nbytes)
    manifest = {
        "format": SHARD_FORMAT,
        "version": SHARD_VERSION,
        "model": spec,
        "params": params,
        "nbytes": total,
        "digest": _manifest_digest(spec, params),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ShardSource(
        directory=str(directory), digest=manifest["digest"], nbytes=total
    )


def read_shard_manifest(directory: str | os.PathLike[str]) -> dict:
    """Load and validate the manifest of a sharded model directory."""
    path = Path(directory) / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("format") != SHARD_FORMAT:
        raise ValueError(f"{path} is not a {SHARD_FORMAT} manifest")
    if int(manifest.get("version", 0)) > SHARD_VERSION:
        raise ValueError(
            f"sharded model version {manifest['version']} is newer than "
            f"supported version {SHARD_VERSION}"
        )
    return manifest


def _mapped_shard(directory: Path, name: str, meta: dict) -> np.ndarray:
    """The read-only mmap of a parameter's one shard file.

    A parameter split over several row files is rejected: mapping them
    as one table would mean copying them into one full-size file.
    """
    shards = meta["shards"]
    if len(shards) != 1:
        raise ValueError(
            f"parameter {name!r} in {directory} is split over {len(shards)} "
            "shard files; open_mmap maps one file per parameter"
        )
    shape = tuple(meta["shape"])
    dtype = np.dtype(meta["dtype"])
    array = np.load(directory / shards[0]["file"], mmap_mode="r")
    if tuple(array.shape) != shape or array.dtype != dtype:
        raise ValueError(
            f"shard {name!r} in {directory} has {array.shape} {array.dtype}, "
            f"manifest says {shape} {dtype}"
        )
    return array


def open_mmap(directory: str | os.PathLike[str]) -> KGEModel:
    """Open a :func:`save_sharded` directory as a read-only mmap model.

    Builds a *probe* model with a tiny entity vocabulary (so no
    full-size xavier table is ever materialised), swaps in the
    memory-mapped parameter tables with
    :meth:`~repro.models.base.KGEModel.attach_parameter_arrays`
    (``strict=False`` — only manifest-flagged ``entity_indexed`` tables
    may outgrow the probe), and corrects ``num_entities``.  The returned
    model scores bit-identically to its in-memory twin but its parameters
    are read-only file pages; it is an evaluation/serving backend, not a
    trainable model.
    """
    directory = Path(directory)
    manifest = read_shard_manifest(directory)
    spec = dict(manifest["model"])
    num_entities = int(spec["num_entities"])

    arrays: dict[str, np.ndarray] = {}
    for name, meta in manifest["params"].items():
        array = _mapped_shard(directory, name, meta)
        if meta["entity_indexed"] and array.shape[0] != num_entities:
            raise ValueError(
                f"entity-indexed parameter {name!r} has {array.shape[0]} rows, "
                f"model has {num_entities} entities"
            )
        arrays[name] = array

    probe_spec = dict(spec)
    probe_spec["num_entities"] = min(num_entities, _PROBE_ENTITIES)
    model = build_from_spec(probe_spec)
    if set(arrays) != set(model.parameters):
        raise ValueError(
            f"sharded parameters {sorted(arrays)} do not match model "
            f"parameters {sorted(model.parameters)}"
        )
    for name, tensor in model.parameters.items():
        meta = manifest["params"][name]
        if not meta["entity_indexed"] and arrays[name].shape != tensor.data.shape:
            raise ValueError(
                f"parameter {name!r} has shape {arrays[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
    model.attach_parameter_arrays(arrays, strict=False)
    model.num_entities = num_entities
    source = ShardSource(
        directory=str(directory),
        digest=manifest["digest"],
        nbytes=int(manifest["nbytes"]),
    )
    model.shard_source = source  # type: ignore[attr-defined]
    _mmap_gauge().inc(source.nbytes)
    return model


def init_sharded(
    name: str,
    num_entities: int,
    num_relations: int,
    directory: str | os.PathLike[str],
    dim: int = 32,
    seed: int = 0,
    dtype: str = "float64",
    block_rows: int = _INIT_BLOCK_ROWS,
    **options,
) -> ShardSource:
    """Initialise a sharded model directory without building the model.

    Entity-indexed tables are written straight into ``.npy`` memory maps
    in ``block_rows`` blocks — peak memory is one block, never the full
    table — with xavier-style uniform draws whose limit is computed from
    the *full* table shape (the limit depends on ``num_entities``, so
    blocks cannot simply reuse the probe's).  One-dimensional
    entity-indexed parameters (per-entity biases) start at zero, matching
    their in-memory initialisation.  Non-entity parameters come verbatim
    from a tiny probe model.

    The weights are valid xavier-scale initialisations but are **not**
    bit-equal to ``build_model(...)`` at the same seed (the draw order
    differs); this entry point exists for benchmarks and smoke tests that
    need a million-entity model without ever materialising one.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def _probe(entities: int) -> KGEModel:
        return build_from_spec(
            {
                "name": name,
                "num_entities": entities,
                "num_relations": num_relations,
                "dim": dim,
                "seed": seed,
                "dtype": dtype,
                **options,
            }
        )

    probe = _probe(min(num_entities, _PROBE_ENTITIES))
    # Entity-indexed tables are the ones whose first axis tracks the
    # entity count — detected by diffing two probe sizes, so a relation
    # table that merely *coincides* with the probe size is never misflagged.
    sibling = _probe(min(num_entities, _PROBE_ENTITIES) + 1)
    entity_params = {
        param_name
        for param_name, array in probe.parameter_arrays().items()
        if array.ndim >= 1
        and array.shape[:1] != sibling.parameter_arrays()[param_name].shape[:1]
    }
    spec = dict(probe.init_spec())
    spec["num_entities"] = num_entities
    rng = np.random.default_rng(seed)
    params: dict[str, dict] = {}
    total = 0
    for param_name, array in probe.parameter_arrays().items():
        entity_indexed = param_name in entity_params
        file = f"{param_name}.0.npy"
        digest = hashlib.blake2b(digest_size=16)
        if entity_indexed:
            shape = (num_entities,) + array.shape[1:]
            out = np.lib.format.open_memmap(
                directory / file, mode="w+", dtype=array.dtype, shape=shape
            )
            fan_in = shape[0] if len(shape) == 1 else shape[-2]
            limit = np.sqrt(6.0 / (fan_in + shape[-1]))
            for start in range(0, num_entities, block_rows):
                rows = min(block_rows, num_entities - start)
                if len(shape) == 1:
                    block = np.zeros(rows, dtype=array.dtype)
                else:
                    block = rng.uniform(
                        -limit, limit, size=(rows,) + shape[1:]
                    ).astype(array.dtype)
                out[start : start + rows] = block
                digest.update(np.ascontiguousarray(block).tobytes())
            out.flush()
            nbytes = int(out.nbytes)
            del out
        else:
            shape = array.shape
            array = np.ascontiguousarray(array)
            np.save(directory / file, array)
            digest.update(array.tobytes())
            nbytes = int(array.nbytes)
        params[param_name] = {
            "dtype": array.dtype.name,
            "shape": list(shape),
            "entity_indexed": entity_indexed,
            "shards": [{"file": file, "rows": int(shape[0]) if shape else 1}],
            "digest": digest.hexdigest(),
        }
        total += nbytes
    manifest = {
        "format": SHARD_FORMAT,
        "version": SHARD_VERSION,
        "model": spec,
        "params": params,
        "nbytes": total,
        "digest": _manifest_digest(spec, params),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ShardSource(
        directory=str(directory), digest=manifest["digest"], nbytes=total
    )


def load_model(path: str | os.PathLike[str]) -> KGEModel:
    """Rebuild a model from a :func:`save_model` checkpoint."""
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError(f"{path} is not a repro model checkpoint")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode("utf-8"))
        model = build_from_spec(meta)
        for key, tensor in model.parameters.items():
            stored = archive[key]
            if stored.shape != tensor.data.shape:
                raise ValueError(
                    f"checkpoint parameter {key!r} has shape {stored.shape}, "
                    f"model expects {tensor.data.shape}"
                )
            tensor.data[...] = stored
    return model
