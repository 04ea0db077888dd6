"""KGE model substrate: seven scoring models, losses, optimizers, trainer.

The registry in :func:`build_model` is how experiments request models by
the names used in the paper's tables.
"""

from __future__ import annotations

from repro.models.base import DTYPES, KGEModel, xavier_uniform
from repro.models.complex_ import ComplEx
from repro.models.conve import ConvE
from repro.models.distmult import DistMult
from repro.models.fused import trains_fused
from repro.models.losses import available_losses, get_loss
from repro.models.optim import SGD, Adagrad, Adam, build_optimizer, coalesce_rows
from repro.models.oracle import OracleModel
from repro.models.random_model import RandomModel
from repro.models.rescal import RESCAL
from repro.models.rotate import RotatE
from repro.models.training import (
    RecommenderNegativeSampler,
    Trainer,
    TrainingConfig,
    TrainingHistory,
    UniformNegativeSampler,
)
from repro.models.transe import TransE
from repro.models.tucker import TuckER

MODEL_REGISTRY: dict[str, type[KGEModel]] = {
    "transe": TransE,
    "distmult": DistMult,
    "complex": ComplEx,
    "rescal": RESCAL,
    "rotate": RotatE,
    "tucker": TuckER,
    "conve": ConvE,
}


def available_models() -> list[str]:
    """Names of the trainable KGE models (paper Section 5.2 set)."""
    return sorted(MODEL_REGISTRY)


from repro.models.io import load_model, save_model  # noqa: E402 — needs the registry


def build_model(
    name: str, num_entities: int, num_relations: int, dim: int = 32, seed: int = 0, **kwargs
) -> KGEModel:
    """Instantiate a registered model by its paper name (case-insensitive)."""
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        )
    return MODEL_REGISTRY[key](num_entities, num_relations, dim=dim, seed=seed, **kwargs)


__all__ = [
    "DTYPES",
    "MODEL_REGISTRY",
    "Adagrad",
    "Adam",
    "ComplEx",
    "ConvE",
    "DistMult",
    "KGEModel",
    "OracleModel",
    "RESCAL",
    "RandomModel",
    "RecommenderNegativeSampler",
    "RotatE",
    "SGD",
    "Trainer",
    "TrainingConfig",
    "TrainingHistory",
    "TransE",
    "TuckER",
    "UniformNegativeSampler",
    "available_losses",
    "available_models",
    "build_model",
    "build_optimizer",
    "coalesce_rows",
    "get_loss",
    "load_model",
    "save_model",
    "trains_fused",
    "xavier_uniform",
]
