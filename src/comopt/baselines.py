"""Gradient-ascent baselines: a naive supervised surrogate and ensembles
aggregated by min or mean. All of them reuse the trainer (with the
conservative term pinned off) and the same design optimizer."""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import net
from .net import ObjectiveModel
from .trainer import OfflineDataset, TrainerConfig, train


@dataclass
class Ensemble:
    """Independently seeded surrogates aggregated by min or mean."""

    members: list[ObjectiveModel]
    aggregate: str

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        if self.aggregate not in ("min", "mean"):
            raise ValueError("aggregate must be 'min' or 'mean'")
        dims = {m.input_dim for m in self.members}
        if len(dims) != 1:
            raise ValueError("all members must share input_dim")

    def predict_batch(self, X) -> np.ndarray:
        preds = np.stack([net.forward_batch(m, X) for m in self.members])
        return preds.min(axis=0) if self.aggregate == "min" else preds.mean(axis=0)

    def input_grad_batch(self, X) -> np.ndarray:
        # One hidden pass per member yields its prediction and its gradient.
        # Min mode: subgradient of the pointwise minimum is the gradient of
        # the active member; argmin breaks ties toward the lowest index.
        preds, grads = [], []
        for m in self.members:
            p, cache = net.forward_with_cache(m, X)
            preds.append(p)
            grads.append(net.input_gradient_batch(m, X, cache))
        if self.aggregate == "mean":
            return np.stack(grads).mean(axis=0)
        active = np.stack(preds).argmin(axis=0)
        return np.stack(grads)[active, np.arange(X.shape[0])]


def naive_config(config: TrainerConfig) -> TrainerConfig:
    return replace(config, alpha_init=0.0, alpha_lr=0.0)


def train_naive(dataset: OfflineDataset, config: TrainerConfig):
    """Supervised regression with no conservative term: the trainer with
    alpha pinned at zero and dual updates disabled. Same seed, same model."""
    return train(dataset, naive_config(config))


def member_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def train_ensemble(dataset: OfflineDataset, config: TrainerConfig,
                   size: int, aggregate: str):
    """Train `size` naive members differing only by seed."""
    if size < 1:
        raise ValueError("ensemble size must be >= 1")
    members = []
    logs = []
    for m in range(size):
        cfg = replace(naive_config(config), seed=member_seed(config.seed, m))
        model, log = train(dataset, cfg)
        members.append(model)
        logs.append(log)
    return Ensemble(members, aggregate), logs
