"""Gradient-ascent baselines: a naive supervised surrogate and ensembles
aggregated by min or mean (`net.Ensemble`). All of them reuse the trainer
(with the conservative term pinned off) and the same design optimizer."""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .net import Ensemble
from .tasks import OfflineDataset
from .trainer import TrainerConfig, train


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
