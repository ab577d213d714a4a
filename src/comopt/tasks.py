"""Synthetic ground-truth tasks and offline-dataset curation.

Four desk-scale oracles:

  bowl   continuous, dim 8: f(x) = -sum(x_i^2), maximized at the origin.
  cliff  continuous, dim 8: same bowl inside the max-norm-2 box, but with a
         flat -50 penalty outside it, so designs that wander off the sampled
         manifold score catastrophically.
  edge   continuous, dim 8: the cliff oracle with the bowl's centre moved to
         the box corner (2, ..., 2), f(x) = -||x - c||^2 (-50 outside the
         box). The withheld optimum sits on the penalty boundary, so ascent
         that overshoots it leaves the valid region.
  pwm    discrete, 6 positions x 4 letters: a seeded position-weight sum
         over 4^6 = 4096 enumerable sequences, ascended in a relaxed
         log-probability space.

Curation samples the region (or enumerates all sequences), keeps only the
lowest-scoring slice by percentile so headroom above the dataset exists,
and standardizes the kept designs and scores.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fileio import read_rows, write_rows
from .optimizer import decode_discrete
from .trainer import NormalizationStats, OfflineDataset, fit_normalization

PWM_WEIGHT_SEED = 7


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """A ground-truth objective with its sampling region and withheld score
    range; the oracle is never visible to training except through curation."""

    name: str
    input_dim: int
    is_discrete: bool
    oracle: Callable[[np.ndarray], float]
    lower: np.ndarray
    upper: np.ndarray
    y_min: float
    y_max: float
    raw_shape: tuple[int, int] | None = None
    encode_eps: float = 0.2
    weight_matrix: np.ndarray | None = None


def oracle_eval(task: TaskSpec, x) -> float:
    """True score of a single raw (denormalized) design vector."""
    return task.oracle(np.asarray(x, dtype=np.float64))


def oracle_eval_batch(task: TaskSpec, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return np.array([task.oracle(row) for row in X])


def bowl_task(dim: int = 8, bound: float = 2.0) -> TaskSpec:
    def oracle(x: np.ndarray) -> float:
        return float(-np.sum(x * x))

    return TaskSpec(
        name="bowl",
        input_dim=dim,
        is_discrete=False,
        oracle=oracle,
        lower=np.full(dim, -bound),
        upper=np.full(dim, bound),
        y_min=-dim * bound * bound,
        y_max=0.0,
    )


def cliff_task(dim: int = 8, bound: float = 2.0, edge: float = 2.0,
               penalty: float = 50.0, center: float = 0.0,
               name: str = "cliff") -> TaskSpec:
    """-||x - center||^2 on the box |x_i| <= bound, minus `penalty` wherever
    max|x_i| > edge. The bowl's centre is the same scalar on every axis and
    must lie in the box; the worst in-box design is the opposite corner."""
    def oracle(x: np.ndarray) -> float:
        d = x - center
        value = float(-np.sum(d * d))
        if np.max(np.abs(x)) > edge:
            value -= penalty
        return value

    far = bound + abs(center)
    return TaskSpec(
        name=name,
        input_dim=dim,
        is_discrete=False,
        oracle=oracle,
        lower=np.full(dim, -bound),
        upper=np.full(dim, bound),
        y_min=-dim * far * far,
        y_max=0.0,
    )


def edge_task(dim: int = 8, bound: float = 2.0) -> TaskSpec:
    """The cliff oracle centred on the box corner (bound, ..., bound): the
    optimum lies on the penalty boundary instead of inside the data."""
    return cliff_task(dim, bound, edge=bound, center=bound, name="edge")


def pwm_task(length: int = 6, alphabet: int = 4, seed: int = PWM_WEIGHT_SEED,
             encode_eps: float = 0.2) -> TaskSpec:
    W = np.random.default_rng(seed).standard_normal((length, alphabet))
    d = length * alphabet

    def oracle(x: np.ndarray) -> float:
        letters = decode_discrete(x, length, alphabet).argmax(axis=1)
        return float(W[np.arange(length), letters].sum())

    # The relaxed space is unbounded; record the raw logit levels as a
    # nominal region (curation enumerates sequences instead of sampling it).
    lo = np.log(encode_eps / (alphabet - 1))
    hi = np.log(1.0 - encode_eps)
    return TaskSpec(
        name="pwm",
        input_dim=d,
        is_discrete=True,
        oracle=oracle,
        lower=np.full(d, lo),
        upper=np.full(d, hi),
        y_min=float(W.min(axis=1).sum()),
        y_max=float(W.max(axis=1).sum()),
        raw_shape=(length, alphabet),
        encode_eps=encode_eps,
        weight_matrix=W,
    )


_TASKS = {"bowl": bowl_task, "cliff": cliff_task, "edge": edge_task,
          "pwm": pwm_task}


def get_task(name: str) -> TaskSpec:
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {sorted(_TASKS)}")
    return _TASKS[name]()


def task_names() -> list[str]:
    return sorted(_TASKS)


def all_sequences(length: int, alphabet: int) -> np.ndarray:
    """Every letter sequence, shape (alphabet**length, length), lexicographic."""
    grids = np.indices((alphabet,) * length)
    return grids.reshape(length, -1).T


def sequence_scores(task: TaskSpec, letters: np.ndarray) -> np.ndarray:
    """Position-weight scores of integer letter sequences, shape (n,)."""
    W = task.weight_matrix
    if W is None:
        raise ValueError("task has no position-weight matrix")
    pos = np.arange(letters.shape[1])
    return W[pos, letters].sum(axis=1)


def encode_sequences(letters: np.ndarray, alphabet: int, eps: float) -> np.ndarray:
    """Vectorized logit relaxation of integer letter sequences."""
    n, length = letters.shape
    probs = np.full((n, length, alphabet), eps / (alphabet - 1))
    probs[np.arange(n)[:, None], np.arange(length)[None, :], letters] = 1.0 - eps
    return np.log(probs).reshape(n, length * alphabet)


@dataclass
class CurationConfig:
    """How to build the visible offline dataset from oracle samples."""

    n_raw_samples: int = 2000
    keep_percentile: float = 50.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_raw_samples < 10:
            raise ValueError("need at least 10 raw samples")
        if not 0.0 < self.keep_percentile <= 100.0:
            raise ValueError("keep_percentile must lie in (0, 100]")


def curate_dataset(task: TaskSpec, config: CurationConfig) -> OfflineDataset:
    """Sample the region (or enumerate all sequences when discrete), score
    with the oracle, keep only the lowest keep_percentile slice by score,
    and standardize. The withheld oracle min/max ride along for reporting."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    if task.is_discrete:
        length, alphabet = task.raw_shape
        letters = all_sequences(length, alphabet)
        raw = encode_sequences(letters, alphabet, task.encode_eps)
        scores = sequence_scores(task, letters)
    else:
        if np.any(task.upper <= task.lower):
            raise ValueError("degenerate sampling region")
        raw = rng.uniform(task.lower, task.upper,
                          size=(config.n_raw_samples, task.input_dim))
        scores = oracle_eval_batch(task, raw)
    n = len(raw)
    k = max(2, int(round(n * config.keep_percentile / 100.0)))
    keep = np.sort(np.argsort(scores, kind="stable")[:k])
    kept_x, kept_y = raw[keep], scores[keep]
    stats = fit_normalization(kept_x, kept_y)
    return OfflineDataset(
        designs=stats.normalize_x(kept_x),
        scores=stats.normalize_y(kept_y),
        stats=stats,
        is_discrete=task.is_discrete,
        raw_shape=task.raw_shape,
        oracle_y_min=task.y_min,
        oracle_y_max=task.y_max,
    )


def _sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def write_dataset(dataset: OfflineDataset, path) -> None:
    """Raw-coordinate CSV (final column y) plus a JSON sidecar holding the
    normalization stats and the withheld oracle score range."""
    raw_x = dataset.raw_designs()
    write_rows(path, [f"x{i}" for i in range(raw_x.shape[1])] + ["y"],
               ([*row, yv] for row, yv in zip(raw_x, dataset.raw_scores())))
    meta = {
        "x_mean": [float(v) for v in dataset.stats.x_mean],
        "x_std": [float(v) for v in dataset.stats.x_std],
        "y_mean": dataset.stats.y_mean,
        "y_std": dataset.stats.y_std,
        "is_discrete": dataset.is_discrete,
        "raw_shape": list(dataset.raw_shape) if dataset.raw_shape else None,
        "oracle_y_min": dataset.oracle_y_min,
        "oracle_y_max": dataset.oracle_y_max,
    }
    with open(_sidecar_path(path), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def read_dataset(path) -> OfflineDataset:
    """Read what `write_dataset` wrote. Ragged rows, non-finite cells and
    sidecar stats whose length differs from the design columns are errors."""
    header, raw = read_rows(path)
    with open(_sidecar_path(path)) as fh:
        meta = json.load(fh)
    d = len(header) - 1
    for key in ("x_mean", "x_std"):
        if len(meta[key]) != d:
            raise ValueError(f"{_sidecar_path(path)}: {key} has "
                             f"{len(meta[key])} entries for {d} design columns")
    stats = NormalizationStats(
        x_mean=np.array(meta["x_mean"]),
        x_std=np.array(meta["x_std"]),
        y_mean=meta["y_mean"],
        y_std=meta["y_std"],
    )
    return OfflineDataset(
        designs=stats.normalize_x(raw[:, :-1]),
        scores=stats.normalize_y(raw[:, -1]),
        stats=stats,
        is_discrete=meta["is_discrete"],
        raw_shape=tuple(meta["raw_shape"]) if meta["raw_shape"] else None,
        oracle_y_min=meta["oracle_y_min"],
        oracle_y_max=meta["oracle_y_max"],
    )
