"""Synthetic ground-truth tasks and offline-dataset curation.

Four desk-scale oracles:

  bowl   continuous, dim 8: f(x) = -sum(x_i^2), maximized at the origin;
         the cliff oracle with a zero penalty.
  cliff  continuous, dim 8: same bowl inside the max-norm-2 box, but with a
         flat -50 penalty outside it, so designs that wander off the sampled
         manifold score catastrophically.
  edge   continuous, dim 8: the cliff oracle with the bowl's centre moved to
         the box corner (2, ..., 2), f(x) = -||x - c||^2 (-50 outside the
         box). The withheld optimum sits on the penalty boundary, so ascent
         that overshoots it leaves the valid region.
  pwm    discrete, 6 positions x 4 letters: a seeded position-weight sum
         over 4^6 = 4096 enumerable sequences, ascended in a relaxed
         log-probability space (`encode_sequences` / `decode_sequences`,
         the one logit relaxation).

Curation samples the region (or enumerates all sequences), keeps only the
lowest-scoring slice by percentile so headroom above the dataset exists,
and standardizes the kept designs and scores.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fileio import read_rows, write_json, write_rows
from .trainer import NormalizationStats, OfflineDataset, fit_normalization

TASK_DIM = 8
BOX_BOUND = 2.0
CLIFF_PENALTY = 50.0
PWM_LENGTH = 6
PWM_ALPHABET = 4
PWM_WEIGHT_SEED = 7
PWM_ENCODE_EPS = 0.2
# pwm's seeded weights, one row per position and one column per letter.
PWM_WEIGHTS = np.random.default_rng(PWM_WEIGHT_SEED).standard_normal(
    (PWM_LENGTH, PWM_ALPHABET))
PWM_WEIGHTS.flags.writeable = False


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """What differs between tasks: a ground-truth objective and its withheld
    score range; curation reads the fixed geometry from this module's
    constants. The oracle is never visible to training except through
    curation. `batch_oracle` scores the rows of a raw (n, input_dim) batch
    at once and returns shape (n,); `oracle` scores one raw 1-D design as a
    float."""

    name: str
    input_dim: int
    is_discrete: bool
    batch_oracle: Callable[[np.ndarray], np.ndarray]
    y_min: float
    y_max: float

    def oracle(self, x) -> float:
        """True score of one raw 1-D design."""
        return float(self.batch_oracle(np.asarray(x, dtype=np.float64)[None])[0])


def oracle_eval_batch(task: TaskSpec, X) -> np.ndarray:
    """True scores of the rows of a raw (denormalized) (n, input_dim) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != task.input_dim:
        raise ValueError(f"{task.name} designs have {task.input_dim} "
                         f"coordinates, got an array of shape {X.shape}")
    return task.batch_oracle(X)


def cliff_task(penalty: float = CLIFF_PENALTY, center: float = 0.0,
               name: str = "cliff") -> TaskSpec:
    """-||x - center||^2 in TASK_DIM coordinates, minus `penalty` wherever x
    leaves the box |x_i| <= BOX_BOUND. The bowl's centre is the same scalar
    on every axis and must lie in the box; the worst in-box design is the
    opposite corner."""
    def batch_oracle(X: np.ndarray) -> np.ndarray:
        D = X - center
        values = -np.sum(D * D, axis=1)
        values[np.abs(X).max(axis=1) > BOX_BOUND] -= penalty
        return values

    far = BOX_BOUND + abs(center)
    return TaskSpec(name=name, input_dim=TASK_DIM, is_discrete=False,
                    batch_oracle=batch_oracle, y_min=-TASK_DIM * far * far,
                    y_max=0.0)


def _pwm_oracle(X: np.ndarray) -> np.ndarray:
    return sequence_scores(decode_sequences(X, PWM_LENGTH, PWM_ALPHABET))


# Each task's one spec, built at import; `get_task` hands out these objects.
_TASKS = {
    "bowl": cliff_task(penalty=0.0, name="bowl"),
    "cliff": cliff_task(),
    "edge": cliff_task(center=BOX_BOUND, name="edge"),
    "pwm": TaskSpec(name="pwm", input_dim=PWM_LENGTH * PWM_ALPHABET,
                    is_discrete=True, batch_oracle=_pwm_oracle,
                    y_min=float(PWM_WEIGHTS.min(axis=1).sum()),
                    y_max=float(PWM_WEIGHTS.max(axis=1).sum())),
}


def get_task(name: str) -> TaskSpec:
    if name not in _TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {sorted(_TASKS)}")
    return _TASKS[name]


def task_names() -> list[str]:
    return sorted(_TASKS)


def all_sequences(length: int, alphabet: int) -> np.ndarray:
    """Every letter sequence, shape (alphabet**length, length), lexicographic."""
    grids = np.indices((alphabet,) * length)
    return grids.reshape(length, -1).T


def sequence_scores(letters: np.ndarray) -> np.ndarray:
    """pwm scores of (n, PWM_LENGTH) integer letter sequences, shape (n,)."""
    pos = np.arange(letters.shape[1])
    return PWM_WEIGHTS[pos, letters].sum(axis=1)


def encode_sequences(letters: np.ndarray, alphabet: int, eps: float) -> np.ndarray:
    """Logit relaxation of (n, L) integer letter sequences to (n, L*K)
    log-probabilities: each position's letter keeps mass 1 - eps and the
    other K - 1 letters share eps evenly; flattened row-major."""
    n, length = letters.shape
    probs = np.full((n, length, alphabet), eps / (alphabet - 1))
    probs[np.arange(n)[:, None], np.arange(length)[None, :], letters] = 1.0 - eps
    return np.log(probs).reshape(n, length * alphabet)


def decode_sequences(X, length: int, alphabet: int) -> np.ndarray:
    """(n, L) letters of (n, L*K) relaxed designs: the per-position argmax
    over the K logits, ties to the lowest letter."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != length * alphabet:
        raise ValueError(f"expected designs of shape (n, {length * alphabet}), "
                         f"got {X.shape}")
    return X.reshape(len(X), length, alphabet).argmax(axis=2)


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
    """Sample the box (or enumerate all sequences when discrete), score
    with the oracle, keep only the lowest keep_percentile slice by score,
    and standardize."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    if task.is_discrete:
        letters = all_sequences(PWM_LENGTH, PWM_ALPHABET)
        raw = encode_sequences(letters, PWM_ALPHABET, PWM_ENCODE_EPS)
        scores = sequence_scores(letters)
    else:
        raw = rng.uniform(-BOX_BOUND, BOX_BOUND,
                          size=(config.n_raw_samples, TASK_DIM))
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
    )


def _sidecar_path(path) -> str:
    return str(path) + ".meta.json"


def write_dataset(dataset: OfflineDataset, path) -> None:
    """Raw-coordinate CSV (final column y) plus a JSON sidecar holding the
    normalization stats and whether the designs are relaxed sequences."""
    raw_x = dataset.raw_designs()
    write_rows(path, [f"x{i}" for i in range(raw_x.shape[1])] + ["y"],
               ([*row, yv] for row, yv in zip(raw_x, dataset.raw_scores())))
    meta = {
        "x_mean": [float(v) for v in dataset.stats.x_mean],
        "x_std": [float(v) for v in dataset.stats.x_std],
        "y_mean": dataset.stats.y_mean,
        "y_std": dataset.stats.y_std,
        "is_discrete": dataset.is_discrete,
    }
    write_json(_sidecar_path(path), meta)


def _is_number(value) -> bool:
    """A JSON number as `json.load` returns it: an int or float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def read_dataset(path) -> OfflineDataset:
    """Read what `write_dataset` wrote. Ragged rows, non-numeric or
    non-finite cells, a sidecar key that is missing, sidecar stats that are
    not JSON numbers (a list of them for `x_mean` and `x_std`) or whose
    length differs from the design columns, a mean that is not finite, a
    standard deviation that is not positive and finite and an `is_discrete`
    that is not a JSON boolean are errors. Sidecar keys beyond those are
    ignored."""
    header, raw = read_rows(path)
    sidecar = _sidecar_path(path)
    with open(sidecar) as fh:
        meta = json.load(fh)
    missing = [key for key in ("x_mean", "x_std", "y_mean", "y_std",
                               "is_discrete") if key not in meta]
    if missing:
        raise ValueError(f"{sidecar}: missing key(s) {', '.join(missing)}")
    for key in ("x_mean", "x_std", "y_mean", "y_std"):
        per_column = key.startswith("x_")
        values = meta[key] if per_column else [meta[key]]
        if not (isinstance(values, list) and all(map(_is_number, values))):
            kind = "a list of numbers" if per_column else "a number"
            raise ValueError(f"{sidecar}: {key} must be {kind}, "
                             f"got {meta[key]!r}")
    d = len(header) - 1
    for key in ("x_mean", "x_std"):
        if len(meta[key]) != d:
            raise ValueError(f"{sidecar}: {key} has "
                             f"{len(meta[key])} entries for {d} design columns")
    if not np.all(np.isfinite(np.append(meta["x_mean"], meta["y_mean"]))):
        raise ValueError(f"{sidecar}: x_mean and y_mean entries must be "
                         f"finite")
    stds = np.append(meta["x_std"], meta["y_std"])
    if not np.all(np.isfinite(stds) & (stds > 0.0)):
        raise ValueError(f"{sidecar}: x_std and y_std entries must be "
                         f"positive and finite")
    if not isinstance(meta["is_discrete"], bool):
        raise ValueError(f"{sidecar}: is_discrete must be true or false, "
                         f"got {meta['is_discrete']!r}")
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
    )
