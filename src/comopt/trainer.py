"""Conservative surrogate training.

The loop alternates per minibatch: mine adversarial endpoints by running
gradient ascent on the current surrogate from the batch designs, take one
Adam step on a loss of the form

    0.5 * mean((f(x_i) - y_i)^2) + alpha * (mean f(x_T_i) - mean f(x_i)),

then one dual step on alpha that holds the prediction gap between mined
endpoints and data near a threshold tau. With alpha pinned at zero the loop
reduces exactly to supervised regression, which is what the naive baseline
uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import net
from .fileio import write_rows
from .net import ObjectiveModel
from .optimizer import ascend
from .tasks import OfflineDataset

CONTINUOUS_ETA_SCALE = 0.05
DISCRETE_ETA_SCALE = 2.0
CONTINUOUS_TAU = 0.5
DISCRETE_TAU = 2.0

TRAINING_LOG_COLUMNS = ("epoch", "mse", "gap", "alpha",
                        "mean_pred_data", "mean_pred_mined")


class TrainingError(RuntimeError):
    """Raised when training encounters a non-finite loss."""


def dual_update(alpha: float, gap: float, tau: float, alpha_lr: float) -> float:
    """One dual ascent step on the constraint gap <= tau, clipped at zero."""
    return max(0.0, alpha + alpha_lr * (gap - tau))


@dataclass
class TrainerConfig:
    """Hyperparameters shared by the trainer and the design optimizer.

    `mining_steps` is the single T used both for adversarial mining and for
    the final design search; `ascent_rate` and `tau` default to the standard
    per-modality values (0.05*sqrt(d) / tau 0.5 continuous, 2.0*sqrt(d) /
    tau 2.0 discrete) when left unset.
    """

    epochs: int = 50
    batch_size: int = 128
    mining_steps: int = 50
    ascent_rate: float | None = None
    adam_lr: float = 1e-3
    seed: int = 0
    tau: float | None = None
    alpha_lr: float = 0.01
    alpha_init: float = 0.0
    hidden: tuple = (64, 64)

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.mining_steps < 1:
            raise ValueError("mining_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        for key in ("ascent_rate", "tau", "adam_lr", "alpha_lr", "alpha_init"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.ascent_rate is not None and self.ascent_rate <= 0.0:
            raise ValueError("ascent_rate must be positive")
        if self.tau is not None and self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.adam_lr <= 0.0:
            raise ValueError("adam_lr must be positive")
        if self.alpha_init < 0.0 or self.alpha_lr < 0.0:
            raise ValueError("alpha_init and alpha_lr must be >= 0")

    def resolved_eta(self, dataset) -> float:
        """Step size; `dataset` is an OfflineDataset or its TaskSpec."""
        if self.ascent_rate is not None:
            return float(self.ascent_rate)
        scale = DISCRETE_ETA_SCALE if dataset.is_discrete else CONTINUOUS_ETA_SCALE
        return scale * math.sqrt(dataset.input_dim)

    def resolved_tau(self, dataset) -> float:
        """Tau; `dataset` is an OfflineDataset or its TaskSpec."""
        if self.tau is not None:
            return float(self.tau)
        return DISCRETE_TAU if dataset.is_discrete else CONTINUOUS_TAU


def _mine_endpoints(model: ObjectiveModel, X0: np.ndarray,
                    eta: float, steps: int) -> np.ndarray:
    """Adversarial mining: endpoints of `steps` ascent steps from each row of X0."""
    return ascend(model, X0, eta, steps)


def com_loss(preds, y, preds_mined, alpha: float):
    """The per-batch loss `train` minimizes, from the model's predictions.

    The loss is 0.5 * mean((f(x_i) - y_i)^2) + alpha * gap, where gap is the
    mean prediction on the mined endpoints minus the mean prediction on the
    data batch. Returns (mse, gap, g_data, g_mined): g_data and g_mined are
    the dloss/dprediction vectors that `net.loss_gradients` backpropagates.
    Without mined predictions (`preds_mined` None) the loss is the plain MSE,
    gap is NaN and g_mined is None.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    nb = len(preds)
    if nb == 0 or len(y) != nb or (preds_mined is not None
                                   and len(preds_mined) != nb):
        raise ValueError("data and mined batches must be nonempty and of "
                         "equal length")
    mse = 0.5 * float(np.mean((preds - y) ** 2))
    if preds_mined is None:
        return mse, math.nan, (preds - y) / nb, None
    gap = float(preds_mined.mean() - preds.mean())
    return mse, gap, (preds - y) / nb - alpha / nb, np.full(nb, alpha / nb)


def train(dataset: OfflineDataset, config: TrainerConfig):
    """Train a conservative surrogate on an offline dataset.

    Returns (model, log) where log is one dict per epoch with the keys in
    TRAINING_LOG_COLUMNS. Deterministic given config.seed. When alpha is
    pinned at zero (alpha_init == alpha_lr == 0) mining is skipped and the
    loop is plain supervised regression; gap columns are then NaN.
    """
    config.validate()
    dataset.validate()
    eta = config.resolved_eta(dataset)
    tau = config.resolved_tau(dataset)
    rng = np.random.default_rng(config.seed)
    model = net.build_model(dataset.input_dim, config.hidden, rng=rng)
    adam = net.init_adam(model, config.adam_lr)
    alpha = config.alpha_init
    conservative = not (config.alpha_init == 0.0 and config.alpha_lr == 0.0)

    X, y = dataset.designs, dataset.scores
    n = len(dataset)
    log = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sums = {"mse": 0.0, "gap": 0.0, "pred_data": 0.0, "pred_mined": 0.0}
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            nb = len(idx)
            preds, cache = net.forward_with_cache(model, Xb)
            if not np.isfinite(preds).all():  # before mining ascends on them
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} (non-finite predictions)")
            preds_mined = None
            if conservative:
                X_mined = _mine_endpoints(model, Xb, eta, config.mining_steps)
                preds_mined, cache_mined = net.forward_with_cache(model, X_mined)
            mse, gap, g_data, g_mined = com_loss(preds, yb, preds_mined,
                                                 alpha)
            if not np.isfinite(mse) or (conservative and not np.isfinite(gap)):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} (mse={mse}, gap={gap})")
            grad = net.loss_gradients(model, Xb, g_data, cache)
            if conservative:
                grad += net.loss_gradients(model, X_mined, g_mined, cache_mined)
            net.adam_step(adam, model, grad)
            if conservative:
                alpha = dual_update(alpha, gap, tau, config.alpha_lr)
            sums["mse"] += mse * nb
            sums["pred_data"] += float(preds.mean()) * nb
            if conservative:
                sums["gap"] += gap * nb
                sums["pred_mined"] += float(preds_mined.mean()) * nb
        row = {
            "epoch": epoch,
            "mse": sums["mse"] / n,
            "gap": sums["gap"] / n if conservative else math.nan,
            "alpha": alpha,
            "mean_pred_data": sums["pred_data"] / n,
            "mean_pred_mined": sums["pred_mined"] / n if conservative else math.nan,
        }
        log.append(row)
    return model, log


def write_training_log(path, surrogates, trials=None) -> None:
    """Per-epoch training logs as one CSV. `surrogates` holds each trained
    surrogate's logs, one per network, and a `member` column numbers the
    networks of each (0 for a single net). `trials`, one label per
    surrogate, adds a leading trial column so several trials can share the
    file."""
    header = ["member", *TRAINING_LOG_COLUMNS]
    rows = []
    for i, logs in enumerate(surrogates):
        lead = [] if trials is None else [trials[i]]
        for member, log in enumerate(logs):
            rows.extend(lead + [member, row["epoch"]]
                        + [float(row[c]) for c in TRAINING_LOG_COLUMNS[1:]]
                        for row in log)
    write_rows(path, header if trials is None else ["trial"] + header, rows)
