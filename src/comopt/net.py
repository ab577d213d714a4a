"""Dense feed-forward nets and ensembles, exact manual backprop and Adam.

Everything here is float64 numpy. Parameter and input gradients are exact
(no finite-difference shortcuts inside the implementation; the test suite
checks them *against* central finite differences instead).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GradientError(ValueError):
    """Raised on non-finite gradients or gradient/parameter shape mismatch."""


# The negative-side slope of every model's leaky ReLU.
LEAK = 0.3


def _slope(z: np.ndarray, leak: float) -> np.ndarray:
    """Exactly 1.0 where z >= 0, else leak: leak + fl(1 - leak) is 1.0."""
    s = (z >= 0.0) * (1.0 - leak)
    s += leak
    return s


@dataclass
class DenseLayer:
    """One affine layer; weights are (fan_out, fan_in), bias is (fan_out,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be a 2-d matrix")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must equal weight fan_out")

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


@dataclass
class ObjectiveModel:
    """Feed-forward surrogate: affine layers with leaky-ReLU between them.

    The final layer maps to a single scalar prediction; the activation's
    negative-side slope is `LEAK`. Construction copies every layer's
    weights and bias, in layer order, into one contiguous float64 vector
    `params`; the model's layers hold views into it, so a write through
    either is seen by both.
    """

    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("model needs at least one layer")
        for prev, nxt in zip(self.layers[:-1], self.layers[1:]):
            if nxt.fan_in != prev.fan_out:
                raise ValueError("layer fan_in must match previous fan_out")
        if self.layers[-1].fan_out != 1:
            raise ValueError("final layer must produce a single scalar")
        self.params = np.concatenate(
            [a.ravel() for lyr in self.layers for a in (lyr.weights, lyr.bias)])
        layers, start = [], 0
        for lyr in self.layers:
            (o, i), stop = lyr.weights.shape, start + lyr.weights.size
            layers.append(DenseLayer(self.params[start:stop].reshape(o, i),
                                     self.params[stop:stop + o]))
            start = stop + o
        self.layers = layers

    def __reduce__(self):
        # Pickling and deepcopy rebuild through the constructor, so the
        # layers of the result are views into its own `params`.
        return ObjectiveModel, (self.layers,)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    def copy(self) -> "ObjectiveModel":
        """An independent model with equal parameters (construction copies)."""
        return ObjectiveModel(self.layers)


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
        preds = np.stack([forward_batch(m, X) for m in self.members])
        return preds.min(axis=0) if self.aggregate == "min" else preds.mean(axis=0)

    def input_grad_batch(self, X) -> np.ndarray:
        # One hidden pass per member yields its prediction and its gradient.
        # Min mode: subgradient of the pointwise minimum is the gradient of
        # the active member; argmin breaks ties toward the lowest index.
        preds, grads = [], []
        for m in self.members:
            p, cache = forward_with_cache(m, X)
            preds.append(p)
            grads.append(input_gradient_batch(m, X, cache))
        if self.aggregate == "mean":
            return np.stack(grads).mean(axis=0)
        active = np.stack(preds).argmin(axis=0)
        return np.stack(grads)[active, np.arange(X.shape[0])]


def build_model(input_dim: int, hidden, *,
                rng: np.random.Generator) -> ObjectiveModel:
    """He-style uniform init: W ~ U(-sqrt(6/fan_in), +sqrt(6/fan_in)), b = 0."""
    dims = [int(input_dim), *[int(h) for h in hidden], 1]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out)))
    return ObjectiveModel(layers)


def _as_batch(model: ObjectiveModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ValueError(
            f"expected batch of shape (n, {model.input_dim}), got {X.shape}")
    return X


def _affine_slope(a: np.ndarray, weights_t: np.ndarray, bias: np.ndarray):
    """One hidden layer: the pre-activation z = a @ W.T + b and its slope.
    `bias` is the layer's (fan_out,) vector or that row repeated over a's
    rows; the add gives the same bits either way."""
    z = a @ weights_t
    z += bias
    return z, _slope(z, LEAK)


def _hidden_pass(model: ObjectiveModel, X: np.ndarray):
    """Hidden layers' pre-activations, activations (from X on) and slopes."""
    pres, acts, slopes = [], [X], []
    for lyr in model.layers[:-1]:
        z, s = _affine_slope(acts[-1], lyr.weights.T, lyr.bias)
        pres.append(z)
        slopes.append(s)
        acts.append(z * s)
    return pres, acts, slopes


def forward_with_cache(model: ObjectiveModel, X):
    """Predictions for a batch, shape (n,), and the cache of the hidden pass
    that made them. Passing the cache to `loss_gradients` or
    `input_gradient_batch` with the same model and X skips a second pass."""
    cache = _hidden_pass(model, _as_batch(model, X))
    _, acts, _ = cache
    out = model.layers[-1]
    return (acts[-1] @ out.weights.T + out.bias)[:, 0], cache


# Large batches are walked in blocks of BLOCK_ROWS rows, the trainer's
# default batch, so a pass's temporaries do not grow with the batch. A
# remainder under MIN_TAIL_ROWS joins the block before it: OpenBLAS picks
# its kernel by row count, and a block that small could round differently
# from the whole batch.
BLOCK_ROWS = 128
MIN_TAIL_ROWS = 32


def row_blocks(n: int) -> list:
    """Slices that cover rows 0..n in order: blocks of BLOCK_ROWS, the last
    one holding any remainder under MIN_TAIL_ROWS. A batch of up to
    BLOCK_ROWS + MIN_TAIL_ROWS - 1 rows, or none, is one block."""
    starts = list(range(0, n, BLOCK_ROWS)) or [0]
    if len(starts) > 1 and n - starts[-1] < MIN_TAIL_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def forward_batch(model: ObjectiveModel, X) -> np.ndarray:
    """Surrogate predictions for a batch of designs, shape (n,): one
    `forward_with_cache` per block of `row_blocks`, each prediction
    bitwise equal to one pass over the whole batch."""
    X = _as_batch(model, X)
    out = np.empty(len(X))
    for rows in row_blocks(len(X)):
        out[rows] = forward_with_cache(model, X[rows])[0]
    return out


class GradientPlan:
    """What the input gradient reads of a model, gathered once for batches
    of n rows: a row-major copy of each hidden layer's transposed weights,
    each hidden bias and the output weight row repeated over the n rows.
    OpenBLAS multiplies by a row-major matrix faster than by a transposed
    view, and numpy adds or multiplies two (n, k) arrays several times
    faster than it broadcasts a (k,) row over one; gradient ascent does all
    three at every step. So `ascend` builds one plan per block of
    `row_blocks`, whose repeats then span at most one block's rows, and
    steps that block on the plan's `input_grad_batch`. On a few rows (up
    to 18 at width 64 on OpenBLAS 0.3.31) a copy can round a
    pre-activation one last bit away from the view; the input gradient
    reads only the pre-activations' signs, so its bits move only where one
    lies within an ulp of 0. The copies are taken when the plan is built:
    build a new plan after the parameters change."""

    def __init__(self, model: ObjectiveModel, n: int):
        hidden = model.layers[:-1]
        self.model = model
        self.weights_t = [np.ascontiguousarray(lyr.weights.T) for lyr in hidden]
        self.biases = [np.tile(lyr.bias, (n, 1)) for lyr in hidden]
        self.out_row = np.tile(model.layers[-1].weights[0], (n, 1))

    def slopes(self, X: np.ndarray) -> list:
        """The hidden layers' slopes on X. The last hidden activation feeds
        only the output layer, which the input gradient does not pass
        through, so it is never formed."""
        slopes = []
        for wt, b in zip(self.weights_t, self.biases):
            a = z * slopes[-1] if slopes else X
            z, s = _affine_slope(a, wt, b)
            slopes.append(s)
        return slopes

    def input_grad_batch(self, X) -> np.ndarray:
        """`input_gradient_batch` of the plan's model through this plan."""
        return input_gradient_batch(self.model, X, plan=self)


def input_gradient_batch(model: ObjectiveModel, X, cache=None,
                         plan: GradientPlan | None = None) -> np.ndarray:
    """Exact d prediction / d input for every row of X, shape (n, input_dim),
    backpropagated over the hidden slopes of `plan`, a
    `GradientPlan(model, len(X))`; else of `cache`, from
    `forward_with_cache(model, X)`; else of one hidden pass."""
    X = _as_batch(model, X)
    if plan is not None:
        slopes, out_row = plan.slopes(X), plan.out_row
    else:
        slopes = (_hidden_pass(model, X) if cache is None else cache)[2]
        out_row = model.layers[-1].weights[0]
    if not slopes:
        return np.ones((X.shape[0], 1)) @ model.layers[0].weights
    g = out_row * slopes[-1]
    for k in range(len(slopes) - 1, 0, -1):
        g = g @ model.layers[k].weights
        g *= slopes[k - 1]
    return g @ model.layers[0].weights


def loss_gradients(model: ObjectiveModel, X, dloss_dpred,
                   cache=None) -> np.ndarray:
    """Backprop primitive: gradient of sum_i g_i * f(x_i), g = dloss_dpred,
    w.r.t. every parameter, as one vector laid out like `model.params`.
    `cache`, from `forward_with_cache(model, X)`, replaces the hidden pass."""
    X = _as_batch(model, X)
    g = np.asarray(dloss_dpred, dtype=np.float64)
    if g.shape != (X.shape[0],):
        raise ValueError("dloss_dpred must have one entry per batch row")
    _, acts, slopes = _hidden_pass(model, X) if cache is None else cache
    gk = g[:, None]
    grads = [gk.sum(axis=0), gk.T @ acts[-1]]
    for k in range(len(slopes) - 1, -1, -1):
        gk = (gk @ model.layers[k + 1].weights) * slopes[k]
        grads += [gk.sum(axis=0), gk.T @ acts[k]]
    return np.concatenate([a.ravel() for a in grads[::-1]])


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, flat like `ObjectiveModel.params`."""

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    learning_rate: float


def init_adam(model: ObjectiveModel, learning_rate: float) -> AdamState:
    return AdamState(
        step_count=0,
        first_moment=np.zeros_like(model.params),
        second_moment=np.zeros_like(model.params),
        learning_rate=learning_rate,
    )


def adam_step(state: AdamState, model: ObjectiveModel, grad: np.ndarray) -> None:
    """One in-place Adam update of the whole parameter vector. Validates the
    gradient first so a misshapen or non-finite one leaves both the state
    and the parameters untouched."""
    if getattr(grad, "shape", None) != model.params.shape:
        raise GradientError("gradient shape does not match model.params")
    if not np.all(np.isfinite(grad)):
        raise GradientError("non-finite gradient; parameters left untouched")
    state.step_count += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step_count
    c2 = 1.0 - ADAM_BETA2 ** state.step_count
    m, v = state.first_moment, state.second_moment
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    model.params -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)
