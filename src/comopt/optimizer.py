"""Design-space search on a trained surrogate.

Fixed-step gradient ascent from high-scoring dataset points and budget-N
candidate production. `ascend` is the one ascent loop: the trainer's
adversarial mining, candidate search and the stability sweeps all run its
recurrence x_{t+1} = x_t + eta * grad(x_t), mining and search for the same
number of steps, so the optimizer only visits regions the surrogate was
trained to be conservative on. Search runs in the surrogate's normalized
space; a `CandidateSet` holds its endpoints in task coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import net
from .fileio import read_rows, write_rows
from .net import GradientError, ObjectiveModel
from .tasks import OfflineDataset


def predict_batch(model, X) -> np.ndarray:
    """Surrogate predictions for any model kind (single net, ensemble, stub)."""
    if isinstance(model, ObjectiveModel):
        return net.forward_batch(model, X)
    return model.predict_batch(X)


def input_grad_batch(model, X) -> np.ndarray:
    """Input gradients from what `ascend` steps on: a single net's
    `net.GradientPlan`, an ensemble or a stub."""
    return model.input_grad_batch(X)


def ascend(model, X0, eta: float, steps: int, record: bool = False) -> np.ndarray:
    """Run x_{t+1} = x_t + eta * grad(x_t) for `steps` steps on every row of
    the (n, d) batch X0. Returns the (n, d) endpoints, or with `record`
    every iterate as (steps + 1, n, d). A non-finite start row raises
    ValueError and a non-finite gradient GradientError. The rows ascend
    block by block (`net.row_blocks`), all steps of a block before the
    next, into one output array, so the working set does not grow with n;
    every row ends bitwise where one pass over the whole batch would put
    it. On a single net each block's steps reuse one `net.GradientPlan`
    built for its rows."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if eta <= 0.0:
        raise ValueError("step size must be positive")
    X0 = np.asarray(X0, dtype=np.float64)
    single = isinstance(model, ObjectiveModel)
    if single:
        X0 = net._as_batch(model, X0)
    if not np.all(np.isfinite(X0)):
        raise ValueError("gradient ascent needs finite start rows")
    out = np.empty((steps + 1, *X0.shape) if record else X0.shape)
    for rows in net.row_blocks(len(X0)):
        X = X0[rows]
        grad_of = net.GradientPlan(model, len(X)) if single else model
        if record:
            out[0, rows] = X
        for t in range(1, steps + 1):
            G = input_grad_batch(grad_of, X)
            if not np.all(np.isfinite(G)):
                raise GradientError("non-finite gradient during gradient ascent")
            step = eta * G  # the step's one new array; X is added in place
            step += X
            X = step
            if record:
                out[t, rows] = X
        if not record:
            out[rows] = X
    return out


@dataclass
class CandidateSet:
    """What a candidate file holds: optimized designs in task coordinates,
    the dataset index each started from and the surrogate's value of each."""

    designs: np.ndarray
    provenance: np.ndarray
    surrogate_values: np.ndarray

    def __len__(self) -> int:
        return len(self.designs)


def select_initializations(dataset: OfflineDataset, n: int) -> np.ndarray:
    """Indices of the n dataset designs with highest observed score, ties to
    the lower index; n = 1 is plain start-at-the-dataset-optimum search."""
    if n < 1:
        raise ValueError("need at least one initialization")
    if n > len(dataset):
        raise ValueError(f"requested {n} seeds from a dataset of {len(dataset)}")
    return np.argsort(-dataset.scores, kind="stable")[:n]


def produce_candidates(model, dataset: OfflineDataset, n: int,
                       eta: float, steps: int) -> CandidateSet:
    """Budget-n protocol: ascend from each of the top-n dataset designs and
    return the n endpoints in task coordinates, with their surrogate values."""
    seeds = select_initializations(dataset, n)
    endpoints = ascend(model, dataset.designs[seeds], eta, steps)
    return CandidateSet(dataset.stats.denormalize_x(endpoints), seeds,
                        predict_batch(model, endpoints))


def candidate_table(candidates: CandidateSet) -> tuple[list, list]:
    """Header and rows of a candidate CSV: design coordinates, provenance,
    and the surrogate's value for each candidate."""
    d = candidates.designs.shape[1]
    header = [f"x{i}" for i in range(d)] + ["provenance", "surrogate_value"]
    return header, [[*row, int(prov), val] for row, prov, val in
                    zip(candidates.designs, candidates.provenance,
                        candidates.surrogate_values)]


def write_candidates(candidates: CandidateSet, path) -> None:
    write_rows(path, *candidate_table(candidates))


def read_candidates(path) -> CandidateSet:
    """Read a candidate CSV back bitwise. Provenance must hold dataset
    indices: a non-integer or negative value is an error."""
    header, values = read_rows(path)
    if header[-2:] != ["provenance", "surrogate_value"]:
        raise ValueError(f"{path}: not a candidate file (its header must end "
                         f"in provenance,surrogate_value)")
    d = len(header) - 2
    provenance = values[:, d]
    if np.any(provenance != np.round(provenance)) or np.any(provenance < 0):
        raise ValueError(f"{path}: provenance must hold non-negative integer "
                         f"dataset indices")
    return CandidateSet(values[:, :d], provenance.astype(int),
                        values[:, d + 1])
