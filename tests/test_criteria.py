"""The acceptance criteria's own logic, checked on stubbed trials so that
nothing trains, and criterion 1's finite-difference reference."""
import os

import numpy as np
import pytest

from comopt import acceptance, net
from comopt.harness import TrialEvaluation, TrialResult


def _stub_trial(sweep):
    return TrialResult(dataset=None, model=None, logs=[], candidates=None,
                       evaluation=TrialEvaluation(1.0, 0.5, 1.0, 0.5),
                       stability=None, budget=np.array(sweep))


def _identical_runs(config, out_dir):
    os.makedirs(out_dir)
    for name in ("report.json", "training_log.csv", "candidates.csv"):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("same")


@pytest.mark.parametrize("sweeps, problem", [
    ([[0.1, 0.2, 0.3], [0.2, 0.2 - 1e-13, 0.4]], None),
    ([[0.1, 0.2, 0.3], [0.1, 0.3, 0.2]],
     "budget sweep not monotone in a discrete trial"),
], ids=["monotone_within_tolerance", "non_monotone"])
def test_criterion_8_checks_each_discrete_sweep(tmp_path, monkeypatch,
                                                train_spy, sweeps, problem):
    monkeypatch.setattr(acceptance, "_pwm_trials",
                        lambda memo, fast: [_stub_trial(s) for s in sweeps])
    monkeypatch.setattr(acceptance, "run_experiment", _identical_runs)
    record = acceptance.criterion_8_protocol({}, work_dir=tmp_path)
    assert record["passed"] is (problem is None)
    if problem:
        assert record["detail"] == problem
    assert train_spy == []


def _fd_per_copy(loss_fn, model, h=1e-5):
    """The finite differences as first written: a fresh copy per entry."""
    out = np.zeros_like(model.params)
    for i in range(out.size):
        m = model.copy()
        m.params[i] += h
        hi = loss_fn(m)
        m.params[i] -= 2 * h
        out[i] = (hi - loss_fn(m)) / (2 * h)
    return out


@pytest.mark.parametrize("input_dim, hidden", [(3, ()), (5, (8,)),
                                               (8, (16, 16))])
def test_fd_gradients_in_place_equal_a_copy_per_entry(input_dim, hidden):
    rng = np.random.default_rng(7)
    model, x = acceptance._smooth_case(rng, input_dim, hidden)
    before = model.params.tobytes()

    def loss(m):
        return 0.5 * (net.forward_batch(m, x[None])[0] - 0.3) ** 2

    got = acceptance._fd_param_gradients(loss, model)
    assert model.params.tobytes() == before
    assert got.tobytes() == _fd_per_copy(loss, model).tobytes()
