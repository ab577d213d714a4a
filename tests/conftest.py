"""Shared test infrastructure: collects acceptance-criterion outcomes so the
end of the pytest run prints one PASS/FAIL line per criterion, a spy
that counts trainings, a probe of a call's peak memory, and the small
stub models several test modules ascend on."""
import tracemalloc

import numpy as np
import pytest

from comopt.net import DenseLayer, ObjectiveModel

_CRITERION_LINES: dict[int, str] = {}


def record_criterion(cid: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES[cid] = f"criterion {cid} ({name}): {status} - {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for cid in sorted(_CRITERION_LINES):
        terminalreporter.write_line(_CRITERION_LINES[cid])


@pytest.fixture()
def train_spy(monkeypatch):
    """Records the TrainerConfig of every `trainer.train` call, whichever
    module's name for it the call goes through."""
    from comopt import acceptance, baselines, harness, trainer

    calls = []
    real = trainer.train

    def spy(dataset, config):
        calls.append(config)
        return real(dataset, config)

    for module in (trainer, baselines, harness, acceptance):
        if getattr(module, "train", None) is real:
            monkeypatch.setattr(module, "train", spy)
    return calls


@pytest.fixture()
def traced_peak():
    """Peak bytes that numpy and Python allocate while a callable runs,
    after a first call that warms any caches, so only the call's own arrays
    count."""
    def peak(fn) -> int:
        fn()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


def linear_model(weights=1.0, bias=0.0):
    """f(x) = weights . x + bias as a one-layer net."""
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    return ObjectiveModel([DenseLayer(w, np.array([bias]))])


class QuadraticStub:
    """f(x) = -(x - 1)^2 in 1-d; enough of the model protocol for ascent."""

    input_dim = 1

    def predict_batch(self, X):
        return -(X[:, 0] - 1.0) ** 2

    def input_grad_batch(self, X):
        return -2.0 * (X - 1.0)
