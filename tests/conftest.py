"""Shared test infrastructure: collects acceptance-criterion outcomes so the
end of the pytest run prints one PASS/FAIL line per criterion, and a spy
that counts trainings."""
import pytest

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
