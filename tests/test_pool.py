"""The worker pool: with one open every trial queues on it, a single one
too, and otherwise runs in this process; trials run on it equal in-process
ones bitwise, its workers run one BLAS thread each, no worker outlives a
run, also when training fails in a worker, a replaced `train` keeps every
training in this process, and the acceptance suite queues all its trials
at once."""
import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from comopt import acceptance, cli, harness
from comopt.fileio import write_rows
from comopt.harness import (config_from, run_experiment, run_trials,
                            tau_sweep, trial_of, worker_pool)
from comopt.trainer import TrainingError

SRC = Path(harness.__file__).resolve().parent.parent
TINY = {"task": "cliff", "n_raw": 100, "epochs": 2, "batch_size": 64,
        "mining_steps": 3, "hidden": "8"}
DIVERGING = ("task = bowl\nmethod = coms\ntrials = 2\nn_raw = 120\n"
             "epochs = 3\nbatch_size = 32\nmining_steps = 3\nhidden = 8\n"
             "budget = 4\nadam_lr = 1e300\n")


def _params(model):
    members = getattr(model, "members", [model])
    return [m.params.tobytes() for m in members]


def _no_training_here(*args):
    raise AssertionError("trained in the parent process")


def _forbid_training_here(monkeypatch):
    """Make every method fail if it trains in this process. The pool's
    workers import their own `METHODS`, and `train` stays as it is, so the
    pool still opens."""
    monkeypatch.setattr(harness, "METHODS",
                        dict.fromkeys(harness.METHODS, _no_training_here))


def _bits(result):
    """Every output of a trial, as bytes or exact text."""
    return (_params(result.model), repr(result.logs),  # NaN gaps by repr
            result.dataset.designs.tobytes(),
            result.candidates.designs.tobytes(),
            result.candidates.surrogate_values.tobytes(),
            repr(result.evaluation), result.stability.tobytes(),
            result.budget.tobytes())


def _start_both_workers(memo):
    """Two trials keep both workers busy, so both have started for sure."""
    run_trials([trial_of(config_from(TINY), k) for k in (0, 1)], memo)


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_pool_trials_equal_in_process_trials_bitwise(monkeypatch):
    jobs = [trial_of(config_from({**TINY, "method": method, "budget": 4,
                                  "stability_steps": 5, "budgets": "1,2,4"}), k)
            for method in ("coms", "grad-min") for k in (0, 1)]
    memo = {}
    with worker_pool():
        _forbid_training_here(monkeypatch)
        pooled = run_trials(jobs + jobs[:1], memo)  # a repeated job runs once
        monkeypatch.undo()
    assert len(memo) == len(jobs)
    assert pooled[-1] is pooled[0]
    for got, want in zip(pooled, run_trials(jobs)):
        assert _bits(got) == _bits(want)


def test_run_trials_without_a_pool_runs_in_process(monkeypatch):
    _forbid_training_here(monkeypatch)
    cfg = config_from(TINY)
    with pytest.raises(AssertionError, match="trained in the parent process"):
        run_trials([trial_of(cfg, 0), trial_of(cfg, 1)])


def test_a_single_miss_trains_on_an_open_pool(monkeypatch):
    job = trial_of(config_from({**TINY, "budget": 4, "stability_steps": 5,
                                "budgets": "1,2,4"}), 0)
    with worker_pool():
        _forbid_training_here(monkeypatch)
        pooled = run_trials([job])[0]
        monkeypatch.undo()
    assert _bits(pooled) == _bits(run_trials([job])[0])


def test_a_one_trial_run_experiment_queues_on_an_open_pool(tmp_path,
                                                           monkeypatch):
    cfg = config_from({**TINY, "trials": 1, "budget": 2})
    with worker_pool():
        _forbid_training_here(monkeypatch)
        run_experiment(cfg, tmp_path / "pooled")
        monkeypatch.undo()
    run_experiment(cfg, tmp_path / "in_process")
    assert _files(tmp_path / "pooled") == _files(tmp_path / "in_process")


@pytest.mark.skipif(not os.path.exists("/proc/self/environ"),
                    reason="reads a worker's start-up environment from /proc")
def test_workers_start_with_one_blas_thread_and_parent_env_is_restored(
        monkeypatch):
    for parent_value in ("3", None):
        if parent_value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", parent_value)
        with worker_pool() as pool:
            with worker_pool() as inner:
                assert inner is pool  # an open pool is reused, not nested
            assert multiprocessing.active_children() == []  # none started yet
            _start_both_workers({})
            workers = multiprocessing.active_children()
            assert len(workers) == 2
            for proc in workers:
                environ = Path(f"/proc/{proc.pid}/environ").read_bytes()
                assert b"\0OPENBLAS_NUM_THREADS=1\0" in b"\0" + environ
        assert os.environ.get("OPENBLAS_NUM_THREADS") == parent_value
        assert multiprocessing.active_children() == []


def test_a_failed_job_raises_and_stops_the_pool(tmp_path):
    diverging = config_from({**TINY, "task": "bowl", "adam_lr": 1e300})
    with pytest.raises(TrainingError, match="non-finite loss at epoch"):
        with worker_pool():
            run_trials([trial_of(diverging, 0), trial_of(diverging, 1)])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("when", ["idle", "training"])
def test_a_dead_worker_raises_instead_of_hanging(when):
    long = config_from({**TINY, "n_raw": 1000, "epochs": 500,
                        "hidden": "64,64", "mining_steps": 10})  # ~7 s each
    jobs = [trial_of(long, k) for k in (0, 1)]
    with pytest.raises(ChildProcessError, match="a pool worker died"):
        with worker_pool():
            _start_both_workers({})
            proc = multiprocessing.active_children()[0]
            if when == "idle":
                proc.kill()
                proc.join()
            else:
                threading.Timer(1.0, proc.kill).start()
            run_trials(jobs)
    assert proc.exitcode == -9
    assert multiprocessing.active_children() == []


def test_a_replaced_train_keeps_every_training_in_process(tmp_path,
                                                          train_spy):
    with worker_pool() as pool:
        assert pool is None
        assert multiprocessing.active_children() == []
    run_experiment(config_from({**TINY, "trials": 2, "budget": 2}),
                   tmp_path / "spied")
    assert [config.seed for config in train_spy] == [0, 1]


def test_no_worker_outlives_run_experiment(tmp_path):
    cfg = config_from({**TINY, "trials": 2, "budget": 2})
    run_experiment(cfg, tmp_path / "ok")
    assert multiprocessing.active_children() == []
    with pytest.raises(TrainingError, match="non-finite loss at epoch 1"):
        run_experiment(DIVERGING, tmp_path / "diverged")
    assert multiprocessing.active_children() == []


def test_worker_divergence_fails_the_command_with_message(tmp_path, capsys):
    config = _run_config(tmp_path, DIVERGING)
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error: non-finite loss at epoch 1" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_a_dead_worker_fails_the_command_with_message(tmp_path, capsys):
    config = _run_config(tmp_path, "task = cliff\nmethod = coms\ntrials = 2\n"
                         "n_raw = 1000\nepochs = 500\nmining_steps = 10\n"
                         "budget = 4\n")  # ~7 s per trial

    run_over = threading.Event()

    def kill_a_worker_mid_job():
        while len(workers := multiprocessing.active_children()) < 2:
            if run_over.wait(0.05):
                return
        time.sleep(1.0)
        workers[0].kill()

    killer = threading.Thread(target=kill_a_worker_mid_job, daemon=True)
    killer.start()
    try:
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 1
    finally:
        run_over.set()
        killer.join()
    err = capsys.readouterr().err
    assert "error: a pool worker died" in err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_run_all_that_raises(tmp_path, monkeypatch):
    def criterion_with_open_pool(runs, fast):
        _start_both_workers({})
        assert len(multiprocessing.active_children()) == 2
        raise RuntimeError("criterion failed")

    monkeypatch.setattr(acceptance, "CRITERIA", (criterion_with_open_pool,))
    with pytest.raises(RuntimeError, match="criterion failed"):
        acceptance.run_all(str(tmp_path), fast=True)
    assert multiprocessing.active_children() == []


def test_import_and_one_trial_run_load_no_process_machinery(tmp_path):
    script = (
        "import sys\n"
        "import comopt.cli\n"
        "from comopt import harness\n"
        "loaded = lambda: sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] in ('multiprocessing',\n"
        "                                               'concurrent'))\n"
        "print(loaded())\n"
        f"cfg = harness.config_from({{**{TINY!r}, 'trials': 1}})\n"
        "harness.run_experiment(cfg, sys.argv[1])\n"
        "print(loaded())\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "one")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_run_command_under_spawn_matches_in_process_run(tmp_path, monkeypatch):
    text = "".join(f"{k} = {v}\n" for k, v in TINY.items())
    text += "method = coms\ntrials = 2\nbudget = 4\nstability_steps = 5\n" \
            "budgets = 1,2,4\n"
    config = _run_config(tmp_path, text)
    proc = subprocess.run(
        [sys.executable, "-m", "comopt", "run", "--config", str(config),
         "--out", str(tmp_path / "pooled")],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    monkeypatch.setattr(harness, "worker_pool", contextlib.nullcontext)
    run_experiment(text, tmp_path / "in_process")
    pooled = _files(tmp_path / "pooled")
    assert len(pooled) == 6
    assert pooled == _files(tmp_path / "in_process")


def test_sweep_tau_trains_its_taus_on_the_pool(tmp_path, monkeypatch):
    taus = (0.05, 0.5, 2.0)
    flags = ["--task", "cliff", "--taus", ",".join(map(str, taus)),
             "--n-raw", "100", "--t-max", "4",
             "--epochs", "2", "--batch-size", "64", "--mining-steps", "3",
             "--hidden", "8"]
    _forbid_training_here(monkeypatch)
    assert cli.main(["sweep-tau", *flags, "--out-dir",
                     str(tmp_path / "pooled")]) == 0
    monkeypatch.undo()
    (tmp_path / "in_process").mkdir()
    for tau, curve in tau_sweep(config_from(TINY), 0, taus, 4).items():
        write_rows(tmp_path / "in_process" / f"stability_tau_{tau}.csv",
                   ["step", "true_score"], enumerate(curve))
    assert _files(tmp_path / "pooled") == _files(tmp_path / "in_process")


def _wait_for_both_workers(timeout=60.0):
    deadline = time.monotonic() + timeout
    while len(workers := multiprocessing.active_children()) < 2:
        assert time.monotonic() < deadline, "the workers never started"
        time.sleep(0.01)
    return workers


def test_run_all_queues_every_trial_up_front(tmp_path, monkeypatch):
    events = []

    def submit_spy(jobs, memo):
        events.append(("submit", len(memo)))
        harness.submit_trials(jobs, memo)
        events.append(("submitted", len(memo)))

    def run_trials_spy(jobs, memo=None):
        missing = [job for job in jobs if memo is None
                   or repr(job) not in memo]
        events.append(("run_trials", len(missing)))
        return harness.run_trials(jobs, memo)

    monkeypatch.setattr(acceptance, "submit_trials", submit_spy)
    monkeypatch.setattr(acceptance, "run_trials", run_trials_spy)
    summary = acceptance.run_all(str(tmp_path), fast=True)
    # 9 distinct trials: 2 discrete, 4 of criterion 4, criterion 7's two
    # taus (one equals criterion 2's dual trial) and criterion 2's fixed one
    assert events[:2] == [("submit", 0), ("submitted", 9)]
    assert [e for e in events[2:] if e[0] != "run_trials"] == []
    assert [e for e in events[2:] if e[1]] == []  # every key found
    assert len(events) > 2
    assert all(r["seconds"] >= 0.0 for r in summary["criteria"])
    assert multiprocessing.active_children() == []


class _Queued(Exception):
    pass


def _jobs_queued_by_run_all(tmp_path, monkeypatch, fast):
    """The jobs `run_all` queues as it opens the pool; nothing trains."""
    def submit_spy(jobs, memo):
        raise _Queued(list(jobs))

    monkeypatch.setattr(acceptance, "submit_trials", submit_spy)
    with pytest.raises(_Queued) as info:
        acceptance.run_all(str(tmp_path), fast=fast)
    return info.value.args[0]


def test_run_all_queues_the_same_trials_in_the_same_order(tmp_path,
                                                          monkeypatch):
    jobs = _jobs_queued_by_run_all(tmp_path, monkeypatch, fast=True)
    distinct = {}
    for job in jobs:
        distinct.setdefault(repr(job), job)
    assert len(jobs) == 10
    assert [(t.task, t.method, t.trainer.tau, t.trainer.alpha_init,
             t.trainer.seed) for t in distinct.values()] == [
        ("cliff", "coms", 0.5, 10.0, 0), ("cliff", "coms", 0.5, 0.0, 0),
        ("edge", "coms", 0.5, 0.0, 0), ("edge", "grad-naive", 0.5, 0.0, 0),
        ("edge", "coms", 0.5, 0.0, 1), ("edge", "grad-naive", 0.5, 0.0, 1),
        ("pwm", "coms", 2.0, 0.0, 0), ("pwm", "coms", 2.0, 0.0, 1),
        ("cliff", "coms", 0.05, 0.0, 0)]
    jobs = _jobs_queued_by_run_all(tmp_path, monkeypatch, fast=False)
    assert len(jobs) == 56
    assert len({repr(job) for job in jobs}) == 50
    assert multiprocessing.active_children() == []


def test_a_queued_trial_that_raises_fails_run_all_from_its_criterion(
        tmp_path, monkeypatch):
    diverging = config_from({**TINY, "task": "bowl", "adam_lr": 1e300})
    reached = []

    def criterion(runs, fast):
        reached.append(len(reached) + 1)
        return {"id": len(reached), "name": "stub", "passed": True,
                "detail": ""}

    monkeypatch.setitem(acceptance.JOBS, 2,
                        lambda fast: [trial_of(diverging, 0),
                                      trial_of(diverging, 1)])
    monkeypatch.setattr(acceptance, "CRITERIA", (criterion,) * 3)
    with pytest.raises(TrainingError, match="non-finite loss"):
        acceptance.run_all(str(tmp_path), fast=True)
    assert reached == [1]  # criterion 1 ran; 2 and 3 did not
    assert multiprocessing.active_children() == []


def test_a_killed_worker_fails_run_all_with_child_process_error(
        tmp_path, monkeypatch):
    def kill_a_worker(runs, fast):
        proc = _wait_for_both_workers()[0]
        proc.kill()
        proc.join()
        return {"id": 1, "name": "stub", "passed": True, "detail": ""}

    # criterion 2's trials, collected next, were queued on the dead pool
    monkeypatch.setattr(acceptance, "CRITERIA", (
        kill_a_worker, acceptance.criterion_2_conservatism))
    with pytest.raises(ChildProcessError, match="a pool worker died"):
        acceptance.run_all(str(tmp_path), fast=True)
    assert multiprocessing.active_children() == []
