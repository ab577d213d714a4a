"""What the benchmark relies on in comopt.

`perfbench/tracing.py` wraps each function it lists in TRACED by name; a
renamed or deleted function makes `tracing.install` raise and fails every
benchmark run. Its net kernel spans count `len(X)` rows of a call's second
argument, so every kernel in NET_KERNELS takes `(model, X)` first.
`perfbench/checks.py` calls each task's oracle on one 1-D design.
`tracing.install` wraps each acceptance criterion by swapping the members
of the flat `CRITERIA` tuple, and reads `acceptance.criterion_<k>_s` by
that name prefix.
`acceptance.distinct_trainings` counts `tracing._train_key`s, so the memo
of `harness.run_trials` must treat two trials of one shape as the same
exactly when the keys of their trainings are equal. The default test paths
also run the benchmark's own tests, `perfbench/test_perfbench.py`; these
guards name, from comopt's side, each thing the benchmark relies on.
"""
import importlib
import inspect
import itertools
import math
import os
import sys

import numpy as np

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def test_every_traced_name_is_a_comopt_callable():
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"comopt.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"comopt.{module}.{name}"


def test_every_net_kernel_takes_model_and_batch_first():
    for name in tracing.NET_KERNELS:
        module, fname = name.split(".")
        fn = getattr(importlib.import_module(f"comopt.{module}"), fname)
        params = list(inspect.signature(fn).parameters.values())[:2]
        assert [p.name for p in params] == ["model", "X"], name
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), name


def test_acceptance_mines_through_the_trainer():
    from comopt import acceptance, trainer

    assert acceptance._mine_endpoints is trainer._mine_endpoints


def test_criteria_are_a_flat_tuple_named_in_id_order_with_their_job_lists():
    from comopt import acceptance, harness

    assert type(acceptance.CRITERIA) is tuple
    assert len(acceptance.CRITERIA) == 8
    for k, crit in enumerate(acceptance.CRITERIA, 1):
        assert inspect.isfunction(crit)
        assert crit.__name__.startswith(f"criterion_{k}_"), crit.__name__
        assert getattr(acceptance, crit.__name__) is crit
    assert set(acceptance.JOBS) <= set(range(1, 9))
    for make in acceptance.JOBS.values():
        for fast in (True, False):
            jobs = make(fast)
            assert type(jobs) is list and jobs
            assert all(type(trial) is harness.Trial for trial in jobs)


def test_ascent_on_one_net_takes_one_planned_input_gradient_per_step(
        monkeypatch):
    # perfbench's net.input_grad_calls and mining counts read these calls
    from comopt import net, optimizer

    real = net.input_gradient_batch
    plans = []

    def spy(model, X, cache=None, plan=None):
        plans.append(plan)
        return real(model, X, cache, plan)

    monkeypatch.setattr(net, "input_gradient_batch", spy)
    model = net.build_model(3, (8, 8), rng=np.random.default_rng(0))
    optimizer.ascend(model, np.random.default_rng(1).normal(size=(4, 3)),
                     0.1, 5)
    assert len(plans) == 5
    assert isinstance(plans[0], net.GradientPlan)
    assert all(plan is plans[0] for plan in plans)


def test_every_oracle_scores_one_raw_design_as_a_python_float():
    # perfbench's checker re-scores candidates one 1-D design at a time
    from comopt import tasks

    for name in tasks.task_names():
        task = tasks.get_task(name)
        x = np.zeros(task.input_dim)
        assert x.shape == (task.input_dim,)
        assert type(task.oracle(x)) is float, name


def test_fit_memo_shares_an_entry_exactly_when_train_keys_match(monkeypatch):
    from comopt import harness

    real = harness.train
    keys = []

    def spy(dataset, config):
        keys.append(tracing._train_key(dataset, config))
        return real(dataset, config)

    monkeypatch.setattr(harness, "train", spy)
    base = {"task": "cliff", "n_raw": 100, "epochs": 1, "batch_size": 64,
            "mining_steps": 2, "hidden": "8"}
    settings = [{"tau": tau} for tau in ("auto", 0.5, 2.0)]
    settings += [{"ascent_rate": 0.05 * math.sqrt(8)},
                 {"alpha_init": 10.0, "alpha_lr": 0.0},
                 {"alpha_init": 10.0, "alpha_lr": 0.0, "tau": 0.5},
                 # equal as numbers, but two training keys: two trials
                 {"alpha_init": -0.0}, {"alpha_init": 0.0}]
    # every run has one shape: the default budget and no sweeps
    runs = [harness.trial_of(harness.config_from({**base, **setting}), k)
            for setting, k in itertools.product(settings, (0, 1))]

    for job in runs:
        harness.run_trials([job])
    every_key = set(keys)
    assert len(keys) == len(runs)
    keys.clear()
    harness.run_trials(runs, {})
    assert len(keys) == len(set(keys))  # no training repeated
    assert set(keys) == every_key  # none merged into another
    assert len(every_key) < len(runs)  # the memo had work to do
