"""What the benchmark relies on in comopt.

`perfbench/tracing.py` wraps each function it lists in TRACED by name; a
renamed or deleted function makes `tracing.install` raise and fails every
benchmark run. `perfbench/checks.py` calls each task's oracle on one 1-D
design. The benchmark's own tests live outside the default test paths, so
these guards keep the contract in the main suite.
"""
import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402


def test_every_traced_name_is_a_comopt_callable():
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"comopt.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"comopt.{module}.{name}"


def test_acceptance_mines_through_the_trainer():
    from comopt import acceptance, trainer

    assert acceptance._mine_endpoints is trainer._mine_endpoints


def test_every_oracle_scores_one_raw_design_as_a_python_float():
    # perfbench's checker re-scores candidates one 1-D design at a time
    from comopt import tasks

    for name in tasks.task_names():
        task = tasks.get_task(name)
        x = (task.lower + task.upper) / 2.0
        assert x.shape == (task.input_dim,)
        assert type(task.oracle(x)) is float, name
