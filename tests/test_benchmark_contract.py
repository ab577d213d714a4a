"""The names the benchmark traces must exist in comopt.

`perfbench/tracing.py` wraps each function it lists in TRACED by name; a
renamed or deleted function makes `tracing.install` raise and fails every
benchmark run. The benchmark's own tests live outside the default test
paths, so this guard keeps the contract in the main suite.
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
