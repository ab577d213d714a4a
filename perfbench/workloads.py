"""The benchmark's workloads.

Each workload is one entry call into comopt's public API. The three
`run_experiment` workloads take the benchmark seed as `base_seed`;
`reproduce-fast` runs the acceptance suite, whose seeds are fixed by the
acceptance protocol and may not be changed.

An op is the unit `attempted` and `failed` count: a trial for
`run_experiment` workloads and a criterion for `reproduce-fast`.
"""
from __future__ import annotations

ACCEPTANCE_CRITERIA = 8

WORKLOADS = {
    # The paper's method on the continuous task; adversarial mining is
    # ~90% of the trial, search under 1%.
    "cliff-coms": {
        "kind": "experiment",
        "config": {"task": "cliff", "method": "coms", "trials": 1,
                   "budget": 16, "stability_steps": 200},
    },
    # The same trainer at d=24 on 2,048 rows with the acceptance epoch
    # count; the dual-variable blow-up on the discrete task happens here.
    "pwm-coms": {
        "kind": "experiment",
        "config": {"task": "pwm", "method": "coms", "trials": 1,
                   "epochs": 100, "budget": 16, "budgets": "1,2,4,8,16"},
    },
    # Bypasses mining: one-row ascent on a 5-member min ensemble inside
    # candidate search, plus naive ensemble training.
    "cliff-search": {
        "kind": "experiment",
        "config": {"task": "cliff", "method": "grad-min", "trials": 1,
                   "ensemble_size": 5, "budget": 256,
                   "stability_steps": 200, "budgets": "1,4,16,64,256"},
    },
    # The only workload through the acceptance layer.
    "reproduce-fast": {
        "kind": "acceptance",
    },
}


def ops_per_rep(name: str) -> int:
    spec = WORKLOADS[name]
    if spec["kind"] == "acceptance":
        return ACCEPTANCE_CRITERIA
    return spec["config"]["trials"]
