"""Output checks and the output digest.

`check_experiment` verifies a `run_experiment` directory independently of
the code that wrote it: it re-scores the raw candidate designs with the
task oracle and requires report.json's budget-N scores to match exactly.
`check_acceptance` verifies an `acceptance.run_all` directory. Both return
the ops that failed (trials or criteria) with the reasons, plus the
design-quality scores the run reported.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _finite_floats(row):
    values = [float(v) for v in row]
    return values if all(math.isfinite(v) for v in values) else None


def check_experiment(out_dir, cfg: dict, task) -> tuple:
    """Returns ({trial: [problem, ...]}, quality). A problem that cannot be
    tied to one trial is filed under every trial."""
    trials, budget = cfg["trials"], cfg["budget"]
    problems = {t: [] for t in range(trials)}

    def fail_all(msg):
        for t in problems:
            problems[t].append(msg)

    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    per_trial = report["per_trial"]
    if len(per_trial) != trials:
        fail_all(f"report.json has {len(per_trial)} trials, expected {trials}")
        return problems, None

    header, body = _read_csv(os.path.join(out_dir, "candidates.csv"))
    d = task.input_dim
    if header != (["trial"] + [f"x{i}" for i in range(d)]
                  + ["provenance", "surrogate_value"]):
        fail_all("candidates.csv header is wrong")
        return problems, None
    if len(body) != trials * budget:
        fail_all(f"candidates.csv has {len(body)} rows, "
                 f"expected {trials} x {budget}")
        return problems, None
    designs = {t: [] for t in range(trials)}
    for row in body:
        t = int(row[0])
        values = _finite_floats(row[1:d + 1] + row[d + 2:])
        if t not in designs:
            fail_all(f"candidates.csv names unknown trial {t}")
            continue
        if values is None:
            problems[t].append("non-finite value in candidates.csv")
            continue
        designs[t].append(values[:d])

    span = task.y_max - task.y_min
    for t, entry in enumerate(per_trial):
        if len(designs[t]) != budget:
            problems[t].append(f"trial {t} has {len(designs[t])} candidates")
            continue
        scores = np.array([task.oracle(np.array(x)) for x in designs[t]])
        p100, p50 = float(scores.max()), float(np.median(scores))
        want = {"score_p100": p100, "score_p50": p50,
                "normalized_p100": (p100 - task.y_min) / span,
                "normalized_p50": (p50 - task.y_min) / span}
        for key, value in want.items():
            if entry[key] != value:
                problems[t].append(f"trial {t} {key}: report {entry[key]!r}, "
                                   f"re-scored {value!r}")
        if not entry["score_p100"] >= entry["score_p50"]:
            problems[t].append(f"trial {t} p100 < p50")

    agg = report["aggregates"]
    for key in ("normalized_p100", "normalized_p50"):
        mean = float(np.array([e[key] for e in per_trial]).mean())
        if agg[key]["mean"] != mean:
            fail_all(f"aggregate {key} mean {agg[key]['mean']!r} != {mean!r}")

    _check_log(out_dir, cfg, problems, fail_all)
    _check_curves(out_dir, cfg, per_trial, problems, fail_all)
    quality = {key: agg[key]["mean"]
               for key in ("normalized_p100", "normalized_p50")}
    return problems, quality


def _check_log(out_dir, cfg, problems, fail_all):
    header, body = _read_csv(os.path.join(out_dir, "training_log.csv"))
    models = cfg["ensemble_size"] if cfg["method"] in ("grad-min", "grad-mean") else 1
    expected = cfg["trials"] * models * cfg["epochs"]
    if len(body) != expected:
        fail_all(f"training_log.csv has {len(body)} rows, expected {expected}")
    mse = header.index("mse")
    for row in body:
        if not math.isfinite(float(row[mse])):
            problems[int(row[0])].append("non-finite training mse")


def _check_curves(out_dir, cfg, per_trial, problems, fail_all):
    trials = cfg["trials"]
    steps = cfg["stability_steps"]
    if steps > 0:
        _, body = _read_csv(os.path.join(out_dir, "curves", "stability.csv"))
        if len(body) != trials * (steps + 1):
            fail_all(f"stability.csv has {len(body)} rows, "
                     f"expected {trials} x {steps + 1}")
        for row in body:
            if _finite_floats(row[2:]) is None:
                problems[int(row[0])].append("non-finite stability score")
    budgets = [int(b) for b in str(cfg["budgets"]).split(",") if b.strip()]
    if budgets:
        _, body = _read_csv(os.path.join(out_dir, "curves", "budget.csv"))
        if len(body) != trials * len(budgets):
            fail_all(f"budget.csv has {len(body)} rows, "
                     f"expected {trials} x {len(budgets)}")
            return
        for t in range(trials):
            rows = [r for r in body if int(r[0]) == t]
            curve = [float(r[2]) for r in rows]
            if [int(r[1]) for r in rows] != budgets:
                problems[t].append(f"trial {t} budget.csv budgets out of order")
            if any(a > b for a, b in zip(curve, curve[1:])):
                problems[t].append(f"trial {t} budget curve not monotone")
            if budgets[-1] == cfg["budget"] and curve[-1] != per_trial[t]["score_p100"]:
                problems[t].append(f"trial {t} full-budget p100 {curve[-1]!r} "
                                   f"!= report {per_trial[t]['score_p100']!r}")


REQUIRED_CRITERIA = (3, 8)


def check_acceptance(out_dir, n_criteria: int) -> tuple:
    """Returns ({criterion id: [problem, ...]}, quality). Every criterion
    must be listed; criteria 3 (bitwise baseline equivalence) and 8
    (same-seed byte identity) must pass. Other FAIL verdicts are results,
    not failed ops. Quality is the report of criterion 8's run_experiment."""
    problems = {k: [] for k in range(1, n_criteria + 1)}
    with open(os.path.join(out_dir, "acceptance.json")) as fh:
        summary = json.load(fh)
    listed = {c["id"]: c for c in summary["criteria"]}
    for k in problems:
        if k not in listed:
            problems[k].append(f"criterion {k} missing from acceptance.json")
        elif k in REQUIRED_CRITERIA and not listed[k]["passed"]:
            problems[k].append(f"criterion {k} failed: {listed[k]['detail']}")
    with open(os.path.join(out_dir, "identity_a", "report.json")) as fh:
        agg = json.load(fh)["aggregates"]
    quality = {key: agg[key]["mean"]
               for key in ("normalized_p100", "normalized_p50")}
    if not quality["normalized_p100"] >= quality["normalized_p50"]:
        problems[8].append("criterion 8 run has p100 < p50")
    return problems, quality


def output_digest(out_dir, kind: str) -> str:
    """sha256 over every deterministic artifact, in sorted path order.
    acceptance.json contributes only each criterion's id, name and verdict,
    because its details and totals carry wall-clock times."""
    h = hashlib.sha256()
    paths = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            paths.append(os.path.relpath(os.path.join(root, name), out_dir))
    for rel in sorted(paths):
        with open(os.path.join(out_dir, rel), "rb") as fh:
            data = fh.read()
        if kind == "acceptance" and rel == "acceptance.json":
            summary = json.loads(data)
            data = json.dumps([[c["id"], c["name"], c["passed"]]
                               for c in summary["criteria"]]).encode()
        h.update(rel.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()
