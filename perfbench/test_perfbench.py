"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import kernels  # noqa: E402
import tracing  # noqa: E402

TINY = {"task": "bowl", "method": "coms", "trials": 2, "n_raw": 120,
        "budget": 4, "epochs": 2, "batch_size": 32, "mining_steps": 3,
        "hidden": "8", "stability_steps": 5, "budgets": "1,2,4"}


def span(name, start, end, parent=-1, info=None):
    return [name, start, end, parent, info]


def test_self_time_subtracts_children():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0), span("c", 4.0, 6.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 2.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("a", 0.0, 10.0), span("b", 1.0, 3.0, 0),
             span("c", 2.0, 5.0, 0), span("d", 8.0, 12.0, 0),
             span("e", 11.0, 13.0, 0)]
    # children cover [1, 5] and [8, 10]
    assert tracing.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_ignores_grandchildren():
    spans = [span("a", 0.0, 10.0), span("b", 2.0, 8.0, 0),
             span("c", 3.0, 7.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 4.0])


def test_tracer_records_parents_and_closes_on_error():
    tracer = tracing.Tracer("t")

    def boom():
        raise RuntimeError

    inner = tracer.wrap("inner", boom)

    def outer():
        with pytest.raises(RuntimeError):
            inner()
        return 7

    assert tracer.wrap("outer", outer)() == 7
    (o_name, o_start, o_end, o_parent, _), (i_name, i_start, i_end, i_parent, _) = tracer.spans
    assert (o_name, o_parent, i_name, i_parent) == ("outer", -1, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def test_kernel_counts_by_hand():
    shapes = ((64, 8), (64, 64), (1, 64))
    fwd = (2 * 8 * 64 + 64 + 2 * 64) + (2 * 64 * 64 + 64 + 2 * 64) + (2 * 64 + 1)
    assert kernels.per_row("forward", shapes)[0] == fwd
    grad = fwd + 2 * (64 * 8 + 64 * 64 + 64) + 2 * (64 + 64)
    assert kernels.per_row("input_grad", shapes)[0] == grad
    assert kernels.weight_bytes(((1, 3),)) == 8 * 4
    with pytest.raises(ValueError):
        kernels.per_row("matmul", shapes)


def test_layer_metrics_conditions_on_ancestors():
    spans = [
        span("acceptance.run_all", 0.0, 10.0),
        span("trainer.train", 1.0, 5.0, 0, "k1"),
        span("trainer._mine_endpoints", 1.5, 4.5, 1, 128),
        span("net.adam_step", 4.5, 4.6, 1),
        span("trainer.train", 5.0, 9.0, 0, "k1"),
        span("trainer._mine_endpoints", 9.5, 9.7, 0, 10),
    ]
    m = tracing.layer_metrics(spans)
    assert m["trainer.train_s"] == pytest.approx(8.0)
    assert m["trainer.mine_s"] == pytest.approx(3.2)
    assert m["trainer.mine_share"] == pytest.approx(3.0 / 8.0)
    assert m["trainer.mine_rows"] == 138
    assert m["trainer.batches"] == 1
    assert m["trainer.self_s"] == pytest.approx(8.0 - 3.1)
    assert (m["acceptance.train_calls"], m["acceptance.distinct_trainings"]) == (2, 1)
    assert m["acceptance.useful_train_ratio"] == pytest.approx(0.5)


def test_traced_run_matches_untraced_and_lists_every_metric(tmp_path):
    from comopt import acceptance, harness, trainer

    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    harness.run_experiment(TINY, plain_dir)
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    assert harness.train is trainer.train
    assert acceptance._mine_endpoints is trainer._mine_endpoints
    assert all(c.__wrapped__ for c in acceptance.CRITERIA)
    harness.run_experiment(TINY, traced_dir)

    assert (checks.output_digest(plain_dir, "experiment")
            == checks.output_digest(traced_dir, "experiment"))
    names = {s[0] for s in tracer.spans}
    assert {"harness.run_experiment", "trainer.train", "net.input_gradient_batch",
            "optimizer.produce_candidates", "tasks.curate_dataset"} <= names
    parents = {(s[0], tracer.spans[s[3]][0]) for s in tracer.spans if s[3] >= 0}
    assert ("trainer.train", "harness.run_experiment") in parents
    m = tracing.layer_metrics(tracer.spans)
    assert m["trainer.train_calls"] == 2
    assert m["optimizer.candidates"] == 8
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {x["name"] for x in json.load(fh)["per_layer"]}
    added_by_run = {"harness.normalized_p100", "harness.normalized_p50",
                    "trace_overhead_frac"}
    assert listed == set(m) | added_by_run


def test_experiment_checks_pass_then_catch_a_changed_score(tmp_path):
    from comopt import harness, tasks

    cfg = harness.parse_config(harness.dump_config({**harness.DEFAULT_CONFIG, **TINY}))
    task = tasks.get_task("bowl")
    harness.run_experiment(cfg, tmp_path)
    problems, quality = checks.check_experiment(tmp_path, cfg, task)
    assert all(not msgs for msgs in problems.values())
    assert quality["normalized_p100"] >= quality["normalized_p50"]
    digest = checks.output_digest(tmp_path, "experiment")

    path = tmp_path / "report.json"
    report = json.loads(path.read_text())
    report["per_trial"][1]["score_p100"] += 1e-9
    path.write_text(json.dumps(report))
    problems, _ = checks.check_experiment(tmp_path, cfg, task)
    assert not problems[0] and problems[1]
    assert checks.output_digest(tmp_path, "experiment") != digest
