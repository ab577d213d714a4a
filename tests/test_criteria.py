"""The acceptance criteria's own logic, each judge called on stubbed trial
results so that nothing trains, and criterion 1's finite-difference
reference."""
import json
import os

import numpy as np
import pytest

from comopt import acceptance, net
from comopt.harness import (TrialEvaluation, TrialResult, curation_config_from,
                            trainer_config_from)
from comopt.tasks import NormalizationStats, OfflineDataset


def _stub_trial(sweep=None, curve=None, seconds=0.0, mse=0.0):
    return TrialResult(dataset=None, model=None, logs=[[{"mse": mse}]],
                       candidates=None,
                       evaluation=TrialEvaluation(1.0, 0.5, 1.0, 0.5),
                       stability=curve, budget=sweep, seconds=seconds)


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
    monkeypatch.setattr(acceptance, "run_experiment", _identical_runs)
    record = acceptance.criterion_8_protocol(
        [_stub_trial(np.array(s)) for s in sweeps], work_dir=tmp_path)
    assert record["passed"] is (problem is None)
    if problem:
        assert record["detail"] == problem
    assert record["metrics"] == {
        "problems": [problem] if problem else [],
        "files_compared": ["report.json", "training_log.csv",
                           "candidates.csv"]}
    json.dumps(record["metrics"])
    assert train_spy == []


def test_criterion_1_reports_its_worst_error_tolerance_pairs_and_time():
    record = acceptance.criterion_1_gradients([], fast=True)
    metrics = record["metrics"]
    assert set(metrics) == {"max_relative_error", "tolerance", "pairs",
                            "architectures", "elapsed_seconds"}
    assert (metrics["tolerance"], metrics["pairs"],
            metrics["architectures"]) == (acceptance.GRADIENT_TOL, 5, 3)
    assert 0.0 <= metrics["max_relative_error"] <= acceptance.GRADIENT_TOL
    assert 0.0 < metrics["elapsed_seconds"] < 10.0
    assert record["passed"] is True
    assert record["detail"].startswith(
        f"max relative error {metrics['max_relative_error']:.3e} over 5 pairs"
        " x 3 architectures")
    json.dumps(metrics)


@pytest.mark.parametrize("shift, same", [(0.0, True), (1e-300, False)])
def test_criterion_3_reports_its_bitwise_flag(monkeypatch, shift, same):
    # a shift far below one ulp of any nonzero weight still moves a zero bias
    model = net.build_model(2, (4,), rng=np.random.default_rng(0))
    other = model.copy()
    other.params[-1] += shift
    monkeypatch.setattr(acceptance, "train_naive", lambda ds, cfg: (model, []))
    monkeypatch.setattr(acceptance, "_plain_regression", lambda ds, cfg: other)
    record = acceptance.criterion_3_baseline_equivalence([])
    assert record["metrics"] == {"bitwise_identical": same}
    assert record["passed"] is same
    json.dumps(record["metrics"])


@pytest.mark.parametrize("total, passed", [(299.9, True), (300.0, False)])
def test_criterion_4_gates_on_the_sum_of_its_trial_seconds(total, passed):
    jobs = acceptance._stability_jobs()
    curves = {"coms": np.array([0.0, 1.0]),  # coms wins every trial
              "grad-naive": np.array([0.0, -60.0])}  # naive always falls
    record = acceptance.criterion_4_stability([
        _stub_trial(curve=curves[cfg["method"]], seconds=total / len(jobs))
        for cfg, _ in jobs])
    assert list(record["metrics"]["tasks"]) == ["edge", "cliff"]
    gate = record["metrics"]["tasks"][acceptance.STABILITY_TASK]
    assert (gate["wins"], gate["naive_falls"]) == (8, 8)
    assert record["metrics"]["trial_seconds"] == pytest.approx(total)
    assert record["passed"] is passed
    assert record["detail"].startswith(f"{total:.0f}s of trial time (< 300s)")


def test_criterion_4_reports_each_task_exactly():
    # edge: COMs crosses at step 1 in trial 0 only, naive at step 2 always;
    # cliff: COMs never crosses, naive crosses at step 1 in trial 0 only
    curves = {
        ("edge", "coms", 0): [0.0, -55.0, 3.0],
        ("edge", "coms"): [0.0, 1.0, 2.0],
        ("edge", "grad-naive"): [0.0, 0.5, -60.0],
        ("cliff", "coms"): [0.0, 1.0, 2.0],
        ("cliff", "grad-naive", 0): [0.0, -51.0, -52.0],
        ("cliff", "grad-naive"): [0.0, 1.0, 5.0],
    }

    # each surrogate's last-epoch mse: 0.5 for COMs and 0.25 for naive,
    # plus the trial, plus 10 on cliff
    final_mse = {"edge": 0.0, "cliff": 10.0, "coms": 0.5, "grad-naive": 0.25}

    def curve(cfg, trial):
        key = (cfg["task"], cfg["method"])
        return np.array(curves.get((*key, trial), curves[key]))

    record = acceptance.criterion_4_stability([
        _stub_trial(curve=curve(cfg, trial), seconds=0.25,
                    mse=final_mse[cfg["task"]] + final_mse[cfg["method"]]
                    + trial)
        for cfg, trial in acceptance._stability_jobs()])

    def row(trial, coms, naive, task="edge"):
        out = {"trial": trial}
        for name, (final, step), method in (("coms", coms, "coms"),
                                            ("naive", naive, "grad-naive")):
            out.update({f"{name}_final": final,
                        f"{name}_crossed": step is not None,
                        f"{name}_first_cross_step": step,
                        f"{name}_final_mse": final_mse[task]
                        + final_mse[method] + trial})
        return out

    edge = [row(0, (3.0, 1), (-60.0, 2))] + [
        row(t, (2.0, None), (-60.0, 2)) for t in range(1, 8)]
    cliff = [row(0, (2.0, None), (-52.0, 1), "cliff")] + [
        row(t, (2.0, None), (5.0, None), "cliff") for t in range(1, 8)]
    want = {"trial_seconds": 8.0, "tasks": {
        "edge": {"gated": True, "wins": 8, "naive_falls": 8, "coms_falls": 1,
                 "trials": edge},
        "cliff": {"gated": False, "wins": 1, "naive_falls": 1,
                  "coms_falls": 0, "trials": cliff}}}
    assert json.dumps(record["metrics"]) == json.dumps(want)
    assert record["detail"] == (
        "8s of trial time (< 300s). edge (gated): coms beats naive at t=200 "
        "in 8/8 (need >= 7/8); naive fell below -50 in 8/8 (need >= 1); "
        "coms fell below -50 in 1/8. t0: coms 3.0 (crossed at step 1) vs "
        "naive -60.0 (crossed at step 2), "
        + ", ".join(f"t{t}: coms 2.0 vs naive -60.0 (crossed at step 2)"
                    for t in range(1, 8))
        + " | cliff (reported, not gated): coms beats naive at t=200 in 1/8; "
        "naive fell below -50 in 1/8; coms fell below -50 in 0/8. "
        "t0: coms 2.0 vs naive -52.0 (crossed at step 1), "
        + ", ".join(f"t{t}: coms 2.0 vs naive 5.0" for t in range(1, 8)))
    assert record["passed"] is True
    header = ["trial", "method", "step", "true_score"]
    assert list(record["curves"]) == ["edge_stability.csv",
                                      "cliff_stability.csv"]
    for name in ("edge", "cliff"):
        got_header, rows = record["curves"][f"{name}_stability.csv"]
        assert got_header == header
        assert rows == [[t, method, step, score] for t in range(8)
                        for method in ("coms", "grad-naive")
                        for step, score in enumerate(
                            curves.get((name, method, t),
                                       curves[(name, method)]))]


def _dataset(d, best=0.0, discrete=False):
    """Three designs at the origin, scores in raw units up to `best`."""
    stats = NormalizationStats(np.zeros(d), np.ones(d), 0.0, 1.0)
    return OfflineDataset(np.zeros((3, d)), np.array([best - 2, best - 1, best]),
                          stats, discrete)


def test_criterion_2_fixed_alpha_trials_train_like_their_dual_and_search_once():
    jobs = acceptance._conservatism_jobs()
    assert [cfg["task"] for cfg, _ in jobs] == ["cliff", "cliff", "pwm", "pwm"]
    for (fixed, trial), (dual, dual_trial) in zip(jobs[::2], jobs[1::2]):
        assert trial == dual_trial == 0
        assert (fixed["budget"], fixed["stability_steps"], fixed["budgets"]) \
            == (1, 0, "")
        want = trainer_config_from(dual, 0)
        want.alpha_init, want.alpha_lr = 10.0, 0.0
        assert trainer_config_from(fixed, 0) == want
        assert curation_config_from(fixed, 0) == curation_config_from(dual, 0)


def test_criterion_2_reports_its_gaps_per_task(monkeypatch):
    # every mined point moves +1 in each coordinate of a linear net with
    # weights 0.01, so each fixed-alpha gap is 0.01 * d
    # the dual trials' last log rows, as measured on the protocol's trials
    final_rows = {"cliff": {"gap": 0.6, "mse": 0.382, "alpha": 0.087},
                  "pwm": {"gap": -88.0, "mse": 2.749, "alpha": 0.0}}
    runs = []
    for cfg, _ in acceptance._conservatism_jobs():
        d = 24 if cfg["task"] == "pwm" else 8
        model = net.ObjectiveModel([net.DenseLayer(np.full((1, d), 0.01),
                                                   np.zeros(1))])
        runs.append(TrialResult(_dataset(d, discrete=cfg["task"] == "pwm"),
                                model, [[final_rows[cfg["task"]]]],
                                None, None, None, None, 0.0))
    monkeypatch.setattr(acceptance, "_mine_endpoints",
                        lambda model, X, eta, steps: X + 1.0)
    record = acceptance.criterion_2_conservatism(runs)
    tasks = record["metrics"]["tasks"]
    assert list(tasks) == ["cliff", "pwm"]
    # each mined point lies sqrt(d) from its start and predicts 0.01 * d
    assert tasks["cliff"] == {"fixed_alpha_gap": pytest.approx(0.08),
                              "dual_final_gap": 0.6, "dual_gap_bound": 0.75,
                              "dual_final_mse": 0.382,
                              "dual_final_alpha": 0.087,
                              "mined_displacement": pytest.approx(np.sqrt(8)),
                              "mined_max_abs_prediction": pytest.approx(0.08)}
    assert tasks["pwm"] == {"fixed_alpha_gap": pytest.approx(0.24),
                            "dual_final_gap": -88.0, "dual_gap_bound": 2.25,
                            "dual_final_mse": 2.749, "dual_final_alpha": 0.0,
                            "mined_displacement": pytest.approx(np.sqrt(24)),
                            "mined_max_abs_prediction": pytest.approx(0.24)}
    assert record["passed"] is False  # pwm's fixed-alpha gap exceeds 0.1
    assert record["detail"] == (
        "cliff: fixed-alpha gap 0.080 (<= 0.1), dual final gap 0.600 "
        "(<= 0.75); pwm: fixed-alpha gap 0.240 (<= 0.1), dual final gap "
        "-88.000 (<= 2.25)")
    json.dumps(record["metrics"])


def test_criterion_2_passes_a_diverged_mining_vacuously(monkeypatch):
    """Mining that lands every point 1e6 away, where the surrogate predicts
    -3e11, as the pwm trial's does, makes the fixed-alpha gap hugely
    negative, and criterion 2 passes: it bounds the gap from above only.
    This pins that vacuous pass, so the change that bounds how far mining
    may move or how badly the conservative surrogate may fit its data has
    a test to turn into a FAIL."""
    runs = []
    for cfg, _ in acceptance._conservatism_jobs():
        d = 24 if cfg["task"] == "pwm" else 8
        weights = np.zeros((1, d))
        weights[0, 0] = -3e5
        model = net.ObjectiveModel([net.DenseLayer(weights, np.zeros(1))])
        runs.append(TrialResult(
            _dataset(d, discrete=cfg["task"] == "pwm"), model,
            [[{"gap": -88.0, "mse": 2.749, "alpha": 0.0}]],
            None, None, None, None, 0.0))

    def diverge(model, X, eta, steps):
        mined = X.copy()
        mined[:, 0] += 1e6
        return mined

    monkeypatch.setattr(acceptance, "_mine_endpoints", diverge)
    record = acceptance.criterion_2_conservatism(runs)
    for task in ("cliff", "pwm"):
        metrics = record["metrics"]["tasks"][task]
        assert metrics["fixed_alpha_gap"] == -3e11
        assert metrics["mined_displacement"] == 1e6
        assert metrics["mined_max_abs_prediction"] == 3e11
    assert record["passed"] is True
    assert record["detail"].startswith(
        "cliff: fixed-alpha gap -300000000000.000 (<= 0.1)")


def test_criterion_5_reports_ranks_hits_and_beats():
    scores = acceptance.sequence_scores(acceptance.all_sequences(
        acceptance.PWM_LENGTH, acceptance.PWM_ALPHABET))
    top, bottom = float(scores.max()), float(scores.min())
    # (best candidate's true score, best training score) per trial
    trials = [(top + 1.0, top + 2.0), (top, bottom), (bottom - 1.0, bottom - 2.0)]
    record = acceptance.criterion_5_discrete([
        TrialResult(_dataset(24, best), None, [], None,
                    TrialEvaluation(p100, p100, 1.0, 1.0), None, None, 0.0)
        for p100, best in trials])
    rank_cut = int(acceptance.DISCRETE_TOP_FRACTION * len(scores))
    assert record["metrics"] == {"ranks": [0, 0, len(scores)],
                                 "rank_cut": rank_cut, "hits": 2, "beats": 2}
    assert record["passed"] is False  # 2 of 3 is short of 6
    assert record["detail"].endswith(f"ranks [0, 0, {len(scores)}]")
    json.dumps(record["metrics"])


def test_criterion_6_reports_its_curve_target_and_reach():
    task = acceptance.get_task("pwm")

    def raw(normalized):
        return task.y_min + np.array(normalized) * (task.y_max - task.y_min)

    # normalized p100 per budget 1..16; their mean first reaches 95% of its
    # N=16 value, 0.95, at N=4
    sweeps = [[0.4] * 3 + [1.0] * 13, [0.6] * 2 + [0.8] + [1.0] * 13]
    record = acceptance.criterion_6_budget_resilience(
        [_stub_trial(raw(sweep)) for sweep in sweeps])
    metrics = record["metrics"]
    assert metrics["monotone"] is True
    assert metrics["mean_normalized_p100"] == pytest.approx(
        [0.5, 0.5, 0.6] + [1.0] * 13)
    assert metrics["target"] == pytest.approx(0.95)
    assert metrics["reach"] == 4
    assert record["passed"] is True
    json.dumps(metrics)


def test_criterion_7_reports_each_taus_finals_and_mean():
    # trial t at tau ends at 10 * tau + t
    record = acceptance.criterion_7_tau_ordering([
        _stub_trial(curve=np.array([0.0, 10.0 * cfg["tau"] + trial]))
        for cfg, trial in acceptance._tau_jobs()])
    assert record["metrics"] == {"taus": [
        {"tau": tau, "finals": [10.0 * tau + t for t in range(4)],
         "mean": 10.0 * tau + 1.5} for tau in acceptance.TAU_LIST]}
    assert record["passed"] is True
    json.dumps(record["metrics"])


def test_criterion_7_rejects_a_tie():
    # with conservatism switched off every tau trains the same model, so
    # the finals tie exactly; larger tau must end strictly above
    jobs = acceptance._tau_jobs(fast=True)
    record = acceptance.criterion_7_tau_ordering(
        [_stub_trial(curve=np.array([0.0, -0.55])) for _ in jobs], fast=True)
    assert [t["mean"] for t in record["metrics"]["taus"]] == [-0.55, -0.55]
    assert record["passed"] is False
    assert "tau=0.5 mean -0.55 > tau=0.05 mean -0.55: False" in \
        record["detail"]


def _fd_per_copy(loss_fn, model):
    """The finite differences as first written: a fresh copy per entry."""
    h = acceptance.FD_STEP
    out = np.zeros_like(model.params)
    for i in range(out.size):
        m = model.copy()
        m.params[i] += h
        hi = loss_fn(m)
        m.params[i] -= 2 * h
        out[i] = (hi - loss_fn(m)) / (2 * h)
    return out


# criterion 1's losses, each a function of the prediction
FD_LOSSES = [lambda p: p, lambda p: 0.5 * (p - 0.3) ** 2]


@pytest.mark.parametrize("input_dim, hidden", [(3, ()), (5, (8,)),
                                               (8, (16, 16))])
def test_fd_gradients_in_place_equal_a_copy_per_entry(input_dim, hidden):
    rng = np.random.default_rng(7)
    model, x = acceptance._smooth_case(rng, input_dim, hidden)
    before = model.params.tobytes()

    def predict(m):
        return net.forward_batch(m, x[None])[0]

    got = acceptance._fd_param_gradients(predict, model, FD_LOSSES)
    assert model.params.tobytes() == before
    assert got.shape == (2, model.params.size)
    for row, loss in zip(got, FD_LOSSES):
        want = _fd_per_copy(lambda m: loss(predict(m)), model)
        assert row.tobytes() == want.tobytes()


def test_criterion_1_predicts_twice_per_parameter_for_both_losses(
        monkeypatch):
    # per case: one prediction for the squared loss's dloss/dprediction,
    # two per parameter for both losses' differences together, two per
    # input entry for the input gradient's
    smooth_case, forward_batch = acceptance._smooth_case, net.forward_batch
    expected, calls = [], []

    def recorded_case(rng, input_dim, hidden):
        model, x = smooth_case(rng, input_dim, hidden)
        expected.append(1 + 2 * model.params.size + 2 * input_dim)
        return model, x

    def counted(m, X):
        calls.append(len(X))
        return forward_batch(m, X)

    monkeypatch.setattr(acceptance, "_smooth_case", recorded_case)
    monkeypatch.setattr(net, "forward_batch", counted)
    assert acceptance.criterion_1_gradients([], fast=True)["passed"]
    assert calls == [1] * sum(expected)
