"""The acceptance suite: eight end-to-end checks, each printed as one
PASS/FAIL line and collected into acceptance.json. The test suite adds a
ninth, in tests/test_acceptance.py: `comopt reproduce` exits 0 within its
runtime bound.

These are deliberately heavier than unit tests: they train real surrogates
on the synthetic tasks and verify the protocol-level claims (gradient
exactness, conservatism, baseline equivalence, stability separation,
discrete brute-force quality, budget resilience, tau ordering, protocol
invariants) at fixed tolerances. `fast=True` shrinks trial counts for a
smoke pass and is not the acceptance configuration.
"""
from __future__ import annotations

import os
import time

import numpy as np

from . import net
from .baselines import train_naive
from .fileio import write_json, write_rows
from .harness import config_from, monotone, normalized_score, run_experiment, \
    run_trials, submit_trials, tau_jobs, trial_of, worker_pool
from .tasks import CLIFF_PENALTY, PWM_ALPHABET, PWM_LENGTH, CurationConfig, \
    all_sequences, curate_dataset, get_task, sequence_scores, task_names
from .trainer import TrainerConfig, _mine_endpoints

GRADIENT_TOL = 1e-4
FD_STEP = 1e-5  # central-difference step of criterion 1
KINK_MARGIN = 1e-3  # least |pre-activation| of a sampled FD case
CONSERVATISM_GAP_TOL = 0.1
DUAL_GAP_SLACK = 0.25
STABILITY_TRIALS = 8
STABILITY_T_MAX = 200
STABILITY_WIN_COUNT = 7
STABILITY_TASK = "edge"
STABILITY_DIAGNOSTIC_TASKS = ("cliff",)
OFF_MANIFOLD_SCORE = -CLIFF_PENALTY
DISCRETE_TRIALS = 8
DISCRETE_BUDGET = 16
DISCRETE_TOP_FRACTION = 0.05
DISCRETE_HIT_COUNT = 6
DISCRETE_BUDGETS = tuple(range(1, DISCRETE_BUDGET + 1))
BUDGET_RESILIENCE_FRACTION = 0.95
BUDGET_RESILIENCE_AT = 8
TAU_LIST = (0.05, 0.5, 2.0)
TAU_TRIALS = 4

# Desk-scale datasets give the optimizer far fewer weight updates per epoch
# than the full-size protocol (16 batches/epoch here vs hundreds there), so
# the discrete task trains for 100 epochs to reach a comparable step count.
PWM_EPOCHS = 100


def _fd_param_gradients(predict, model, losses):
    """Central differences over every entry of `params` of each scalar
    loss in `losses`, a function of the prediction `predict(model)`: one
    row per loss. One copy of the model is perturbed in place, each entry
    restored before the next one moves, and `predict` runs twice per entry
    for all the losses together."""
    m = model.copy()
    params = m.params
    out = np.zeros((len(losses), params.size))
    for i in range(params.size):
        saved = params[i]
        params[i] += FD_STEP
        hi = predict(m)
        params[i] -= 2 * FD_STEP
        lo = predict(m)
        params[i] = saved
        for k, loss in enumerate(losses):
            out[k, i] = (loss(hi) - loss(lo)) / (2 * FD_STEP)
    return out


def _fd_gradient(fn, x):
    """Central differences of a scalar function of a vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += FD_STEP
        xm[i] -= FD_STEP
        g[i] = (fn(xp) - fn(xm)) / (2 * FD_STEP)
    return g


def _smooth_case(rng, input_dim, hidden):
    """Draw a (model, input) pair, with standard normal biases, whose
    pre-activations sit away from the activation kink, so the net is
    exactly linear inside the FD stencil."""
    for _ in range(500):
        model = net.build_model(input_dim, hidden, rng=rng)
        for lyr in model.layers:
            lyr.bias[:] = rng.normal(size=lyr.fan_out)
        x = rng.normal(size=input_dim)
        pres, _, _ = net._hidden_pass(model, x[None, :])
        if all(np.min(np.abs(p)) > KINK_MARGIN for p in pres):
            return model, x
    raise RuntimeError("could not sample a kink-free case")


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-3, np.maximum(np.abs(a), np.abs(b)))


def criterion_1_gradients(runs, fast=False):
    """Backprop vs central finite differences on random models and inputs:
    parameter gradients, and input gradients both from a hidden pass and
    through the `net.GradientPlan` that ascent steps on."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    architectures = [(3, ()), (5, (8,)), (8, (16, 16))]
    pairs = 5 if fast else 20
    worst = 0.0

    def f(m, v):
        return net.forward_batch(m, v[None])[0]

    for input_dim, hidden in architectures:
        for _ in range(pairs):
            model, x = _smooth_case(rng, input_dim, hidden)
            target = float(rng.normal())
            # dloss/dprediction and the loss of a prediction, for a linear
            # and a squared-error loss
            grads = [[1.0], [f(model, x) - target]]
            losses = [lambda p: p, lambda p: 0.5 * (p - target) ** 2]
            wants = _fd_param_gradients(lambda m: f(m, x), model, losses)
            for g, want in zip(grads, wants):
                got = net.loss_gradients(model, x[None, :], g)
                worst = max(worst, _rel_err(got, want).max())
            fd = _fd_gradient(lambda v: f(model, v), x)
            for gi in (net.input_gradient_batch(model, x[None]),
                       net.GradientPlan(model, 1).input_grad_batch(x[None])):
                worst = max(worst, _rel_err(gi[0], fd).max())
    elapsed = time.monotonic() - t0
    passed = worst <= GRADIENT_TOL and elapsed < 10.0
    return {
        "id": 1,
        "name": "gradient correctness",
        "passed": bool(passed),
        "detail": (f"max relative error {worst:.3e} over "
                   f"{pairs} pairs x {len(architectures)} architectures "
                   f"(tol {GRADIENT_TOL:.0e}), time limit 10s"),
        "metrics": {"max_relative_error": float(worst),
                    "tolerance": GRADIENT_TOL, "pairs": pairs,
                    "architectures": len(architectures),
                    "elapsed_seconds": elapsed},
    }


def _conservatism_jobs(fast=False):
    """Criterion 2's (fixed large alpha, dual) trial pairs. The dual trials
    take the shape of criterion 4's cliff trial and of the discrete trial
    of criteria 5, 6 and 8, which they equal, so each runs once. Only the
    model and dataset of a fixed-alpha trial are read, so it searches one
    candidate and runs no sweep."""
    duals = [_stability_config("cliff", 4 if fast else 50)]
    if not fast:
        duals.append(_pwm_config())
    return [trial_of(cfg, 0) for dual in duals
            for cfg in ({**dual, "alpha_init": 10.0, "alpha_lr": 0.0,
                         "budget": 1, "stability_steps": 0, "budgets": ""},
                        dual)]


def criterion_2_conservatism(runs, fast=False):
    """Fixed large alpha must push the mined-vs-data prediction gap to at
    most 0.1; the dual variant must end with gap <= tau + 0.25. Also
    reports, ungated, how far the fixed-alpha check's mining moved (mean
    ||x_T - x_0|| in normalised units), its largest |prediction| there,
    and the dual trial's last-epoch `mse` and alpha."""
    details = []
    per_task = {}
    passed = True
    for fixed, dual in zip(runs[::2], runs[1::2]):
        model, designs = fixed.model, fixed.dataset.designs
        mined = _mine_endpoints(model, designs, dual.trial.trainer.ascent_rate,
                                dual.trial.trainer.mining_steps)
        preds_mined = net.forward_batch(model, mined)
        gap = float(preds_mined.mean() - net.forward_batch(model, designs).mean())
        final = dual.logs[0][-1]
        bound = dual.trial.trainer.tau + DUAL_GAP_SLACK
        ok = gap <= CONSERVATISM_GAP_TOL and final["gap"] <= bound
        passed = passed and ok
        displacement = np.linalg.norm(mined - designs, axis=1).mean()
        per_task[dual.trial.task] = {
            "fixed_alpha_gap": gap, "dual_final_gap": final["gap"],
            "dual_gap_bound": bound, "dual_final_mse": final["mse"],
            "dual_final_alpha": final["alpha"],
            "mined_displacement": float(displacement),
            "mined_max_abs_prediction": float(np.abs(preds_mined).max())}
        details.append(f"{dual.trial.task}: fixed-alpha gap {gap:.3f} (<= 0.1), "
                       f"dual final gap {final['gap']:.3f} (<= {bound:.2f})")
    return {
        "id": 2,
        "name": "conservatism",
        "passed": bool(passed),
        "detail": "; ".join(details),
        "metrics": {"tasks": per_task},
    }


def _plain_regression(dataset, config):
    """Supervised regression written out independently of `train`: the
    same seeded init, shuffles and Adam steps on 0.5 * MSE, no mining."""
    rng = np.random.default_rng(config.seed)
    model = net.build_model(dataset.input_dim, config.hidden, rng=rng)
    adam = net.init_adam(model, config.adam_lr)
    for _ in range(config.epochs):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            idx = order[start:start + config.batch_size]
            Xb, yb = dataset.designs[idx], dataset.scores[idx]
            preds = net.forward_batch(model, Xb)
            net.adam_step(adam, model, net.loss_gradients(
                model, Xb, (preds - yb) / len(idx)))
    return model


def criterion_3_baseline_equivalence(runs, fast=False):
    """The naive baseline, which pins alpha at zero in the conservative
    trainer, must reproduce plain supervised regression bitwise."""
    task = get_task("cliff")
    dataset = curate_dataset(task, CurationConfig(500, 50.0, seed=0))
    cfg = TrainerConfig(seed=0, epochs=5, hidden=(16, 16))
    naive, _ = train_naive(dataset, cfg)
    plain = _plain_regression(dataset, cfg)
    same = naive.params.tobytes() == plain.params.tobytes()
    return {
        "id": 3,
        "name": "baseline equivalence",
        "passed": bool(same),
        "detail": "alpha==0 trainer and naive baseline parameters are "
                  + ("bitwise identical" if same else "DIFFERENT"),
        "metrics": {"bitwise_identical": bool(same)},
    }


def _first_crossing(curve):
    """First ascent step whose true score falls below the off-manifold
    penalty level, or None if the curve never does."""
    below = np.flatnonzero(curve < OFF_MANIFOLD_SCORE)
    return int(below[0]) if below.size else None


def _stability_config(task_name, epochs):
    """A COMs trial read only for its curve, so it searches one candidate."""
    return config_from({"task": task_name, "epochs": epochs, "budget": 1,
                        "stability_steps": STABILITY_T_MAX})


# Criterion 4's methods, by the name its rows give them.
_STABILITY_METHODS = {"coms": "coms", "naive": "grad-naive"}


def _stability_jobs(fast=False):
    """Criterion 4's trials, task by task: each trial's COMs run, then its
    naive one."""
    trials = 2 if fast else STABILITY_TRIALS
    tasks = (STABILITY_TASK,) if fast else (STABILITY_TASK,
                                            *STABILITY_DIAGNOSTIC_TASKS)
    return [trial_of({**_stability_config(name, 4 if fast else 50),
                      "method": method}, k)
            for name in tasks for k in range(trials)
            for method in _STABILITY_METHODS.values()]


def _stability_task(name, runs):
    """One task's record from its runs of `_stability_jobs`: its `metrics`
    entry (each trial's finals, penalty crossings and last-epoch `mse` of
    COMs vs naive ascent from the best dataset design, and the counts), its
    detail text and the (header, rows) of its curves."""
    gated = name == STABILITY_TASK
    rows, texts, curve_rows = [], [], []
    for trial, pair in enumerate(zip(runs[::2], runs[1::2])):
        row = {"trial": trial}
        finals = []
        for label, run in zip(_STABILITY_METHODS, pair):
            curve = run.stability
            step = _first_crossing(curve)
            row[f"{label}_final"] = float(curve[-1])
            row[f"{label}_crossed"] = step is not None
            row[f"{label}_first_cross_step"] = step
            row[f"{label}_final_mse"] = run.logs[0][-1]["mse"]
            crossed = "" if step is None else f" (crossed at step {step})"
            finals.append(f"{label} {row[f'{label}_final']:.1f}{crossed}")
            curve_rows.extend([trial, run.trial.method, t, score]
                              for t, score in enumerate(curve))
        rows.append(row)
        texts.append(f"t{trial}: " + " vs ".join(finals))
    entry = {"gated": gated,
             "wins": sum(r["coms_final"] > r["naive_final"] for r in rows),
             "naive_falls": sum(r["naive_crossed"] for r in rows),
             "coms_falls": sum(r["coms_crossed"] for r in rows),
             "trials": rows}
    n = len(rows)
    need_wins = (f" (need >= {STABILITY_WIN_COUNT}/{STABILITY_TRIALS})"
                 if gated else "")
    need_fall = " (need >= 1)" if gated else ""
    role = "gated" if gated else "reported, not gated"
    detail = (f"{name} ({role}): coms beats naive at t={STABILITY_T_MAX} in "
              f"{entry['wins']}/{n}{need_wins}; naive fell below "
              f"{OFF_MANIFOLD_SCORE:.0f} in "
              f"{entry['naive_falls']}/{n}{need_fall}; coms fell below "
              f"{OFF_MANIFOLD_SCORE:.0f} in {entry['coms_falls']}/{n}. "
              + ", ".join(texts))
    return entry, detail, (["trial", "method", "step", "true_score"],
                           curve_rows)


def criterion_4_stability(runs, fast=False):
    """Long-horizon ascent (t=200, four times the trained 50-step horizon)
    from the best dataset design. Gated on the `edge` task, whose withheld
    optimum lies on the penalty boundary, so naive ascent can overshoot it:
    the conservative surrogate must end with a higher true score than the
    naive one in >= 7 of 8 trials, and the naive curve must cross the
    off-manifold penalty at least once. Full mode also runs `cliff` as a
    reported, ungated row: its curated data surrounds the optimum, so the
    precondition cannot hold there. Each method's finals and first crossing
    step are reported per task and trial in `metrics`, including COMs' own
    crossings past its trained horizon. Its trials' own `seconds` must sum
    to under 300 s, so waiting for a worker does not count."""
    per_task, details, curves = {}, [], {}
    for name in dict.fromkeys(run.trial.task for run in runs):
        per_task[name], detail, curves[f"{name}_stability.csv"] = \
            _stability_task(name, [r for r in runs if r.trial.task == name])
        details.append(detail)
    gate = per_task[STABILITY_TASK]
    trial_seconds = sum(run.seconds for run in runs)
    passed = (gate["wins"] >= STABILITY_WIN_COUNT and gate["naive_falls"] >= 1
              and trial_seconds < 300.0)
    return {
        "id": 4,
        "name": "stability separation",
        "passed": bool(passed),
        "detail": "trial time limit 300s. " + " | ".join(details),
        "metrics": {"trial_seconds": trial_seconds, "tasks": per_task},
        "curves": curves,
    }


def _pwm_config(fast=False):
    """The discrete trial of criteria 5, 6 and 8: budget-16 search with the
    budget sweep over 1..16."""
    return config_from({"task": "pwm", "epochs": 6 if fast else PWM_EPOCHS,
                        "budget": DISCRETE_BUDGET,
                        "budgets": ",".join(map(str, DISCRETE_BUDGETS))})


def _pwm_jobs(fast=False):
    """The discrete trials of criteria 5, 6 and 8."""
    return [trial_of(_pwm_config(fast), k)
            for k in range(2 if fast else DISCRETE_TRIALS)]


def criterion_5_discrete(runs, fast=False):
    """Brute-force check on the enumerable sequence task: the best decoded
    candidate must rank in the true top 5% of all sequences and strictly
    beat the best visible training sequence, each in >= 6 of 8 trials."""
    scores = sequence_scores(all_sequences(PWM_LENGTH, PWM_ALPHABET))
    rank_cut = int(DISCRETE_TOP_FRACTION * len(scores))
    ranks = [int((scores > run.evaluation.score_p100).sum()) for run in runs]
    hits = sum(rank < rank_cut for rank in ranks)
    beats = sum(run.evaluation.score_p100 > float(run.dataset.raw_scores().max())
                for run in runs)
    need = DISCRETE_HIT_COUNT
    passed = hits >= need and beats >= need
    return {
        "id": 5,
        "name": "discrete brute force",
        "passed": bool(passed),
        "detail": (f"best candidate in true top {DISCRETE_TOP_FRACTION:.0%} "
                   f"(rank < {rank_cut} of {len(scores)}) in {hits}/{len(runs)} "
                   f"trials, beats best training sequence in {beats}/{len(runs)} "
                   f"(each needs >= {need}/8); ranks {ranks}"),
        "metrics": {"ranks": ranks, "rank_cut": rank_cut, "hits": hits,
                    "beats": beats},
    }


def criterion_6_budget_resilience(runs, fast=False):
    """Per-trial budget sweeps must be monotone, and the mean normalized
    p100 must reach 95% of its N=16 value at some N <= 8."""
    task = get_task("pwm")
    rising = all(monotone(run.budget) for run in runs)
    mean_curve = np.mean([[normalized_score(task, v) for v in run.budget]
                          for run in runs], axis=0)
    target = BUDGET_RESILIENCE_FRACTION * mean_curve[-1]
    reach = next((b for b, v in zip(DISCRETE_BUDGETS, mean_curve)
                  if v >= target), None)
    passed = rising and reach is not None and reach <= BUDGET_RESILIENCE_AT
    return {
        "id": 6,
        "name": "budget resilience",
        "passed": bool(passed),
        "detail": (f"sweeps monotone: {rising}; mean normalized p100 reaches "
                   f"{BUDGET_RESILIENCE_FRACTION:.0%} of its N={DISCRETE_BUDGET} "
                   f"value ({mean_curve[-1]:.3f}) at N={reach} "
                   f"(need <= {BUDGET_RESILIENCE_AT})"),
        "metrics": {"monotone": rising,
                    "mean_normalized_p100": mean_curve.tolist(),
                    "target": float(target), "reach": reach},
        "curves": {"pwm_budget.csv": (["budget", "mean_normalized_p100"],
                                      list(zip(DISCRETE_BUDGETS, mean_curve)))},
    }


def _tau_jobs(fast=False):
    """Criterion 7's tau sweeps, trial by trial."""
    cfg = config_from({"task": "cliff", "epochs": 4 if fast else 50})
    return [trial for k in range(1 if fast else TAU_TRIALS)
            for trial in tau_jobs(cfg, k, TAU_LIST[:2] if fast else TAU_LIST,
                                  STABILITY_T_MAX)]


def criterion_7_tau_ordering(runs, fast=False):
    """More conservatism slack (larger tau) must end strictly above the most
    conservative setting on the cliff task, averaged over trials; a tie,
    which every tau gives when conservatism is switched off, fails."""
    finals = {}
    for run in runs:
        finals.setdefault(run.trial.trainer.tau, []).append(
            float(run.stability[-1]))
    trials = len(runs) // len(finals)
    means = {tau: float(np.mean(values)) for tau, values in finals.items()}
    lo, hi = min(finals), max(finals)
    passed = means[hi] > means[lo]
    return {
        "id": 7,
        "name": "tau ordering",
        "passed": bool(passed),
        "detail": (f"final true score over {trials} trials: tau={hi} mean "
                   f"{means[hi]:.2f} > tau={lo} mean {means[lo]:.2f}: "
                   f"{passed}"),
        "metrics": {"taus": [{"tau": tau, "finals": finals[tau],
                              "mean": means[tau]} for tau in finals]},
        "curves": {"cliff_tau_finals.csv": (
            ["tau", "trial", "final_true_score"],
            [[tau, trial, v] for tau, values in finals.items()
             for trial, v in enumerate(values)])},
    }


def criterion_8_protocol(runs, fast=False, *, work_dir):
    """p100 >= p50 everywhere, monotone budget sweeps, exact normalization
    endpoints, and byte-identical same-seed reruns written under `work_dir`."""
    problems = []
    # normalized oracle optimum is exactly 1.0 on every task
    for name in task_names():
        task = get_task(name)
        if normalized_score(task, task.y_max) != 1.0:
            problems.append(f"{name} optimum does not normalize to 1.0")
    # p100 >= p50 and monotone budget sweeps on the discrete trials
    for run in runs:
        if run.evaluation.score_p100 < run.evaluation.score_p50:
            problems.append("p100 < p50 in a discrete trial")
        if not monotone(run.budget):
            problems.append("budget sweep not monotone in a discrete trial")
    # same-seed byte identity of a full experiment run
    config = ("task = bowl\nmethod = coms\ntrials = 1\nn_raw = 120\n"
              "budget = 4\nepochs = 2\nbatch_size = 32\nmining_steps = 3\n"
              "hidden = 8\n")
    run_a = os.path.join(work_dir, "identity_a")
    run_b = os.path.join(work_dir, "identity_b")
    run_experiment(config, run_a)
    run_experiment(config, run_b)
    compared = ("report.json", "training_log.csv", "candidates.csv")
    for fname in compared:
        with open(os.path.join(run_a, fname), "rb") as fa, \
                open(os.path.join(run_b, fname), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{fname} differs between same-seed runs")
    passed = not problems
    return {
        "id": 8,
        "name": "protocol invariants",
        "passed": bool(passed),
        "detail": "all protocol invariants hold" if passed
                  else "; ".join(problems),
        "metrics": {"problems": problems, "files_compared": list(compared)},
    }


CRITERIA = (
    criterion_1_gradients,
    criterion_2_conservatism,
    criterion_3_baseline_equivalence,
    criterion_4_stability,
    criterion_5_discrete,
    criterion_6_budget_resilience,
    criterion_7_tau_ordering,
    criterion_8_protocol,
)

# The trial list of each criterion that reads trials, by criterion id; each
# criterion is the judge of its list's `TrialResult`s, in order. The
# lists queue in this order, so each criterion waits only for the trials
# queued up to its own, and criterion 2 checks its trials while the rest
# are still training, not with every result held in memory.
JOBS = {2: _conservatism_jobs, 4: _stability_jobs, 5: _pwm_jobs,
        6: _pwm_jobs, 7: _tau_jobs, 8: _pwm_jobs}


def run_all(out_dir, fast=False) -> dict:
    """Run every acceptance criterion, print one PASS/FAIL line each, and
    write acceptance.json, with each criterion's wall `seconds`, plus the
    desk-scale ablation curves each criterion returns under `curves` (file
    name -> header, rows). `run_all` builds each distinct list of `JOBS`
    once, and each criterion reads what it needs of a trial from its
    result's `trial`. All the trials are queued on one `worker_pool` as it
    opens, before criterion 1, so the workers start while criterion 1 runs
    and each criterion waits only for its own trials. With no pool open
    they run in this process, each when `run_all` collects that
    criterion's trials."""
    os.makedirs(os.path.join(out_dir, "curves"), exist_ok=True)
    lists = {make: make(fast) for make in JOBS.values()}
    memo: dict = {}  # runs each distinct trial of `lists` once
    results = []
    t0 = time.monotonic()
    with worker_pool():
        submit_trials([t for trials in lists.values() for t in trials], memo)
        for k, crit in enumerate(CRITERIA, 1):
            start = time.monotonic()
            runs = run_trials(lists[JOBS[k]], memo) if k in JOBS else []
            if crit is criterion_8_protocol:
                record = crit(runs, fast, work_dir=out_dir)
            else:
                record = crit(runs, fast)
            record["seconds"] = time.monotonic() - start
            status = "PASS" if record["passed"] else "FAIL"
            print(f"criterion {record['id']} ({record['name']}): {status} "
                  f"- {record['detail']}", flush=True)
            for name, (header, rows) in record.pop("curves", {}).items():
                write_rows(os.path.join(out_dir, "curves", name), header,
                           rows)
            results.append(record)
    total = time.monotonic() - t0
    all_passed = all(r["passed"] for r in results)
    summary = {
        "fast": bool(fast),
        "criteria": results,
        "total_seconds": total,
        "all_passed": all_passed,
    }
    write_json(os.path.join(out_dir, "acceptance.json"), summary)
    print(f"acceptance: {'ALL PASS' if all_passed else 'FAILURES PRESENT'} "
          f"({sum(r['passed'] for r in results)}/{len(results)} criteria, "
          f"{total:.0f}s)", flush=True)
    return summary
