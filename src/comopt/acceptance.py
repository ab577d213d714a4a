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

import json
import os
import time

import numpy as np

from . import net
from .baselines import train_naive
from .fileio import write_rows
from .harness import config_from, normalized_score, run_experiment, \
    run_trials, submit_trials, tau_jobs, trainer_config_from, worker_pool
from .tasks import CurationConfig, all_sequences, curate_dataset, get_task, \
    sequence_scores
from .trainer import TrainerConfig, _mine_endpoints

GRADIENT_TOL = 1e-4
CONSERVATISM_GAP_TOL = 0.1
DUAL_GAP_SLACK = 0.25
STABILITY_TRIALS = 8
STABILITY_T_MAX = 200
STABILITY_WIN_COUNT = 7
STABILITY_TASK = "edge"
STABILITY_DIAGNOSTIC_TASKS = ("cliff",)
OFF_MANIFOLD_SCORE = -50.0
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


def _fd_param_gradients(loss_fn, model, h=1e-5):
    """Central differences of a scalar loss over every entry of `params`,
    perturbing one copy of the model in place; each entry is restored
    before the next one moves."""
    m = model.copy()
    params = m.params
    out = np.zeros_like(params)
    for i in range(out.size):
        saved = params[i]
        params[i] += h
        hi = loss_fn(m)
        params[i] -= 2 * h
        out[i] = (hi - loss_fn(m)) / (2 * h)
        params[i] = saved
    return out


def _fd_gradient(fn, x, h=1e-5):
    """Central differences of a scalar function of a vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def _smooth_case(rng, input_dim, hidden, margin=1e-3):
    """Draw a (model, input) pair whose pre-activations sit away from the
    activation kink, so the net is exactly linear inside the FD stencil."""
    for _ in range(500):
        model = net.build_model(input_dim, hidden, rng=rng)
        x = rng.normal(size=input_dim)
        pres, _, _ = net._hidden_pass(model, x[None, :])
        if all(np.min(np.abs(p)) > margin for p in pres):
            return model, x
    raise RuntimeError("could not sample a kink-free case")


def _rel_err(a, b):
    return np.abs(a - b) / np.maximum(1e-3, np.maximum(np.abs(a), np.abs(b)))


def criterion_1_gradients(memo, fast=False):
    """Backprop vs central finite differences on random models and inputs."""
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
            # (dloss/dprediction, loss) for a linear and a squared-error loss
            cases = [
                ([1.0], lambda m: f(m, x)),
                ([f(model, x) - target],
                 lambda m: 0.5 * (f(m, x) - target) ** 2),
            ]
            for g, loss_fn in cases:
                got = net.loss_gradients(model, x[None, :], g)
                want = _fd_param_gradients(loss_fn, model)
                worst = max(worst, _rel_err(got, want).max())
            gi = net.input_gradient_batch(model, x[None])[0]
            fd = _fd_gradient(lambda v: f(model, v), x)
            worst = max(worst, _rel_err(gi, fd).max())
    elapsed = time.monotonic() - t0
    passed = worst <= GRADIENT_TOL and elapsed < 10.0
    return {
        "id": 1,
        "name": "gradient correctness",
        "passed": bool(passed),
        "detail": (f"max relative error {worst:.3e} over "
                   f"{pairs} pairs x {len(architectures)} architectures "
                   f"(tol {GRADIENT_TOL:.0e}), {elapsed:.1f}s (< 10s)"),
    }


def _conservatism_jobs(fast=False):
    """Criterion 2's (fixed large alpha, dual) job pairs. The dual trials
    take the shape of criterion 4's cliff trial and of the discrete trial
    of criteria 5, 6 and 8, which they equal, so each runs once."""
    duals = [_stability_config("cliff", 4 if fast else 50)]
    if not fast:
        duals.append(_pwm_config())
    return [(cfg, 0) for dual in duals
            for cfg in ({**dual, "alpha_init": 10.0, "alpha_lr": 0.0}, dual)]


def criterion_2_conservatism(memo, fast=False):
    """Fixed large alpha must push the mined-vs-data prediction gap to at
    most 0.1; the dual variant must end with gap <= tau + 0.25."""
    jobs = _conservatism_jobs(fast)
    runs = run_trials(jobs, memo)
    details = []
    passed = True
    for (dual, _), fixed, dual_run in zip(jobs[1::2], runs[::2], runs[1::2]):
        tcfg = trainer_config_from(dual, dual["base_seed"])
        model, designs = fixed.model, fixed.dataset.designs
        mined = _mine_endpoints(model, designs, tcfg.resolved_eta(fixed.dataset),
                                tcfg.mining_steps)
        gap = float(net.forward_batch(model, mined).mean()
                    - net.forward_batch(model, designs).mean())
        final_gap = dual_run.logs[0][-1]["gap"]
        tau = tcfg.resolved_tau(dual_run.dataset)
        ok = gap <= CONSERVATISM_GAP_TOL and final_gap <= tau + DUAL_GAP_SLACK
        passed = passed and ok
        details.append(f"{dual['task']}: fixed-alpha gap {gap:.3f} (<= 0.1), "
                       f"dual final gap {final_gap:.3f} (<= {tau + DUAL_GAP_SLACK:.2f})")
    return {
        "id": 2,
        "name": "conservatism",
        "passed": bool(passed),
        "detail": "; ".join(details),
    }


def _plain_regression(dataset, config):
    """Supervised regression written out independently of `train`: the
    same seeded init, shuffles and Adam steps on 0.5 * MSE, no mining."""
    rng = np.random.default_rng(config.seed)
    model = net.build_model(dataset.input_dim, config.hidden, config.leak,
                            rng=rng)
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


def criterion_3_baseline_equivalence(memo, fast=False):
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
    """Criterion 4's jobs per task: each trial's COMs job, then its naive
    one."""
    trials = 2 if fast else STABILITY_TRIALS
    tasks = (STABILITY_TASK,) if fast else (STABILITY_TASK,
                                            *STABILITY_DIAGNOSTIC_TASKS)
    return {name: [({**_stability_config(name, 4 if fast else 50),
                     "method": method}, trial)
                   for trial in range(trials)
                   for method in _STABILITY_METHODS.values()]
            for name in tasks}


def _stability_trials(memo, jobs):
    """Per-trial finals and penalty crossings of COMs vs naive ascent from
    the best dataset design, the (header, rows) of their curves, and the
    sum of their trial seconds, for one task's `_stability_jobs`."""
    runs = run_trials(jobs, memo)
    curves = iter(run.stability for run in runs)
    rows = []
    curve_rows = []
    for trial in range(len(jobs) // len(_STABILITY_METHODS)):
        row = {"trial": trial}
        for name, method in _STABILITY_METHODS.items():
            curve = next(curves)
            step = _first_crossing(curve)
            row[f"{name}_final"] = float(curve[-1])
            row[f"{name}_crossed"] = step is not None
            row[f"{name}_first_cross_step"] = step
            curve_rows.extend([trial, method, t, score]
                              for t, score in enumerate(curve))
        rows.append(row)
    return (rows, (["trial", "method", "step", "true_score"], curve_rows),
            sum(run.seconds for run in runs))


def _stability_summary(rows):
    return {
        "wins": sum(r["coms_final"] > r["naive_final"] for r in rows),
        "naive_falls": sum(r["naive_crossed"] for r in rows),
        "coms_falls": sum(r["coms_crossed"] for r in rows),
        "trials": rows,
    }


def _stability_detail(name, gated, summary):
    n = len(summary["trials"])
    need_wins = need_fall = ""
    if gated:
        need_wins = f" (need >= {STABILITY_WIN_COUNT}/{STABILITY_TRIALS})"
        need_fall = " (need >= 1)"

    def final(r, method):
        step = r[f"{method}_first_cross_step"]
        crossed = "" if step is None else f" (crossed at step {step})"
        return f"{method} {r[f'{method}_final']:.1f}{crossed}"

    trials = ", ".join(
        f"t{r['trial']}: {final(r, 'coms')} vs {final(r, 'naive')}"
        for r in summary["trials"])
    role = "gated" if gated else "reported, not gated"
    return (f"{name} ({role}): coms beats naive at t={STABILITY_T_MAX} in "
            f"{summary['wins']}/{n}{need_wins}; naive fell below "
            f"{OFF_MANIFOLD_SCORE:.0f} in "
            f"{summary['naive_falls']}/{n}{need_fall}; coms fell below "
            f"{OFF_MANIFOLD_SCORE:.0f} in {summary['coms_falls']}/{n}. "
            f"{trials}")


def criterion_4_stability(memo, fast=False):
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
    per_task = {}
    details = []
    curves = {}
    trial_seconds = 0.0
    for name, jobs in _stability_jobs(fast).items():
        rows, curves[f"{name}_stability.csv"], seconds = _stability_trials(
            memo, jobs)
        trial_seconds += seconds
        gated = name == STABILITY_TASK
        summary = _stability_summary(rows)
        per_task[name] = {"gated": gated, **summary}
        details.append(_stability_detail(name, gated, summary))
    gate = per_task[STABILITY_TASK]
    passed = (gate["wins"] >= STABILITY_WIN_COUNT and gate["naive_falls"] >= 1
              and trial_seconds < 300.0)
    return {
        "id": 4,
        "name": "stability separation",
        "passed": bool(passed),
        "detail": (f"{trial_seconds:.0f}s of trial time (< 300s). "
                   + " | ".join(details)),
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
    return [(_pwm_config(fast), trial)
            for trial in range(2 if fast else DISCRETE_TRIALS)]


def _pwm_trials(memo, fast=False):
    """The discrete trials of criteria 5, 6 and 8; the memo runs each once."""
    return run_trials(_pwm_jobs(fast), memo)


def criterion_5_discrete(memo, fast=False):
    """Brute-force check on the enumerable sequence task: the best decoded
    candidate must rank in the true top 5% of all sequences and strictly
    beat the best visible training sequence, each in >= 6 of 8 trials."""
    task = get_task("pwm")
    scores = sequence_scores(task, all_sequences(*task.raw_shape))
    runs = _pwm_trials(memo, fast)
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
    }


def _monotone(sweep):
    return all(a <= b + 1e-12 for a, b in zip(sweep, sweep[1:]))


def criterion_6_budget_resilience(memo, fast=False):
    """Per-trial budget sweeps must be monotone, and the mean normalized
    p100 must reach 95% of its N=16 value at some N <= 8."""
    task = get_task("pwm")
    runs = _pwm_trials(memo, fast)
    monotone = all(_monotone(run.budget) for run in runs)
    mean_curve = np.mean([[normalized_score(task, v) for v in run.budget]
                          for run in runs], axis=0)
    target = BUDGET_RESILIENCE_FRACTION * mean_curve[-1]
    reach = next((b for b, v in zip(DISCRETE_BUDGETS, mean_curve)
                  if v >= target), None)
    passed = monotone and reach is not None and reach <= BUDGET_RESILIENCE_AT
    return {
        "id": 6,
        "name": "budget resilience",
        "passed": bool(passed),
        "detail": (f"sweeps monotone: {monotone}; mean normalized p100 reaches "
                   f"{BUDGET_RESILIENCE_FRACTION:.0%} of its N={DISCRETE_BUDGET} "
                   f"value ({mean_curve[-1]:.3f}) at N={reach} "
                   f"(need <= {BUDGET_RESILIENCE_AT})"),
        "curves": {"pwm_budget.csv": (["budget", "mean_normalized_p100"],
                                      list(zip(DISCRETE_BUDGETS, mean_curve)))},
    }


def _tau_jobs(fast=False):
    """Criterion 7's tau sweeps, trial by trial."""
    cfg = config_from({"task": "cliff", "epochs": 4 if fast else 50})
    return [job for trial in range(1 if fast else TAU_TRIALS)
            for job in tau_jobs(cfg, trial, TAU_LIST[:2] if fast else TAU_LIST,
                                STABILITY_T_MAX)]


def criterion_7_tau_ordering(memo, fast=False):
    """More conservatism slack (larger tau) must not end below the most
    conservative setting on the cliff task, averaged over trials."""
    jobs = _tau_jobs(fast)
    finals = {}
    for (cfg, _), run in zip(jobs, run_trials(jobs, memo)):
        finals.setdefault(cfg["tau"], []).append(float(run.stability[-1]))
    trials = len(jobs) // len(finals)
    lo, hi = min(finals), max(finals)
    lo_mean = float(np.mean(finals[lo]))
    hi_mean = float(np.mean(finals[hi]))
    passed = hi_mean >= lo_mean
    return {
        "id": 7,
        "name": "tau ordering",
        "passed": bool(passed),
        "detail": (f"final true score over {trials} trials: tau={hi} mean "
                   f"{hi_mean:.2f} >= tau={lo} mean {lo_mean:.2f}: {passed}"),
        "curves": {"cliff_tau_finals.csv": (
            ["tau", "trial", "final_true_score"],
            [[tau, trial, v] for tau, values in finals.items()
             for trial, v in enumerate(values)])},
    }


def criterion_8_protocol(memo, fast=False, work_dir=None):
    """p100 >= p50 everywhere, monotone budget sweeps, exact normalization
    endpoints, and byte-identical same-seed reruns."""
    problems = []
    # normalized oracle optimum is exactly 1.0 on every task
    for name in ("bowl", "cliff", "edge", "pwm"):
        task = get_task(name)
        if normalized_score(task, task.y_max) != 1.0:
            problems.append(f"{name} optimum does not normalize to 1.0")
    # p100 >= p50 and monotone budget sweeps on the discrete trials
    for run in _pwm_trials(memo, fast):
        if run.evaluation.score_p100 < run.evaluation.score_p50:
            problems.append("p100 < p50 in a discrete trial")
        if not _monotone(run.budget):
            problems.append("budget sweep not monotone in a discrete trial")
    # same-seed byte identity of a full experiment run
    config = ("task = bowl\nmethod = coms\ntrials = 1\nn_raw = 120\n"
              "budget = 4\nepochs = 2\nbatch_size = 32\nmining_steps = 3\n"
              "hidden = 8\n")
    base = work_dir or "."
    run_a = os.path.join(base, "identity_a")
    run_b = os.path.join(base, "identity_b")
    run_experiment(config, run_a)
    run_experiment(config, run_b)
    for fname in ("report.json", "training_log.csv", "candidates.csv"):
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


def _queued_jobs(fast=False):
    """Every trial the criteria read, in the order they first read them:
    criterion 2's, 4's, the discrete trials of 5, 6 and 8, then 7's. Each
    criterion then waits only for the trials queued up to its own, and
    criterion 2 checks its trials while the rest are still training, not
    with every result held in memory."""
    return [*_conservatism_jobs(fast),
            *(job for jobs in _stability_jobs(fast).values() for job in jobs),
            *_pwm_jobs(fast), *_tau_jobs(fast)]


def run_all(out_dir, fast=False) -> dict:
    """Run every acceptance criterion, print one PASS/FAIL line each, and
    write acceptance.json, with each criterion's wall `seconds`, plus the
    desk-scale ablation curves each criterion returns under `curves` (file
    name -> header, rows). The criteria's trials are all queued on one
    `worker_pool` as it opens, before criterion 1, so the workers start
    while criterion 1 runs and each criterion waits only for its own
    trials. With no pool open they run in this process, each when a
    criterion first reads it."""
    os.makedirs(os.path.join(out_dir, "curves"), exist_ok=True)
    memo: dict = {}  # the trial memo every criterion passes to `run_trials`
    results = []
    t0 = time.monotonic()
    with worker_pool():
        submit_trials(_queued_jobs(fast), memo)
        for crit in CRITERIA:
            start = time.monotonic()
            if crit is criterion_8_protocol:
                record = crit(memo, fast, work_dir=out_dir)
            else:
                record = crit(memo, fast)
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
    with open(os.path.join(out_dir, "acceptance.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"acceptance: {'ALL PASS' if all_passed else 'FAILURES PRESENT'} "
          f"({sum(r['passed'] for r in results)}/{len(results)} criteria, "
          f"{total:.0f}s)", flush=True)
    return summary
