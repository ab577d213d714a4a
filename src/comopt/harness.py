"""Evaluation protocol and run orchestration.

Budget-N evaluation scores the N candidate designs a method proposes with
the withheld oracle and reports the max (100th percentile) and median
(50th percentile), raw and normalized by the task's withheld score range.
Stability, tau, and budget sweeps reproduce the corresponding ablation
curves at desk scale. `run_trial` is the one trial pipeline (curate ->
train -> optimize -> evaluate -> sweeps). `run_trials` runs each distinct
trial once per memo, queued on the pool of an open `worker_pool`,
otherwise in this process. `run_experiment` runs every trial of a flat
key=value config file into a reproducible run directory.
"""
from __future__ import annotations

import contextlib
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .baselines import train_ensemble, train_naive
from .fileio import write_json, write_rows
from .optimizer import (CandidateSet, ascend, candidate_table,
                        produce_candidates, select_initializations)
from .tasks import (CurationConfig, OfflineDataset, TaskSpec, curate_dataset,
                    get_task, oracle_eval_batch, task_names)
from .trainer import TrainerConfig, train, write_training_log


def _one(result):
    model, log = result
    return model, [log]


# Every method's trainer, called as (dataset, config, ensemble_size); each
# returns the surrogate with one training log per network it trained.
METHODS = {
    "coms": lambda data, config, size: _one(train(data, config)),
    "grad-naive": lambda data, config, size: _one(train_naive(data, config)),
    "grad-min": train_ensemble,
}


class InvariantViolation(AssertionError):
    """A protocol invariant (p100 >= p50, monotone budgets, ...) failed."""


def normalized_score(task: TaskSpec, y: float) -> float:
    """(y - y_min) / (y_max - y_min) using the task's withheld score range;
    the oracle optimum maps to exactly 1.0."""
    return (y - task.y_min) / (task.y_max - task.y_min)


@dataclass
class TrialEvaluation:
    """Budget-N scores for one trial."""

    score_p100: float
    score_p50: float
    normalized_p100: float
    normalized_p50: float

    def validate(self) -> None:
        if self.score_p100 < self.score_p50:
            raise InvariantViolation("p100 must be >= p50")


def _top_scores(candidates: CandidateSet, task: TaskSpec, n: int) -> np.ndarray:
    """Oracle scores of the n candidates the surrogate rates highest, best
    first (ties keep row order): the designs a budget of n would evaluate."""
    if n < 1:
        raise ValueError("budget must be >= 1")
    if n > len(candidates):
        raise ValueError(f"budget {n} exceeds candidate set of {len(candidates)}")
    order = np.argsort(-candidates.surrogate_values, kind="stable")[:n]
    return oracle_eval_batch(task, candidates.designs[order])


def evaluate_budget(candidates: CandidateSet, task: TaskSpec, n: int) -> TrialEvaluation:
    """Score the n candidates the surrogate ranks highest with the true
    oracle; p100 is their max, p50 the median (midpoint convention for even
    counts)."""
    scores = _top_scores(candidates, task, n)
    p100 = float(scores.max())
    p50 = float(np.median(scores))
    ev = TrialEvaluation(p100, p50, normalized_score(task, p100),
                         normalized_score(task, p50))
    ev.validate()
    return ev


def stability_sweep(model, task: TaskSpec, dataset: OfflineDataset,
                    eta: float, t_max: int) -> np.ndarray:
    """Ascend from the dataset's best design for t_max steps (deliberately
    past the trained horizon) and return the withheld oracle's score of
    every iterate, steps 0..t_max."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    x0 = dataset.designs[select_initializations(dataset, 1)]
    path = ascend(model, x0, eta, t_max, record=True)[:, 0]
    return oracle_eval_batch(task, dataset.stats.denormalize_x(path))


def budget_sweep(candidates: CandidateSet, task: TaskSpec, budgets) -> np.ndarray:
    """p100 as a function of budget over nested prefixes of the candidates
    ranked by surrogate value (descending); monotone by construction."""
    budgets = [int(b) for b in budgets]
    if not budgets:
        raise ValueError("budgets must list at least one budget")
    if min(budgets) < 1 or max(budgets) > len(candidates):
        raise ValueError("budgets must lie in [1, candidate count]")
    running_max = np.maximum.accumulate(
        _top_scores(candidates, task, max(budgets)))
    return np.array([running_max[b - 1] for b in budgets])


def monotone(curve) -> bool:
    """Whether no point of `curve` lies more than 1e-12 below the one before."""
    return all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))


def tau_jobs(cfg: dict, k: int, taus, t_max: int) -> list:
    """Trial k of `cfg` at each distinct tau of `tau_sweep`, in order;
    every tau is checked here, and blank entries of `taus` are skipped.
    Only the curve is kept, so each trial searches a single candidate."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    try:
        values = [float(t) for t in taus if str(t).strip()]
    except ValueError:
        raise ValueError("taus must be comma-separated numbers, got "
                         f"{','.join(map(str, taus))!r}") from None
    if not values:
        raise ValueError("taus must list at least one tau")
    return [trial_of(config_from({**cfg, "tau": tau, "stability_steps": t_max,
                                  "budget": 1, "budgets": ""}), k)
            for tau in dict.fromkeys(values)]


def tau_sweep(cfg: dict, k: int, taus, t_max: int) -> dict:
    """Trial k's t_max-step stability curve per distinct tau of
    `tau_jobs`, keyed by tau. Every tau is checked before the first
    training."""
    return {run.trial.trainer.tau: run.stability
            for run in run_trials(tau_jobs(cfg, k, taus, t_max))}


DEFAULT_CONFIG = {
    "task": "cliff",
    "method": "coms",
    "trials": 8,
    "base_seed": 0,
    "n_raw": 2000,
    "keep_percentile": 50.0,
    "budget": 16,
    "epochs": 50,
    "batch_size": 128,
    "mining_steps": 50,
    "ascent_rate": "auto",
    "adam_lr": 1e-3,
    "tau": "auto",
    "alpha_lr": 0.01,
    "alpha_init": 0.0,
    "hidden": "64,64",
    "ensemble_size": 5,
    "stability_steps": 0,
    "budgets": "",
}

def parse_config(text: str) -> dict:
    """Parse a flat key=value config file and check it with `config_from`;
    unknown and repeated keys are errors."""
    values, repeated = {}, []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {line!r} (expected key=value)")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            repeated.append(key)
        values[key] = val
    # Unknown keys are reported first, by `config_from`.
    if repeated and set(values) <= set(DEFAULT_CONFIG):
        raise ValueError("duplicate config keys: "
                         + ", ".join(sorted(set(repeated))))
    return config_from(values)


def typed(key: str, value, kind=int, wanted=None):
    """`value` as `kind`, or a ValueError that names `key`."""
    try:
        return kind(value)
    except ValueError:
        wanted = wanted or ("an integer" if kind is int else "a number")
        raise ValueError(f"{key} must be {wanted}, got {value!r}") from None


def config_from(values: dict) -> dict:
    """The config a dict of values sets, checked and typed with each value
    read as the text of its line in a config file; unknown keys are
    errors and a missing key takes its default."""
    unknown = sorted(set(values) - set(DEFAULT_CONFIG))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(DEFAULT_CONFIG)
    cfg.update((key, str(value).strip()) for key, value in values.items())
    # Each key takes the type of its default; "auto" keys hold a float or "auto".
    for key, default in DEFAULT_CONFIG.items():
        if default == "auto" and cfg[key] != "auto":
            cfg[key] = typed(key, cfg[key], float, "a number or 'auto'")
        elif isinstance(default, (int, float)):
            cfg[key] = typed(key, cfg[key], type(default))
    if cfg["method"] not in METHODS:
        raise ValueError(f"unknown method {cfg['method']!r}; "
                         f"choose from {tuple(METHODS)}")
    if cfg["task"] not in task_names():
        raise ValueError(f"unknown task {cfg['task']!r}; choose from {task_names()}")
    for key in ("trials", "budget", "ensemble_size"):
        if cfg[key] < 1:
            raise ValueError(f"{key} must be >= 1")
    for key in ("base_seed", "stability_steps"):
        if cfg[key] < 0:
            raise ValueError(f"{key} must be >= 0")
    if any(b < 1 or b > cfg["budget"] for b in int_list(cfg, "budgets")):
        raise ValueError("budgets must lie in [1, budget]")
    trial = trial_of(cfg, 0)
    trial.curation.validate()
    trial.trainer.validate()
    return cfg


def int_list(cfg: dict, key: str) -> list:
    """The comma-separated integers of a list-valued config key."""
    try:
        return [int(v) for v in str(cfg[key]).split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"{key} must be comma-separated integers, "
                         f"got {cfg[key]!r}") from None


def dump_config(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def trainer_config_from(cfg: dict, seed: int) -> TrainerConfig:
    return TrainerConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        mining_steps=cfg["mining_steps"],
        ascent_rate=None if cfg["ascent_rate"] == "auto" else cfg["ascent_rate"],
        adam_lr=cfg["adam_lr"],
        seed=seed,
        tau=None if cfg["tau"] == "auto" else cfg["tau"],
        alpha_lr=cfg["alpha_lr"],
        alpha_init=cfg["alpha_init"],
        hidden=tuple(int_list(cfg, "hidden")),
    )


@dataclass(frozen=True)
class Trial:
    """All that one trial of the protocol reads, at the trial's seed. Its
    memo key is `repr(trial)`: `==` would merge `alpha_init = -0.0` with
    `0.0`, which need not train alike."""

    task: str
    method: str
    ensemble_size: int
    curation: CurationConfig
    trainer: TrainerConfig
    budget: int
    stability_steps: int
    budgets: tuple


def trial_of(cfg: dict, k: int) -> Trial:
    """Trial k of a checked config, at seed `base_seed + k`, with the
    trainer's step size and tau resolved, so "auto" and the task's default
    are one trial."""
    seed = cfg["base_seed"] + k
    task = get_task(cfg["task"])
    tcfg = trainer_config_from(cfg, seed)
    return Trial(cfg["task"], cfg["method"], cfg["ensemble_size"],
                 CurationConfig(cfg["n_raw"], cfg["keep_percentile"], seed),
                 replace(tcfg, ascent_rate=tcfg.resolved_eta(task),
                         tau=tcfg.resolved_tau(task)),
                 cfg["budget"], cfg["stability_steps"],
                 tuple(int_list(cfg, "budgets")))


_BLAS_ENV = "OPENBLAS_NUM_THREADS"
_pool = None  # the executor of the open `worker_pool`
# A spawned worker imports comopt afresh and trains with this code. A
# replacement of `train` made in this process (a profiler's or tracer's
# wrapper, a test's spy) would not see the trainings the workers run, so no
# pool opens while `train` is replaced. The code object is kept, not the
# function: a tool that rebinds every module-level name bound to `train`
# would rebind a kept function too.
_TRAIN_CODE = train.__code__


@contextlib.contextmanager
def worker_pool():
    """Hold a process pool of `min(2, os.cpu_count())` spawned workers open
    for `run_trials` while the block runs. As the block ends, also on an
    exception, stop the pool once its running trials finish, so no worker
    outlives the block; a dead worker raises ChildProcessError here. Yields
    the pool, or None when no pool opens: inside an open pool, on one core,
    or while `train` is replaced in this process. Each worker runs one BLAS
    thread, since two workers already fill two cores. They start at the
    first submitted job, not here, so OPENBLAS_NUM_THREADS=1 stays in the
    environment for the whole block; this process loaded its BLAS before, so
    only the workers see it. The caller's value is restored at the end."""
    global _pool
    count = min(2, os.cpu_count() or 1)
    if _pool is not None or count < 2 or train.__code__ is not _TRAIN_CODE:
        yield _pool
        return
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    _pool = ProcessPoolExecutor(count, mp_context=get_context("spawn"))
    saved = os.environ.get(_BLAS_ENV)
    os.environ[_BLAS_ENV] = "1"
    try:
        yield _pool
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a pool worker died: {exc}") from exc
    finally:
        _pool.shutdown(cancel_futures=True)
        _pool = None
        if saved is None:
            del os.environ[_BLAS_ENV]
        else:
            os.environ[_BLAS_ENV] = saved


@dataclass
class TrialResult:
    """What `trial` produced; `stability` and `budget` are None unless it
    asks for those sweeps. `seconds` is the trial's own wall time, curation
    through sweeps, in the process that ran it."""

    trial: Trial
    dataset: OfflineDataset
    model: object
    logs: list
    candidates: CandidateSet
    evaluation: TrialEvaluation
    stability: np.ndarray | None
    budget: np.ndarray | None
    seconds: float


def run_trial(trial: Trial) -> TrialResult:
    """Curate the trial's dataset, train its method on it, ascend to
    `budget` candidates at the trainer's step size and score them with the
    oracle; then the stability sweep when `stability_steps` > 0 and the
    budget sweep over `budgets` when it lists any."""
    start = time.monotonic()
    task, tcfg = get_task(trial.task), trial.trainer
    dataset = curate_dataset(task, trial.curation)
    model, logs = METHODS[trial.method](dataset, tcfg, trial.ensemble_size)
    eta, steps, budgets = tcfg.ascent_rate, trial.stability_steps, trial.budgets
    candidates = produce_candidates(model, dataset, trial.budget, eta,
                                    tcfg.mining_steps)
    return TrialResult(
        trial, dataset, model, logs, candidates,
        evaluate_budget(candidates, task, trial.budget),
        stability_sweep(model, task, dataset, eta, steps) if steps else None,
        budget_sweep(candidates, task, budgets) if budgets else None,
        time.monotonic() - start)  # read last: arguments run in order


def submit_trials(trials, memo: dict) -> None:
    """Queue every `Trial` in `trials` that `memo` lacks on the open
    `worker_pool`, in order, and return at once; the memo keeps each
    trial's future under its `repr`. Does nothing with no pool open."""
    if _pool is None:
        return
    for trial in trials:
        if repr(trial) not in memo:
            memo[repr(trial)] = _pool.submit(run_trial, trial)


def run_trials(trials, memo: dict | None = None) -> list:
    """The `TrialResult` of each `Trial` in the list `trials`, in order,
    each distinct trial run once per `memo`; do not mutate the results.
    `submit_trials` queues the missing ones on an open `worker_pool`; a
    trial still missing then runs in this process. The memo maps a trial's
    `repr` to its result, or to the future of a trial still queued. A
    pooled trial's exception is raised here; leaving the `worker_pool`
    block stops the pool and turns a dead worker's BrokenProcessPool into
    ChildProcessError."""
    memo = {} if memo is None else memo
    submit_trials(trials, memo)
    results = []
    for trial in trials:
        key = repr(trial)
        if key not in memo:
            memo[key] = run_trial(trial)
        elif not isinstance(memo[key], TrialResult):
            memo[key] = memo[key].result()
        results.append(memo[key])
    return results


def run_experiment(config, out_dir) -> dict:
    """`run_trials` for every trial, on a `worker_pool` opened when there
    are two or more; write the run directory (config copy, report.json,
    training_log.csv, candidates.csv, curves/*.csv) and return what
    report.json holds: each trial's budget-N scores and their mean and std
    across trials. Fully reproducible from config + base seed."""
    cfg = config_from(config) if isinstance(config, dict) else parse_config(str(config))
    os.makedirs(out_dir, exist_ok=True)
    task = get_task(cfg["task"])

    with worker_pool() if cfg["trials"] > 1 else contextlib.nullcontext():
        results = run_trials([trial_of(cfg, k) for k in range(cfg["trials"])])
    per_trial, candidate_rows, stability_rows, budget_rows = [], [], [], []
    for trial, result in enumerate(results):
        candidate_header, rows = candidate_table(result.candidates)
        candidate_rows.extend([trial, *row] for row in rows)
        per_trial.append(asdict(result.evaluation))
        if result.stability is not None:
            stability_rows.extend((trial, step, score) for step, score
                                  in enumerate(result.stability))
        if result.budget is not None:
            budget_rows.extend(
                (trial, b, p, normalized_score(task, p))
                for b, p in zip(result.trial.budgets, result.budget))

    write_training_log(os.path.join(out_dir, "training_log.csv"),
                       [r.logs for r in results], range(len(results)))
    write_rows(os.path.join(out_dir, "candidates.csv"),
               ["trial"] + candidate_header, candidate_rows)
    aggregates = {}
    for key in per_trial[0]:
        values = np.array([trial[key] for trial in per_trial])
        aggregates[key] = {"mean": float(values.mean()),
                           "std": float(values.std())}
    report = {"method": cfg["method"], "task": cfg["task"],
              "budget": cfg["budget"], "n_trials": len(per_trial),
              "per_trial": per_trial, "aggregates": aggregates}
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(dump_config(cfg))
    write_json(os.path.join(out_dir, "report.json"), report)
    curves_dir = os.path.join(out_dir, "curves")
    for name, header, rows in (
            ("stability.csv", ["trial", "step", "true_score"], stability_rows),
            ("budget.csv", ["trial", "budget", "p100", "normalized_p100"],
             budget_rows)):
        if rows:
            os.makedirs(curves_dir, exist_ok=True)
            write_rows(os.path.join(curves_dir, name), header, rows)
    return report
