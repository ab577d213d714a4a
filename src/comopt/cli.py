"""Command-line interface.

Subcommands mirror the pipeline stages: curate a dataset, train a surrogate,
optimize designs against it, evaluate candidates with the withheld oracle,
run the sweep ablations, and `reproduce` the full acceptance suite. Every
command exits 0 only if its invariant checks pass.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import acceptance
from .fileio import load_surrogate, save_surrogate, write_json, write_rows
from .harness import (DEFAULT_CONFIG, METHODS, InvariantViolation,
                      budget_sweep, config_from, evaluate_budget, int_list,
                      monotone, normalized_score, run_experiment,
                      stability_sweep, tau_sweep, trainer_config_from,
                      trial_of, typed, worker_pool)
from .optimizer import produce_candidates, read_candidates, write_candidates
from .tasks import (curate_dataset, get_task, read_dataset, task_names,
                    write_dataset)
from .trainer import (CONTINUOUS_ETA_SCALE, CONTINUOUS_TAU, DISCRETE_ETA_SCALE,
                      DISCRETE_TAU, TrainingError, write_training_log)


# The trainer's config keys, which `train` and `sweep-tau` take as flags.
_TRAINER_KEYS = ("epochs", "batch_size", "mining_steps", "ascent_rate",
                 "adam_lr", "tau", "alpha_lr", "alpha_init", "hidden",
                 "base_seed")
_FLAG_HELP = {
    "mining_steps": "ascent steps T shared by mining and optimization",
    "ascent_rate": f"eta; 'auto' uses {CONTINUOUS_ETA_SCALE}*sqrt(d) cont., "
                   f"{DISCRETE_ETA_SCALE}*sqrt(d) disc.",
    "tau": f"conservatism threshold; 'auto' is {CONTINUOUS_TAU} cont., "
           f"{DISCRETE_TAU} disc.",
}


def _add_config_flags(p: argparse.ArgumentParser, keys) -> None:
    """A flag for each config key, `--seed` for base_seed, defaulting to the
    key's default. No argparse type: a value given on the command line stays
    text until `_config` types and checks it as a config file's would be."""
    for key in keys:
        flag = "--seed" if key == "base_seed" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, default=DEFAULT_CONFIG[key],
                       help=_FLAG_HELP.get(key))


def _config(args) -> dict:
    """The flags named after config keys, checked and typed by the same
    mapping as a `comopt run` config file."""
    return config_from({key: value for key, value in vars(args).items()
                        if key in DEFAULT_CONFIG})


def cmd_curate(args) -> int:
    cfg = _config(args)
    task = get_task(cfg["task"])
    dataset = curate_dataset(task, trial_of(cfg, 0).curation)
    dataset.validate()
    if dataset.raw_scores().max() >= task.y_max:
        raise InvariantViolation("curated dataset should leave headroom")
    write_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} designs to {args.out} "
          f"(best y {dataset.raw_scores().max():.4f}, "
          f"withheld max {task.y_max:.4f})")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    dataset = read_dataset(args.data)
    config = trainer_config_from(cfg, cfg["base_seed"])
    model, logs = METHODS[cfg["method"]](dataset, config, cfg["ensemble_size"])
    save_surrogate(model, args.out_model)
    if args.log:
        write_training_log(args.log, [logs])
    final = logs[0][-1]
    print(f"trained {cfg['method']}: final mse {final['mse']:.4f}, "
          f"gap {final['gap']:.4f}, alpha {final['alpha']:.4f}")
    return 0


def cmd_optimize(args) -> int:
    cfg = _config(args)
    dataset = read_dataset(args.data)
    model = load_surrogate(args.model)
    config = trainer_config_from(cfg, 0)
    eta = config.resolved_eta(dataset)
    candidates = produce_candidates(model, dataset, cfg["budget"], eta,
                                    config.mining_steps)
    if len(candidates) != cfg["budget"]:
        raise InvariantViolation("candidate count must equal the budget")
    write_candidates(candidates, args.out)
    print(f"wrote {len(candidates)} candidates to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    budget = None if args.budget is None else typed("budget", args.budget)
    task = get_task(args.task)
    candidates = read_candidates(args.candidates)
    n = len(candidates) if budget is None else budget
    ev = evaluate_budget(candidates, task, n)
    result = {"task": args.task, "budget": n, **asdict(ev)}
    if args.out:
        write_json(args.out, result)
    print(json.dumps(result, indent=2))
    return 0


def cmd_stability(args) -> int:
    cfg = _config(args)
    t_max = typed("t_max", args.t_max)
    task = get_task(cfg["task"])
    dataset = read_dataset(args.data)
    model = load_surrogate(args.model)
    config = trainer_config_from(cfg, 0)
    curve = stability_sweep(model, task, dataset,
                            config.resolved_eta(dataset), t_max)
    if len(curve) != t_max + 1:
        raise InvariantViolation("stability curve length must be t_max + 1")
    write_rows(args.out, ["step", "true_score"], enumerate(curve))
    print(f"wrote stability curve ({t_max + 1} steps) to {args.out}")
    return 0


def cmd_sweep_tau(args) -> int:
    with worker_pool():
        curves = tau_sweep(_config(args), 0, args.taus.split(","),
                           typed("t_max", args.t_max))
    os.makedirs(args.out_dir, exist_ok=True)
    for tau, curve in curves.items():
        write_rows(os.path.join(args.out_dir, f"stability_tau_{tau}.csv"),
                   ["step", "true_score"], enumerate(curve))
    print(f"wrote {len(curves)} tau curves to {args.out_dir}")
    return 0


def cmd_sweep_budget(args) -> int:
    task = get_task(args.task)
    budgets = int_list({"budgets": args.budgets}, "budgets")
    candidates = read_candidates(args.candidates)
    sweep = budget_sweep(candidates, task, budgets)
    if not monotone([p for _, p in sorted(zip(budgets, sweep))]):
        raise InvariantViolation("budget sweep must be monotone non-decreasing")
    write_rows(args.out, ["budget", "p100", "normalized_p100"],
               ([b, p, normalized_score(task, p)] for b, p in zip(budgets, sweep)))
    print(f"wrote budget sweep to {args.out}")
    return 0


def cmd_run(args) -> int:
    with open(args.config) as fh:
        text = fh.read()
    report = run_experiment(text, args.out)
    p100 = report["aggregates"]["normalized_p100"]
    print(f"{report['method']} on {report['task']}: normalized p100 "
          f"{p100['mean']:.4f} +/- {p100['std']:.4f} over "
          f"{report['n_trials']} trials -> {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    results = acceptance.run_all(args.out, fast=args.fast)
    return 0 if all(r["passed"] for r in results["criteria"]) else 1


def build_parser() -> argparse.ArgumentParser:
    # No parser accepts abbreviated flags: `--tau` must not silently select
    # `--taus`, nor `--ensemble` select `--ensemble-size`.
    parser = argparse.ArgumentParser(
        prog="comopt",
        description="Conservative surrogate training and design optimization",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, **kwargs):
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = command("curate", help="build an offline dataset from a task")
    p.add_argument("--task", required=True, choices=task_names())
    _add_config_flags(p, ["n_raw", "keep_percentile", "base_seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curate)

    p = command("train", help="train a surrogate on a dataset CSV")
    p.add_argument("--data", required=True)
    _add_config_flags(p, ["method", "ensemble_size", *_TRAINER_KEYS])
    p.add_argument("--out-model", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_train)

    p = command("optimize", help="produce budget-N candidates")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    _add_config_flags(p, ["budget", "mining_steps", "ascent_rate"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = command("evaluate", help="score candidates with the oracle")
    p.add_argument("--candidates", required=True)
    p.add_argument("--task", required=True, choices=task_names())
    p.add_argument("--budget")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = command("stability", help="true-score curve along the ascent")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", required=True, choices=task_names())
    p.add_argument("--t-max", default=200)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ["ascent_rate"])
    p.set_defaults(func=cmd_stability)

    p = command("sweep-tau", help="stability curves across tau values")
    p.add_argument("--task", required=True, choices=task_names())
    p.add_argument("--taus", required=True, help="comma-separated tau values")
    p.add_argument("--t-max", default=200)
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, ["n_raw", "keep_percentile",
                          *(key for key in _TRAINER_KEYS if key != "tau")])
    p.set_defaults(func=cmd_sweep_tau)

    p = command("sweep-budget", help="p100 as a function of budget")
    p.add_argument("--candidates", required=True)
    p.add_argument("--task", required=True, choices=task_names())
    p.add_argument("--budgets", default="1,2,4,8,16")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_budget)

    p = command("run", help="full experiment from a key=value config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = command("reproduce", help="run the full acceptance suite")
    p.add_argument("--out", default="reproduce_out")
    p.add_argument("--fast", action="store_true",
                   help="reduced trial counts for a quick smoke pass")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InvariantViolation, OSError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
