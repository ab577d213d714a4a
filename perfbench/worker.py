"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --dir DIR
                                   [--trace] [--setup-only]

Times set-up (importing comopt, building the task and parsing the config)
from interpreter start, then the workload's entry call, then checks the
outputs outside the timed region. Writes DIR/rep.json; the entry call's
artifacts go to DIR/out, and with --trace the spans go to DIR/spans.jsonl.gz.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS, ops_per_rep  # noqa: E402


def _setup(name: str, seed: int):
    import comopt.cli  # noqa: F401  (the CLI imports every layer)
    from comopt import harness, tasks

    spec = WORKLOADS[name]
    if spec["kind"] == "acceptance":
        return None, None
    cfg = harness.parse_config(harness.dump_config(
        {**harness.DEFAULT_CONFIG, **spec["config"], "base_seed": seed}))
    return cfg, tasks.get_task(cfg["task"])


def _run(name: str, cfg, out_dir: str, log_path: str) -> None:
    from comopt import acceptance, harness

    if cfg is None:
        with open(log_path, "w") as log, contextlib.redirect_stdout(log):
            acceptance.run_all(out_dir, fast=True)
    else:
        harness.run_experiment(cfg, out_dir)


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _blas() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cfg, task = _setup(args.workload, args.seed)
    rep = {"setup_s": time.perf_counter() - T_START, **_blas()}
    rep_path = os.path.join(args.dir, "rep.json")
    os.makedirs(args.dir, exist_ok=True)
    if args.setup_only:
        with open(rep_path, "w") as fh:
            json.dump(rep, fh)
        return 0

    import checks

    out_dir = os.path.join(args.dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        tracing.install(tracer)
    ops = ops_per_rep(args.workload)
    rep.update(attempted=ops, failed=ops, problems=[])
    error = None
    t0 = time.perf_counter()
    try:
        _run(args.workload, cfg, out_dir, os.path.join(args.dir, "acceptance.log"))
    except Exception:  # a raised exception fails every op of the rep
        error = traceback.format_exc()
    rep["run_s"] = time.perf_counter() - t0
    rep["peak_rss_mb"] = _peak_rss_mb()
    if error is None:
        try:
            if cfg is None:
                problems, quality = checks.check_acceptance(out_dir, ops)
            else:
                problems, quality = checks.check_experiment(out_dir, cfg, task)
        except (OSError, ValueError, KeyError, IndexError):
            error = traceback.format_exc()
    if error is not None:
        rep["problems"].append(error)
    else:
        rep["failed"] = sum(1 for msgs in problems.values() if msgs)
        rep["problems"] = [m for msgs in problems.values() for m in msgs]
        rep["quality"] = quality
        rep["output_sha256"] = checks.output_digest(
            out_dir, "acceptance" if cfg is None else "experiment")
    if tracer is not None:
        rep["layers"] = tracing.layer_metrics(tracer.spans)
        rep["spans"] = len(tracer.spans)
        tracing.write_spans(tracer, os.path.join(args.dir, "spans.jsonl.gz"))
    with open(rep_path, "w") as fh:
        json.dump(rep, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
