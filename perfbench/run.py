"""comopt benchmark: run one workload (or all), check its outputs, and
print every metric by name with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload cliff-coms --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Load model: a closed loop with one client, run as a batch job. Each
repetition is a fresh interpreter (perfbench/worker.py) that makes one
entry call into comopt's public API in a single process; the next starts
only after the previous one ends.

--trace 0 measures the end-to-end metrics with tracing off. It first
starts SETUP_PROBES interpreters that only set up, then repeats the entry
call while another repetition still fits in --seconds (at least once), and
reports medians. --trace 1 runs one untraced and one traced repetition and
reports the per-layer metrics from the traced one, plus the tracing
overhead. Metric names and units come from BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details of the run (environment
stamp, every repetition, output digests) go to
.perfbench_runs/<workload>/seed<seed>-trace<0|1>/result.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, ops_per_rep  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every invocation must end within 180 s
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit(root: str) -> str:
    """HEAD's commit read from .git without running git, or "unknown"
    outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def env_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(ROOT),
    }


def spawn(workload: str, seed: int, rep_dir: str, deadline: float,
          trace: bool = False, setup_only: bool = False) -> dict:
    """Run one worker interpreter and return its rep.json, with the wall
    time and the load average before and after. A worker that crashes or
    overruns the deadline yields a rep whose ops all failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--dir", rep_dir]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    os.makedirs(rep_dir, exist_ok=True)
    load_before = os.getloadavg()
    t0 = time.monotonic()
    problem = None
    with open(os.path.join(rep_dir, "worker.log"), "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=max(1.0, deadline - t0))
            if proc.returncode != 0:
                problem = f"worker exited with code {proc.returncode}"
        except subprocess.TimeoutExpired:
            problem = "worker overran the run's time limit"
    wall = time.monotonic() - t0
    rep = {}
    if problem is None:
        with open(os.path.join(rep_dir, "rep.json")) as fh:
            rep = json.load(fh)
    else:
        ops = ops_per_rep(workload)
        rep = {"attempted": ops, "failed": ops, "problems": [problem],
               "run_s": wall}
    rep.update(wall_s=wall, loadavg_before=load_before,
               loadavg_after=os.getloadavg())
    return rep


def _median(reps, key):
    values = [r[key] for r in reps if key in r]
    return statistics.median(values) if values else 0.0


def _consistency_problems(reps) -> list:
    """Every repetition of one seed must produce the same outputs."""
    digests = {r.get("output_sha256") for r in reps}
    qualities = {json.dumps(r.get("quality"), sort_keys=True) for r in reps}
    if len(digests) > 1 or len(qualities) > 1:
        return [f"repetitions disagree: output_sha256 {sorted(map(str, digests))}"]
    return []


def measure(workload: str, seed: int, seconds: int, run_dir: str,
            deadline: float) -> tuple:
    """Untraced run: set-up probes, then repetitions while one more fits."""
    setups = [spawn(workload, seed, os.path.join(run_dir, f"setup-{k}"),
                    deadline, setup_only=True)
              for k in range(SETUP_PROBES)]
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(spawn(workload, seed, os.path.join(run_dir, f"rep-{len(reps)}"),
                          deadline))
        typical = statistics.median(r["wall_s"] for r in reps)
        now = time.monotonic()
        if now - t0 + typical > seconds or now + typical > deadline:
            break
    metrics = {
        "setup_s": _median(setups + reps, "setup_s"),
        "run_s": _median(reps, "run_s"),
        "peak_rss_mb": _median(reps, "peak_rss_mb"),
    }
    return metrics, setups, reps


def measure_traced(workload: str, seed: int, run_dir: str,
                   deadline: float) -> tuple:
    """Traced run: one untraced repetition, then one traced."""
    plain = spawn(workload, seed, os.path.join(run_dir, "untraced"), deadline)
    traced = spawn(workload, seed, os.path.join(run_dir, "traced"), deadline,
                   trace=True)
    metrics = dict(traced.get("layers", {}))
    quality = traced.get("quality") or {}
    for key in ("normalized_p100", "normalized_p50"):
        metrics[f"harness.{key}"] = quality.get(key, 0.0)
    metrics["trace_overhead_frac"] = traced["run_s"] / plain["run_s"] - 1.0
    return metrics, [], [plain, traced]


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 spec: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    run_dir = os.path.join(RUNS_DIR, workload, f"seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if trace:
        metrics, setups, reps = measure_traced(workload, seed, run_dir, deadline)
        listed = spec["per_layer"]
    else:
        metrics, setups, reps = measure(workload, seed, seconds, run_dir, deadline)
        listed = spec["end_to_end"]
    problems = [p for r in reps for p in r.get("problems", [])]
    problems += _consistency_problems(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        # A crashed worker leaves metrics unmeasured; the run is then
        # reported as incorrect and those metrics read 0.
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]}
                    for m in listed},
        "quality": reps[-1].get("quality"),
        "output_sha256": reps[-1].get("output_sha256"),
        "env": {**env_stamp(), "numpy": reps[-1].get("numpy"),
                "blas": reps[-1].get("blas")},
        "setups": setups,
        "reps": reps,
        "wall_s": time.monotonic() - started,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result: dict) -> None:
    """Human-readable block for one workload."""
    reps = result["reps"]
    print(f"== {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {len(reps)} repetition(s), "
          f"{result['wall_s']:.1f} s wall")
    env = result["env"]
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("   loadavg per repetition (1-min, before -> after): "
          + ", ".join(f"{r['loadavg_before'][0]:.2f}->{r['loadavg_after'][0]:.2f}"
                      for r in reps))
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:.6g} {m['unit']}")
    if not result["trace"]:
        for key, value in (result["quality"] or {}).items():
            print(f"   {key:34s} {value:.6g} 1")
        share = result["failed"] / result["attempted"]
        print(f"   {'failed_share':34s} {share:.6g} 1 "
              f"({result['failed']} failed / {result['attempted']} attempted)")
    print(f"   output_sha256 {result['output_sha256']}")
    for problem in result["problems"]:
        print(f"   PROBLEM: {problem.strip()}")
    print(f"   correct: {result['correct']}", flush=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per workload (default: run_seconds "
                        "in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "comopt", "__init__.py")):
        print("perfbench: no comopt source at src/comopt; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    spec = _load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        report(result)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v
                   for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
