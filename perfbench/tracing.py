"""Span tracing around comopt's layer boundaries, and the per-layer metrics
computed from the spans.

`install` wraps the functions in TRACED and puts each wrapper into the
namespace of every comopt module that holds the original, including
module-level tuples and dicts of functions. `harness` and `acceptance`
import `train` by name and `acceptance` imports `_mine_endpoints` by name,
and `acceptance.run_all` iterates the `CRITERIA` tuple, so patching only
the defining module would miss those calls.

A span is `[name, start, end, parent, info]`: `parent` is the index of the
innermost open span when it started (-1 at top level) and `info` is what
the function's annotator recorded from its arguments. Spans stay in memory
until `write_spans` writes them once, at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace

from kernels import layer_shapes, per_row, weight_bytes


def _net_call(model, X, *args, **kwargs):
    return (len(X), model)


def _train_key(dataset, config):
    """Identifies a training by its inputs. Step size and tau are resolved
    first, so an explicit value equal to the task default matches "auto"."""
    resolved = replace(config, ascent_rate=config.resolved_eta(dataset),
                       tau=config.resolved_tau(dataset))
    h = hashlib.sha256(dataset.designs.tobytes())
    h.update(dataset.scores.tobytes())
    h.update(repr(resolved).encode())
    return h.hexdigest()


# Functions traced per module, with what each span records from the call.
TRACED = {
    "net": {
        "forward_batch": _net_call,
        "input_gradient_batch": _net_call,
        "loss_gradients": _net_call,
        "adam_step": None,
    },
    "trainer": {
        "train": _train_key,
        "_mine_endpoints": lambda model, X0, eta, steps: len(X0),
    },
    "optimizer": {
        "produce_candidates": lambda model, dataset, n, eta, steps: n,
        "ascend": None,
        "input_grad_batch": lambda model, X: len(X),
    },
    "baselines": {"train_ensemble": None},
    "tasks": {
        "curate_dataset": None,
        "oracle_eval_batch": lambda task, X: len(X),
    },
    "harness": {
        "run_experiment": None,
        "evaluate_budget": None,
        "stability_sweep": None,
        "budget_sweep": None,
    },
    "acceptance": {"run_all": None},
}

NET_KERNELS = {"net.forward_batch": "forward",
               "net.input_gradient_batch": "input_grad",
               "net.loss_gradients": "loss_grad"}


class Tracer:
    """Holds the spans of one run; `run_id` is shared by all of them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, name, fn, annotate=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = annotate(*args, **kwargs) if annotate else None
            span = [name, 0.0, 0.0, stack[-1], info]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def _acceptance_criteria(module):
    return {name: None for name in vars(module)
            if name.startswith("criterion_") and callable(getattr(module, name))}


def install(tracer: Tracer) -> None:
    """Import every traced module and swap each traced function for its
    wrapper wherever a comopt module refers to it."""
    wrappers = {}
    for short, table in TRACED.items():
        module = importlib.import_module(f"comopt.{short}")
        if short == "acceptance":
            table = {**table, **_acceptance_criteria(module)}
        for fname, annotate in table.items():
            fn = getattr(module, fname)
            wrappers[id(fn)] = tracer.wrap(f"{short}.{fname}", fn, annotate)

    def swap(value):
        return wrappers.get(id(value), value)

    for modname, module in list(sys.modules.items()):
        if modname != "comopt" and not modname.startswith("comopt."):
            continue
        for attr, value in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if id(value) in wrappers:
                setattr(module, attr, swap(value))
            elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                setattr(module, attr, tuple(swap(v) for v in value))
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    value[key] = swap(v)


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its child spans
    cover. Children are clipped to the parent's interval and overlapping
    children are counted once."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# Ancestor names the metrics condition on, one bit each.
CONTEXT_BITS = {name: 1 << k for k, name in enumerate(
    ("trainer.train", "optimizer.ascend", "baselines.train_ensemble",
     "acceptance.run_all"))}


def _contexts(spans) -> list:
    """Per span, the bits of the context names among it and its ancestors."""
    masks = []
    for name, _, _, parent, _ in spans:
        inherited = masks[parent] if parent >= 0 else 0
        masks.append(inherited | CONTEXT_BITS.get(name, 0))
    return masks


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics, named by module, from one run's spans."""
    selfs = self_times(spans)
    masks = _contexts(spans)
    calls = defaultdict(int)
    secs = defaultdict(float)
    self_secs = defaultdict(float)
    rows = defaultdict(int)
    under = defaultdict(lambda: [0, 0.0, 0])  # (ctx, name) -> calls, s, rows
    kernel_use = defaultdict(lambda: [0, 0])  # (kind, model id) -> calls, rows
    models = {}
    train_keys = []
    candidates = 0
    for (name, start, end, _, info), self_s, mask in zip(spans, selfs, masks):
        dur = end - start
        calls[name] += 1
        secs[name] += dur
        self_secs[name] += self_s
        n = info[0] if isinstance(info, tuple) else info
        if isinstance(n, int):
            rows[name] += n
        for ctx, b in CONTEXT_BITS.items():
            if mask & b and name != ctx:
                acc = under[ctx, name]
                acc[0] += 1
                acc[1] += dur
                acc[2] += n if isinstance(n, int) else 0
        kind = NET_KERNELS.get(name)
        if kind is not None:
            models[id(info[1])] = info[1]
            use = kernel_use[kind, id(info[1])]
            use[0] += 1
            use[1] += n
        if name == "trainer.train" and mask & CONTEXT_BITS["acceptance.run_all"]:
            train_keys.append(info)
        if name == "optimizer.produce_candidates":
            candidates += info

    flops = nbytes = 0
    for (kind, model_id), (n_calls, n_rows) in kernel_use.items():
        shapes = layer_shapes(models[model_id])
        f_row, b_row = per_row(kind, shapes)
        flops += f_row * n_rows
        nbytes += b_row * n_rows + weight_bytes(shapes) * n_calls

    def per_row_us(name):
        return 1e6 * _ratio(secs[name], rows[name])

    kernel_names = list(NET_KERNELS)
    kernel_s = sum(secs[k] for k in kernel_names)
    train_s = secs["trainer.train"]
    ascent = under["optimizer.ascend", "optimizer.input_grad_batch"]
    m = {
        "net.forward_calls": calls["net.forward_batch"],
        "net.forward_rows": rows["net.forward_batch"],
        "net.forward_us_per_row": per_row_us("net.forward_batch"),
        "net.input_grad_calls": calls["net.input_gradient_batch"],
        "net.input_grad_rows": rows["net.input_gradient_batch"],
        "net.input_grad_us_per_row": per_row_us("net.input_gradient_batch"),
        "net.loss_grad_calls": calls["net.loss_gradients"],
        "net.loss_grad_us_per_row": per_row_us("net.loss_gradients"),
        "net.adam_steps": calls["net.adam_step"],
        "net.adam_us_per_step": 1e6 * _ratio(secs["net.adam_step"],
                                             calls["net.adam_step"]),
        "net.rows_per_call": _ratio(sum(rows[k] for k in kernel_names),
                                    sum(calls[k] for k in kernel_names)),
        "net.gflop_computed": flops / 1e9,
        "net.gbyte_computed": nbytes / 1e9,
        "net.gflops_per_s": _ratio(flops / 1e9, kernel_s),
        "trainer.train_calls": calls["trainer.train"],
        "trainer.train_s": train_s,
        "trainer.self_s": self_secs["trainer.train"],
        "trainer.batches": under["trainer.train", "net.adam_step"][0],
        "trainer.mine_rows": rows["trainer._mine_endpoints"],
        "trainer.mine_s": secs["trainer._mine_endpoints"],
        "trainer.mine_share": _ratio(
            under["trainer.train", "trainer._mine_endpoints"][1], train_s),
        "trainer.loss_grad_s": under["trainer.train", "net.loss_gradients"][1],
        "trainer.adam_s": under["trainer.train", "net.adam_step"][1],
        "optimizer.search_s": secs["optimizer.produce_candidates"],
        "optimizer.candidates": candidates,
        "optimizer.ascent_rows": ascent[2],
        "optimizer.rows_per_call": _ratio(ascent[2], ascent[0]),
        "optimizer.forward_per_grad_row": _ratio(
            under["optimizer.ascend", "net.forward_batch"][2],
            under["optimizer.ascend", "net.input_gradient_batch"][2]),
        "baselines.ensemble_train_s": secs["baselines.train_ensemble"],
        "baselines.members": under["baselines.train_ensemble",
                                   "trainer.train"][0],
        "tasks.curate_s": secs["tasks.curate_dataset"],
        "tasks.oracle_rows": rows["tasks.oracle_eval_batch"],
        "tasks.oracle_s": secs["tasks.oracle_eval_batch"],
        "harness.evaluate_s": secs["harness.evaluate_budget"],
        "harness.stability_s": secs["harness.stability_sweep"],
        "harness.budget_sweep_s": secs["harness.budget_sweep"],
        "harness.self_s": self_secs["harness.run_experiment"],
    }
    for k in range(1, 9):
        name = next((n for n in secs if n.startswith(f"acceptance.criterion_{k}_")),
                    None)
        m[f"acceptance.criterion_{k}_s"] = secs[name] if name else 0.0
    m["acceptance.train_calls"] = len(train_keys)
    m["acceptance.distinct_trainings"] = len(set(train_keys))
    m["acceptance.useful_train_ratio"] = _ratio(len(set(train_keys)),
                                                len(train_keys))
    return m


def write_spans(tracer: Tracer, path) -> None:
    """Gzipped, one JSON object per line: run, index, name, start, end,
    parent, and the recorded rows or training key where there is one."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for i, (name, start, end, parent, info) in enumerate(tracer.spans):
            detail = info[0] if isinstance(info, tuple) else info
            fh.write(json.dumps({"run": tracer.run_id, "i": i, "name": name,
                                 "start": start, "end": end,
                                 "parent": parent, "info": detail}) + "\n")
