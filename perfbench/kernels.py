"""Computed operation and byte counts for the dense-net kernels.

The counts come from layer shapes, not from hardware counters, and are
labelled "computed" wherever they are reported. A net is described by its
layer shapes `((fan_out, fan_in), ...)`, input layer first; every layer but
the last is followed by a leaky ReLU.

FLOPs per row:
  forward         matmul 2*i*o, bias o, activation 2*o (compare, scale)
  input gradient  forward, then per layer g @ W (2*o*i) and, below the top
                  layer, the activation slope (compare, multiply: 2*i)
  loss gradient   forward, then per layer dW (2*o*i), db (o), and below the
                  top layer g @ W (2*o*i) and the slope (2*i)

Bytes per row count each float64 per-row operand read once and each result
written once, ignoring caches; weights and biases are counted once per call.
"""
from __future__ import annotations

WORD = 8


def layer_shapes(model) -> tuple:
    return tuple(lyr.weights.shape for lyr in model.layers)


def _forward(shapes):
    flops = words = 0
    last = len(shapes) - 1
    for k, (o, i) in enumerate(shapes):
        flops += 2 * i * o + o
        words += i + o  # read input row, write pre-activation
        if k < last:
            flops += 2 * o
            words += 2 * o  # read pre-activation, write activation
    return flops, words


def per_row(kind: str, shapes) -> tuple:
    """(flops, bytes) per row for one kernel call on a net of `shapes`."""
    flops, words = _forward(shapes)
    for k, (o, i) in enumerate(shapes):
        if kind == "input_grad":
            flops += 2 * o * i
            words += o + i  # read g, write g @ W
            if k > 0:
                flops += 2 * i
                words += 3 * i  # read g and pre-activation, write g
        elif kind == "loss_grad":
            flops += 2 * o * i + o
            words += o + i  # read g and activation row
            if k > 0:
                flops += 2 * o * i + 2 * i
                words += o + i + 3 * i
        elif kind != "forward":
            raise ValueError(f"unknown kernel {kind!r}")
    return flops, WORD * words


def weight_bytes(shapes) -> int:
    """Parameter bytes read once per kernel call."""
    return WORD * sum(o * i + o for o, i in shapes)
