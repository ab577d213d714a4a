"""File formats shared by every stage: the one CSV writer and reader, the
one JSON writer, and surrogate save/load for a single net or an ensemble.

CSVs use `csv.writer`'s default dialect (comma-separated, CRLF line ends)
and write every float as `repr(float(v))`, so values read back bitwise.
"""
from __future__ import annotations

import csv
import json

import numpy as np

from .net import LEAK, DenseLayer, Ensemble, ObjectiveModel


def write_rows(path, header, rows) -> None:
    """Write a header row and data rows; floats are written with repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v
             for v in row]
            for row in rows)


def write_json(path, obj) -> None:
    """Write `obj` as JSON indented by 2, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def read_rows(path) -> tuple[list, np.ndarray]:
    """Header and float body of a numeric CSV. A file without data rows,
    a row whose width differs from the header's and a non-numeric or
    non-finite cell are each an error."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    header = rows[0]
    values = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} cells, "
                             f"the header has {len(header)}")
        cells = []
        for v in row:
            try:
                cells.append(float(v))
            except ValueError:
                raise ValueError(f"{path}: line {line} has a non-numeric "
                                 f"value {v!r}") from None
        if not np.all(np.isfinite(cells)):
            raise ValueError(f"{path}: line {line} has a non-finite value")
        values.append(cells)
    return header, np.array(values)


def _layer_arrays(model: ObjectiveModel, prefix: str = "") -> dict:
    arrays = {f"{prefix}n_layers": np.array(len(model.layers))}
    for k, lyr in enumerate(model.layers):
        arrays[f"{prefix}w{k}"] = lyr.weights
        arrays[f"{prefix}b{k}"] = lyr.bias
    return arrays


def save_surrogate(model, path) -> None:
    """Save an ObjectiveModel or an Ensemble of them as an .npz archive."""
    if isinstance(model, ObjectiveModel):
        arrays = _layer_arrays(model)
    else:
        arrays = {"n_members": np.array(len(model.members))}
        for m, member in enumerate(model.members):
            arrays.update(_layer_arrays(member, f"m{m}_"))
    np.savez(path, **arrays)


def load_surrogate(path):
    """Load what `save_surrogate` wrote: an ObjectiveModel, or an Ensemble
    when the archive holds members. Older archives also store `leak`, and
    older ensembles `aggregate`. A missing array, a count that is not
    stored as an integer, a count or `leak` that is not a number, a `leak`
    other than `LEAK`, an `aggregate` other than "min", a non-finite weight
    and arrays that the model's own checks reject are errors that name the
    file."""
    with np.load(path) as data:
        def scalar(key, kind):
            array = data[key]
            if kind is int and not np.issubdtype(array.dtype, np.integer):
                raise ValueError(f"{key} is not an integer")
            try:
                return kind(array)
            except (TypeError, ValueError):
                raise ValueError(f"{key} is not a number") from None

        def member(prefix=""):
            n_layers = scalar(f"{prefix}n_layers", int)
            model = ObjectiveModel(
                [DenseLayer(data[f"{prefix}w{k}"], data[f"{prefix}b{k}"])
                 for k in range(n_layers)])
            if not np.isfinite(model.params).all():
                raise ValueError("non-finite weight in surrogate archive")
            return model

        try:
            leak = scalar("leak", float) if "leak" in data else LEAK
            if leak != LEAK:
                raise ValueError(f"leak {leak!r} is not the slope every "
                                 f"model uses ({LEAK!r})")
            aggregate = str(data["aggregate"]) if "aggregate" in data else "min"
            if aggregate != "min":
                raise ValueError(f"aggregate {aggregate!r} is not the rule "
                                 f"every ensemble uses ('min')")
            if "n_members" not in data:
                return member()
            return Ensemble([member(f"m{m}_")
                             for m in range(scalar("n_members", int))])
        except KeyError as exc:
            raise ValueError(f"{path}: incomplete surrogate archive "
                             f"({exc.args[0]})") from None
        except ValueError as exc:  # the reader's checks and the model's
            raise ValueError(f"{path}: {exc}") from None
