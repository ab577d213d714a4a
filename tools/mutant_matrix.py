"""Run the acceptance suite on one-line mutants of comopt and print which
criteria reject each.

Usage, from the repository root:

    python3 tools/mutant_matrix.py

Each mutant copies `src/` to a temporary directory, replaces one exact
string there and runs `python -m comopt reproduce` on that copy through
PYTHONPATH: the pool's spawned workers re-import the source, so a mutant
must live in files, not in a patched module. Before running anything the
script exits 1 unless every mutant's anchor occurs exactly once in
`src/comopt`. It prints one PASS/FAIL row per criterion and one column per
mutant, read from each run's acceptance.json, and writes nothing under the
repository. On two cores a mutant's reproduce takes about 95 s, or about
10 s for the two that leave `train` without mining.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (exact source text, its replacement); each switches off or
# inverts one part of COMs' conservatism.
MUTANTS = {
    # `dual_update` returns alpha, so alpha stays at its initial 0
    "no-dual": ("    return max(0.0, alpha + alpha_lr * (gap - tau))\n",
                "    return alpha\n"),
    # `train` scores the data batch itself as the mined points
    "no-mining": (
        "X_mined = _mine_endpoints(model, Xb, eta, config.mining_steps)",
        "X_mined = Xb.copy()"),
    # `com_loss` pushes mined predictions up and data predictions down
    "sign-flip": ("(preds - y) / nb - alpha / nb, np.full(nb, alpha / nb)",
                  "(preds - y) / nb + alpha / nb, np.full(nb, -alpha / nb)"),
    # the "coms" method trains the naive baseline
    "coms-is-naive": ('"coms": lambda data, config, size: _one(train(',
                      '"coms": lambda data, config, size: _one(train_naive('),
}


def anchor_counts() -> dict:
    """How often each mutant's anchor occurs in the package's source."""
    texts = [path.read_text() for path in sorted((SRC / "comopt").glob("*.py"))]
    return {name: sum(text.count(anchor) for text in texts)
            for name, (anchor, _) in MUTANTS.items()}


def mutate(src: Path, name: str) -> None:
    """Apply mutant `name` to the package under `src`, in place."""
    anchor, replacement = MUTANTS[name]
    for path in (src / "comopt").glob("*.py"):
        text = path.read_text()
        if anchor in text:
            path.write_text(text.replace(anchor, replacement))


def run_mutant(name: str, scratch: Path) -> dict:
    """Criterion id -> "PASS" or "FAIL" from one mutant's reproduce; empty
    if the run wrote no acceptance.json."""
    src = scratch / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    mutate(src, name)
    out = scratch / "reproduce_out"
    subprocess.run([sys.executable, "-m", "comopt", "reproduce", "--out",
                    str(out)], cwd=scratch, stdout=subprocess.DEVNULL,
                   env={**os.environ, "PYTHONPATH": str(src)}, check=False)
    try:
        with open(out / "acceptance.json") as fh:
            criteria = json.load(fh)["criteria"]
    except FileNotFoundError:
        return {}
    return {c["id"]: "PASS" if c["passed"] else "FAIL" for c in criteria}


def main() -> int:
    counts = anchor_counts()
    wrong = {name: n for name, n in counts.items() if n != 1}
    if wrong:
        print(f"anchors must occur exactly once in {SRC / 'comopt'}; "
              f"counts {wrong}", file=sys.stderr)
        return 1
    verdicts = {}
    for name in MUTANTS:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
            verdicts[name] = run_mutant(name, Path(tmp))
        print(f"{name}: {time.monotonic() - t0:.0f}s", file=sys.stderr)
    ids = sorted({k for v in verdicts.values() for k in v}) or range(1, 9)
    print("| criterion | " + " | ".join(MUTANTS) + " |")
    print("|---" * (len(MUTANTS) + 1) + "|")
    for k in ids:
        print(f"| c{k} | " + " | ".join(verdicts[name].get(k, "ERR")
                                         for name in MUTANTS) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
