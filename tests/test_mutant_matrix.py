"""tools/mutant_matrix.py's mutants still apply to the source: each anchor
occurs exactly once in `src/comopt` and changes one line, so a refactor
fails here instead of silently breaking the script."""
import difflib
import importlib.util
import shutil
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutant_matrix.py"
_spec = importlib.util.spec_from_file_location("mutant_matrix", TOOL)
mutant_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutant_matrix)


def test_every_anchor_occurs_exactly_once():
    assert mutant_matrix.anchor_counts() == dict.fromkeys(
        mutant_matrix.MUTANTS, 1)


@pytest.mark.parametrize("name", list(mutant_matrix.MUTANTS))
def test_each_mutant_changes_one_line(name, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(mutant_matrix.SRC, src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    mutant_matrix.mutate(src, name)
    changed = []
    for path in sorted((src / "comopt").glob("*.py")):
        before = (mutant_matrix.SRC / "comopt" / path.name).read_text()
        diff = difflib.unified_diff(before.splitlines(),
                                    path.read_text().splitlines(), n=0)
        changed += [line for line in diff
                    if line[:1] in "+-" and line[:3] not in ("+++", "---")]
    assert len(changed) == 2, changed  # one line out, one line in
