"""No test-only code in comopt: every top-level function and class and every
non-dunder method defined in `src/comopt` is used somewhere other than at
its definition, in `src/comopt` or in perfbench's non-test modules. Tests
check the code the system runs, so a name only the tests call is dead code
or a test-only copy of a real path. No import hides inside a function
but the deliberate ones."""
import ast
from pathlib import Path

import comopt

SRC = Path(comopt.__file__).resolve().parent
PERFBENCH = SRC.parent.parent / "perfbench"


def _trees(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _definitions(tree):
    """Each top-level function or class, and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__"))


def _uses(tree):
    """Every name, attribute and part of a dotted string constant:
    perfbench names the functions it traces as strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_src_definition_is_used_outside_the_tests():
    src = _trees(sorted(SRC.glob("*.py")))
    bench = _trees(path for path in sorted(PERFBENCH.glob("*.py"))
                   if not path.name.startswith("test_"))
    used = {name for tree in [*src.values(), *bench.values()]
            for name in _uses(tree)}
    unused = [f"{path.stem}.{name}" for path, tree in src.items()
              for name in _definitions(tree) if name not in used]
    assert unused == []


# The deliberate function-level imports, as (module, function): the process
# machinery of `worker_pool`, which keeps a one-trial run from loading
# multiprocessing, and the `baselines` import of `load_surrogate`, which
# breaks the cycle fileio -> baselines -> trainer -> fileio.
DEFERRED_IMPORTS = {("harness", "worker_pool"), ("fileio", "load_surrogate")}


def test_no_function_level_import_but_the_deliberate_ones():
    # an import inside a function hides a cycle that a module-level one
    # would show at once
    hidden = [f"{path.stem}.{func.name} line {node.lineno}"
              for path, tree in _trees(sorted(SRC.glob("*.py"))).items()
              for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
              for node in ast.walk(func)
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and (path.stem, func.name) not in DEFERRED_IMPORTS]
    assert hidden == []
