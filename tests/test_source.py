"""No test-only code in comopt: every top-level function and class and every
non-dunder method defined in `src/comopt` is used somewhere other than at
its definition, in `src/comopt` or in perfbench's non-test modules. Tests
check the code the system runs, so a name only the tests call is dead code
or a test-only copy of a real path. No import hides inside a function
but the deliberate ones, and the module-level imports go down the layers
of the pipeline."""
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
# multiprocessing.
DEFERRED_IMPORTS = {("harness", "worker_pool")}


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


# comopt's modules in pipeline order: the surrogate, file formats, tasks
# and their datasets, search, training, baselines, the protocol, the
# acceptance suite and the command line.
LAYERS = ("net", "fileio", "tasks", "optimizer", "trainer", "baselines",
          "harness", "acceptance", "cli")


def _module_level_imports(tree):
    """(line, module) for each comopt module that a relative import outside
    a function names, also under `if` or `try`: `from .x import y` and
    `from . import x` both name x."""
    scopes = [tree]
    while scopes:
        for node in ast.iter_child_nodes(scopes.pop()):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = ([node.module] if node.module
                         else [alias.name for alias in node.names])
                yield from ((node.lineno, name.split(".")[0])
                            for name in names)
            elif not isinstance(node, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                scopes.append(node)


def test_every_module_has_a_layer():
    modules = {path.stem for path in SRC.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


def test_module_level_imports_go_down_the_layers():
    upward = [f"{path.stem} line {line} imports {name}"
              for path in sorted(SRC.glob("*.py")) if path.stem in LAYERS
              for line, name in _module_level_imports(
                  ast.parse(path.read_text(), str(path)))
              if name not in LAYERS[:LAYERS.index(path.stem)]]
    assert upward == []
