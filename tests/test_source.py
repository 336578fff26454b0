"""Library source: every name a module imports is read in it, no function
takes the redo discount kappa as a parameter, and bisect_array's point
budget is not a parameter.

No linter ships with the project, so the checks walk each module's syntax
tree. __init__.py is exempt, because it imports to re-export and defines
no function.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delver"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that source imports and never reads, in order of first import.

    `from __future__ import annotations` binds no name that code reads.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in sorted(imported, key=imported.get) if name not in read]


def test_the_check_finds_unused_names():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "import os.path\nfrom .model import Ability, Action\n"
              "def f(x: Ability) -> None:\n    return np.sqrt(x)\n")
    assert unused_imports(source) == ["os", "Action"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert MODULES  # the glob found the package
    assert unused_imports((SRC / module).read_text()) == []


def kappa_parameters(source: str) -> list[str]:
    """The functions in source, lambdas included, that take a parameter named kappa.

    kappa is a ModelParams field: a function reads it as params.kappa, and
    a kappa parameter would be a second way in that can disagree with it.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if any(arg.arg == "kappa" for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)):
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_the_check_finds_kappa_parameters():
    source = ("def f(params, kappa=1.0):\n    return params\n"
              "def g(params, *, kappa):\n    return lambda kappa: kappa\n"
              "def h(params):\n    return params.kappa\n")
    assert kappa_parameters(source) == ["f", "g", "<lambda>"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_kappa(module):
    assert kappa_parameters((SRC / module).read_text()) == []


def parameters(source: str, name: str) -> list[str]:
    """Every parameter of the function name in source, in order, * and ** ones included."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            a = node.args
            return [arg.arg for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                    if arg is not None]
    raise LookupError(name)


def test_bisect_array_has_no_budget_parameter():
    # the points asked per call are the module constant _TREE_POINTS, not a knob
    assert parameters((SRC / "solver.py").read_text(), "bisect_array") == \
        ["pred", "lo", "hi", "tol", "steps"]
