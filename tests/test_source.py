"""Library source: every name a module imports is read in it, no function
takes the redo discount kappa as a parameter, no function but psi_tau takes
the threshold tau beside params, bisect_array's point budget is not a
parameter, and the grid oracle shares no code with the solver.

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


def functions_taking(source: str, *names: str) -> list[str]:
    """The functions in source, lambdas included, that take a parameter of every one of names.

    kappa and tau are ModelParams fields: a function reads them as
    params.kappa and params.tau, and a parameter of the same name would be
    a second way in that can disagree with the field and skip its checks.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            if set(names) <= {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs)}:
                found.append(getattr(node, "name", "<lambda>"))
    return found


def test_the_check_finds_kappa_parameters():
    source = ("def f(params, kappa=1.0):\n    return params\n"
              "def g(params, *, kappa):\n    return lambda kappa: kappa\n"
              "def h(params):\n    return params.kappa\n")
    assert functions_taking(source, "kappa") == ["f", "g", "<lambda>"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_kappa(module):
    assert functions_taking((SRC / module).read_text(), "kappa") == []


def test_the_check_finds_tau_beside_params():
    source = ("def f(params, ability, tau=None):\n    return params\n"
              "def g(params, *, tau):\n    return lambda params, tau: tau\n"
              "def h(q, q0, tau):\n    return q >= tau\n"
              "def k(params):\n    return params.tau\n")
    assert functions_taking(source, "params", "tau") == ["f", "g", "<lambda>"]


# psi_tau keeps a tau keyword for calls that vary tau alone at one params,
# as the benchmark's boundary probes do; it sets the keyword through
# replace(params, tau=tau), so ModelParams' checks still apply
TAU_KEYWORD = {"atlas.py": ["psi_tau"]}


@pytest.mark.parametrize("module", MODULES)
def test_no_function_but_psi_tau_takes_tau_beside_params(module):
    # a function of values alone, such as QualityReport.from_values(q, q0, tau), may take tau
    assert functions_taking((SRC / module).read_text(), "params", "tau") == \
        TAU_KEYWORD.get(module, [])


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


def shared_reads(source: str, function: str) -> list[str]:
    """The names that function's body reads from the rest of the library, in source order.

    Those are the names its module imports from the package (from .model
    import ..., from . import ...) and the functions and classes the module
    defines, function itself excepted. Parameter annotations are not read.
    """
    tree = ast.parse(source)
    shared, body = set(), None
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level:
            shared.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if node.name == function:
                body = node.body
            else:
                shared.add(node.name)
    if body is None:
        raise LookupError(function)
    found = sorted((n for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and n.id in shared),
                   key=lambda n: (n.lineno, n.col_offset))
    return list(dict.fromkeys(n.id for n in found))


def test_the_check_finds_shared_names():
    source = ("from .model import Action, check_overflow, success_at\nfrom . import model\n"
              "def helper(x):\n    return x\n"
              "def oracle(params: Action):\n    check_overflow(params)\n"
              "    p = success_at(params, model.cost_at(params))\n"
              "    return Action(helper(p), 0.0)\n")
    assert shared_reads(source, "oracle") == ["check_overflow", "success_at", "model", "Action",
                                              "helper"]


def test_the_oracle_shares_no_code_with_the_solver():
    # brute_force_action checks the solver, so it evaluates success and cost on
    # its grid itself: of the library it may only check the input and build
    # the action it returns
    reads = shared_reads((SRC / "solver.py").read_text(), "brute_force_action")
    assert "check_overflow" in reads  # the walk sees the body
    assert [name for name in reads if name not in ("check_overflow", "Action")] == []
