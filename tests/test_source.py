"""Library source: every name a module imports is read in it, every
module-level constant is read somewhere in the package, no function
takes the redo discount kappa as a parameter, no function but psi_tau takes
the threshold tau beside params, no function takes a belief about the AI
beside params, bisect_array's point budget is not a parameter, the grid
oracle shares no code with the solver, no module names a regime or label
member outside the oracle's mapping, and no module reaches numpy.linalg
or numpy.polynomial.

No linter ships with the project, so the checks walk each module's syntax
tree. __init__.py is exempt from all but the constant check and the last,
because it imports to re-export; its only functions are the module
__getattr__ and __dir__ that load the lazily imported names.
"""

import ast
import re
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


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*\Z")


def unread_constants(sources: dict[str, str]) -> tuple[int, list[str]]:
    """(count, unread): the module-level constants of sources, and those no source reads.

    sources maps a module name to its text. A constant is a name in capitals
    bound by an assignment at module level; a read is a load of the name, or
    of an attribute of that name, such as model.LINEAR, in any module.
    unread lists them as module:name, in module and line order.
    """
    constants, reads = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = ([node.target] if isinstance(node, ast.AnnAssign)
                       else node.targets if isinstance(node, ast.Assign) else [])
            constants += [(module, n.id) for target in targets for n in ast.walk(target)
                          if isinstance(n, ast.Name) and CONSTANT.match(n.id)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.add(n.attr)
    constants = list(dict.fromkeys(constants))
    return len(constants), [f"{m}:{name}" for m, name in constants if name not in reads]


def test_the_check_finds_unread_constants():
    sources = {"a.py": "TOL = 1e-12\n_STEP, _CAP = 2, 3\nLEVELS: tuple = ()\nlower = 1\n"
                       "def f(x, TOL=TOL):\n    _CAP = 4\n    return x\n",
               "b.py": "from . import a\nfrom .a import LEVELS\ndef g():\n    return a._STEP\n"}
    assert unread_constants(sources) == (4, ["a.py:_CAP", "a.py:LEVELS"])


def test_package_reads_every_constant():
    count, unread = unread_constants({path.name: path.read_text()
                                      for path in sorted(SRC.glob("*.py"))})
    assert count > 40  # the walk sees the constants
    assert unread == []


def functions_taking(source: str, *names: str) -> list[str]:
    """The functions in source, lambdas included, that take a parameter of every one of names.

    kappa, tau and believed_p_a are ModelParams fields: a function reads
    them as params.kappa, params.tau and params.worker_view(), and a
    parameter for one of them would be a second way in that can disagree
    with the field and skip its checks.
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


# the names a belief about the AI's success probability went by as a parameter
BELIEF_NAMES = ("belief", "p_hat", "believed_p_a")


def test_the_check_finds_a_belief_beside_params():
    source = ("def f(params, ability, belief):\n    return params\n"
              "def g(params, *, p_hat=None):\n    return lambda params, believed_p_a: params\n"
              "def h(p_hat):\n    return p_hat\n"
              "def k(params):\n    return params.worker_view()\n")
    assert [name for belief in BELIEF_NAMES
            for name in functions_taking(source, "params", belief)] == ["f", "g", "<lambda>"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_belief_beside_params(module):
    source = (SRC / module).read_text()
    assert [name for belief in BELIEF_NAMES
            for name in functions_taking(source, "params", belief)] == []


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


# choose_regime states the regime rule and _label_indices the quality and compliance
# rule, each once for a float and an array, by index; a member such as Regime.MANUAL
# read anywhere else would be a second copy of a rule that can disagree with it
RULE_ENUMS = ("Regime", "QualityLabel", "ComplianceLabel")
# oracle_regime maps the grid oracle's action to a regime for the tests, apart from the rule
MEMBER_READS = {"solver.py": ("oracle_regime",)}


def enum_member_reads(source: str, allowed: tuple[str, ...] = ()) -> list[tuple[int, str]]:
    """The reads of a RULE_ENUMS member in source, such as Regime.MANUAL, as (line, name).

    A read is an attribute of a name or of an attribute called Regime,
    QualityLabel or ComplianceLabel. The enum class bodies and the functions
    named in allowed are skipped.
    """
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in (*RULE_ENUMS, *allowed):
            return
        if isinstance(node, ast.Attribute):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in RULE_ENUMS:
                found.append((node.lineno, node.col_offset, f"{name}.{node.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [(line, name) for line, _, name in sorted(found)]


def test_the_check_finds_enum_member_reads():
    source = ("class Regime(str, enum.Enum):\n    MANUAL = 'manual'\n"
              "def oracle_regime(a):\n    return Regime.MANUAL\n"
              "def rule(x):\n    return solver.Regime.MANUAL if x else QualityLabel.DEGRADED.value\n"
              "def f(x):\n    return tuple(Regime), ComplianceLabel(x), REGIMES[x]\n")
    assert enum_member_reads(source, ("oracle_regime",)) == [(6, "Regime.MANUAL"),
                                                              (6, "QualityLabel.DEGRADED")]
    assert enum_member_reads(source)[0] == (4, "Regime.MANUAL")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_restates_the_regime_or_label_rules(module):
    source = (SRC / module).read_text()
    if module in MEMBER_READS:  # the walk sees the allowed function's reads
        assert enum_member_reads(source)
    assert enum_member_reads(source, MEMBER_READS.get(module, ())) == []


# numpy.linalg calls LAPACK, and numpy.polynomial calls numpy.linalg (leggauss
# takes its nodes from eigvalsh). After a fork, OpenBLAS starts a thread again
# at the first such call, which then spins on another core.
LAPACK_PATHS = ("numpy.linalg", "numpy.polynomial")


def lapack_uses(source: str) -> list[tuple[int, str]]:
    """The uses of LAPACK_PATHS in source, as (line, path), in line order.

    A use is an import of either module, of a module under it or of a name
    from it, or a read of either as an attribute of a name bound to numpy,
    such as np.linalg.
    """
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.partition(".")[0]: alias.name
             for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    numpy_names = {name for name, module in bound.items() if "numpy" in (name, module)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in numpy_names):
            names = [f"numpy.{node.attr}"]
        else:
            continue
        found += [(node.lineno, path) for name in names for path in LAPACK_PATHS
                  if name == path or name.startswith(path + ".")]
    return sorted(found)


def test_the_check_finds_lapack_uses():
    source = ("import numpy as xp\nimport numpy.linalg\nfrom numpy.polynomial import legendre\n"
              "from numpy import linalg as la, sqrt\nimport scipy.linalg\n"
              "def f(x):\n    return xp.polynomial.legendre.leggauss(x), xp.sqrt(x), x.linalg\n"
              "def g(x):\n    return numpy.linalg.eigvalsh(x)\n")
    assert lapack_uses(source) == [(2, "numpy.linalg"), (3, "numpy.polynomial"),
                                   (4, "numpy.linalg"), (7, "numpy.polynomial"),
                                   (9, "numpy.linalg")]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_reaches_no_lapack(module):
    assert lapack_uses((SRC / module).read_text()) == []
