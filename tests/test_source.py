"""Library source: every name a module imports is read in it, every
module-level constant is read somewhere in the package, no function
takes the redo discount kappa as a parameter and no class but ModelParams
declares it as a field, no function but psi_tau takes
the threshold tau beside params, no function takes a belief about the AI,
a per-point value (p_w, p_a, execution scale, verification rate) or a
difficulty profile or level beside params, bisect_array's point budget is not a parameter, the grid
oracle shares no code with the solver, no module names a regime or label
member outside the oracle's mapping, no module reaches numpy.linalg
or numpy.polynomial, model.py imports no other delver module, in
cli.py only main calls load_params and only main and __getattr__ call _load,
and the worker's stakes gap (b_w + l_w)(p_w - p_a) is written only in
model.worker_increment.

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


def classes_declaring(source: str, name: str) -> list[str]:
    """The classes in source whose body binds name, annotated or not, as a field is declared.

    A name bound inside a method is no field and is not counted.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            targets = [target for stmt in node.body
                       for target in ([stmt.target] if isinstance(stmt, ast.AnnAssign)
                                      else stmt.targets if isinstance(stmt, ast.Assign) else [])]
            if any(isinstance(n, ast.Name) and n.id == name
                   for target in targets for n in ast.walk(target)):
                found.append(node.name)
    return found


def test_the_check_finds_kappa_fields():
    source = ("@dataclass(frozen=True)\nclass Rework:\n    kappa: float\n"
              "class Plain:\n    kappa = 1.0\n"
              "class Reader:\n    def f(self, params):\n        kappa = params.kappa\n"
              "        return kappa\n"
              "class ModelParams:\n    tau: float\n    kappa: float = 1.0\n")
    assert classes_declaring(source, "kappa") == ["Rework", "Plain", "ModelParams"]


@pytest.mark.parametrize("module", MODULES)
def test_no_class_but_model_params_declares_kappa(module):
    # kappa is set in one place, ModelParams.kappa; a record of its own (the Rework
    # class once was one) would be a second way in, with checks of its own
    assert classes_declaring((SRC / module).read_text(), "kappa") == \
        (["ModelParams"] if module == "model.py" else [])


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


# the names the per-point values went by as parameters: p_w and p_a are ModelParams
# fields, and the execution scale and verification rate are fields of its cost
# families; extensions.difficulty_params sets all four, arrays included
POINT_NAMES = ("p_w", "p_a", "execution_scale", "verification_rate")


def test_the_check_finds_a_point_value_beside_params():
    source = ("def f(params, p_w=None, check=True):\n    return params\n"
              "def g(params, *, verification_rate):\n"
              "    return lambda params, execution_scale: params\n"
              "def h(p_a, q):\n    return p_a\n"
              "def k(params, h):\n    return params.p_a\n")
    assert [name for value in POINT_NAMES
            for name in functions_taking(source, "params", value)] == ["f", "<lambda>", "g"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_point_value_beside_params(module):
    source = (SRC / module).read_text()
    assert [name for value in POINT_NAMES
            for name in functions_taking(source, "params", value)] == []


# the names a difficulty went by as a parameter: a pinned level h is the base
# model under difficulty_params(params, h), and expected_quality takes nodes alone
DIFFICULTY_NAMES = ("profile", "difficulty", "hhat")


def test_the_check_finds_a_difficulty_beside_params():
    source = ("def f(params, alpha, beta, profile):\n    return params\n"
              "def g(params, *, difficulty=None):\n    return lambda params, hhat: params\n"
              "def h(hhat):\n    return hhat\n"
              "def k(params, h):\n    return params.p_a\n")
    assert [name for value in DIFFICULTY_NAMES
            for name in functions_taking(source, "params", value)] == ["f", "g", "<lambda>"]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_a_difficulty_beside_params(module):
    source = (SRC / module).read_text()
    assert [name for value in DIFFICULTY_NAMES
            for name in functions_taking(source, "params", value)] == []


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
    source = ("from .model import Action, checked_cost, outcome_at\nfrom . import model\n"
              "def helper(x):\n    return x\n"
              "def oracle(params: Action):\n    checked_cost(params)\n"
              "    p = outcome_at(params, model.worker_value(params))\n"
              "    return Action(helper(p), 0.0)\n")
    assert shared_reads(source, "oracle") == ["checked_cost", "outcome_at", "model", "Action",
                                              "helper"]


def test_the_oracle_shares_no_code_with_the_solver():
    # brute_force_action checks the solver, so it evaluates success and cost on
    # its grid itself: of the library it may only check the input and build
    # the action it returns
    reads = shared_reads((SRC / "solver.py").read_text(), "brute_force_action")
    assert "checked_cost" in reads  # the walk sees the body
    assert [name for name in reads if name not in ("checked_cost", "Action")] == []


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


def package_imports(source: str) -> list[tuple[int, str]]:
    """The delver modules that source imports, as (line, module), in line order.

    Relative imports are within the package; an absolute one counts when it
    names delver or a module under it. Imports inside functions count too.
    A name taken from the package itself (from delver import x) is listed as
    delver.x.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "delver"):
            names = [f"delver.{alias.name}" for alias in node.names]  # from . or from delver
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [f"delver.{node.module}"]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name == "delver" or name.startswith("delver.")]
    return sorted(found)


def test_the_check_finds_package_imports():
    source = ("from __future__ import annotations\nimport math\nimport delver.solver\n"
              "from . import atlas, config\nfrom .solver import bisect\nfrom delver import cli\n"
              "from delveroid import x\nfrom delver.model import Ability\n"
              "def f():\n    from .atlas import psi\n    import delver\n    return psi\n")
    assert package_imports(source) == [
        (3, "delver.solver"), (4, "delver.atlas"), (4, "delver.config"), (5, "delver.solver"),
        (6, "delver.cli"), (8, "delver.model"), (10, "delver.atlas"), (11, "delver")]


def test_model_imports_no_other_delver_module():
    # every other module builds on the primitives in model.py, so an import from
    # one of them is a cycle: a check that calls the solver belongs in solver.py
    assert package_imports((SRC / "model.py").read_text()) == []


def callers(source: str, name: str) -> list[str]:
    """The module-level functions of source that call name, in source order.

    A call is to the bare name or to an attribute of that name (config.name);
    a call in a nested function or lambda counts for the function around it.
    """
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                           getattr(call.func, "attr", None))
                    for call in ast.walk(node))]


def test_the_check_finds_callers():
    source = ("from .config import load_params\n"
              "def main(args):\n    args.params = load_params(args.config)\n"
              "def cmd_a(args):\n    return lambda: config.load_params(args.config)\n"
              "def cmd_b(args):\n    def inner():\n        return load_params\n    return inner\n"
              "class C:\n    def f(self):\n        return load_params(self)\n"
              "params = load_params('x.json')\n")
    assert callers(source, "load_params") == ["main", "cmd_a"]


def test_only_main_loads_a_commands_inputs():
    # main loads every command's --config (with its --tau) and its deferred module
    # before the command runs; a command that loaded either itself would be a
    # second load stage, with its own order of errors
    source = (SRC / "cli.py").read_text()
    assert callers(source, "load_params") == ["main"]
    assert callers(source, "_load") == ["__getattr__", "main"]


def stakes_gap_products(source: str) -> list[tuple[int, str]]:
    """The products worker_stakes * (p_w - p_a) in source, as (line, enclosing function).

    Either factor may come first; each name is read bare or as an attribute
    (params.worker_stakes, worker.p_w). A product outside any function is
    listed under <module>, and one in a lambda under the function around it.
    """
    def named(node, name):
        return getattr(node, "attr", getattr(node, "id", None)) == name

    def is_gap(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and named(node.left, "p_w") and named(node.right, "p_a"))

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
                named(stakes, "worker_stakes") and is_gap(gap)
                for stakes, gap in ((node.left, node.right), (node.right, node.left))):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_finds_stakes_gap_products():
    source = ("def f(params):\n    return params.worker_stakes * (params.p_w - params.p_a)\n"
              "def g(w):\n    return (w.p_w - w.p_a) * w.worker_stakes + w.worker_stakes * w.p_w\n"
              "def h(p_w, p_a, worker_stakes):\n    return lambda: worker_stakes * (p_w - p_a)\n"
              "GAP = params.worker_stakes * (params.p_w - params.p_a)\n"
              "FLIPPED = params.worker_stakes * (params.p_a - params.p_w)\n")
    assert stakes_gap_products(source) == [(2, "f"), (4, "g"), (6, "h"), (7, "<module>")]


def test_the_worker_stakes_gap_is_written_once():
    # f_w and delegation_gain once summed the delegation gain in two operand orders, and
    # psi0's sign function took a third; they disagreed in the last bits, and psi0's
    # brackets missed the regime switch that optimal_action calls. Each reads it here now
    found = [(module, owner) for module in ["__init__.py", *MODULES]
             for _, owner in stakes_gap_products((SRC / module).read_text())]
    assert found == [("model.py", "worker_increment")]
