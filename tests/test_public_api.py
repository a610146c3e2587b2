"""Every public name of the package exists and has a caller.

A module's ``__all__`` is its public surface.  A listed name that no
longer exists breaks ``from holodiff.X import *``; a listed name that
nothing outside its own definition refers to is code that only tests keep
alive.  Callers are looked for in the package itself, the benchmark
harness and the tools, but not in any test: a reference the tests need
lives in ``tests/oracles.py``.  The same rule holds for every
module-level function of the package, with or without a leading
underscore, and for the methods and properties of its classes, reached
by attribute name, and for the parameters with default values of
both, passed by position or keyword in some call.  Outside
``curves.py`` no module branches on the class of a curve model.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import holodiff

ROOT = Path(__file__).resolve().parents[1]
CALLER_FILES = [path for folder in ("src/holodiff", "perfbench", "tools")
                for path in sorted((ROOT / folder).glob("*.py"))]

# The one reviewed list of paper content implemented ahead of the check
# that will call it, by ROADMAP item: the product expansion tables and
# the block-singularity test of the relation matrix (item 13), the
# Bergman square (item 1), the volume minor and the induced metric on the
# moduli space (item 7), and the complex-root cubic lattice of acceptance
# criterion 07 (item 6).
AWAITING_CHECK = (
    "expansion_coefficients", "verify_block_singular",
    "bergman_kernel", "bergman_square_lhs",
    "volume_minor", "induced_metric_xi",
    "elliptic_tau_from_cubic",
)


def _public_modules():
    for info in pkgutil.iter_modules(holodiff.__path__):
        module = importlib.import_module(f"holodiff.{info.name}")
        if hasattr(module, "__all__"):
            yield module


PUBLIC = {module.__name__: module for module in _public_modules()}


def _defined_names(stmt) -> set[str]:
    """Names a top-level statement binds, so it does not count as a caller."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _referenced(stmt) -> set[str]:
    """Identifiers a statement uses: names, attributes, imports, and the
    dotted parts of string constants such as "linalg.signed_minor.ms"."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.update(node.value.split("."))
    return out


def _callers() -> set[str]:
    used = set()
    for path in CALLER_FILES:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = _defined_names(stmt)
            if "__all__" not in defined:
                used |= _referenced(stmt) - defined
    return used


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_public_names_exist(name):
    module = PUBLIC[name]
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_public_names_have_callers():
    used = _callers()
    idle = [f"{name}.{n}" for name, module in sorted(PUBLIC.items())
            for n in module.__all__ if n not in used and n not in AWAITING_CHECK]
    assert not idle, f"public names with no caller outside the unit tests: {idle}"


def test_awaiting_names_are_still_idle():
    # a name leaves AWAITING_CHECK once its check calls it
    public = {n for module in PUBLIC.values() for n in module.__all__}
    assert set(AWAITING_CHECK) <= public
    assert not set(AWAITING_CHECK) & _callers()


def _functions():
    """(module, name) of every module-level function of the package."""
    for path in sorted((ROOT / "src" / "holodiff").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, stmt.name


def test_module_functions_have_callers():
    # a function that only the tests call, private or not, is code that
    # only tests keep alive; a reference the tests need goes to oracles.py
    used = _callers()
    idle = [f"{module}.{name}" for module, name in _functions()
            if name not in used and name not in AWAITING_CHECK]
    assert not idle, f"module-level functions with no caller outside the unit tests: {idle}"


def _attribute_callers() -> set[str]:
    """Attribute names read in the caller files, and the dotted parts of
    their string constants: the ways a member is reached by name."""
    used = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.split("."))
    return used


def _members():
    """(module, class, name) of every method and property of a package
    class.  Dunder methods answer to syntax such as `@` or `repr`, not to
    their names, so they are left out."""
    for path in sorted((ROOT / "src" / "holodiff").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(cls, ast.ClassDef):
                for item in cls.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("__")):
                        yield path.stem, cls.name, item.name


def test_members_have_callers():
    used = _attribute_callers()
    idle = [f"{module}.{cls}.{name}" for module, cls, name in _members() if name not in used]
    assert not idle, f"methods and properties with no caller outside the unit tests: {idle}"


def _defaulted_parameters():
    """(module, callee name, position, parameter) of every parameter with a
    default value of a package function or method.  A method is called
    by its name, `__init__` by its class's name, and position counts the
    arguments a call passes, after `self` or `cls` for a method."""
    for path in sorted((ROOT / "src" / "holodiff").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = [(None, tree.body)] + [(cls.name, cls.body) for cls in ast.walk(tree)
                                         if isinstance(cls, ast.ClassDef)]
        for cls, body in owners:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                bound = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in fn.decorator_list)
                name = cls if fn.name == "__init__" else fn.name
                first = len(positional) - len(args.defaults)
                for pos in range(first, len(positional)):
                    yield path.stem, name, pos - bound, positional[pos].arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield path.stem, name, None, arg.arg


def _passed_arguments() -> set:
    """(callee name, position or keyword) of every argument a call in the
    caller files passes; a starred argument passes every position, a
    double-starred one every keyword."""
    passed = set()
    for path in CALLER_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            for pos, arg in enumerate(node.args):
                passed.add((name, "*" if isinstance(arg, ast.Starred) else pos))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
    return passed


def test_defaulted_parameters_are_passed_by_some_caller():
    # a parameter with a default that no caller outside the unit tests
    # ever passes is an unused knob: every call takes its default
    passed = _passed_arguments()
    idle = [f"{module}.{name}({param})" for module, name, pos, param in _defaulted_parameters()
            if not {(name, pos), (name, "*"), (name, param), (name, "**")} & passed]
    assert not idle, f"parameters with defaults no caller outside the unit tests passes: {idle}"


MODEL_CLASSES = {"PlaneCurve", "HyperellipticCurve"}


def _model_isinstance_calls(path):
    """Line numbers of the isinstance calls in `path` that name a model class."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"):
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if named & MODEL_CLASSES:
                lines.append(node.lineno)
    return sorted(lines)


def test_only_curves_branches_on_the_model_class():
    # what a curve model decides (its monomials, chart values, sampling and
    # `canonical`) lives on the model; other modules read those, so a new
    # model kind needs no new branch outside curves.py
    branches = {path.name: lines
                for path in sorted((ROOT / "src" / "holodiff").glob("*.py"))
                if path.name != "curves.py" and (lines := _model_isinstance_calls(path))}
    assert not branches, f"isinstance on a curve model class outside curves.py: {branches}"
