"""Every exported name resolves and every import is used, so a deletion
cannot leave a stale export or a dangling import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kimura

MODULES = ["kimura"] + [
    f"kimura.{m.name}" for m in pkgutil.iter_modules(kimura.__path__) if not m.name.startswith("__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _annotation_names(node: ast.AST):
    """Names read by an annotation, including one written as a string."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    """A module-level import is read somewhere in its module or re-exported
    through ``__all__``; anything else is left over from a deletion."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    exported = set(getattr(module, "__all__", ()))
    unused = sorted(f"{n} (line {ln})" for n, ln in imported.items() if n not in used | exported)
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_error_class_is_raised_somewhere():
    """Each error class but the base is constructed in a module other than
    ``errors``, so deleting a feature cannot leave its error class behind."""
    errors = importlib.import_module("kimura.errors")
    classes = {
        n
        for n, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.KimuraError) and obj is not errors.KimuraError
    }
    built = set()
    for path in Path(kimura.__file__).parent.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                built.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    missing = sorted(classes - built)
    assert not missing, f"error classes never constructed outside errors.py: {missing}"


def test_one_euler_loop_draws_the_noise():
    """``next_normals`` is called from one function in the package, the
    engine's ``sde._advance``, so a second hand-written Euler loop cannot
    come back unnoticed."""
    callers = []
    for path in Path(kimura.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == "next_normals":
                        callers.append(f"{path.stem}.{fn.name}")
    assert callers == ["sde._advance"], callers


def test_the_engine_runs_the_operator_it_is_given():
    """Inside the package only ``counterexample_ensemble`` (A3's entry) and
    ``make_preset`` build ``remark_counterexample``, so no estimator or task
    swaps a preset in for the operator it was given; and no code defines
    ``noise_increment``, so ``_EulerUpdate`` holds the one noise factor."""
    callers, defined = [], []
    for path in Path(kimura.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name == "noise_increment":
                defined.append(f"{path.stem}.{fn.name}")
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name == "remark_counterexample":
                        callers.append(f"{path.stem}.{fn.name}")
    assert sorted(callers) == ["operator.make_preset", "sde.counterexample_ensemble"], callers
    assert not defined, defined


def test_every_definition_is_referenced():
    """Every function, method and class defined in the package is read by
    name (a name or an attribute) somewhere in the package or the tests
    outside its own definition, so a deletion cannot leave dead code.
    Dunder methods, which Python calls itself, are exempt."""
    here = Path(__file__).parent
    package = sorted(Path(kimura.__file__).parent.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in package + sorted(here.glob("*.py"))}
    refs = {}  # name -> [(file, line)]
    for path, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(name, str):
                refs.setdefault(name, []).append((path, node.lineno))
    unused = []
    for path in package:
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if all(p == path and ln in inside for p, ln in refs.get(name, ())):
                unused.append(f"{path.stem}.{name} (line {node.lineno})")
    assert not unused, f"defined but never referenced: {unused}"
