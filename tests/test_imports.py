"""Every name a subharnack module imports is used in that module, every
private top-level helper is named somewhere in the package, and every
parameter of a module-level function is read by it.

No linter ships with the test extra, so this parses each module with
``ast``: an imported name that never appears as a name elsewhere in its
module fails, and so does a private top-level function or class that no
module names outside its own definition, and a parameter of a top-level
function that its body never names, unless the allow-lists below say why
it stays. Methods are exempt: they implement ``TestFunction``'s
interface.
"""

import ast
import pathlib
from collections import Counter

import pytest

import subharnack

PACKAGE_DIR = pathlib.Path(subharnack.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))

# (module, name): why the import stays although the module never uses it
ALLOWED = {
    ("semigroup", "quad"): "bench/tracer.py rebinds it in every module "
                           "that integrates, to count quadrature calls",
    ("subordinator", "quad"): "bench/tracer.py rebinds it in every module "
                              "that integrates, to count quadrature calls",
    ("verify", "quad"): "bench/tracer.py rebinds it in every module "
                        "that integrates, to count quadrature calls",
}

# (module, name): why the private helper stays although no module names it
ALLOWED_UNREFERENCED = {}

# (module, function, parameter): why the parameter stays although the
# function never reads it
_ONE_PROFILE = ("every base of rate K >= 0 has the same profile; the "
                "roadmap's Kolmogorov (kappa = 3) and hyperbolic (K < 0) "
                "bases will read it")
ALLOWED_UNREAD = {
    ("subordinator", "integrate_against", "spec"):
        "acceptance criterion 01 and the benchmark's oracle queries pass it",
    ("semigroup", "subordinated_apply", "spec"):
        "acceptance criterion 06 passes it",
    ("semigroup", "subordinated_density", "spec"):
        "the benchmark's oracle queries pass it",
    ("verify", "run_sweep", "threads"): "acceptance criterion 11 passes it",
    ("verify", "power_profile", "base"): _ONE_PROFILE,
    ("verify", "log_profile", "base"): _ONE_PROFILE,
}

# modules whose imports are the package's public names
REEXPORTS = {"__init__": "the package re-exports the public API"}


def _tree(module):
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text())


def _imported(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _used(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _unused(module):
    tree = _tree(module)
    return _imported(tree) - _used(tree)


@pytest.mark.parametrize("module", [m for m in MODULES if m not in REEXPORTS])
def test_no_unused_imports(module):
    unused = {name for name in _unused(module) if (module, name) not in ALLOWED}
    assert not unused, f"{module} imports but never uses {sorted(unused)}"


@pytest.mark.parametrize("module, name", sorted(ALLOWED))
def test_allowed_imports_are_still_unused(module, name):
    # an entry for a name the module uses, or no longer imports, is stale
    assert name in _unused(module)


def _named(node):
    """How often each name is named within node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _unreferenced():
    """(module, name) of every private top-level function or class that no
    module names outside its own definition."""
    trees = {module: _tree(module) for module in MODULES}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    return {(module, node.name) for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and named[node.name] == _named(node)[node.name]}


def test_no_unreferenced_private_helpers():
    dead = _unreferenced() - set(ALLOWED_UNREFERENCED)
    assert not dead, f"private helpers that nothing names: {sorted(dead)}"


def test_allowed_unreferenced_are_still_unreferenced():
    # an entry for a helper that some module names, or that is gone, is stale
    stale = set(ALLOWED_UNREFERENCED) - _unreferenced()
    assert not stale, f"stale ALLOWED_UNREFERENCED entries: {sorted(stale)}"


def _unread_parameters():
    """(module, function, parameter) of every parameter of a top-level
    function that the function's body never names."""
    unread = set()
    for module in MODULES:
        for node in _tree(module).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg, args.kwarg) if a]
            named = {n.id for stmt in node.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            unread.update((module, node.name, p) for p in params if p not in named)
    return unread


def test_no_unread_parameters():
    unread = _unread_parameters() - set(ALLOWED_UNREAD)
    assert not unread, f"parameters that nothing reads: {sorted(unread)}"


def test_allowed_unread_are_still_unread():
    # an entry for a parameter the function reads, or that is gone, is stale
    stale = set(ALLOWED_UNREAD) - _unread_parameters()
    assert not stale, f"stale ALLOWED_UNREAD entries: {sorted(stale)}"


def _report_builders():
    """Names of the top-level functions of verify that call BoundReport."""
    return {node.name for node in _tree("verify").body
            if isinstance(node, ast.FunctionDef)
            for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "BoundReport"}


def test_reports_are_built_in_one_place():
    # _report builds every evaluated entry and _unchecked every other one,
    # so each entry's status comes from one rule
    assert _report_builders() == {"_report", "_unchecked"}
