"""Every name a subharnack module imports is used in that module.

No linter ships with the test extra, so this parses each module with
``ast``: an imported name that never appears as a name elsewhere in its
module fails, unless the allow-lists below say why it stays.
"""

import ast
import pathlib

import pytest

import subharnack

PACKAGE_DIR = pathlib.Path(subharnack.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE_DIR.glob("*.py"))

# (module, name): why the import stays although the module never uses it
ALLOWED = {
    ("subordinator", "quad"): "bench/tracer.py rebinds it in every module "
                              "that integrates, to count quadrature calls",
    ("verify", "quad"): "bench/tracer.py rebinds it in every module "
                        "that integrates, to count quadrature calls",
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
