"""Every name a module exports, README calls or README's config table lists
must exist, so a deleted function, config key or flag cannot linger in an
``__all__`` list, in the package's re-exports or in the documentation."""

import argparse
import ast
import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import sphereflow
from sphereflow.cli import _build_parser
from sphereflow.flow import _CONFIG_KEYS

MODULES = ["sphereflow"] + [f"sphereflow.{m.name}"
                            for m in pkgutil.iter_modules(sphereflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})


def _run_option_dests() -> dict:
    """Each option string of the run subcommand, with the dest it stores under."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {option: action.dest for action in sub.choices["run"]._actions
            for option in action.option_strings}


def test_readme_config_table_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    # the first cell of each table row names its keys in backticks, the third
    # the run flag of each key in the same order
    rows = [[re.findall(r"`([^`]+)`", cell) for cell in line.split("|")[1:4]]
            for line in section.splitlines() if line.startswith("| `")]
    assert {key for keys, _, _ in rows for key in keys} == set(_CONFIG_KEYS)
    dests = _run_option_dests()
    for keys, _, flags in rows:
        # a flag stores under its config key; --shape parses into initialShape
        assert [dests.get(flag) for flag in flags] == [
            "shape" if key == "initialShape" else key for key in keys], keys


def test_readme_calls_only_names_that_exist():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # every `name( in backticks, numpy's own names left out, and every private
    # `_name` or `module._name` named without a call
    names = {name for name in re.findall(r"`([A-Za-z_][\w.]*)\(", readme)
             if not name.startswith("np.")}
    private = set(re.findall(r"`((?:\w+\.)*_\w+(?:\.\w+)*)`", readme))
    names |= private
    modules = [importlib.import_module(module) for module in MODULES]
    owners = modules + [cls for module in modules for _, cls in inspect.getmembers(
        module, inspect.isclass) if cls.__module__.startswith("sphereflow")]

    def resolves(owner, name):
        try:
            functools.reduce(getattr, name.split("."), owner)
        except AttributeError:
            return False
        return True

    assert names and private
    missing = sorted(name for name in names
                     if not any(resolves(owner, name) for owner in owners))
    assert not missing, missing


def _imported_modules(path: Path):
    """Every module path an import statement of path names, submodules included."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("path", sorted((Path(sphereflow.__file__).parent).glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_scipy_integrate_or_scipy_internals(path):
    """The time stepper and the volume's quadrature are the package's own:
    scipy's integrators and special functions, and its private modules, whose
    names and attributes change between releases, stay out."""
    for name in _imported_modules(path):
        parts = name.split(".")
        if parts[0] == "scipy":
            assert parts[1:2] not in (["integrate"], ["special"]), f"{path.name} imports {name}"
            private = any(part.startswith("_") for part in parts[1:])
            assert not private, f"{path.name} imports {name}"
