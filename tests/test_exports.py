"""Every name a module exports must exist, so a deleted function cannot linger
in an ``__all__`` list or in the package's re-exports."""

import pkgutil

import pytest

import sphereflow

MODULES = ["sphereflow"] + [f"sphereflow.{m.name}"
                            for m in pkgutil.iter_modules(sphereflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})
