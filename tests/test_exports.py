"""Every name a module exports or README's config table lists must exist, so a
deleted function or config key cannot linger in an ``__all__`` list, in the
package's re-exports or in the documentation."""

import pkgutil
import re
from pathlib import Path

import pytest

import sphereflow
from sphereflow.flow import _CONFIG_KEYS

MODULES = ["sphereflow"] + [f"sphereflow.{m.name}"
                            for m in pkgutil.iter_modules(sphereflow.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    exec(f"from {module} import *", {})


def test_readme_config_table_names_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config files", 1)[1].split("\n## ", 1)[0]
    # the first cell of each table row names its keys in backticks
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    assert {key for cell in rows for key in re.findall(r"`([^`]+)`", cell)} == set(_CONFIG_KEYS)
