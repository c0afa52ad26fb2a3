"""Package exports resolve on first access, to the same objects as before.

Every package under ``repro`` with ``__all__`` re-exports its
submodules' names lazily (``repro._lazy``); these checks hold each one
to what its eager imports used to give.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def _packages() -> list[str]:
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [name for name in names
            if hasattr(importlib.import_module(name), "__all__")]


PACKAGES = _packages()


def test_every_package_is_covered():
    assert {"repro.analysis", "repro.cli", "repro.obs", "repro.stream",
            "repro.trace", "repro.workloads"} <= set(PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_exports_are_their_submodules_objects(name):
    package = importlib.import_module(name)
    submodules = [importlib.import_module(f"{name}.{info.name}")
                  for info in pkgutil.iter_modules(package.__path__)]
    for export in package.__all__:
        value = getattr(package, export)
        held = [vars(sub)[export] for sub in submodules if export in vars(sub)]
        assert all(obj is value for obj in held), export


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_and_dir_list_every_export(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # noqa: S102
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_names_raise_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError):
        package.no_such_export  # noqa: B018
    assert not hasattr(package, "no_such_export")


def test_first_access_imports_on_demand():
    """In a fresh interpreter: a package import loads no submodule,
    submodules resolve as attributes, and an export keeps its place
    over the submodule of the same name however that was imported."""
    code = textwrap.dedent("""
        import sys
        import repro.analysis
        assert "repro.analysis.pairing" not in sys.modules
        assert repro.analysis.parallel.parallel_pair
        assert "repro.workloads.harness" not in sys.modules

        import repro.analysis.characterize
        from repro.analysis import characterize
        assert callable(characterize), characterize
        assert repro.analysis.characterize is characterize

        import repro.cli.main
        from repro.cli import main
        assert callable(main), main
        assert sys.modules["repro.cli.main"].main is main
    """)
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
