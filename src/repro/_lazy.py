"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' names hands
:func:`lazy_exports` a table of them instead of importing them: each
name, and each submodule reached as an attribute, is imported on
first access.  ``import repro.analysis.pairing`` then runs the pairing
module and a few lines of package set-up, not the whole toolkit and
the simulator behind it.  ``__all__``, ``dir()`` and ``from pkg import
*`` see the names the eager imports used to bind.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


class _Package(ModuleType):
    """A package whose exports shadow same-named submodules.

    The import system binds each submodule it loads on the package.
    Where an export shares its submodule's name (``repro.cli.main``,
    ``repro.analysis.characterize``), the export keeps the attribute,
    as it did when the package imported it eagerly.
    """

    def __setattr__(self, name, value):
        if (isinstance(value, ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self.__dict__.get("__all__", ())):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``'s module namespace.

    ``table`` maps each submodule (relative to ``package``) to the
    names it exports.  A name resolves by importing its submodule and
    is cached on the package; any other attribute is tried as a
    submodule, and failing that raises :class:`AttributeError`.
    """
    module = sys.modules[package]
    module.__class__ = _Package
    namespace = vars(module)
    source = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = source.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
            namespace[name] = value
            return value
        try:
            return importlib.import_module(f"{package}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{name}":
                raise  # the submodule exists but failed to import
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
