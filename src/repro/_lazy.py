"""Lazy package exports (PEP 562).

Each package ``__init__`` of :mod:`repro` names every export once,
under the submodule that defines it, and imports nothing else: the
submodule loads on the first access of one of its names.  So ``import
repro`` or ``import repro.query.server`` loads only the modules that
are actually used, while ``from repro import run_cpm`` and ``from
repro import *`` keep working with the same names.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from importlib import import_module


def attach(
    package: str, exports: dict[str, list[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` of the package named ``package``.

    ``exports`` maps each submodule (relative to the package) to the
    names it exports, in ``__all__`` order.  An exported name that is
    also the name of a listed submodule (``repro.baselines.eagle``, the
    function, beside ``repro/baselines/eagle.py``) is bound now, after
    that submodule is imported: importing a submodule sets the package
    attribute of its name to the module, which would otherwise shadow
    the export as soon as anything imported the submodule.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    for name in origin.keys() & exports.keys():
        import_module(f"{package}.{name}")
        namespace[name] = getattr(import_module(f"{package}.{origin[name]}"), name)
    return __getattr__, __dir__, list(origin)
