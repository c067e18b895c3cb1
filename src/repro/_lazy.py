"""Lazy package namespaces (PEP 562): a package costs only what a caller touches.

A package ``__init__`` declares its public names as one table and hands
it to :func:`attach`::

    _EXPORTS = {"simulate": ".facade", "telemetry": ".telemetry"}
    __getattr__, __dir__ = attach(__name__, _EXPORTS)
    __all__ = list(_EXPORTS)

The first access of a name imports its submodule and binds the value in
the package, so later lookups are plain attribute reads.  A name that is
its submodule's own last component (``"telemetry": ".telemetry"``,
``"bounds": ".core.bounds"``) resolves to that module.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def attach(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` serving ``exports`` (``{name: submodule}``)."""

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(exports[name], package)
        is_module = module.__name__.rpartition(".")[2] == name
        value = module if is_module else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
