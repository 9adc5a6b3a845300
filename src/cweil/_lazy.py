"""Deferred imports, so that commands doing no array work never run numpy."""

from __future__ import annotations

import importlib.util
import sys


def lazy_import(name: str):
    """The module `name`, whose body runs at its first attribute access.

    A module already in `sys.modules` (loaded, or deferred by an earlier
    call) is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
