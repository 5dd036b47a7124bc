"""networkx, imported on first attribute access.

`check`, `scribe` and cyclic `generate` never touch a graph, so importing
polyscribe does not pay for networkx: the modules that use it take `nx`
from here, a placeholder in ``sys.modules["networkx"]`` that runs the real
import the first time one of its attributes is read
(`importlib.util.LazyLoader`).
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name: str):
    """The module `name`, as is if already imported, else a lazy placeholder."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


nx = lazy_module("networkx")
