"""Lazy package exports (PEP 562).

Every package ``__init__`` in ``repro`` re-exports names from its modules
without importing them: :func:`lazy_exports` returns the package's
``__getattr__``, ``__dir__`` and ``__all__``, and a name is imported from its
module on first access, then stored on the package so later lookups are plain
attribute reads.  ``import repro.x.y`` therefore loads only what ``y`` itself
imports, and ``from repro import *`` still binds every name in ``__all__``.

A name that is not exported resolves as a submodule (``repro.core.analysis``
after only ``import repro.core``), as it would after an eager ``__init__``
had imported that submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each module (absolute name) to the names the package
    re-exports from it; ``__all__`` lists them in that order.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, list(origin)
