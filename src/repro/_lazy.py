"""Package surfaces that load their modules on first use (PEP 562).

A package ``__init__`` that re-exports its submodules' names by plain
imports loads every submodule whenever any one of them is imported,
because Python runs the package ``__init__`` first.  A lazy surface
keeps the same public names but imports the defining module only when
a name is first read, then stores the value in the package namespace
so later reads are ordinary attribute lookups.  A submodule name imports
the submodule, so ``import repro; repro.uarch.Stats`` works as it did
when the package ``__init__`` imported every submodule.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_surface(
    module: str, exports: Dict[str, Sequence[str]],
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the module named ``module``.

    ``exports`` maps each defining module (a relative name, as the
    module itself would write it in a ``from . import``) to the public
    names it provides; ``__all__`` lists them in that order.
    """
    namespace = sys.modules[module].__dict__
    anchor = namespace["__package__"]
    table = {name: source for source, names in exports.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        source = table.get(name)
        if source is None:
            submodule = f"{module}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
            raise AttributeError(
                f"module {module!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(source, anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return list(table), __getattr__, __dir__
