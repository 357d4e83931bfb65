"""Parsers for the ``REPRO_*`` environment knobs.

Every integer or boolean knob goes through :func:`env_int` or
:func:`env_flag`, so all of them share one warn-and-default error
policy.  The module imports nothing from the rest of the package, which
lets both :mod:`repro.workloads` and :mod:`repro.harness` use it.
"""

from __future__ import annotations

import os
import warnings


def env_int(name: str, default: int, minimum: int = 1) -> int:
    """Integer environment knob with warn-and-default error handling.

    An unset or empty variable silently yields ``default``; a malformed
    value (``"2e4"``, ``"20k"``) or one below ``minimum`` warns and
    yields ``default`` instead of crashing — or worse, silently running
    every experiment with the wrong knob.
    """
    value = os.environ.get(name, "")
    if not value:
        return default
    try:
        parsed = int(value)
    except ValueError:
        warnings.warn(
            f"ignoring malformed {name}={value!r} "
            f"(expected a positive integer); using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    if parsed < minimum:
        qualifier = "not positive" if minimum == 1 else f"below {minimum}"
        warnings.warn(
            f"{name}={value!r} is {qualifier}; using {default}",
            RuntimeWarning,
            stacklevel=3,
        )
        return default
    return parsed


#: Spellings accepted by :func:`env_flag` (case-insensitive).
_FLAG_TRUE = frozenset(("1", "true", "yes", "on"))
_FLAG_FALSE = frozenset(("0", "false", "no", "off", ""))


def env_flag(name: str, default: bool = False) -> bool:
    """Boolean environment knob with warn-and-default error handling.

    Accepts the usual spellings (``1/0``, ``true/false``, ``yes/no``,
    ``on/off``, any case); an empty set-but-blank variable reads as
    false; anything else warns and yields ``default``.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    norm = value.strip().lower()
    if norm in _FLAG_TRUE:
        return True
    if norm in _FLAG_FALSE:
        return False
    warnings.warn(
        f"ignoring malformed {name}={value!r} "
        f"(expected a boolean like 1/0/true/false); using {default}",
        RuntimeWarning,
        stacklevel=3,
    )
    return default
