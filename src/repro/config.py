"""Environment-variable parsing that names the variable in its errors.

Scale knobs and runtime switches throughout the repo (``REPRO_BENCH_*``,
``REPRO_LEASE_TTL``, ``REPRO_MAX_RETRIES``, ...) are plain environment
variables.  Parsing them with bare ``int(os.environ.get(...))`` turns a
typo like ``REPRO_BENCH_SAMPLES=6O`` into a naked ``ValueError: invalid
literal for int()`` raised at import time, with no hint of *which*
variable is broken.  These helpers raise
:class:`~repro.errors.ConfigurationError` carrying the variable name, the
offending value and the expected type, and optionally enforce a lower
bound.  On/off switches all go through :func:`env_bool`, so every one of
them reads ``off`` the same way.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ConfigurationError


def _parse(name: str, raw: str, caster, kind: str, minimum):
    try:
        value = caster(raw)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"environment variable {name} must be {kind}, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(
            f"environment variable {name} must be >= {minimum}, got {value}"
        )
    return value


def env_int(name: str, default: int, minimum: Optional[int] = None) -> int:
    """``int(os.environ[name])`` with a named error and optional lower bound.

    An unset, empty or all-whitespace variable returns ``default`` (the
    default is *not* bound-checked — callers own their defaults).
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return _parse(name, raw, int, "an integer", minimum)


def env_float(name: str, default: float, minimum: Optional[float] = None) -> float:
    """``float(os.environ[name])`` with a named error and optional lower bound."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return _parse(name, raw, float, "a number", minimum)


def env_str(name: str, default: str, choices: Optional[tuple] = None) -> str:
    """``os.environ[name]`` with optional membership validation."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    if choices is not None and raw not in choices:
        raise ConfigurationError(
            f"environment variable {name} must be one of {sorted(choices)}, "
            f"got {raw!r}"
        )
    return raw


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def env_bool(name: str, default: bool) -> bool:
    """An on/off switch: ``1/true/yes/on`` or ``0/false/no/off``.

    Case and surrounding whitespace are ignored; an unset or empty variable
    returns ``default``.  Anything else raises a named error — a typo must
    not silently pick a side.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ConfigurationError(
        f"environment variable {name} must be one of "
        f"{'/'.join(_TRUE)} or {'/'.join(_FALSE)}, got {os.environ[name]!r}"
    )


__all__ = ["env_bool", "env_int", "env_float", "env_str"]
