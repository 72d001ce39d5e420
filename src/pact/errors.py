"""Exception types shared across the toolkit, the loaders' header check and
the parameter check of the constructors.

``ValueError`` is used for plain invalid arguments; the classes below mark
data-dependent failures that the CLI maps to exit code 1.
"""

import math


class ToolkitError(Exception):
    """Base class for data/diagnostic errors raised by toolkit operations."""


class UndefinedMetricError(ToolkitError):
    """A metric is mathematically undefined for the given inputs."""


class WindowTooShortError(ToolkitError):
    """The recorded time window does not cover the required flight times."""


class DivergenceError(ToolkitError):
    """An iterative solver produced a non-finite objective."""


class GeometryMismatchError(ToolkitError):
    """Two files describe inconsistent geometries or shapes."""


class BasisSupportError(ToolkitError):
    """Kernel support is too small for the sampling density."""


_KINDS = {"int": "an integer", "number": "a finite number",
          "ints": "a list of integers", "numbers": "a list of finite numbers"}


def header_field(header, key, kind, source):
    """``header[key]`` if it is ``kind`` (a key of ``_KINDS``), else a
    :class:`GeometryMismatchError` naming ``source`` and ``key``."""
    if not isinstance(header, dict) or key not in header:
        raise GeometryMismatchError(f"{source}: missing header field '{key}'")
    value = header[key]
    items = value if kind.endswith("s") else [value]
    # type() rather than isinstance(): JSON true/false must not pass as 1/0.
    if not (isinstance(items, list) and all(
            type(v) is int if kind.startswith("int")
            else type(v) in (int, float) and math.isfinite(v) for v in items)):
        got = "" if kind.endswith("s") else f", got {value!r}"
        raise GeometryMismatchError(f"{source}: header field '{key}' must be {_KINDS[kind]}{got}")
    return value


def positive(value, what):
    """Raise a ``ValueError`` naming ``what`` unless ``value`` is finite and above zero."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{what} must be finite and positive, got {value!r}")
