"""Shared exception classes.

The CLI maps these to distinct exit codes, so keep the split between
"your configuration is wrong" and "your input file is malformed" intact.
"""


class PDNetSimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PDNetSimError):
    """Invalid configuration: bad parameter values, unknown keys, missing nodes."""


class ParseError(PDNetSimError):
    """Malformed input file (edge list, ratings CSV, series CSV)."""


_INT_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def require_int(value, name: str, least: int | None = None) -> None:
    """Raise ConfigError unless value is an int of at least `least` (0, 1 or None for any).

    A bool is an int to Python but no count or seed here: True would play as 1.
    """
    if type(value) is bool or not isinstance(value, int) or (least is not None and value < least):
        raise ConfigError(f"{name} must be {_INT_KINDS[least]}, got {value!r}")
