"""Shared exception classes, and the one check of a setting's value.

The CLI maps these to distinct exit codes, so keep the split between
"your configuration is wrong" and "your input file is malformed" intact.
"""

import os
from collections import namedtuple


class PDNetSimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PDNetSimError):
    """Invalid configuration: bad parameter values, unknown keys, missing nodes."""


class ParseError(PDNetSimError):
    """Malformed input file (edge list, ratings CSV, series CSV)."""


_INT_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
PATH = (str, os.PathLike)  # the kind of a file path

REQUIRED = object()  # the default of a field that has none: the caller must give it

# One field of a record (engine._Record): its default, and its check, require(value, label, kind, least,
# most), unless None and none_ok; with each, on every item of the tuple it must be. A label's {name!r} is
# the field `name`.
Check = namedtuple(
    "Check",
    ("label", "kind", "least", "most", "none_ok", "each", "default"),
    defaults=(None, None, False, False, REQUIRED),
)


def require(value, name: str, kind, least: int | None = None, most: int | None = None) -> None:
    """Raise ConfigError, naming `name`, unless value is of `kind`.

    int: an int of at least `least` (0, 1 or None for any) and at most
    `most` (None for no bound), and no bool, which would play as 1. PATH:
    a str or an os.PathLike, and no int, which open() would take as a file
    descriptor to read and close. A tuple: one of its values. Any other
    type: an instance of it.
    """
    if kind is int:
        ok = type(value) is not bool and isinstance(value, int)
        ok = ok and (least is None or value >= least) and (most is None or value <= most)
        wanted = _INT_KINDS[least] + ("" if most is None else f" no greater than {most}")
    elif kind is PATH:
        ok, wanted = isinstance(value, PATH), "a str or os.PathLike"
    elif isinstance(kind, tuple):
        ok, wanted = value in kind, f"one of {kind}"
    else:
        ok, wanted = isinstance(value, kind), f"{'an' if kind.__name__[0] in 'AEIOU' else 'a'} {kind.__name__}"
    if not ok:
        raise ConfigError(f"{name} must be {wanted}, got {value!r}")
