"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: rejected input -> 1, numerical
failure -> 2, failed bound/lemma assertion -> 3.  :func:`integer`,
:func:`number` and :func:`spec_field` read config values, turning an
ill-typed or missing one into rejected input.  :func:`integer` also
holds every integer range rule, as its bounds ``[least, below)``, and
:func:`count` reads every sample size, replicate, trial and batch count.
:func:`read_text` reads every input file and :func:`csv_rows` splits
every CSV: an unreadable or undecodable file and a ragged CSV are
rejected input too.
"""

import math
from numbers import Integral, Real
from pathlib import Path

#: sample sizes and trial counts are used as floats, which hold every
#: integer below 2^53 exactly
MAX_COUNT = 2 ** 53


class MaskcovError(Exception):
    """Base class for all package-specific errors."""


class InputError(MaskcovError):
    """An argument violates a documented precondition."""


class NotPSDError(InputError):
    """A matrix required to be positive semidefinite is not."""


class NumericalError(MaskcovError):
    """A numerical routine failed to converge or violated a sanity bound."""


class CheckFailedError(MaskcovError):
    """A Monte Carlo bound or lemma assertion did not hold."""


def spec_field(spec: dict, key: str, kind: type):
    """``spec[key]`` if it is a ``kind``; else InputError, never a cast."""
    value = spec.get(key)
    if not isinstance(value, kind):
        raise InputError(f"invalid or missing {key!r} in {spec!r}")
    return value


def integer(value, name: str, least=-math.inf, below=math.inf) -> int:
    """``value`` as an int in ``[least, below)``; a bool or non-integer is
    InputError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not least <= value < below:
        raise InputError(f"{name} must lie in [{least}, {below}), got {value}")
    return value


def count(value, name: str, least: int = 1) -> int:
    """``value`` as an :func:`integer` in ``[least, MAX_COUNT)``."""
    return integer(value, name, least, MAX_COUNT)


def number(value, name: str) -> float:
    """``value`` as a float; a bool, a string or a non-number is InputError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)


def read_text(path, what: str) -> str:
    """The UTF-8 text of ``path``: InputError if it cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def csv_rows(text: str) -> list:
    """The nonblank lines of ``text`` split at commas, all of one length."""
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputError(f"every row must have {len(rows[0])} cells")
    return rows
