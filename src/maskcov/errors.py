"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: rejected input -> 1, numerical
failure -> 2, failed bound/lemma assertion -> 3.  :func:`integer`,
:func:`number` and :func:`spec_field` read config values, turning an
ill-typed or missing one into rejected input.
"""

from numbers import Integral, Real


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


def integer(value, name: str) -> int:
    """``value`` as an int; a bool or non-integer is InputError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


def number(value, name: str) -> float:
    """``value`` as a float; a bool, a string or a non-number is InputError."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InputError(f"{name} must be a number, got {value!r}")
    return float(value)
