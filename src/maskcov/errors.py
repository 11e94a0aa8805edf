"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: rejected input -> 1, numerical
failure -> 2, failed bound/lemma assertion -> 3.  :func:`integer` and
:func:`spec_field` read config values, turning an ill-typed or missing
one into rejected input.
"""

from numbers import Integral


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


def spec_field(spec: dict, key: str, cast):
    """Return ``cast(spec[key])``; a missing or ill-typed field is InputError."""
    try:
        return cast(spec[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid or missing {key!r} in {spec!r}") from exc


def integer(value, name: str) -> int:
    """``value`` as an int; a bool or non-integer is InputError, never truncated."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)
