"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: rejected input -> 1, numerical
failure -> 2, failed bound/lemma assertion -> 3.  :func:`spec_field`
reads a config field, turning a missing or ill-typed one into
rejected input.
"""


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
