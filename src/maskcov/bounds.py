"""Closed-form evaluators for the error bounds.

All logarithms are natural.  Asymptotic o(1) terms are evaluated as 0,
so those envelopes are references to check with a multiplicative
tolerance, not hard bounds.
"""

from __future__ import annotations

import math


def bound_minor(m: int, n: int, sigma_norm: float) -> float:
    """Envelope (2 sqrt(m/n) + m/n) ||Sigma|| for an m-variable minor.

    At m = p it is the Bai-Yin envelope of the full sample covariance.
    """
    return (2.0 * math.sqrt(m / n) + m / n) * sigma_norm


def bound_theorem_main(norm_12: float, norm_op: float, n: int, p: int,
                       sigma_norm: float) -> float:
    """C log^3(2p) (||M||_{1,2}/sqrt(n) + ||M||/n) ||Sigma|| at C = 1.

    The paper leaves the absolute constant C unspecified, so this is the
    shape of the main theorem's bound, evaluated at C = 1.
    """
    return (math.log(2 * p) ** 3
            * (norm_12 / math.sqrt(n) + norm_op / n) * sigma_norm)


def bound_refined(norm_12: float, norm_op: float, n: int, p: int,
                  sigma_norm: float) -> float:
    """Explicit-constant bound with no free parameter.

    Evaluates 84 ||M||_{1,2} ceil(ln 2ep)^{5/2} / sqrt(n)
            + 263 ||M|| ceil(ln 2ep)^3 / n,
    scaled by ||Sigma|| and doubled: the decoupling step converts the
    decoupled-matrix expectation into a bound on the estimation error
    at the cost of a factor 2.
    """
    lg = math.ceil(math.log(2 * math.e * p))
    return 2.0 * (84.0 * norm_12 * lg ** 2.5 / math.sqrt(n)
                  + 263.0 * norm_op * lg ** 3 / n) * sigma_norm


def bound_identity_case(p: int, n: int) -> float:
    """sqrt(ln(2p)/n), the reference scale for the identity example."""
    return math.sqrt(math.log(2 * p) / n)
