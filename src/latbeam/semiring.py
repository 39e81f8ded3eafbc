"""Cost algebra used by every lattice operation.

Weights are plain floats holding negative natural logs: 0.0 is certainty,
bigger is less likely, INF is impossible (the semiring zero). Two kinds of
addition are in play. Tropical addition keeps the best cost (min), log
addition pools probability mass (softmin). Multiplication is ordinary
float addition in both.

Weights must never be NaN or -inf; parsers reject both on the way in.
"""

import math

from .errors import ConfigError

INF = math.inf

ZERO = INF
ONE = 0.0

TROPICAL = "tropical"
LOG = "log"

# how far a distribution's log total may stray from 0 (= log 1) and still
# count as normalized, for lattices and scorer rows alike
STOCHASTIC_TOL = 1e-6


def trop_add(a: float, b: float) -> float:
    """Tropical plus: the cheaper of two costs."""
    return a if a <= b else b


def log_add(a: float, b: float) -> float:
    """Log plus: -ln(exp(-a) + exp(-b)), safe for any finite inputs.

    Evaluated as min(a, b) - ln(1 + exp(-|a - b|)) so the exp argument is
    never positive. Stays finite for inputs anywhere in [-700, 700].
    """
    if a == INF:
        return b
    if b == INF:
        return a
    if b < a:
        a, b = b, a
    return a - math.log1p(math.exp(a - b))


def times(a: float, b: float) -> float:
    """Semiring multiply: costs accumulate; INF absorbs."""
    return a + b


def plus_for(semiring: str):
    """The additive operation for a semiring tag."""
    if semiring == TROPICAL:
        return trop_add
    if semiring == LOG:
        return log_add
    raise ConfigError(f"unknown semiring {semiring!r}")
