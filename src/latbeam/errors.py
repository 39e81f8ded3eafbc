"""Exception types shared across the package.

Everything raised on bad input derives from LatbeamError so batch drivers
can catch one type per work item and keep going.
"""


class LatbeamError(Exception):
    pass


class LatticeFormatError(LatbeamError):
    """Malformed lattice or symbol table text."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownSymbolError(LatticeFormatError):
    pass


class CyclicLatticeError(LatbeamError):
    pass


class EpsilonCycleError(CyclicLatticeError):
    pass


class EpsilonArcError(LatbeamError):
    """An operation that requires epsilon-free input saw a label-0 arc."""


class NotDeterministicError(LatbeamError):
    pass


class NotCoaccessibleError(LatbeamError):
    pass


class NotStochasticError(LatbeamError):
    pass


class EmptyLatticeError(LatbeamError):
    pass


class SemiringError(LatbeamError):
    pass


class ScorerFormatError(LatbeamError):
    pass


class BleuError(LatbeamError, ValueError):
    """Hypotheses and references that BLEU cannot compare: unequal
    counts, or none at all."""


class ConfigError(LatbeamError, ValueError):
    """An invalid setting or argument, such as a decoder beam below 1 or
    an unknown semiring tag."""


class TuneError(LatbeamError, RuntimeError):
    """Tuning had no grid point, or a development-set decode failed."""
