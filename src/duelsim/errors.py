"""Exception types raised by the simulator."""


class DuelSimError(Exception):
    """Base class for all library errors."""


class ComplementViolation(DuelSimError):
    """A preference matrix entry pair violates mu_ij + mu_ji = 1."""


class NoCondorcetWinner(DuelSimError):
    """No arm beats every other arm with probability > 1/2."""


class MatrixParseError(DuelSimError):
    """A preference-matrix CSV could not be parsed."""


class HorizonExceeded(DuelSimError):
    """The environment was stepped past its configured horizon."""


class ModeMismatch(DuelSimError):
    """An observation call does not match the environment's feedback mode."""


class OutOfOrder(DuelSimError):
    """Plays were recorded with non-increasing time steps."""


class UnknownPlay(DuelSimError):
    """A conversion refers to a play that is not in the window."""


class NoData(DuelSimError):
    """A preference estimate was requested for a pair with no usable plays."""
