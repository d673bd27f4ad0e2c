"""Exception types shared across the package, and the power-budget check both solvers make."""

import numpy as np


class ConfigError(ValueError):
    """Invalid, inconsistent, or unknown configuration input."""


class SolverError(RuntimeError):
    """A numerical solver failed to converge.

    Carries the last iterate and its final residual so a failed run can be
    inspected instead of silently discarded.
    """

    def __init__(self, message, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class DegenerateChannelError(ValueError):
    """Channel matrix carries no usable signal dimension (zero channel)."""


def check_powers(powers) -> None:
    """Raise :class:`ConfigError` naming the first power budget that is not positive and finite."""
    powers = np.ravel(np.asarray(powers, dtype=float))
    # the comparisons reject nan as well as inf
    bad = ~((powers > 0.0) & (powers < np.inf))
    if np.count_nonzero(bad):
        raise ConfigError(f"power budget {powers[np.argmax(bad)]:g} must be positive and finite")
