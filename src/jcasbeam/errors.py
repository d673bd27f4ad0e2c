"""Exception types shared across the package."""


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
