"""Exception types shared across the package.

``ConfigError`` is the one refusal: a configuration that is malformed, or
that the computation cannot serve, raises it or one of its subclasses
where the limit it breaks is known, and ``lab`` exits 2 on it with one
``config error:`` line.  Any other exception is a program fault.
"""


class ConfigError(ValueError):
    """A configuration ``lab`` refuses; the message names what it breaks."""


class AliasingError(ConfigError):
    """A Fourier index is out of range for the sampling grid in use."""


class WindowTooSmallError(ConfigError):
    """A truncation window cannot accommodate the requested bandwidth/margin."""


class FloatRangeError(ConfigError):
    """A value the run must read lies outside the float range."""


class ZeroProfileError(ConfigError):
    """An operation that needs a nonzero profile received the zero profile."""


class IllConditionedError(ConfigError):
    """A linear solve exceeded the conditioning tolerance.

    The offending condition estimate is stored in ``cond``.
    """

    def __init__(self, message, cond):
        super().__init__(message)
        self.cond = float(cond)
