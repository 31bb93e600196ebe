"""Exception types shared across the package."""


class AliasingError(ValueError):
    """A Fourier index is out of range for the sampling grid in use."""


class WindowTooSmallError(ValueError):
    """A truncation window cannot accommodate the requested bandwidth/margin."""


class FloatRangeError(ValueError):
    """A value the run must read lies outside the float range."""


class ZeroProfileError(ValueError):
    """An operation that needs a nonzero profile received the zero profile."""


class IllConditionedError(ValueError):
    """A linear solve exceeded the conditioning tolerance.

    The offending condition estimate is stored in ``cond``.
    """

    def __init__(self, message, cond):
        super().__init__(message)
        self.cond = float(cond)
