"""Exception types shared across the simulator."""


class OxpixError(Exception):
    """Base class for all simulator errors."""


class InvalidInputError(OxpixError):
    """A numeric argument was non-finite or outside its physical domain."""


class OutOfRangeError(OxpixError):
    """A requested target lies outside the reachable range of the model."""


class UnsupportedOperationError(OxpixError):
    """The operation does not apply to the given configuration."""


class SolverError(OxpixError):
    """Transient or operating-point solve failed; carries diagnostics, and
    from ``integrate`` the ``SolverStats`` of the transient so far."""

    def __init__(self, message, detail=None):
        super().__init__(message)
        self.detail = detail or {}
        self.stats = None


class CalibrationError(OxpixError):
    """Model calibration could not produce a finite objective."""


class ConfigError(OxpixError):
    """Configuration file could not be parsed or validated."""
