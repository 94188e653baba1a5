"""Exception types shared across the simulator, and the one check of the
sign and finiteness of a numeric parameter."""

from math import inf

# Config keys that differ from their field names ('lambda' is a keyword).
KEY_OF = {"lam": "lambda"}


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


def require_finite(obj, positive=(), nonnegative=()) -> None:
    """Raise InvalidInputError unless each field of ``obj`` named in
    ``positive`` is finite and > 0 and each one named in ``nonnegative`` is
    finite and >= 0; NaN and +-inf fail both.  The message names the field
    by its config key."""
    values = obj.__dict__  # cheaper than a getattr per field
    for name in positive:
        if not 0.0 < values[name] < inf:
            raise InvalidInputError(f"{KEY_OF.get(name, name)} must be finite "
                                    f"and > 0, got {values[name]}")
    for name in nonnegative:
        if not 0.0 <= values[name] < inf:
            raise InvalidInputError(f"{KEY_OF.get(name, name)} must be finite "
                                    f"and >= 0, got {values[name]}")
