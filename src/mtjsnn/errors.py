"""Exception types shared across the package."""


class MtjsnnError(Exception):
    """Base class for package errors."""


class InvalidInputError(MtjsnnError, ValueError):
    """An operation received a value outside its contract (non-finite, wrong sign, ...).

    ``key`` names the offending field when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class InvalidStateError(MtjsnnError, ValueError):
    """A state object violates its invariants (e.g. non-unit magnetization)."""


class NumericalFailureError(MtjsnnError, RuntimeError):
    """A numerical routine failed to produce a solution (e.g. circuit solve bracket lost)."""


class InsufficientDataError(MtjsnnError, ValueError):
    """Not enough usable data points for a fit."""


class DivergenceError(MtjsnnError, RuntimeError):
    """Training loss blew up past the divergence guard."""


class ConfigError(MtjsnnError, ValueError):
    """Configuration document failed validation.

    ``key`` names the offending key path when known.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
