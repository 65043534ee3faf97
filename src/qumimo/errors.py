"""Exception types shared across the package."""


class QumimoError(Exception):
    """Base class for package errors."""


class DimensionLimitError(QumimoError):
    """A constructed object would exceed the configured dimension cap."""


class NotHermitianError(QumimoError):
    """Input matrix is not Hermitian within tolerance."""


class NotPsdError(QumimoError):
    """Input matrix has an eigenvalue below the allowed negative tolerance."""


class SimplexError(QumimoError):
    """A probability vector violates the simplex constraints."""


class UndefinedIndexError(QumimoError):
    """The asymmetry index is undefined (no branch above the mixed baseline)."""


class SolverError(QumimoError):
    """An SDP solve terminated without an optimal certificate."""

    def __init__(self, status, message=""):
        self.status = status
        super().__init__(message or f"SDP solve ended with status '{status}'")


class ConfigError(QumimoError):
    """An experiment configuration failed validation.

    ``path`` points at the offending entry, e.g. ``$.eta[2]``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
