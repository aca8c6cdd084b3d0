"""Exception hierarchy shared by all secmimo modules.

Everything derives from :class:`SecMimoError` so callers (and the CLI) can
separate configuration mistakes from numerical failures with two except
clauses.
"""


class SecMimoError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(SecMimoError):
    """Invalid experiment or scenario configuration."""


class InvalidInputError(SecMimoError, ValueError):
    """Input violates a documented precondition (non-finite, bad value)."""


class ShapeError(InvalidInputError):
    """Matrix dimensions are inconsistent with the requested operation."""


class DegenerateChannelError(SecMimoError):
    """A sampled matrix is (numerically) rank deficient where full rank is required."""


class NoNullspaceError(SecMimoError):
    """The requested nullspace is empty for these dimensions."""


class NotPositiveDefiniteError(SecMimoError):
    """Matrix expected to be Hermitian positive definite is not.

    Carries the offending smallest eigenvalue when it was computed.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class CodebookTooLargeError(SecMimoError):
    """Exhaustive codebook requested beyond the tractable size."""


class DegenerateGeometryError(SecMimoError):
    """A measure-zero geometric degeneracy (singular Gram matrix) occurred."""


class PerturbationError(SecMimoError):
    """Perturbation quantizer failed to reach its target distance."""
