"""Exception hierarchy shared by all secmimo modules.

Four classes, one per outcome a caller can act on. Everything derives from
:class:`SecMimoError`:

- :class:`ConfigError`: an invalid experiment configuration, config file,
  results file or output path. The CLI exits 1.
- :class:`InvalidInputError`: a library call's argument breaks a documented
  precondition (shape, finiteness, value range, codebook size). The CLI
  exits 1 when one is raised while it builds the configuration or reads a
  results file, and 2 when one is raised inside a run.
- :class:`NumericalError`: a degenerate draw, such as a rank-deficient
  channel, a singular Gram matrix, a matrix that is not positive definite
  or a quantizer step that misses its distance. The paper's channels are
  full rank almost surely, so such a draw has measure zero. The CLI exits 2.
"""


class SecMimoError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(SecMimoError):
    """Invalid experiment or scenario configuration."""


class InvalidInputError(SecMimoError, ValueError):
    """Input violates a documented precondition (shape, non-finite, bad value)."""


class NumericalError(SecMimoError):
    """A measure-zero numerical degeneracy of a draw (rank deficiency, singular Gram)."""
