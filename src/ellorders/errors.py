"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError and ParseError become usage
errors (2), ResourceError (a ceiling, or a label missing from every cache)
becomes a resource error (3), and DataIntegrityError, a failed cross-check
or a malformed cache file, exits 1.
"""


class InputError(ValueError):
    """A caller passed something outside an operation's stated domain."""


class ParseError(InputError):
    """Bad textual input.  ``position`` is the 0-based offending index."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SingularModelError(InputError):
    """Coefficients with vanishing discriminant where a curve is required."""


class UnsupportedPrimeError(InputError):
    """A prime outside the supported range or splitting behaviour."""


class BadReductionError(UnsupportedPrimeError):
    """A residue field computation was asked for at a prime of bad reduction."""


class ResourceError(RuntimeError):
    """A scan or search would exceed a configured ceiling."""


class CacheMissError(ResourceError):
    """A label is in neither the user cache nor the bundled cache."""


class DataIntegrityError(RuntimeError):
    """Internal cross-check failed; indicates a bug or corrupted cache."""
