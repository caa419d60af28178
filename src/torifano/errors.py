"""Exception taxonomy shared across the package.

Semantic input problems raise :class:`InputError` (or a subclass) so the
command line layer can map them to a dedicated exit code; numerical
breakdowns raise the more specific types below.
"""


class InputError(ValueError):
    """Structurally or semantically invalid input data."""


class ConfigurationError(InputError):
    """Solver or grid configuration outside the supported regime."""


class EmptyPolytopeError(InputError):
    """Halfspace system with no feasible point.

    ``certificate`` holds exact Farkas multipliers y >= 0, one per row, with
    sum y_j d_j = 0 and sum y_j c_j < 0: a weighted sum of rows that fails.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class UnboundedPolytopeError(InputError):
    """Halfspace system with a nontrivial recession direction."""

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class DegenerateLiftError(InputError):
    """Lifted test configuration whose cap cuts below the graph."""


class UnknownExampleError(LookupError):
    """Name not present in the built-in example registry.

    Deliberately not an :class:`InputError`: a bad registry name is a usage
    mistake, not a malformed problem document.
    """
