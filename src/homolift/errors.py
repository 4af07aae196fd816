"""Exception hierarchy shared across the package."""


class HomoliftError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(HomoliftError):
    """Malformed `.gm` input; carries 1-based line/column of the offending token."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)


class ValidationError(HomoliftError):
    """Structurally well-formed input that violates a graph-map invariant."""


class DimensionMismatchError(HomoliftError):
    """Operands live over group rings of different rank."""


class ResourceLimitError(HomoliftError):
    """A configured cap (cycle count, matrix size, cover degree) was exceeded.

    Raised loudly instead of truncating; distinct from an honest
    "nothing found within bounds" outcome.
    """


class LiftError(HomoliftError):
    """A cover or a lift to it could not be built: the cocycle does not
    generate the deck group (the cover graph is disconnected), or an edge's
    lift at fiber 0 does not end where the deck action says it must (the
    cocycle is not invariant under the map).

    This signals an internal invariant violation (a quotient that does not
    factor through the dynamical quotient), not a user error.
    """


class CertificateError(HomoliftError):
    """A certificate failed re-verification."""
