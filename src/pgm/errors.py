"""Exception hierarchy shared by all pgm modules."""


class PgmError(Exception):
    """Base class for all pgm errors."""


class DimensionMismatch(PgmError):
    """Operands have incompatible dimensions."""


class PatternMismatch(PgmError):
    """Operands are defined over different specified-entry patterns."""


class NotPositiveDefinite(PgmError):
    """A matrix required to be positive definite is not."""


class NotPartialPD(PgmError):
    """A partial matrix required to be partial positive definite is not."""


class NotCompletable(PgmError):
    """No positive definite completion exists: the completion iteration
    found a positive definite matrix supported on the pattern whose
    trace inner product with every completion is non-positive."""


class OutOfRange(PgmError):
    """A requested target value lies outside the attainable range."""


class TooManyMissing(PgmError):
    """More missing entries than the operation supports."""


class InternalNumerics(PgmError):
    """An internal numerical routine failed unexpectedly."""


class ParseError(PgmError):
    """Malformed partial-matrix text input."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}"
            if column is not None:
                loc += f", column {column}"
            loc += ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class AsymmetricPattern(ParseError):
    """An entry is given at (i, j) but marked missing at (j, i), or the
    two given values disagree."""


class MissingDiagonal(ParseError):
    """A diagonal entry is marked missing; diagonals must be specified."""
