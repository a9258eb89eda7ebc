"""Exception types shared across the package."""


class KgPatternError(Exception):
    """Base class for all kgpattern errors."""


class _GraphLineError(KgPatternError):
    """A graph file error, prefixed with its line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphParseError(_GraphLineError):
    """Malformed graph record."""


class GraphLinkError(_GraphLineError):
    """Reference to an entity that was never declared."""


class IndexFormatError(KgPatternError):
    """Index file has a bad magic number or unsupported version."""


class IndexCorruptError(KgPatternError):
    """Index file is truncated or internally inconsistent."""


class ScoreDomainError(KgPatternError):
    """A score factor hit zero with a negative exponent, or a score is not finite."""


class ParameterError(KgPatternError):
    """A parameter is outside its allowed range."""


class TableConsistencyError(KgPatternError):
    """Subtrees handed to the table renderer do not match the pattern or hold a path not at their root."""
