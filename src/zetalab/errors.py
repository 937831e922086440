"""Exception hierarchy shared by all zetalab modules."""


class ZetalabError(Exception):
    """Base class for all zetalab errors."""


class DomainError(ZetalabError):
    """Argument outside the documented domain (invalid range, delta, argument)."""


class DataValidationError(ZetalabError):
    """A dataset violates one of its declared invariants."""

    def __init__(self, message, invariant=None, line=None):
        super().__init__(message)
        self.invariant = invariant
        self.line = line


class DataParseError(ZetalabError):
    """A data file could not be parsed; carries the offending line number,
    which the message names too."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else "line %d: %s" % (line, message))
        self.line = line


class CheckpointMismatch(ZetalabError):
    """Checkpoint config digest does not match the active configuration."""
