"""Exception types shared across the package."""


class DdiscError(Exception):
    """Base class for errors raised by this package."""


class ParseError(DdiscError):
    """Malformed input: presentation text or an argument.

    Carries the 1-based line number when the fault is in presentation text.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PresentationError(DdiscError):
    """Structurally invalid quiver or relation data."""


class InfiniteDimensionalError(DdiscError):
    """The bound quiver algebra has an infinite path basis."""


class PreconditionError(DdiscError):
    """An operation was called outside its documented domain."""


class StripStuckError(DdiscError):
    """The greedy series reduction found no applicable step.

    Carries the residual presentation so the stuck state can be inspected.
    """

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)
