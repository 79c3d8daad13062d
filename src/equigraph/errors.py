"""Exception types, split by how the CLI maps them to exit codes."""


class EquigraphError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(EquigraphError, ValueError):
    """A call received an invalid or out-of-range parameter."""


class ParseError(EquigraphError, ValueError):
    """A graph document could not be parsed; message carries the position."""


class ValidationError(EquigraphError, ValueError):
    """Parsed data violates a graph invariant (bad endpoint, loop, duplicate)."""


class ResourceLimitError(EquigraphError, RuntimeError):
    """A requested computation exceeds the configured vertex cap or the float range."""
