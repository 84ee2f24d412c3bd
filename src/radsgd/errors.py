"""Exception types shared across the package."""


class RadsgdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(RadsgdError):
    """Input has the wrong shape, an unsupported size, or mismatched dimensions."""


class DomainError(RadsgdError):
    """A scalar argument lies outside its valid range."""


class GraphError(RadsgdError):
    """A graph violates a structural requirement (node ids, self-loops, connectivity, size)."""


class GenerationError(GraphError):
    """Random graph generation exhausted its attempt budget."""


class EdgeListError(GraphError):
    """An edge-list document is malformed; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class InvalidLinkError(RadsgdError):
    """The requested (receiver, sender) pair is not an edge of the graph."""


class ConfigError(RadsgdError):
    """An experiment configuration is invalid; the message names the field."""


class DivergenceError(RadsgdError):
    """Training parameters blew up past the divergence threshold."""
