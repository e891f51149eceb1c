"""Exception hierarchy shared across the package."""


class ExpCopilotError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 2  # the CLI's exit status for this error


class ValidationError(ExpCopilotError):
    """A domain object or argument violates its invariants."""


class ConfigError(ExpCopilotError):
    """Configuration file or command-line settings are unusable."""


class GatewayError(ExpCopilotError):
    """A completion or embedding backend failed."""
    exit_code = 3


class ParseError(ExpCopilotError):
    """A model response could not be parsed into valid configurations."""
    exit_code = 4


class BenchmarkError(ExpCopilotError):
    """A benchmark bundle is malformed or a lookup failed."""


class ElicitationError(ExpCopilotError):
    """Knowledge elicitation produced no usable candidate."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []
