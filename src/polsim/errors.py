"""Exception types shared across the package; each class carries the exit code
the command line returns for it."""


class PolsimError(Exception):
    """Base class for all errors raised by polsim: a config or usage error, exit code 2.

    `line` is the 1-based line number of the offending input line when known.
    """

    exit_code = 2

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ParameterError(PolsimError, ValueError):
    """A value is outside its allowed range: a range error, exit code 3."""

    exit_code = 3


class IllPosedError(PolsimError, ValueError):
    """A reconstruction problem is under-determined (degenerate projector set)."""


class ZeroTraceError(PolsimError, ValueError):
    """The degree of polarization is undefined for a zero-intensity matrix: no value
    is out of range, and no input can be refused for it up front."""


class ConfigError(PolsimError, ValueError):
    """A config or data file failed to parse."""
