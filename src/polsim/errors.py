"""Exception types shared across the package."""


class PolsimError(Exception):
    """Base class for all errors raised by polsim."""


class ParameterError(PolsimError, ValueError):
    """A physical parameter is outside its allowed range or ill-typed."""


class IllPosedError(PolsimError, ValueError):
    """A reconstruction problem is under-determined (degenerate projector set)."""


class ZeroTraceError(PolsimError, ValueError):
    """The degree of polarization is undefined for a zero-intensity matrix."""


class ConfigError(PolsimError, ValueError):
    """A config or data file failed to parse.

    `line` is the 1-based line number when known.
    """

    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


class ConfigRangeError(ConfigError):
    """A config value parsed fine but violates its physical range."""
