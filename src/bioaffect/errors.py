"""Exception types shared across the toolkit."""


class BioaffectError(Exception):
    """Base class for all toolkit errors."""


class ShapeError(BioaffectError, ValueError):
    """Array dimensions disagree with what an operation requires."""


class GraphError(BioaffectError, RuntimeError):
    """Misuse of the computation graph, a model, or optimizer state."""


class CorruptionError(BioaffectError, RuntimeError):
    """Recorded indices or serialized state are internally inconsistent."""


class ConfigError(BioaffectError, ValueError):
    """Invalid or unsupported configuration."""


class IngestError(BioaffectError, ValueError):
    """Input data cannot be ingested (missing channel, empty trace, bad crop)."""


class ParseError(BioaffectError, ValueError):
    """A data file is malformed; the message carries file and line context."""


class ValidationError(BioaffectError, ValueError):
    """A value is outside its documented range."""


class NonFiniteError(BioaffectError, FloatingPointError):
    """Training produced a NaN or infinite loss or gradient."""
