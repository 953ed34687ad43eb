"""Exception types shared across the package."""

from contextlib import contextmanager


class WfeError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(WfeError):
    """Input text could not be parsed (bad line, unknown date format, ...)."""


class DataError(WfeError):
    """Parsed input violates a data contract (duplicates, bad cut date, ...)."""


class InsufficientDataError(WfeError):
    """Series or grid too short for the requested computation."""


class ScaleRangeError(WfeError):
    """A box size lies outside the range its method or series admits."""


class DegenerateInputError(WfeError):
    """Input is degenerate for the requested fit (zero fluctuation, ...)."""


class SynthesisError(WfeError):
    """Exact noise synthesis failed a numerical validity check."""


class EstimationError(WfeError):
    """An estimation pipeline failed and could not recover."""


class ConfigError(WfeError):
    """Invalid run configuration."""


@contextmanager
def _labelled(label: str):
    """Put ``label`` in front of the message of a WfeError raised inside."""
    try:
        yield
    except WfeError as exc:
        raise type(exc)(f"{label}: {exc}") from exc
