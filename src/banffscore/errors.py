"""Exception types shared across the package, and the one way their
messages echo a value from the input."""

import reprlib

# Fixed limits: an abbreviated echo is at most about 110 characters, so an
# error line stays short whatever the input holds.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_ECHO.maxtuple = _ECHO.maxlist = _ECHO.maxset = _ECHO.maxfrozenset = 3
_ECHO.maxdict = 2
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 24


def echo(value) -> str:
    """``repr(value)`` for an error message: unchanged up to 80 characters,
    abbreviated by :mod:`reprlib` past that."""
    text = repr(value)
    return text if len(text) <= 80 else _ECHO.repr(value)


def echo_id(name: str) -> str:
    """An id or label that prefixes an error message: unquoted up to 80
    characters, abbreviated by :func:`echo` past that."""
    return name if len(name) <= 80 else _ECHO.repr(name)


class BanffScoreError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDocument(BanffScoreError):
    """Input bytes are not a valid document of the expected kind."""


class SchemaViolation(BanffScoreError):
    """Document parses but violates the detection schema."""


class DegenerateGeometry(BanffScoreError):
    """Ring with fewer than 3 distinct vertices, zero area, or self-intersection."""


class GradeOutOfRange(BanffScoreError):
    """A ground-truth grade value is not an integer in 0..3."""


class IndexMismatch(BanffScoreError):
    """Spatial index was built over a different instance set than supplied,
    or instance ids repeat."""


class PlacementFailure(BanffScoreError):
    """Non-overlapping instance placement could not be satisfied."""


class EmptyMatrix(BanffScoreError):
    """Agreement summary requested for a confusion matrix with no included pairs."""


class ConfigError(BanffScoreError):
    """Invalid run configuration value or config-file line."""
