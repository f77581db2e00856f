"""Exception types shared across the package, and the type and range checks behind ConfigError."""

import numbers


class EvmGuardError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(EvmGuardError):
    """Input text cannot be decoded (bad hex digit, odd length, bad JSON...)."""


class ParseError(EvmGuardError):
    """A persisted file (CSV, vocabulary, table) violates its format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CoverageError(EvmGuardError):
    """Label arbitration found a class no available tool can decide."""


class ShortageError(EvmGuardError):
    """Not enough records for a balancing request or a training run."""


class ConfigError(EvmGuardError):
    """Invalid configuration value or combination."""


class UsageError(EvmGuardError):
    """An API was called out of order (e.g. backward without forward)."""


class LoadError(EvmGuardError):
    """A model container cannot be loaded (corrupt, truncated, wrong version)."""


def not_utf8(path) -> ParseError:
    """ParseError naming the line of the first bytes in `path` that are not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError("not UTF-8 text", line=data.count(b"\n", 0, exc.start) + 1)
    return ParseError("not UTF-8 text")


def is_int(value) -> bool:
    """A Python int that is not a bool: what a config's counts and sizes must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_int(name: str, value, lo: int, hi: int | None = None):
    """`value` if it is an int (`is_int`) in [lo, hi], or >= lo without hi; else a ConfigError naming `name`.

    Every count, size and seed the package takes goes through here.
    """
    if not is_int(value):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if hi is None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    if hi is not None and not lo <= value <= hi:
        raise ConfigError(f"{name} must be in [{lo}, {hi}]")
    return value
