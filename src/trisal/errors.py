"""Exception types shared across the package, and the unknown-key check that
every config document goes through."""

from dataclasses import fields


class TrisalError(Exception):
    """Base class for all package errors."""


class ShapeError(TrisalError):
    """Operands have incompatible shapes; the message names both."""


class ConfigError(TrisalError):
    """Invalid configuration value or combination."""


class ContractError(TrisalError):
    """An API precondition was violated by the caller."""


class DataError(TrisalError):
    """Dataset file is missing, malformed, or inconsistent."""


class NumericalError(TrisalError):
    """A computation produced non-finite values."""


class VerificationError(TrisalError):
    """A self-check (gradient check, invariant) failed."""


def reject_unknown_keys(d, cls, what):
    """Raise ConfigError naming every key of ``d`` that is not a field of ``cls``."""
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
