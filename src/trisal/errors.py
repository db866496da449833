"""Exception types shared across the package, the unknown-key check that
every config document goes through, and the one place where a file on disk
becomes data or an error."""

import json
import os
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


def read_bytes(path, error=DataError):
    """The whole file at ``path``; a missing or unreadable file is ``error``."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: not found or unreadable: {exc.strerror or exc}") from None


def read_json(path, parse, error=DataError):
    """``parse`` of the JSON object at ``path``. Every fault of the file, a
    field that ``parse`` cannot find or accept included, is one ``error``
    naming the path; ``parse`` should only pick fields."""
    try:
        doc = json.loads(read_bytes(path, error))
    except ValueError as exc:
        raise error(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: root must be a JSON object")
    try:
        return parse(doc)
    except KeyError as exc:
        raise error(f"{path}: lacks key {exc}") from None
    except (TypeError, ValueError, TrisalError) as exc:
        raise error(f"{path}: {exc}") from None


def write_json(path, doc):
    """Write ``doc`` as indented, key-sorted JSON through a temporary file, so
    ``path`` holds either the old document or the whole new one."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
