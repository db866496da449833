"""Exception types shared across the package, the unknown-key check that
every config document goes through, and the one place where a file on disk
becomes data or an error, and where data becomes a file."""

import contextlib
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
    """``parse`` of the JSON object at ``path``; see ``parse_json``."""
    return parse_json(path, read_bytes(path, error), parse, error)


def parse_json(path, text, parse, error=DataError):
    """``parse`` of the JSON object in ``text``, read from ``path``. Every
    fault of the text, a field that ``parse`` cannot find or accept included,
    is one ``error`` naming the path; ``parse`` should only pick fields."""
    try:
        doc = json.loads(text)
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


def write_bytes(path, chunks):
    """Write the byte strings ``chunks`` through a temporary file, synced to
    disk before it replaces ``path``, so ``path`` holds either the old
    contents or all the new ones. A failed write removes
    the temporary file and is one ``DataError`` naming the path."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise DataError(f"{path}: cannot write: {exc.strerror or exc}") from None


def write_json(path, doc):
    """Write ``doc`` as indented, key-sorted JSON through ``write_bytes``."""
    write_bytes(path, [(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])
