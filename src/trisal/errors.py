"""Exception types shared across the package, the one parser that every
config document goes through, and the one place where a file on disk
becomes data or an error, and where data becomes a file."""

import contextlib
import json
import math
import os
from dataclasses import fields

import numpy as np


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


def from_fields(cls, d, what, parse=None):
    """``cls`` built from the JSON object ``d``, every key a field of ``cls``.
    A field named in ``parse`` takes its function's result; any other value
    has the type of the field's default, where an int stands for a float and
    a bool is no number. Every fault is one ConfigError."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} must be a JSON object, got {d!r:.80}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    parse = parse or {}
    values = {}
    for k, v in d.items():
        want = type(defaults[k])
        if k in parse:
            v = parse[k](v)
        elif want is float and type(v) is int:
            v = float(v)
        elif type(v) is not want:
            raise ConfigError(f"{what} field {k!r} must be {want.__name__}, got {v!r:.80}")
        values[k] = v
    return cls(**values)


@contextlib.contextmanager
def open_to_read(path, error=DataError):
    """``path`` open for binary reading; a missing or unreadable file is ``error``."""
    try:
        with open(path, "rb") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{path}: not found or unreadable: {exc.strerror or exc}") from None


def read_bytes(path, error=DataError):
    """The whole file at ``path``, opened by ``open_to_read``."""
    with open_to_read(path, error) as fh:
        return fh.read()


def check_payload(path, size, start, need):
    """A ``size``-byte file whose payload from ``start`` on is not ``need`` bytes is one ``DataError``."""
    if size - start != need:
        raise DataError(f"{path}: expected {need} payload bytes at byte {start}, got {max(0, size - start)}")


def read_array(path, raw, start, dtype, shape):
    """``raw[start:]``, read from ``path``, as a read-only ``dtype`` array of ``shape``, after ``check_payload``."""
    check_payload(path, len(raw), start, np.dtype(dtype).itemsize * math.prod(shape))
    return np.frombuffer(raw, dtype, offset=start).reshape(shape)


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
    contents or all the new ones. A missing parent directory is created. A
    failed write removes the temporary file and is one ``DataError`` naming
    the path."""
    tmp = f"{path}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
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
