"""The JSONL line codec of the one record stream.

Run records and audit records share one typed file
(:mod:`repro.obs.records` resolves its path and owns its schema); this
module owns the line format: the numpy-aware serialiser and
single-``write`` ``O_APPEND`` line writer, the tolerant reader, the
declarative schema checker, and the ``REPRO_*`` flag parsing. The
contract is spelled out under "Record stream" in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib

__all__ = [
    "Opt",
    "append",
    "check",
    "dumps",
    "env_flag",
    "env_top_k",
    "open_append",
    "read",
    "validate",
    "write_line",
]

_TRUTHY = {"1", "true", "yes", "on"}


# ----------------------------------------------------------------- flags

def env_flag(name: str) -> bool:
    """Whether ``name`` is set to a truthy word (``1/true/yes/on``)."""
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def env_top_k(name: str, default: int) -> int:
    """Top-K knob: truthy word -> ``default``, integer -> itself, else 0."""
    raw = os.environ.get(name, "").strip().lower()
    if raw in _TRUTHY:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


# --------------------------------------------------------------- writing

def _default(obj):
    """``json.dumps`` fallback handling numpy scalars/arrays and more."""
    if hasattr(obj, "item") and not isinstance(obj, dict):
        try:
            return obj.item()  # numpy scalar
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()  # numpy array
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    return str(obj)


def dumps(obj, **kwargs) -> str:
    """``json.dumps`` with the numpy-aware fallback (no newline)."""
    return json.dumps(obj, default=_default, **kwargs)


def open_append(path) -> int:
    """An ``O_APPEND`` write descriptor on ``path`` (parents created)."""
    sink = pathlib.Path(path)
    sink.parent.mkdir(parents=True, exist_ok=True)
    return os.open(str(sink), os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                   0o644)


def write_line(fd: int, obj) -> None:
    """Serialise ``obj`` fully, then write it as one line.

    ``O_APPEND`` makes each ``os.write`` an atomic append: a crashed or
    concurrent writer tears at most its own line. The loop only
    continues on a short write (ENOSPC territory).
    """
    view = memoryview((dumps(obj) + "\n").encode("utf-8"))
    while view:
        view = view[os.write(fd, view):]


def append(path, obj) -> pathlib.Path:
    """Append ``obj`` as one durable line: open, write, fsync, close."""
    fd = open_append(path)
    try:
        write_line(fd, obj)
        os.fsync(fd)
    finally:
        os.close(fd)
    return pathlib.Path(path)


# --------------------------------------------------------------- reading

def _lines(data: bytes):
    """``(lineno, obj, error)`` per non-blank line of ``data``."""
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            yield lineno, json.loads(line), None
        except ValueError as exc:
            yield lineno, None, exc


def read(path) -> tuple[list[dict], list]:
    """``(objects, skipped)`` over every line of ``path``.

    Blank lines are ignored; ``skipped`` lists ``(lineno, detail)`` per
    non-JSON or non-object line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    objects, skipped = [], []
    for lineno, obj, exc in _lines(data):
        if isinstance(obj, dict):
            objects.append(obj)
        else:
            skipped.append((lineno, str(obj if exc is None else exc)))
    return objects, skipped


# ------------------------------------------------------------ validation

class Opt:
    """A field that may be missing or null, else must match ``spec``."""

    def __init__(self, spec):
        self.spec = spec


def check(table: dict, obj, where: str = "record") -> list[str]:
    """Schema errors of ``obj`` against a field table (``[]`` = valid).

    A spec is a tuple of types (required scalar), a dict (required
    nested table), ``[table]`` (non-empty list of objects) or
    :class:`Opt` around one of those. A ``bool`` is never a number.
    """
    if not isinstance(obj, dict):
        return [f"{where} is not an object: {obj!r}"]
    errors: list[str] = []
    for field, spec in table.items():
        value = obj.get(field)
        if isinstance(spec, Opt):
            if value is None:
                continue
            spec = spec.spec
        if isinstance(spec, dict):
            errors.extend(check(spec, value, field))
        elif isinstance(spec, list):
            if not isinstance(value, list) or not value:
                errors.append(f"{where}: {field!r} should be a "
                              f"non-empty list, got {value!r}")
                continue
            for i, row in enumerate(value):
                errors.extend(check(spec[0], row, f"{field}[{i}]"))
        elif isinstance(value, bool) or not isinstance(value, spec):
            errors.append(f"{where}: field {field!r} should be "
                          f"{'/'.join(k.__name__ for k in spec)}, "
                          f"got {value!r}")
    return errors


def validate(path, check_one) -> tuple[int, list[str]]:
    """``(count, errors)`` of ``check_one`` over every line of ``path``.

    Unparseable lines are errors too: the writers never tear a line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    count = 0
    errors: list[str] = []
    for lineno, obj, exc in _lines(data):
        count += 1
        problems = [f"not JSON ({exc})"] if exc else check_one(obj)
        errors.extend(f"line {lineno}: {e}" for e in problems)
    return count, errors
