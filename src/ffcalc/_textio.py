"""Plain-text I/O shared by the modules: full-precision CSV rows and typed
fields of JSON specs."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError


def format_table(row_format: str, table) -> str:
    """Every row of a 2-d table through the same %-format, in one formatting
    pass. The format carries the line break; floats use ``%.17g``, enough
    digits to round-trip a double."""
    table = np.asarray(table)
    return (row_format * table.shape[0]) % tuple(table.ravel().tolist())


def format_columns(*columns) -> str:
    """Lines of comma-separated ``%.17g`` values, one per row of the
    column-stacked arrays."""
    table = np.column_stack(columns)
    return format_table(",".join(["%.17g"] * table.shape[1]) + "\n", table)


def write_csv(target, header: str, body) -> None:
    """Write a header line and a formatted body to a path or a writable
    text buffer. The body is a string or an iterable of strings, written
    in turn, so a long body need never be held whole."""
    if not hasattr(target, "write"):
        with open(target, "w", encoding="utf-8") as fh:
            return write_csv(fh, header, body)
    target.write(header + "\n")
    for chunk in (body,) if isinstance(body, str) else body:
        target.write(chunk)


def spec_fields(spec: dict, what: str, required, optional=()) -> None:
    """Check that a spec object has every ``required`` field and no field
    outside ``required`` and ``optional``; ``what`` names it in the error."""
    for name in spec:
        if name not in required and name not in optional:
            raise ValidationError(f"{what} takes no {name!r}")
    for name in required:
        if name not in spec:
            raise ValidationError(f"{what} needs field {name!r}")


def spec_kind(spec, what: str, kinds: dict) -> tuple[str, dict]:
    """The kind of a spec object and the object, whose fields must be
    ``kind`` and those ``kinds`` requires for it, no more and no fewer."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"{what} spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValidationError(f"unknown {what} kind {kind!r}")
    spec_fields(spec, f"{kind} {what} spec", ("kind", *kinds[kind]))
    return kind, spec


# values that float() converts but that are not JSON numbers
_NOT_NUMBERS = (bool, np.bool_, str)


def spec_number(value, name: str) -> float:
    """A JSON spec field that must be a finite number, as a float: never a
    bool or a string, however numeric, just as :func:`spec_integer` refuses
    them, and never the NaN or Infinity that Python's json reads."""
    if not isinstance(value, _NOT_NUMBERS):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if math.isfinite(number):
                return number
            raise ValidationError(f"'{name}' must be a finite number, got {value!r}")
    raise ValidationError(f"'{name}' must be a number, got {value!r}")


def is_integer(value) -> bool:
    """The one integer rule for counts and levels: a Python or numpy
    integer, never a bool and never a float, however whole."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def spec_integer(value, name: str) -> int:
    """A JSON spec field that must be an integer, as an int."""
    if not is_integer(value):
        raise ValidationError(f"'{name}' must be an integer, got {value!r}")
    return int(value)


def count(value, name: str, least: int) -> int:
    """The one rule for a grid count: an integer, as an int, of at least ``least``."""
    value = spec_integer(value, name)
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")
    return value


def spec_array(value, name: str) -> np.ndarray:
    """A JSON spec field that must be an array of numbers or of rows of
    numbers, as a float array. A bool or string entry is refused like
    ragged or non-numeric data, though numpy would convert it."""
    rows = value if isinstance(value, (list, tuple)) else [value]
    leaves = [x for row in rows for x in (row if isinstance(row, (list, tuple)) else [row])]
    if not any(isinstance(x, _NOT_NUMBERS) for x in leaves):
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"'{name}' must be an array of numbers")
