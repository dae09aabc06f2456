"""The input rules and plain-text I/O shared by the modules: the one rule
each for a point in a domain, a sub-interval of one, a named option, a
count, a tolerance and a user function's per-point values; full-precision
CSV rows; typed fields of JSON specs and the names and run fields of the
built-in problems; and the block size of blocked passes over tables.

It imports no other ffcalc module but ``errors``, so every layer can use it
without loading the layers above."""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .errors import DomainError, ValidationError


# Values per block of a blocked pass over a table: 2**16 float64s, so each
# of the block's temporaries is 512 KB and a block stays in L2.
_BLOCK_VALUES = 2**16


def _block_rows(n_cols: int) -> int:
    """Rows of an (n, n_cols) table per block of a blocked pass (at least one)."""
    return max(1, _BLOCK_VALUES // max(1, n_cols))


BUILTIN_NAMES = ("example1", "example2")
# the fields every problem spec may set; a builtin fixes everything else
_RUN_FIELDS = ("case", "r_points", "j_steps")


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


def _check_tol(tol, name: str = "tol") -> None:
    """The one rule for a tolerance: finite and non-negative (NaN is neither)."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"{name} must be a finite non-negative number, got {tol!r}")


def inside(values, lo, hi, what: str) -> None:
    """The one rule for a point in a domain: every entry of ``values``, a
    scalar or an array, lies in the closed interval [lo, hi], which NaN never
    does. Otherwise a :class:`DomainError` reads ``<what> outside [lo, hi]``;
    values that are not numbers are a :class:`ValidationError` naming
    ``<what>``."""
    if isinstance(values, float):  # a plain float, without numpy's per-call cost
        ok = lo <= values <= hi
    else:
        values = _numbers(values, what)
        ok = ((values >= lo) & (values <= hi)).all()
    if not ok:
        raise DomainError(f"{what} outside [{lo}, {hi}]")


def _numbers(values, what: str) -> np.ndarray:
    """``values`` as a float array, or the domain rule's :class:`ValidationError`
    naming ``what`` when they are not numbers."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(
            f"{what} must be a number or an array of numbers, got {reprlib.repr(values)}"
        ) from None


def point(value, what: str) -> float:
    """A single point as a float, for an entry that computes with it (a
    stencil's ends, an anchor) before :func:`inside` or :func:`sub_interval`
    checks its range: what is not a number is refused here, as
    :func:`inside` refuses it, and an array is refused as not one point."""
    if isinstance(value, float):
        return value
    values = _numbers(value, what)
    if values.ndim:
        raise ValidationError(f"{what} must be one number, got an array of shape {values.shape}")
    return float(values)


def sub_interval(a, b, lo, hi, what: str) -> tuple[float, float]:
    """The one rule for a sub-interval [a, b] of the domain [lo, hi]: a
    ``None`` end is that end of the domain, and lo <= a < b <= hi must hold
    (never with NaN). Returns both ends as floats."""
    a = lo if a is None else float(a)
    b = hi if b is None else float(b)
    if not (lo <= a <= hi and lo <= b <= hi):
        raise DomainError(f"{what} [{a}, {b}] leaves the domain [{lo}, {hi}]")
    if not a < b:
        raise DomainError(f"{what} [{a}, {b}] does not increase")
    return a, b


def one_of(value, name: str, choices: tuple) -> None:
    """The one rule for a named option: ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValidationError(f"{name} must be {' or '.join(map(repr, choices))}, got {value!r}")


def per_point(values, points: np.ndarray, what: str) -> np.ndarray:
    """The one rule for what a user function ``what`` returned when called
    once on an array of points: real numbers, one per point or a scalar for
    all of them. Returns them as floats of the points' shape, read-only."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf" or values.shape not in ((), points.shape):
        raise ValidationError(
            f"{what} must map an array of points to real numbers, one value per point or "
            f"a scalar; got {values.dtype} of shape {values.shape} for {points.size} points"
        )
    return np.broadcast_to(values.astype(float, copy=False), points.shape)


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
