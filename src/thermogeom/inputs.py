"""The library's input rule: one check for each kind of input.

Every library entry point and the CLI parse check their arguments here.  A
number is a finite `numbers.Real`, and a bool is not one; a positive number
is a number > 0; a count is a Python int (not a bool) in [floor, cap], and
a list of counts spans at most `MAX_COUNT` points; a vector is a flat (1-D)
list or array of finite real numbers, as many as the call needs, and one of
free length is a list of at most `MAX_COUNT`; a block of points is a 2-D
array of finite real numbers, one row per point, as wide as the call needs
and with floor <= rows <= cap.  Real numbers are a numpy dtype of kind int,
uint or float, or an object array (numpy's holder for an int past the
64-bit range) of non-bool `numbers.Real`; so bool, complex and string
arrays are refused, as are a list that mixes a bool, None or a string among
numbers and one whose rows have unequal length.  An int past the float range
reads as an infinity, so it is refused where a finite number is asked for.
Anything else raises `ValidationError`, naming the argument.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ValidationError

__all__ = [
    "MAX_COUNT", "MAX_CELLS", "number", "positive", "count", "counts", "reals", "vector", "points"
]

# Upper bound on every count a config can ask for (grid points, path steps,
# iterations); checked before anything of that size is allocated.
MAX_COUNT = 1 << 20
# Upper bound on the cells (CSV rows x columns) of one CLI artifact, checked
# at the parse before anything is computed: 2^22 cells of 17-digit floats
# are about 90 MB of CSV.
MAX_CELLS = 1 << 22


def _is_real(x: object) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _float(x: numbers.Real) -> float:
    """x as a float; an int past the float range is an infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def number(value: object, what: str) -> float:
    """A finite real number as a float; bool is not a number here."""
    if _is_real(value) and math.isfinite(x := _float(value)):
        return x
    raise ValidationError(f"{what} must be a finite number, got {value!r}")


def positive(value: object, what: str) -> float:
    """A finite number > 0 as a float."""
    x = number(value, what)
    if not x > 0.0:
        raise ValidationError(f"{what} must be a finite number > 0, got {value!r}")
    return x


def count(value: object, what: str, floor: int = 0, cap: int = MAX_COUNT) -> int:
    """An integer in [floor, cap]; bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, int) or not floor <= value <= cap:
        raise ValidationError(f"{what} must be an integer in [{floor}, {cap}], got {value!r}")
    return value


def counts(value: object, k: int, what: str, floor: int) -> list[int]:
    """k counts whose product, a number of points or cells, is capped too."""
    if not isinstance(value, (list, tuple)) or len(value) != k:
        raise ValidationError(f"{what} must be a list of {k} integers")
    values = [count(v, what, floor) for v in value]
    if math.prod(values) > MAX_COUNT:
        raise ValidationError(f"{what} {values} spans more than {MAX_COUNT} points")
    return values


def reals(value: object, what: str) -> np.ndarray:
    """An array of real numbers of any shape: value itself if it is one, else a new array."""
    try:
        v = np.asarray(value)
    except ValueError:  # numpy refuses a ragged list
        raise ValidationError(f"{what} has rows of unequal length") from None
    if v.dtype == object and all(map(_is_real, v.flat)):
        v = np.array([_float(x) for x in v.flat]).reshape(v.shape)
    if v.dtype.kind not in "iuf":
        got = repr(value) if v.ndim == 0 else f"dtype {v.dtype}"
        raise ValidationError(f"{what} must hold real numbers, got {got}")
    # numpy turns a bool among numbers into a number, so a list is scanned too
    if not isinstance(value, np.ndarray) and any(
        isinstance(x, (bool, np.bool_)) for x in np.asarray(value, dtype=object).flat
    ):
        raise ValidationError(f"{what} must hold real numbers, got a bool")
    return v


def vector(value: object, n: int | None, what: str) -> np.ndarray:
    """A finite, read-only flat float copy of value with n components.

    Any number of components is accepted when n is None, but a list or tuple
    longer than MAX_COUNT is refused before its entries are read.
    """
    if n is None and isinstance(value, (list, tuple)) and len(value) > MAX_COUNT:
        raise ValidationError(f"{what} has {len(value)} entries, more than {MAX_COUNT}")
    v = reals(value, what)
    if v.ndim != 1:
        raise ValidationError(f"{what} must be a flat list of numbers, got shape {v.shape}")
    v = v.astype(float)
    if n is not None and v.size != n:
        raise ValidationError(f"{what} must have {n} components, got {v.size}")
    if not np.isfinite(v).all():
        raise ValidationError(f"{what} must be finite")
    v.flags.writeable = False
    return v


def points(
    value: object, n: int | None, what: str, floor: int = 0, cap: int | None = None
) -> np.ndarray:
    """A (P, n) float block of finite points, floor <= P <= cap (no cap if None).

    Any width is accepted when n is None.  The result is value itself when
    it is already a float array, else a float copy.
    """
    block = reals(value, what)
    if block.ndim != 2 or n is not None and block.shape[1] != n:
        width = "n" if n is None else n
        raise ValidationError(f"{what} must be a block of shape (P, {width}), got {block.shape}")
    rows = block.shape[0]
    if rows < floor or cap is not None and rows > cap:
        bound = f"at least {floor}" if cap is None else f"{floor} to {cap}"
        raise ValidationError(f"{what} has {rows} points; it needs {bound}")
    block = block.astype(float, copy=False)
    if not np.isfinite(block).all():
        raise ValidationError(f"{what} must be finite")
    return block
