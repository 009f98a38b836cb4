"""JSON readers for the config file formats, plus atomic artifact writing.

Complex matrices travel as nested arrays of [re, im] pairs, row-major.
Every reader checks its values through `thermogeom.inputs` and the
library's own constructors.  Artifacts render floats with 17 significant
digits (`format_float`), so they round-trip and diff cleanly.  The path
and connection readers import `processes`, `exprlang` and `connection`
when called, so reading an observable set loads none of them.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection

import numpy as np

from .errors import ValidationError
from .gibbs import ObservableSet
from .linalg import HermitianOperator
from .inputs import MAX_COUNT, count, number, points, positive

if TYPE_CHECKING:
    from .connection import ConnectionSpec
    from .processes import ParamPath

__all__ = [
    "known_keys",
    "format_float",
    "complex_matrix_from_json",
    "observable_set_from_json",
    "path_from_json",
    "connection_spec_from_json",
    "load_json_file",
    "atomic_write_text",
]


def known_keys(obj: Any, keys: Collection[str], what: str) -> dict:
    """obj, a JSON object none of whose keys lies outside keys."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ValidationError(f"{what} has unknown keys {unknown}; known keys: {sorted(keys)}")
    return obj


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def complex_matrix_from_json(obj: Any, expect_dim: int | None = None) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ValidationError("matrix must be a nonempty nested array")
    dim = len(obj)
    if expect_dim is not None and dim != expect_dim:
        raise ValidationError(f"matrix has {dim} rows, expected {expect_dim}")
    # every row is checked before the dim x dim matrix is allocated
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"matrix row {i} must have {dim} entries")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(obj):
        for j, cell in enumerate(row):
            what = f"matrix entry ({i}, {j})"
            if not isinstance(cell, list) or len(cell) != 2:
                raise ValidationError(f"{what} must be a [re, im] pair")
            out[i, j] = complex(number(cell[0], what), number(cell[1], what))
    return out


def observable_set_from_json(obj: Any) -> ObservableSet:
    if not isinstance(obj, dict):
        raise ValidationError("observable set must be a JSON object")
    dim = count(obj.get("dim"), "dim", floor=1)
    entries = obj.get("observables")
    if not isinstance(entries, list) or not entries:
        raise ValidationError("observables must be a nonempty array")
    ops = []
    names = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict) or "matrix" not in entry:
            raise ValidationError(f"observable {k} must be an object with a matrix")
        names.append(str(entry.get("name", f"A{k + 1}")))
        ops.append(HermitianOperator(complex_matrix_from_json(entry["matrix"], dim)))
    return ObservableSet(ops, names)


def path_from_json(obj: Any, n: int) -> ParamPath:
    """Either explicit samples or lambda_exprs in t evaluated on the grid."""
    from .processes import MIN_PATH_STEPS, ParamPath

    known_keys(obj, ("duration", "samples", "lambda_exprs", "steps"), "path")
    duration = positive(obj.get("duration"), "path.duration")
    if "samples" in obj:
        rows = obj["samples"]
        if isinstance(rows, list) and len(rows) > MAX_COUNT + 1:
            raise ValidationError(f"path samples must have at most {MAX_COUNT + 1} rows")
        return ParamPath(duration, points(rows, n, "path samples"))
    if "lambda_exprs" in obj:
        from . import exprlang

        steps = count(obj.get("steps"), "path.steps", floor=MIN_PATH_STEPS)
        texts = exprlang.numbered("lambda_exprs", obj["lambda_exprs"], n)
        program = exprlang.compile_fields(texts, n, {"t"})
        ts = np.linspace(0.0, duration, steps + 1)
        samples = np.stack(list(program.run({"t": ts})), axis=-1)
        return ParamPath(duration, samples)
    raise ValidationError("path needs either samples or lambda_exprs")


def connection_spec_from_json(obj: Any, n: int) -> ConnectionSpec:
    from .connection import ConnectionSpec

    obj = known_keys(obj, ("g_S", "h"), "connection spec")
    return ConnectionSpec.parsed(obj.get("g_S"), obj.get("h"), n)


def load_json_file(path: str | Path) -> Any:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"file not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ints
        # past the interpreter's digit limit
        raise ValidationError(f"unreadable JSON in {p}: {exc}") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file and rename, so no partial artifact can appear."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=f".{target.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
