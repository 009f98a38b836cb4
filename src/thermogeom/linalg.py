"""Dense Hermitian linear algebra at desk scale.

Self-adjoint and density operators, checked on construction and
immutable after it.  A density operator holds its spectrum, which gives
exact control of it for the small dimensions (m <= ~16) this toolkit
targets: one built from a matrix is decomposed once by `np.linalg.eigh`,
and a Gibbs state keeps the populations and eigenvectors of its family's
batch (`gibbs.gibbs_point`), so no state is decomposed twice.

It also holds `_in_blocks`, the one runner of every per-point layer,
single points and ray scans included: it runs blocks of points of bounded
size and names the first point whose result is not finite.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterRangeError, ValidationError

__all__ = [
    "HERMITICITY_ATOL",
    "EIGENVALUE_CLAMP",
    "HermitianOperator",
    "DensityOperator",
    "hermitize",
]

HERMITICITY_ATOL = 1e-12
EIGENVALUE_CLAMP = 1e-12  # density eigenvalues in [-clamp, 0] are set to 0

# The bytes one block of points may give a batched layer's largest
# intermediate.  Once the heap has warmed up, at 256 KiB it hands one
# block's freed arrays to the next (a repeated 4096-point m = 16, n = 4
# `metric_grid` call takes 256 minor page faults); at 1 MiB each block was
# mapped afresh, and a metric-sweep rotation took 13x the minor page faults
# (7500 against 560).  A fresh interpreter, as every CLI run is, has no
# warm heap: glibc maps the first blocks' arrays and trims what they free,
# so the first such call takes about 33,000 faults.
_BLOCK_BYTES = 1 << 18


def _in_blocks(kernel, point_bytes: int, *blocks: np.ndarray):
    """kernel(*blocks) on consecutive row blocks, the results joined row-wise.

    Each block holds as many rows as keep point_bytes per row within
    `_BLOCK_BYTES`, and at least one.  Rows that fit in one block go to the
    kernel whole, with no copy.  The kernel returns an array or a tuple of
    arrays, each with one leading row per point, and so does this.  Each
    block runs with numpy's overflow and invalid-value flags ignored and its
    result is checked instead: the first row whose fields are not all
    finite raises `ParameterRangeError` naming blocks[0] at that row, while
    an exact limit such as exp(-inf) = 0 is no failure.
    """
    size = len(blocks[0])
    rows = max(1, _BLOCK_BYTES // point_bytes)
    out = None
    for start in range(0, max(size, 1), rows):
        block = blocks if size <= rows else [b[start : start + rows] for b in blocks]
        with np.errstate(over="ignore", invalid="ignore"):
            part = kernel(*block)
        fields = (part,) if isinstance(part, np.ndarray) else part
        if not all(np.isfinite(f).all() for f in fields):
            finite = [np.isfinite(f.reshape(len(f), -1)).all(axis=1) for f in fields]
            at = block[0][int(np.argmin(np.logical_and.reduce(finite)))].tolist()
            raise ParameterRangeError(f"the computation overflows at lambda = {at}")
        if size <= rows:
            return part
        if out is None:
            out = tuple(np.empty((size, *f.shape[1:]), f.dtype) for f in fields)
        for whole, f in zip(out, fields):
            whole[start : start + rows] = f
    return out[0] if isinstance(part, np.ndarray) else out


def hermitize(a: np.ndarray) -> np.ndarray:
    """A/2 + A^dagger/2 over the last two axes: halving first, no finite sum overflows."""
    return a / 2 + a.conj().swapaxes(-1, -2) / 2


def _freeze(a: np.ndarray, dtype=complex) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


class HermitianOperator:
    """A complex m x m self-adjoint matrix (dimensionless entries).

    The entries are int, float or complex; bool, string and object
    entries, like ragged rows, raise `ValidationError`.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        try:
            m = np.asarray(matrix)
        except ValueError:  # ragged rows
            raise ValidationError("matrix rows must all have the same length") from None
        if m.dtype.kind not in "iufc":
            raise ValidationError(f"matrix entries must be numbers, got dtype {m.dtype}")
        m = m.astype(complex, copy=False)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValidationError("matrix dimension must be >= 1")
        if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
            raise ValidationError("matrix entries must be finite")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERMITICITY_ATOL:
            raise ValidationError(
                f"matrix is not self-adjoint: max |A - A^dagger| = {dev:.3e}"
            )
        object.__setattr__(self, "matrix", _freeze(hermitize(m)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DensityOperator(HermitianOperator):
    """Unit-trace positive semidefinite state; boundary (rank < m) allowed.

    A state holds its spectrum: `eigenvalues` descending and `eigenvectors`
    with the matching orthonormal columns.  Built from a matrix, it is
    decomposed once; eigenvalues in [-1e-12, 0] are clamped to zero, and
    anything below is rejected as invalid input rather than noise.
    """

    __slots__ = ("eigenvalues", "eigenvectors")

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValidationError(f"trace must be 1, got {tr!r}")
        w, u = np.linalg.eigh(self.matrix)
        bad = w < -EIGENVALUE_CLAMP
        if np.any(bad):
            raise ValidationError(
                f"negative eigenvalue {w[bad][0]:.3e} below the clamp window"
            )
        w[w < 0.0] = 0.0
        self._set_spectrum(w[::-1], u[:, ::-1])

    @classmethod
    def _with_spectrum(cls, matrix, eigenvalues, eigenvectors) -> "DensityOperator":
        """The state with a known spectrum (descending), stored as given, unchecked."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "matrix", _freeze(matrix))
        rho._set_spectrum(eigenvalues, eigenvectors)
        return rho

    def _set_spectrum(self, eigenvalues, eigenvectors) -> None:
        object.__setattr__(self, "eigenvalues", _freeze(eigenvalues, float))
        object.__setattr__(self, "eigenvectors", _freeze(eigenvectors))
