"""Dense Hermitian linear algebra at desk scale.

Self-adjoint and density operators, checked on construction and
immutable after it.  A density operator holds its spectrum, which gives
exact control of it for the small dimensions (m <= ~16) this toolkit
targets: one built from a matrix is decomposed once by `np.linalg.eigh`,
and a Gibbs state keeps the populations and eigenvectors of its family's
batch (`gibbs.gibbs_point`), so no state is decomposed twice.

It also holds the one stencil table and the batched `central_difference`
behind every finite difference in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = [
    "HERMITICITY_ATOL",
    "EIGENVALUE_CLAMP",
    "HermitianOperator",
    "DensityOperator",
    "hermitize",
]

HERMITICITY_ATOL = 1e-12
EIGENVALUE_CLAMP = 1e-12  # density eigenvalues in [-clamp, 0] are set to 0

# Central first-derivative stencils keyed by order (Fornberg, Math. Comp. 51,
# 1988): tap offsets in units of the step, integer weights, common denominator.
CENTRAL_STENCILS = {
    2: (np.array([-1.0, 1.0]), np.array([-1.0, 1.0]), 2.0),
    4: (np.array([-2.0, -1.0, 1.0, 2.0]), np.array([1.0, -8.0, 8.0, -1.0]), 12.0),
}


def central_difference(f, x, step: float, order: int, axes=None) -> np.ndarray:
    """Central first derivatives of f at the points x of shape (..., n).

    f maps points of shape (..., n) to values of shape (..., *out).  The
    taps of every point along every coordinate in `axes` (default: all n)
    form one array of shape (..., len(axes), taps, n), so f is called once.
    The result has shape (..., len(axes), *out); entry [..., a, ...] is the
    derivative along coordinate axes[a].
    """
    offsets, weights, denom = CENTRAL_STENCILS[order]
    x = np.asarray(x, dtype=float)
    axes = np.arange(x.shape[-1]) if axes is None else np.asarray(axes)
    shape = (*x.shape[:-1], axes.size, offsets.size, x.shape[-1])
    taps = np.broadcast_to(x[..., None, None, :], shape).copy()
    taps[..., np.arange(axes.size), :, axes] += offsets * step
    vals = np.moveaxis(f(taps), x.ndim, -1)
    return (vals @ weights) / (denom * step)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (A + A^dagger)/2."""
    return (a + a.conj().T) / 2


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
