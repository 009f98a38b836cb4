"""Dense Hermitian linear algebra at desk scale.

Everything is spectral: matrix functions, SLD Lyapunov solves and the
entropy all go through one explicit eigendecomposition, giving exact
control of the spectrum for the small dimensions (m <= ~16) this toolkit
targets.  All values are immutable after construction.

It also holds the one stencil table and the batched `central_difference`
behind every finite difference in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenSolverError,
    MatrixDomainError,
    NearSingularError,
    ValidationError,
)

__all__ = [
    "HERMITICITY_ATOL",
    "EIGENVALUE_CLAMP",
    "RANK_TOLERANCE",
    "SLD_DENOM_FLOOR",
    "HermitianOperator",
    "DensityOperator",
    "Spectrum",
    "eig",
    "matfun",
    "sld_solve",
    "von_neumann_entropy",
    "hermitize",
]

HERMITICITY_ATOL = 1e-12
EIGENVALUE_CLAMP = 1e-12  # density eigenvalues in [-clamp, 0] are set to 0
RANK_TOLERANCE = 1e-10  # min eigenvalue above this counts as full rank
SLD_DENOM_FLOOR = 1e-14  # p_i + p_j below this is a boundary condition

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


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex, copy=True)
    out.flags.writeable = False
    return out


class HermitianOperator:
    """A complex m x m self-adjoint matrix (dimensionless entries)."""

    __slots__ = ("matrix",)

    def __init__(self, matrix) -> None:
        m = np.asarray(matrix, dtype=complex)
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


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues ascending with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _condition_estimate(m: np.ndarray) -> float:
    try:
        s = np.linalg.svd(m, compute_uv=False)
        return float(s[0] / max(s[-1], np.finfo(float).tiny))
    except np.linalg.LinAlgError:
        return float("nan")


def eig(h: HermitianOperator) -> Spectrum:
    """Eigendecomposition of a self-adjoint matrix, eigenvalues ascending."""
    try:
        w, u = np.linalg.eigh(h.matrix)
    except np.linalg.LinAlgError:
        raise EigenSolverError(h.dim, _condition_estimate(h.matrix)) from None
    w = np.array(w, copy=True)
    w.flags.writeable = False
    u = np.array(u, copy=True)
    u.flags.writeable = False
    return Spectrum(w, u)


class DensityOperator(HermitianOperator):
    """Unit-trace positive semidefinite state; boundary (rank < m) allowed.

    Eigenvalues are cached descending; values in [-1e-12, 0] are clamped to
    zero, anything below is rejected as invalid input rather than noise.
    """

    __slots__ = ("eigenvalues", "_spectrum")

    def __init__(self, matrix) -> None:
        super().__init__(matrix)
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > 1e-12:
            raise ValidationError(f"trace must be 1, got {tr!r}")
        spec = eig(self)
        w = np.array(spec.eigenvalues, copy=True)
        bad = w < -EIGENVALUE_CLAMP
        if np.any(bad):
            raise ValidationError(
                f"negative eigenvalue {w[bad][0]:.3e} below the clamp window"
            )
        w[w < 0.0] = 0.0
        desc = w[::-1].copy()
        desc.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "eigenvalues", desc)
        object.__setattr__(self, "_spectrum", Spectrum(w, spec.eigenvectors))

    def spectrum(self) -> Spectrum:
        """Clamped eigenvalues ascending with their eigenvectors."""
        return self._spectrum

    def is_full_rank(self, rank_tolerance: float = RANK_TOLERANCE) -> bool:
        return float(self.eigenvalues[-1]) > rank_tolerance


def matfun(h: HermitianOperator, f: str) -> HermitianOperator:
    """Spectral matrix function U diag(f(p_i)) U^dagger.

    Supported tags: exp, log, sqrt, xlogx (with 0 log 0 := 0).  log and
    sqrt require strictly positive eigenvalues; xlogx requires
    nonnegative ones (tiny negatives within the clamp window are zeroed).
    """
    spec = eig(h)
    w = spec.eigenvalues
    if f == "exp":
        fw = np.exp(w)
    elif f == "log":
        if w[0] <= 0.0:
            raise MatrixDomainError("log", float(w[0]))
        fw = np.log(w)
    elif f == "sqrt":
        if w[0] <= 0.0:
            raise MatrixDomainError("sqrt", float(w[0]))
        fw = np.sqrt(w)
    elif f == "xlogx":
        if w[0] < -EIGENVALUE_CLAMP:
            raise MatrixDomainError("xlogx", float(w[0]))
        wc = np.clip(w, 0.0, None)
        fw = np.where(wc > 0.0, wc * np.log(np.where(wc > 0.0, wc, 1.0)), 0.0)
    else:
        raise ValidationError(f"unknown matrix function tag {f!r}")
    u = spec.eigenvectors
    return HermitianOperator(hermitize((u * fw) @ u.conj().T))


def sld_solve(rho: DensityOperator, delta: HermitianOperator) -> HermitianOperator:
    """Solve the Lyapunov equation rho L + L rho = 2 delta for self-adjoint L.

    In the eigenbasis of rho the solution is L_ij = 2 delta_ij / (p_i + p_j);
    denominators below 1e-14 signal boundary proximity and raise.
    """
    if delta.dim != rho.dim:
        raise ValidationError(
            f"dimension mismatch: rho {rho.dim}, perturbation {delta.dim}"
        )
    spec = rho.spectrum()
    p = spec.eigenvalues
    denom = p[:, None] + p[None, :]
    if float(denom.min()) < SLD_DENOM_FLOOR:
        raise NearSingularError(
            f"eigenvalue sum {denom.min():.3e} below {SLD_DENOM_FLOOR:.0e}; "
            "state too close to the boundary for an SLD solve"
        )
    u = spec.eigenvectors
    d_tilde = u.conj().T @ delta.matrix @ u
    l_tilde = 2.0 * d_tilde / denom
    return HermitianOperator(hermitize(u @ l_tilde @ u.conj().T))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S = -sum p_i ln p_i in nats, with 0 ln 0 := 0; lies in [0, ln m]."""
    p = rho.eigenvalues
    pos = p[p > 0.0]
    return max(float(-(pos * np.log(pos)).sum()), 0.0)
