"""Bures-Wasserstein geometry of a Gibbs family.

The metric comes from symmetric logarithmic derivatives: with
L_i solving rho L_i + L_i rho = 2 d rho / d lam_i, the components are
g_ij = Re tr(rho L_i L_j).  Both the state derivatives and the SLDs are
closed-form in the eigenbasis of the exponent (Daleckii-Krein divided
differences; Bhatia, Matrix Analysis, V.3), so one eigendecomposition per
point gives the exact metric.  The distance is
d^2 = tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NearSingularError,
    NumericalConsistencyError,
    ValidationError,
)
from .gibbs import FamilyBatch, ObservableSet, gibbs_batch
from .linalg import (
    CENTRAL_STENCILS,
    SLD_DENOM_FLOOR,
    DensityOperator,
    HermitianOperator,
    hermitize,
)

__all__ = [
    "FDScheme",
    "MetricTensor",
    "fidelity",
    "bw_distance",
    "state_derivatives",
    "metric_tensor",
    "metric_grid",
]


@dataclass(frozen=True)
class FDScheme:
    """Step and order `legendrian_residual` hands to `linalg.central_difference`."""

    step: float = 1e-5
    order: int = 4

    def __post_init__(self) -> None:
        if not (1e-8 <= self.step <= 1e-2):
            raise ValidationError(f"step must be in [1e-8, 1e-2], got {self.step!r}")
        if self.order not in CENTRAL_STENCILS:
            raise ValidationError(f"order {self.order!r} is not in {sorted(CENTRAL_STENCILS)}")


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric PSD n x n metric at a base point lam."""

    lam: np.ndarray
    g: np.ndarray
    psd_atol: float = field(default=1e-10, repr=False)

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        lam = np.asarray(self.lam, dtype=float).reshape(-1)
        if g.shape != (lam.size, lam.size):
            raise ValidationError(f"metric shape {g.shape} does not match n={lam.size}")
        if not np.array_equal(g, g.T):
            raise ValidationError("metric must be exactly symmetric; symmetrize first")
        w_min = float(np.linalg.eigvalsh(g)[0])
        if w_min < -self.psd_atol:
            raise NumericalConsistencyError(
                f"metric has eigenvalue {w_min:.3e} below the PSD tolerance"
            )
        g = g.copy()
        g.flags.writeable = False
        lam = lam.copy()
        lam.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lam", lam)


def _clamped_psd_sqrt(matrix: np.ndarray, what: str) -> np.ndarray:
    """Square root of a PSD matrix, zeroing roundoff-negative eigenvalues."""
    w, u = np.linalg.eigh(hermitize(matrix))
    if float(w[0]) < -1e-10:
        raise NumericalConsistencyError(
            f"{what} has eigenvalue {w[0]:.3e}; not positive semidefinite"
        )
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """F = tr[(rho^{1/2} sigma rho^{1/2})^{1/2}], boundary states allowed."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    spec = rho.spectrum()
    sqrt_rho = (spec.eigenvectors * np.sqrt(spec.eigenvalues)) @ spec.eigenvectors.conj().T
    inner = sqrt_rho @ sigma.matrix @ sqrt_rho
    w = np.linalg.eigvalsh(hermitize(inner))
    if float(w[0]) < -1e-10:
        raise NumericalConsistencyError(
            f"fidelity kernel eigenvalue {w[0]:.3e}; inputs are not states"
        )
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def bw_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Bures-Wasserstein distance between positive semidefinite matrices.

    d = sqrt(tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}]); for unit
    traces this is sqrt(2 - 2 F).  Radicands in [-1e-12, 0] are clamped
    to zero; anything lower is a numerical-consistency failure.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for name, op in (("A", a), ("B", b)):
        w_min = float(np.linalg.eigvalsh(op.matrix)[0])
        if w_min < -1e-12:
            raise ValidationError(
                f"{name} has eigenvalue {w_min:.3e}; inputs must be PSD"
            )
    sqrt_a = _clamped_psd_sqrt(a.matrix, "A")
    cross = _clamped_psd_sqrt(sqrt_a @ b.matrix @ sqrt_a, "A^1/2 B A^1/2")
    radicand = float(
        np.trace(a.matrix).real + np.trace(b.matrix).real - 2.0 * np.trace(cross).real
    )
    if radicand < -1e-12:
        raise NumericalConsistencyError(
            f"negative squared distance {radicand:.3e} beyond the clamp window"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def _eigenbasis_state_derivatives(obs: ObservableSet, batch: FamilyBatch) -> np.ndarray:
    """d rho / d lam_i in each point's eigenbasis U, shape (P, n, m, m).

    Daleckii-Krein: (U^dagger d_i rho U)_ab = -At_i,ab (p_a - p_b)/(x_a - x_b)
    with At_i = U^dagger A_i U - a_i.  The divided difference is taken from
    the larger population as p_hi (1 - exp(-|dx|)) / |dx|, which tends to
    p_a on degenerate pairs and stays exact when the smaller one underflows.
    """
    x, p, u = batch.x, batch.p, batch.U
    gap = np.abs(x[:, :, None] - x[:, None, :])
    ratio = np.ones_like(gap)
    np.divide(-np.expm1(-gap), gap, out=ratio, where=gap > 0.0)
    divided = np.maximum(p[:, :, None], p[:, None, :]) * ratio
    a_tilde = u.conj().swapaxes(1, 2)[:, None] @ obs._stack @ u[:, None]
    diag = np.arange(obs.dim)
    a_tilde[:, :, diag, diag] -= batch.a[:, :, None]
    return -a_tilde * divided[:, None]


def state_derivatives(obs: ObservableSet, lam) -> list[HermitianOperator]:
    """Partial derivatives of the family map, one per parameter direction.

    Each derivative is self-adjoint and traceless (the trace of rho is
    constant along the family).
    """
    batch = gibbs_batch(obs, np.asarray(lam, dtype=float).reshape(1, -1))
    u = batch.U[0]
    drho = u @ _eigenbasis_state_derivatives(obs, batch)[0] @ u.conj().T
    return [HermitianOperator(d) for d in drho]


def metric_tensor(obs: ObservableSet, lam) -> MetricTensor:
    """The metric at a single point: `metric_grid` on a block of one."""
    lam = np.asarray(lam, dtype=float).reshape(-1)
    return MetricTensor(lam, metric_grid(obs, lam[None])[0])


def metric_grid(obs: ObservableSet, lams) -> np.ndarray:
    """Metric at a (P, n) block of points, returned as a (P, n, n) array.

    In the eigenbasis of each point the SLDs are
    L_i,ab = 2 (d_i rho)_ab / (p_a + p_b), so
    g_ij = sum_ab 1/2 (p_a + p_b) Re(L_i,ab L_j,ba)
         = Re sum_ab 2 / (p_a + p_b) (d_i rho)_ab conj((d_j rho)_ab),
    one stacked eigendecomposition for the whole block.
    """
    lams = np.atleast_2d(np.asarray(lams, dtype=float))
    if lams.shape[0] == 0:
        return np.empty((0, obs.n, obs.n))
    batch = gibbs_batch(obs, lams)
    p = batch.p
    denom = p[:, :, None] + p[:, None, :]
    worst = float(denom.min())
    if worst < SLD_DENOM_FLOOR:
        idx = int(np.unravel_index(np.argmin(denom), denom.shape)[0])
        raise NearSingularError(
            f"eigenvalue sum {worst:.3e} below {SLD_DENOM_FLOOR:.0e} at "
            f"lambda = {lams[idx].tolist()}; too close to the boundary"
        )
    drho = _eigenbasis_state_derivatives(obs, batch)
    f = (drho * np.sqrt(2.0 / denom)[:, None]).reshape(lams.shape[0], obs.n, -1)
    g = (f @ f.conj().swapaxes(1, 2)).real
    return (g + g.swapaxes(1, 2)) / 2
