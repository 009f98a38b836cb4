"""Bures-Wasserstein geometry of a Gibbs family.

The metric comes from symmetric logarithmic derivatives: with
L_i solving rho L_i + L_i rho = 2 d rho / d lam_i, the components are
g_ij = Re tr(rho L_i L_j).  Both the state derivatives and the SLDs are
closed-form in the eigenbasis of the exponent (Daleckii-Krein divided
differences; Bhatia, Matrix Analysis, V.3), so one eigendecomposition per
point gives the exact metric.  The second divided differences give, from
the same eigendecomposition, the exact gradient of v^T g v in lam that the
geodesic solver's energy gradient is built from.  The distance is
d^2 = tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NearSingularError,
    NumericalConsistencyError,
    ValidationError,
)
from .gibbs import FamilyBatch, ObservableSet, gibbs_batch
from .inputs import count, points, vector
from .linalg import DensityOperator, HermitianOperator, hermitize

__all__ = [
    "MetricTensor",
    "fidelity",
    "bw_distance",
    "state_derivatives",
    "metric_tensor",
    "metric_grid",
]

# How far below zero a metric eigenvalue may fall before the metric is not PSD.
PSD_ATOL = 1e-10
SLD_DENOM_FLOOR = 1e-14  # p_a + p_b below this is a boundary condition (exit 3)


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric PSD n x n metric at a base point lam."""

    lam: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        lam = vector(self.lam, None, "lam")
        n = count(lam.size, "metric dimension n", 1)
        g = points(self.g, n, "metric", n, n)
        if not np.array_equal(g, g.T):
            raise ValidationError("metric must be exactly symmetric; symmetrize first")
        w_min = float(np.linalg.eigvalsh(g)[0])
        if w_min < -PSD_ATOL:
            raise NumericalConsistencyError(
                f"metric has eigenvalue {w_min:.3e} below the PSD tolerance"
            )
        g = g.copy()
        g.flags.writeable = False
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "lam", lam)


def _root_fidelity(sqrt_a: np.ndarray, b: np.ndarray, what: str) -> float:
    """tr[(A^{1/2} B A^{1/2})^{1/2}], roundoff-negative kernel eigenvalues zeroed."""
    w = np.linalg.eigvalsh(hermitize(sqrt_a @ b @ sqrt_a))
    if float(w[0]) < -1e-10:
        raise NumericalConsistencyError(
            f"{what} has eigenvalue {w[0]:.3e}; not positive semidefinite"
        )
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def fidelity(rho: DensityOperator, sigma: DensityOperator) -> float:
    """F = tr[(rho^{1/2} sigma rho^{1/2})^{1/2}], boundary states allowed."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    u = rho.eigenvectors
    sqrt_rho = (u * np.sqrt(rho.eigenvalues)) @ u.conj().T
    return _root_fidelity(sqrt_rho, sigma.matrix, "fidelity kernel")


def bw_distance(a: HermitianOperator, b: HermitianOperator) -> float:
    """Bures-Wasserstein distance between positive semidefinite matrices.

    d = sqrt(tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}]); for unit
    traces this is sqrt(2 - 2 F).  Radicands in [-1e-12, 0] are clamped
    to zero; anything lower is a numerical-consistency failure.
    """
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    w_a, u_a = np.linalg.eigh(a.matrix)
    for name, w_min in (("A", w_a[0]), ("B", np.linalg.eigvalsh(b.matrix)[0])):
        if w_min < -1e-12:
            raise ValidationError(f"{name} has eigenvalue {w_min:.3e}; inputs must be PSD")
    sqrt_a = (u_a * np.sqrt(np.clip(w_a, 0.0, None))) @ u_a.conj().T
    cross = _root_fidelity(sqrt_a, b.matrix, "A^1/2 B A^1/2")
    radicand = float(np.trace(a.matrix).real + np.trace(b.matrix).real - 2.0 * cross)
    if radicand < -1e-12:
        raise NumericalConsistencyError(
            f"negative squared distance {radicand:.3e} beyond the clamp window"
        )
    return float(np.sqrt(max(radicand, 0.0)))


def _phi(u: np.ndarray) -> np.ndarray:
    """phi(u) = (1 - exp(-u)) / u for u >= 0, with phi(0) = 1."""
    out = np.ones_like(u)
    np.divide(-np.expm1(-u), u, out=out, where=u > 0.0)
    return out


def _daleckii_krein(obs: ObservableSet, batch: FamilyBatch) -> tuple[np.ndarray, np.ndarray]:
    """Centred observables and first divided differences in each eigenbasis U.

    Returns At_i = U^dagger A_i U - a_i, shape (P, n, m, m), and the first
    divided differences of exp at y = x - ln Z, shape (P, m, m), so that
    U^dagger d_i rho U = -At_i * f1 (Daleckii-Krein).  f1 is taken from the
    larger population as p_hi phi(|dx|), which tends to p_a on degenerate
    pairs and stays exact when the smaller one underflows.
    """
    x, p, u = batch.x, batch.p, batch.U
    gap = np.abs(x[:, :, None] - x[:, None, :])
    f1 = np.maximum(p[:, :, None], p[:, None, :]) * _phi(gap)
    a_tilde = u.conj().swapaxes(1, 2)[:, None] @ obs._stack @ u[:, None]
    diag = np.arange(obs.dim)
    a_tilde[:, :, diag, diag] -= batch.a[:, :, None]
    return a_tilde, f1


def _second_divided_differences(batch: FamilyBatch) -> np.ndarray:
    """Second divided differences f2 of exp at y = x - ln Z, shape (P, m, m, m).

    x ascends, so each index triple sorts to (lo, mid, hi) with
    y_lo <= y_mid <= y_hi.  With the gaps s = y_hi - y_mid <= t = y_hi - y_lo,
    f2 = (f1[mid, hi] - f1[lo, mid]) / t = p_hi psi(s, t) and
    psi(s, t) = (phi(s) - exp(-s) phi(t - s)) / t, whose denominator is the
    widest gap; below t = 1e-3 psi is its cubic Taylor polynomial.  Like f1,
    f2 tends to p_hi / 2 on degenerate triples and never divides by p.
    """
    m = batch.x.shape[1]
    lo, mid, hi = np.sort(np.indices((m, m, m)), axis=0)
    y = batch.x
    s, t = y[:, hi] - y[:, mid], y[:, hi] - y[:, lo]
    psi = 0.5 - (s + t) / 6 + (s * s + s * t + t * t) / 24 - (s + t) * (s * s + t * t) / 120
    np.divide(_phi(s) - np.exp(-s) * _phi(t - s), t, out=psi, where=t >= 1e-3)
    return batch.p[:, hi] * psi


def state_derivatives(obs: ObservableSet, lam) -> list[HermitianOperator]:
    """Partial derivatives of the family map, one per parameter direction.

    Each derivative is self-adjoint and traceless (the trace of rho is
    constant along the family).
    """
    batch = gibbs_batch(obs, vector(lam, obs.n, "lam")[None])
    a_tilde, f1 = _daleckii_krein(obs, batch)
    u = batch.U[0]
    drho = u @ (-a_tilde[0] * f1[0]) @ u.conj().T
    return [HermitianOperator(d) for d in drho]


def metric_tensor(obs: ObservableSet, lam) -> MetricTensor:
    """The metric at a single point: `metric_grid` on a block of one."""
    lam = vector(lam, obs.n, "lam")
    return MetricTensor(lam, metric_grid(obs, lam[None])[0])


def _sld_frame(
    obs: ObservableSet, lams: np.ndarray
) -> tuple[FamilyBatch, np.ndarray, np.ndarray, np.ndarray]:
    """What every SLD computation at a (P, n) block starts from.

    One `gibbs_batch`, the p_a + p_b denominators checked against
    `SLD_DENOM_FLOOR` (the exit-3 boundary), and the Daleckii-Krein parts
    (centred observables, first divided differences).
    """
    batch = gibbs_batch(obs, lams)
    p = batch.p
    denom = p[:, :, None] + p[:, None, :]
    worst = float(denom.min(initial=np.inf))
    if worst < SLD_DENOM_FLOOR:
        idx = int(np.unravel_index(np.argmin(denom), denom.shape)[0])
        raise NearSingularError(
            f"eigenvalue sum {worst:.3e} below {SLD_DENOM_FLOOR:.0e} at "
            f"lambda = {batch.lam[idx].tolist()}; too close to the boundary"
        )
    a_tilde, f1 = _daleckii_krein(obs, batch)
    return batch, denom, a_tilde, f1


def metric_grid(obs: ObservableSet, lams) -> np.ndarray:
    """Metric at a (P, n) block of points, returned as a (P, n, n) array.

    In the eigenbasis of each point the SLDs are
    L_i,ab = 2 (d_i rho)_ab / (p_a + p_b), so
    g_ij = sum_ab 1/2 (p_a + p_b) Re(L_i,ab L_j,ba)
         = Re sum_ab 2 / (p_a + p_b) (d_i rho)_ab conj((d_j rho)_ab),
    one stacked eigendecomposition for the whole block.
    """
    return _metric_from_frame(*_sld_frame(obs, lams)[1:])


def _metric_from_frame(denom: np.ndarray, a_tilde: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """The (P, n, n) metric from an SLD frame; overwrites a_tilde."""
    # d_i rho * sqrt(2 / (p_a + p_b)), built in At's buffer: no (P, n, m, m) copies
    f = np.negative(a_tilde, out=a_tilde)
    f *= f1[:, None]
    f *= np.sqrt(2.0 / denom)[:, None]
    p, n, m = f.shape[:3]
    f = f.reshape(p, n, m * m)
    g = (f @ f.conj().swapaxes(1, 2)).real
    return (g + g.swapaxes(1, 2)) / 2


def _quadratic_form_derivatives(
    obs: ObservableSet, lams: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`metric_grid`'s g(lam), (P, n, n), and c = grad_lam (v^T g(lam) v), (P, n).

    With rho_v = sum_i v_i d_i rho and its SLD L_v = 2 rho_v / (p_a + p_b),
    v^T g v = tr(rho_v L_v) and, differentiating the Lyapunov equation,
    c_k = 2 Re tr(L_v d_k rho_v) - Re tr(d_k rho L_v^2).  In the eigenbasis
    d_k rho_v is D^2 exp(y)[At_v, At_k] plus a multiple of rho, which
    tr(L_v rho) = tr(rho_v) = 0 removes, and
    D^2 exp(y)[H, K]_ab = sum_c (H_ac K_cb + K_ac H_cb) f2_acb
    (Bhatia, Matrix Analysis, V.3).  The two halves of the first trace are
    complex conjugates, so c_k = Re sum_ab At_k,ab W_ab with
    W = 4 N^T + f1 (L_v^2)^T and N_ac = sum_b L_v,ab At_v,bc f2_abc.
    """
    batch, denom, a_tilde, f1 = _sld_frame(obs, lams)
    a_v = np.einsum("pi,piab->pab", v, a_tilde)
    sld = -2.0 * a_v * f1 / denom
    n_ac = np.einsum("pab,pbc,pabc->pac", sld, a_v, _second_divided_differences(batch))
    w = 4.0 * n_ac.swapaxes(1, 2) + f1 * (sld @ sld).swapaxes(1, 2)
    c = np.einsum("piab,pab->pi", a_tilde, w).real
    return _metric_from_frame(denom, a_tilde, f1), c
