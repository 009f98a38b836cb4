"""Bures-Wasserstein geometry of a Gibbs family.

The metric comes from symmetric logarithmic derivatives: with
L_i solving rho L_i + L_i rho = 2 d rho / d lam_i, the components are
g_ij = Re tr(rho L_i L_j).  Both the state derivatives and the SLDs are
closed-form in the eigenbasis of the exponent (Daleckii-Krein divided
differences; Bhatia, Matrix Analysis, V.3), so one eigendecomposition per
point gives the exact metric.  The second divided differences give, from
the same eigendecomposition, the exact gradient of v^T g v in lam that the
geodesic solver's energy gradient is built from, and the Kubo-Mori (BKM)
Hessian K = grad^2 ln Z, weight f1 on |At_ab|^2 with no floor, is the
exact da/dlam of the Legendrian residual.  The covariance C of
`injectivity_diagnostic` is the third weight, (p_a + p_b) / 2, on the
same product as g and K.  The distance is
d^2 = tr A + tr B - 2 tr[(A^{1/2} B A^{1/2})^{1/2}].

Every layer read off the Daleckii-Krein frame (At, f1) runs through one
runner, `_frame_layer`.  It checks the whole (P, n) parameter block first
(a single point is a block of one), then runs it in blocks of points
(`linalg._in_blocks`) whose largest intermediate, the (n, m, m) rotated
observables or the (m, m, m) second divided differences per point, stays
within 256 KiB, and names the first point whose result is not finite.
Each block reads only its spectral core from `gibbs` (one stacked
eigendecomposition, no rho and no expectations) and the frame, and hands
them to its layer's finisher: `_derivatives` (d_i rho), `_metric` (g),
`_tangent` (dS/dlam and K), `_covariance` (C) or `_form` (g and the
gradient of v^T g v).  The contractions run as matrix products over the
whole block: the n observables are rotated into every eigenbasis by one
(n m, m) @ (m, P m) product and one (n m, m) @ (m, m) product per point,
each centred by its own p-weighted diagonal,
a_i = sum_b p_b (U^dagger A_i U)_bb, and a metric is one real
(n, w) @ (w, n) product per point on the float view of the weighted
observables, w = 2 m^2 for a complex set and m^2 for a real one.  The
second divided differences come from the first by the divided-difference
recursion, and the geodesic's form derivatives contract them with the
rotated observables by a broadcast product and a matrix product per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    NearSingularError,
    NumericalConsistencyError,
    ValidationError,
)
from .gibbs import _INDEPENDENCE_RTOL, ObservableSet, _guarded, _Spectra, _spectra, observables
from .inputs import count, points, vector
from .linalg import DensityOperator, HermitianOperator, _freeze, _in_blocks, hermitize

__all__ = [
    "MetricTensor",
    "fidelity",
    "bw_distance",
    "state_derivatives",
    "metric_tensor",
    "metric_grid",
    "injectivity_diagnostic",
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
        object.__setattr__(self, "g", _freeze(g, float))
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


def _daleckii_krein(obs: ObservableSet, spectra: _Spectra) -> tuple[np.ndarray, np.ndarray]:
    """Centred observables and first divided differences in each eigenbasis U.

    Returns At_i = U^dagger A_i U - a_i, shape (P, n, m, m), and the first
    divided differences of exp at y = x - ln Z, shape (P, m, m), so that
    U^dagger d_i rho U = -At_i * f1 (Daleckii-Krein).  The centring value
    is a_i = tr(A_i rho) = sum_b p_b (U^dagger A_i U)_bb, read off the
    rotated diagonal.  f1 is taken from the larger population as
    p_hi phi(|dx|), which tends to p_a on degenerate pairs and stays exact
    when the smaller one underflows.
    """
    x, p, u = spectra.x, spectra.p, spectra.U
    gap = np.abs(x[:, :, None] - x[:, None, :])
    f1 = np.maximum(p[:, :, None], p[:, None, :]) * _phi(gap)
    size, m = x.shape
    n = obs.n
    # A_k U at every point for every k is one (n m, m) @ (m, P m) product of
    # [A_1; ...; A_n] with [U_1 | ... | U_P]; its conjugate transpose, written
    # C-ordered as (P, n m, m), and one (n m, m) @ (m, m) product per point
    # finish At.  Each step drops the block before it: at most two
    # (P, n, m, m) live.
    t = obs._stack.reshape(n * m, m) @ u.transpose(1, 0, 2).reshape(m, size * m)
    ut = np.empty((size, n, m, m), dtype=t.dtype)
    np.conjugate(t.reshape(n, m, size, m).transpose(2, 0, 3, 1), out=ut)
    del t
    a_tilde = (ut.reshape(size, n * m, m) @ u).reshape(size, n, m, m)
    del ut
    diag = np.arange(m)
    a_tilde[:, :, diag, diag] -= np.einsum("pkbb,pb->pk", a_tilde.real, p)[:, :, None]
    return a_tilde, f1


@functools.lru_cache(maxsize=None)
def _sorted_triples(m: int) -> tuple[np.ndarray, ...]:
    """The m(m+1)(m+2)/6 distinct sorted index triples, their gather and pair indices.

    Returns lo, mid, hi, each of shape (T,) with lo <= mid <= hi, the
    (m, m, m) index that sends (a, b, c) to the position of sorted(a, b, c),
    and the flat (m^2) indices mid m + hi and lo m + mid of the pairs whose
    first divided differences give f2.  The arrays are shared by every
    caller at this m, so they are read-only.
    """
    ordered = np.sort(np.indices((m, m, m)), axis=0).reshape(3, -1)
    _, first, gather = np.unique(
        np.ravel_multi_index(ordered, (m, m, m)), return_index=True, return_inverse=True
    )
    lo, mid, hi = ordered[:, first]
    out = lo, mid, hi, gather.reshape(m, m, m), mid * m + hi, lo * m + mid
    for a in out:
        a.flags.writeable = False
    return out


def _second_divided_differences(spectra: _Spectra, f1: np.ndarray) -> np.ndarray:
    """Second divided differences f2 of exp at y = x - ln Z, shape (P, m, m, m).

    x ascends, so each index triple sorts to (lo, mid, hi) with
    y_lo <= y_mid <= y_hi, and with t = y_hi - y_lo the recursion
    f2 = (f1[mid, hi] - f1[lo, mid]) / t reads the block's own first divided
    differences f1, (P, m, m) (Bhatia, Matrix Analysis, V.3).  Its difference
    cancels as t shrinks, so f2 is exactly p_hi / 2 on coincident triples
    (t = 0) and, on near-coincident ones (0 < t < 1e-3), p_hi times the
    cubic Taylor polynomial of (phi(s) - exp(-s) phi(t - s)) / t with
    s = y_hi - y_mid, evaluated only when the block has any.  Like f1, f2
    never divides by p.  f2 is symmetric in its three indices, so it is
    evaluated on the m(m+1)(m+2)/6 distinct sorted triples only and
    gathered to (m, m, m).  Each gather along the triple axis is
    `ndarray.take`, the gather of x[:, index] at a third of its dispatch
    cost on a geodesic's block.
    """
    lo, mid, hi, gather, mid_hi, lo_mid = _sorted_triples(spectra.x.shape[1])
    y = spectra.x
    t = y.take(hi, axis=1) - y.take(lo, axis=1)
    p_hi = spectra.p.take(hi, axis=1)
    f1 = f1.reshape(len(f1), -1)
    f2 = p_hi / 2
    big = t >= 1e-3
    np.divide(f1.take(mid_hi, axis=1) - f1.take(lo_mid, axis=1), t, out=f2, where=big)
    # t >= 0, so the block has a near-coincident triple exactly when more t
    # are nonzero than are big
    if np.count_nonzero(t) > np.count_nonzero(big):
        near = (t > 0.0) & ~big
        s, t = (y[:, hi] - y[:, mid])[near], t[near]
        series = 0.5 - (s + t) / 6 + (s * s + s * t + t * t) / 24 - (s + t) * (s * s + t * t) / 120
        f2[near] = p_hi[near] * series
    return f2.take(gather, axis=1)


def _frame_layer(obs: ObservableSet, finish, lams, *extra: np.ndarray, point_bytes: int = 0):
    """finish(spectra, At, f1, *extra) on a guarded (P, n) block, run in blocks of points.

    Blocks are sized by the larger of the (n, m, m) rotated observables and
    point_bytes per point; the extra arrays, one row per point, split with lams.
    """
    lams = _guarded(obs, lams)
    point_bytes = max(obs._stack.itemsize * obs.n * obs.dim**2, point_bytes)

    def kernel(lams: np.ndarray, *extra: np.ndarray):
        spectra = _spectra(obs, lams)
        return finish(spectra, *_daleckii_krein(obs, spectra), *extra)

    return _in_blocks(kernel, point_bytes, lams, *extra)


def state_derivatives(obs: ObservableSet, lam) -> list[HermitianOperator]:
    """Partial derivatives of the family map, one per parameter direction.

    Each derivative is self-adjoint and traceless (the trace of rho is
    constant along the family).  The point is a block of one.
    """
    lam = vector(lam, observables(obs).n, "lam")[None]
    return [HermitianOperator(d) for d in _frame_layer(obs, _derivatives, lam)[0]]


def _derivatives(spectra: _Spectra, a_tilde: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """d_i rho = U (-At_i * f1) U^dagger, (P, n, m, m), exactly Hermitian."""
    u = spectra.U[:, None]
    return hermitize(u @ (-a_tilde * f1[:, None]) @ u.conj().swapaxes(2, 3))


def metric_tensor(obs: ObservableSet, lam) -> MetricTensor:
    """The metric at a single point: `metric_grid` on a block of one."""
    lam = vector(lam, observables(obs).n, "lam")
    return MetricTensor(lam, metric_grid(obs, lam[None])[0])


def _sld_denominators(spectra: _Spectra) -> np.ndarray:
    """p_a + p_b, (P, m, m), checked against `SLD_DENOM_FLOOR` (the exit-3 boundary)."""
    p = spectra.p
    denom = p[:, :, None] + p[:, None, :]
    worst = float(denom.min(initial=np.inf))
    if worst < SLD_DENOM_FLOOR:
        idx = int(np.unravel_index(np.argmin(denom), denom.shape)[0])
        raise NearSingularError(
            f"eigenvalue sum {worst:.3e} below {SLD_DENOM_FLOOR:.0e} at "
            f"lambda = {spectra.lam[idx].tolist()}; too close to the boundary"
        )
    return denom


def metric_grid(obs: ObservableSet, lams) -> np.ndarray:
    """Metric at a (P, n) block of points, returned as a (P, n, n) array.

    In the eigenbasis of each point the SLDs are
    L_i,ab = 2 (d_i rho)_ab / (p_a + p_b), so
    g_ij = sum_ab 1/2 (p_a + p_b) Re(L_i,ab L_j,ba)
         = Re sum_ab 2 / (p_a + p_b) (d_i rho)_ab conj((d_j rho)_ab),
    one stacked eigendecomposition per block of points whose (n, m, m)
    rotated observables stay within 256 KiB.
    """
    return _frame_layer(obs, _metric, lams)


def _metric(spectra: _Spectra, a_tilde: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """`metric_grid`'s g: weight f1 sqrt(2 / (p_a + p_b)) on At."""
    return _metric_from_frame(a_tilde, f1 * np.sqrt(2.0 / _sld_denominators(spectra)))


def _equilibrium_tangent(obs: ObservableSet, lams) -> tuple[np.ndarray, np.ndarray]:
    """dS/dlam, (P, n), and the Kubo-Mori Hessian K = grad^2 ln Z, (P, n, n), at lams.

    U^dagger d_k rho U = -At_k * f1 gives K = -da/dlam = Re F F^H for F = At * sqrt(f1),
    and dp_a = -p_a At_k,aa gives dS/dlam_k = sum_a p_a y_a At_k,aa, y = x - ln Z.
    Neither divides by a population (no `SLD_DENOM_FLOOR`); blocks as in `metric_grid`.
    """
    return _frame_layer(obs, _tangent, lams)


def _tangent(
    spectra: _Spectra, a_tilde: np.ndarray, f1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_equilibrium_tangent`'s dS/dlam and K."""
    ds = np.einsum("pkaa,pa->pk", a_tilde.real, spectra.p * (spectra.x - spectra.log_Z[:, None]))
    return ds, _metric_from_frame(a_tilde, np.sqrt(f1))


def _metric_from_frame(a_tilde: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Re F F^H, (P, n, n), for F_i = At_i * weight, weight (P, m, m); overwrites a_tilde.

    Re (F F^H)_ij = sum_ab (Re F_i,ab Re F_j,ab + Im F_i,ab Im F_j,ab), so on
    F's float view, f.itemsize // 8 * m^2 columns wide (2 m^2 for a complex F,
    m^2 for a real one), it is one real GEMM per point, with no conjugate copy
    and, for a complex F, half the flops of the complex product.
    """
    # F is built in At's buffer by one scaling; with the SLD weight
    # f1 sqrt(2 / (p_a + p_b)) it is -d_i rho sqrt(2 / (p_a + p_b)), to whose
    # sign Re F F^H is blind
    f = a_tilde
    f *= weight[:, None]
    p, n, m = f.shape[:3]
    f = f.view(float).reshape(p, n, f.itemsize // 8 * m * m)
    return hermitize(f @ f.swapaxes(1, 2))


def injectivity_diagnostic(obs: ObservableSet, lam) -> tuple[np.ndarray, int]:
    """Symmetrized covariance C_ij = Re tr(rho Atil_i Atil_j) and its rank.

    Atil_i = A_i - a_i I.  In the eigenbasis C weighs |At_ab|^2 by
    (p_a + p_b) / 2, so it is one `_metric_from_frame` product.  Rank
    deficiency (rank < n) flags a locally non-injective Gibbs map, e.g.
    redundant observables, and with it a broken zeroth law.  The rank is
    that of the correlation matrix D^-1/2 C D^-1/2, D = diag C (relative
    eigenvalue threshold 1e-10), so a change of units A_i -> s_i A_i leaves
    it as it is.  A dependent direction is a multiple of the identity, as
    the set decides from its operators (`ObservableSet._live`), or a zero
    variance.  The point is a block of one, so a covariance that overflows
    raises `ParameterRangeError` naming lam.
    """
    lam = vector(lam, observables(obs).n, "lam")[None]
    c = _frame_layer(obs, _covariance, lam)[0]
    d = np.sqrt(np.diag(c))
    live = obs._live & (d > 0.0)
    # divided by each deviation in turn, so no product of two over- or underflows
    corr = c[np.ix_(live, live)] / d[live, None] / d[None, live]
    w = np.abs(np.linalg.eigvalsh(corr))
    top = float(w.max(initial=0.0))
    rank = 0 if top == 0.0 else int(np.sum(w > _INDEPENDENCE_RTOL * top))
    return c, rank


def _covariance(spectra: _Spectra, a_tilde: np.ndarray, f1: np.ndarray) -> np.ndarray:
    """`injectivity_diagnostic`'s C: weight sqrt((p_a + p_b) / 2) on At."""
    p = spectra.p
    return _metric_from_frame(a_tilde, np.sqrt((p[:, :, None] + p[:, None, :]) / 2))


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
    At_v = v . At is a (1, n) @ (n, m^2) product per point, and row a of N
    is row a of L_v times the (m, m) matrix (At_v,bc f2_abc)_bc, one
    broadcast product away from f2; c stays an einsum, which a product per
    point overtakes only on blocks of under about 32 points.  It runs on
    blocks of points whose (n, m, m) rotated observables and (m, m, m) f2
    each stay within 256 KiB, v split with lam.
    """
    return _frame_layer(obs, _form, lams, v, point_bytes=8 * observables(obs).dim**3)


def _form(
    spectra: _Spectra, a_tilde: np.ndarray, f1: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """`_quadratic_form_derivatives`' g and c."""
    denom = _sld_denominators(spectra)
    size, n, m = a_tilde.shape[:3]
    a_v = (v[:, None] @ a_tilde.reshape(size, n, m * m)).reshape(size, m, m)
    sld = -2.0 * a_v * f1 / denom
    # the (P, m, m, m) product At_v,bc f2_abc, formed in f2's own buffer for a
    # real set and in one complex copy of f2 for a complex one, then dropped
    y = _second_divided_differences(spectra, f1).astype(a_v.dtype, order="C", copy=False)
    y *= a_v[:, None]
    n_ac = (sld[:, :, None] @ y)[:, :, 0]
    del y
    w = 4.0 * n_ac.swapaxes(1, 2) + f1 * (sld @ sld).swapaxes(1, 2)
    c = np.einsum("piab,pab->pi", a_tilde, w).real
    return _metric_from_frame(a_tilde, f1 * np.sqrt(2.0 / denom)), c
