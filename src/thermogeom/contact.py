"""The (2n+1)-dimensional contact state space with coordinates (S, a, lam).

The global contact form is eta = dS - sum_i lam_i da_i.  Equilibrium
embeddings lam -> (S(lam), a(lam), lam) annihilate eta (the first law in
entropy representation); off equilibrium, S and a are independent target
coordinates.  The state function maps any point to a Gibbs state through
mu_i = lam_i + f_i(S, a, lam) with f_i vanishing on equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang
from .errors import DegenerateMetricError, SignatureError, ValidationError
from .geometry import MetricTensor
from .gibbs import ObservableSet, gibbs_batch, gibbs_point
from .linalg import DensityOperator, central_difference
from .inputs import count, number, points, positive, vector

__all__ = [
    "ThermoPoint",
    "TangentVector",
    "MuExtension",
    "MMetricSpec",
    "eta_eval",
    "deta_eval",
    "eta_coefficients",
    "contact_volume_coefficient",
    "wedge_top_coefficient",
    "legendrian_residual",
    "state_function",
    "fiber_membership",
    "mu_jacobian",
    "equilibrium_point",
    "gauge_translate",
    "gM_quadratic",
    "fiber_path_length",
]

# the largest n whose n! is a finite double
MAX_CONTACT_N = 170
MU_VALIDATION_POINTS = 32
# the equilibrium labels lam are drawn uniformly from [-box, box]^n
MU_VALIDATION_BOX = 1.0
MU_VALIDATION_TOL = 1e-8
_MU_GRID_SEED = 173651


@dataclass(frozen=True)
class ThermoPoint:
    """A point (S, a, lam) of the contact state space; coordinates independent."""

    S: float
    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "S", number(self.S, "S"))
        a = vector(self.a, None, "a")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", vector(self.lam, a.size, "lam"))

    @property
    def n(self) -> int:
        return self.lam.size


@dataclass(frozen=True)
class TangentVector:
    """A variation (dS, da, dlam) at a point of the state space."""

    dS: float
    da: np.ndarray
    dlam: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dS", number(self.dS, "dS"))
        da = vector(self.da, None, "da")
        object.__setattr__(self, "da", da)
        object.__setattr__(self, "dlam", vector(self.dlam, da.size, "dlam"))

    @property
    def n(self) -> int:
        return self.dlam.size


def _agree_on_n(what: str, *ns: int) -> None:
    if len(set(ns)) > 1:
        raise ValidationError(f"{what} disagree on n")


def _point_env(S, a: np.ndarray, lam: np.ndarray) -> dict:
    """Expression variables at points (S, a, lam); a and lam have shape (..., n)."""
    env = {"S": S}
    for i in range(lam.shape[-1]):
        env[f"a{i + 1}"] = a[..., i]
        env[f"l{i + 1}"] = lam[..., i]
    return env


@dataclass(frozen=True, slots=True)
class MuExtension:
    """Additive extension mu_i = lam_i + f_i(S, a, lam) of the conjugate map.

    The f_i must vanish on equilibrium points; this is validated
    numerically on a 32-point grid of equilibrium embeddings rather than
    symbolically.  Build it with `MuExtension.validated` or
    `MuExtension.zero`; the program computes [f_1, ..., f_n].
    """

    n: int
    program: exprlang.Program

    def __post_init__(self) -> None:
        count(self.n, "n", 1)

    @classmethod
    def validated(cls, texts: Sequence[str], obs: ObservableSet) -> "MuExtension":
        """Parse f1..fn and check |f_i| < 1e-8 on sampled equilibrium embeddings.

        The f_i may read S, a1..an and l1..ln, not t.
        """
        n = obs.n
        allowed = set(exprlang.allowed_variables(n)) - {"t"}
        mu = cls(n, exprlang.compile_fields(exprlang.numbered("f", texts, n), n, allowed))
        rng = np.random.default_rng(_MU_GRID_SEED)
        lams = rng.uniform(-MU_VALIDATION_BOX, MU_VALIDATION_BOX, size=(MU_VALIDATION_POINTS, n))
        batch = gibbs_batch(obs, lams)
        env = _point_env(batch.S, batch.a, lams)
        worst = np.max(np.abs(list(mu.program.run(env))), axis=0)
        failing = worst >= MU_VALIDATION_TOL
        if failing.any():
            j = int(np.argmax(failing))
            raise ValidationError(
                f"extension does not vanish on equilibrium: |f| = {worst[j]:.3e} "
                f"at lambda = {lams[j].tolist()}"
            )
        return mu

    @classmethod
    def zero(cls, n: int) -> "MuExtension":
        """The equilibrium conjugate map mu = lam: every f_i is 0."""
        n = count(n, "n", 1)
        return cls(n, exprlang.compile_fields(exprlang.numbered("f", ["0"] * n, n), n, ()))

    def offsets(self, p: ThermoPoint) -> np.ndarray:
        _agree_on_n("extension and point", self.n, p.n)
        env = _point_env(p.S, p.a, p.lam)
        return np.array(list(self.program.run(env)))

    def mu_values(self, p: ThermoPoint) -> np.ndarray:
        return p.lam + self.offsets(p)


@dataclass(frozen=True, slots=True)
class MMetricSpec:
    """Scalar fields (g_S, g_{a_i}, h_k) of the pseudo-Riemannian extension.

    g_S may take any sign (entropy direction), the g_{a_i} must stay
    positive, and the h_k are the cross-terms coupling dS to dlam_k; all
    are functions of lam alone.  Build it with `MMetricSpec.parsed`; the
    program computes [g_S, *g_a, *h].
    """

    n: int
    program: exprlang.Program

    def __post_init__(self) -> None:
        count(self.n, "n", 1)

    @classmethod
    def parsed(
        cls, g_S: str, g_a: Sequence[str], h: Sequence[str], n: int
    ) -> "MMetricSpec":
        """The fields from their texts: g_S, g_a1..g_an and h1..hn may read l1..ln only."""
        n = count(n, "n", 1)
        fields = {"g_S": g_S, **exprlang.numbered("g_a", g_a, n), **exprlang.numbered("h", h, n)}
        return cls(n, exprlang.compile_fields(fields, n, {f"l{i}" for i in range(1, n + 1)}))

    def evaluate(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(g_S, g_a vector, h vector) at lam, enforcing the sign invariants.

        g_S is checked before any g_a is evaluated, and the g_a before any h.
        """
        lam = vector(lam, self.n, "lam")
        env = {f"l{i + 1}": float(lam[i]) for i in range(self.n)}
        values = self.program.run(env)
        g_s = next(values)
        if abs(g_s) <= 1e-12:
            raise DegenerateMetricError(
                f"|g_S| = {abs(g_s):.3e} at lambda = {lam.tolist()}"
            )
        g_a = np.array([next(values) for _ in range(self.n)])
        if np.any(g_a <= 0.0):
            raise SignatureError(
                f"g_a must be positive, got {g_a.tolist()} at "
                f"lambda = {lam.tolist()}"
            )
        h = np.array(list(values))
        return float(g_s), g_a, h


def eta_eval(p: ThermoPoint, v: TangentVector) -> float:
    """The contact form: eta(v) = dS - sum_i lam_i da_i."""
    _agree_on_n("point and tangent", p.n, v.n)
    return float(v.dS - p.lam @ v.da)


def deta_eval(u: TangentVector, v: TangentVector) -> float:
    """d eta = -sum_i dlam_i wedge da_i, constant over the state space."""
    _agree_on_n("tangents", u.n, v.n)
    return float(-(u.dlam @ v.da) + (v.dlam @ u.da))


def eta_coefficients(p: ThermoPoint) -> np.ndarray:
    """eta as a row vector on the ordered basis (dS, da_1.., dlam_1..)."""
    return np.concatenate(([1.0], -p.lam, np.zeros(p.n)))


def _pfaffian(matrix: np.ndarray) -> float:
    """Pfaffian of an even-order antisymmetric matrix by Parlett-Reid elimination.

    Each step swaps the largest entry below the diagonal of column k into
    row k+1 (with the matching column, which flips the sign) and eliminates
    the rest of the pair's rows and columns (Wimmer, arXiv:1102.3440).
    """
    a = np.array(matrix, dtype=float)
    size = a.shape[0]
    pf = 1.0
    for k in range(0, size - 1, 2):
        piv = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if piv != k + 1:
            a[[k + 1, piv]] = a[[piv, k + 1]]
            a[:, [k + 1, piv]] = a[:, [piv, k + 1]]
            pf = -pf
        if a[k + 1, k] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        tau = a[k, k + 2 :] / a[k, k + 1]
        col = a[k + 2 :, k + 1]
        a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def wedge_top_coefficient(one_form, two_form, n: int) -> float:
    """Evaluate alpha wedge beta^n on an ordered basis of dimension 2n+1.

    alpha is a 1-form coefficient vector of 2n+1 finite numbers, beta a
    2-form: a finite (2n+1) x (2n+1) block equal to minus its transpose,
    exactly.  n is an integer in [1, MAX_CONTACT_N].  The value is n!
    times the Pfaffian of the bordered matrix [[0, alpha], [-alpha^T, beta]],
    computed in O(n^3).
    """
    n = count(n, "n", 1, MAX_CONTACT_N)
    dim = 2 * n + 1
    alpha = vector(one_form, dim, "one-form")
    beta = points(two_form, dim, "two-form", dim, dim)
    if not np.array_equal(beta, -beta.T):
        raise ValidationError("two-form must be exactly antisymmetric")
    bordered = np.zeros((dim + 1, dim + 1))
    bordered[0, 1:] = alpha
    bordered[1:, 0] = -alpha
    bordered[1:, 1:] = beta
    return math.factorial(n) * _pfaffian(bordered)


def contact_volume_coefficient(n: int) -> float:
    """Coefficient of eta wedge (d eta)^n on (dS, da_1, dlam_1, .., da_n, dlam_n).

    Nonzero everywhere (the form is a volume form); the value is n! times
    the Pfaffian of the bordered matrix at a generic point, never hardcoded.
    n is an integer in [1, MAX_CONTACT_N].
    """
    n = count(n, "n", 1, MAX_CONTACT_N)
    dim = 2 * n + 1
    # generic nonzero lam so cancellations are exercised, not sidestepped
    lam = 0.5 + 0.1 * np.arange(n)
    alpha = np.zeros(dim)
    alpha[0] = 1.0
    beta = np.zeros((dim, dim))
    for i in range(n):
        ia, il = 1 + 2 * i, 2 + 2 * i
        alpha[ia] = -lam[i]
        beta[ia, il] = 1.0
        beta[il, ia] = -1.0
    value = wedge_top_coefficient(alpha, beta, n)
    if value == 0.0:
        raise ValidationError("contact volume coefficient vanished; eta is degenerate")
    return value


def legendrian_residual(obs: ObservableSet, lambda_grid) -> float:
    """max |dS/dlam_k - sum_i lam_i da_i/dlam_k| over a grid of base points.

    `linalg.central_difference`, at order 4 with step 1e-5,
    differentiates (S, a) from one `gibbs_batch` call over every tap; the
    residual vanishes on the equilibrium submanifold (the first law), so
    this is the Legendrian diagnostic.
    """
    grid = points(lambda_grid, obs.n, "grid", 1)
    n = obs.n

    def entropy_and_expectations(taps: np.ndarray) -> np.ndarray:
        batch = gibbs_batch(obs, taps.reshape(-1, n))
        values = np.concatenate((batch.S[:, None], batch.a), axis=1)
        return values.reshape(*taps.shape[:-1], n + 1)

    d = central_difference(entropy_and_expectations, grid, 1e-5, 4)
    residual = d[..., 0] - np.einsum("pi,pki->pk", grid, d[..., 1:])
    return float(np.max(np.abs(residual)))


def state_function(
    obs: ObservableSet, mu: MuExtension, p: ThermoPoint
) -> DensityOperator:
    """The density operator rho_{mu(p)}; reduces to rho_lam on equilibrium."""
    _agree_on_n("extension, point and observables", mu.n, p.n, obs.n)
    return gibbs_point(obs, mu.mu_values(p)).rho


def fiber_membership(
    obs: ObservableSet,
    mu: MuExtension,
    p: ThermoPoint,
    c,
    tol: float = 1e-9,
) -> bool:
    """Whether p lies on the fiber over rho_c, i.e. max_i |mu_i(p) - c_i| <= tol."""
    _agree_on_n("extension, point and observables", mu.n, p.n, obs.n)
    c = vector(c, obs.n, "fiber label")
    return bool(np.max(np.abs(mu.mu_values(p) - c)) <= positive(tol, "tol"))


def mu_jacobian(mu: MuExtension, p: ThermoPoint) -> np.ndarray:
    """Central-difference Jacobian of mu over (S, a, lam), shape (n, 2n+1).

    `linalg.central_difference`, at order 2 with step 1e-6, differentiates
    mu_i = lam_i + f_i, each f_i evaluated once over all taps.  Rank n
    certifies the fiber is a smooth (n+1)-dimensional level set.
    """
    _agree_on_n("extension and point", mu.n, p.n)
    n = p.n

    def mu_values(coords: np.ndarray) -> np.ndarray:
        lam = coords[..., n + 1 :]
        env = _point_env(coords[..., 0], coords[..., 1 : n + 1], lam)
        return lam + np.stack(list(mu.program.run(env)), axis=-1)

    coords = np.concatenate(([p.S], p.a, p.lam))
    return central_difference(mu_values, coords, 1e-6, 2).T


def equilibrium_point(obs: ObservableSet, c) -> ThermoPoint:
    """The unique equilibrium embedding (S(c), a(c), c) over the label c."""
    point = gibbs_point(obs, c)
    return ThermoPoint(point.S, point.a, point.lam)


def gauge_translate(p: ThermoPoint, dS: float, da) -> ThermoPoint:
    """The free fiber-transitive action (S, a, lam) -> (S + dS, a + da, lam)."""
    return ThermoPoint(p.S + number(dS, "dS"), p.a + vector(da, p.n, "da"), p.lam)


def gM_quadratic(
    spec: MMetricSpec, metric_g: MetricTensor, p: ThermoPoint, v: TangentVector
) -> float:
    """The quadratic form of the pseudo-Riemannian extension on a tangent.

    g_S dS^2 + sum_i g_{a_i} da_i^2 + sum_ij g_ij dlam_i dlam_j
    + 2 sum_k h_k dS dlam_k; the lam-lam block is the supplied
    Bures-Wasserstein tensor.
    """
    _agree_on_n("metric spec, tensor, point and tangent", spec.n, metric_g.g.shape[0], p.n, v.n)
    g_s, g_a, h = spec.evaluate(p.lam)
    return float(
        g_s * v.dS**2
        + g_a @ (v.da**2)
        + v.dlam @ metric_g.g @ v.dlam
        + 2.0 * v.dS * (h @ v.dlam)
    )


def fiber_path_length(spec: MMetricSpec, points: Sequence[ThermoPoint]) -> float:
    """Length of the polyline through points in one fiber, under the vertical metric.

    sum_s sqrt(g_S dS_s^2 + sum_i g_{a_i} da_{i,s}^2) over consecutive
    points.  All points must share lam (the path stays in one fiber), so
    the metric is constant along it and the sum is the exact length of the
    piecewise-linear path, whatever the spacing.  The vertical restriction
    must be Riemannian there, so g_S > 0 is required on top of the
    positive g_a.
    """
    if not isinstance(points, (list, tuple)) or not all(isinstance(q, ThermoPoint) for q in points):
        raise ValidationError("a fiber path's points must be a list or tuple of ThermoPoints")
    if len(points) < 2:
        raise ValidationError("a fiber path needs at least two points")
    _agree_on_n("metric spec and points", spec.n, points[0].n)
    lam0 = points[0].lam
    for q in points[1:]:
        if q.n != points[0].n or np.max(np.abs(q.lam - lam0)) > 1e-12:
            raise ValidationError("fiber paths must keep lam fixed")
    g_s, g_a, _ = spec.evaluate(lam0)
    if g_s <= 0.0:
        raise SignatureError(
            f"vertical restriction needs g_S > 0, got {g_s!r} at "
            f"lambda = {lam0.tolist()}"
        )
    d_s = np.diff([q.S for q in points])
    d_a = np.diff([q.a for q in points], axis=0)
    return float(np.sum(np.sqrt(g_s * d_s**2 + d_a**2 @ g_a)))
