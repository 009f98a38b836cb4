"""The (2n+1)-dimensional contact state space with coordinates (S, a, lam).

The global contact form is eta = dS - sum_i lam_i da_i.  Equilibrium
embeddings lam -> (S(lam), a(lam), lam) annihilate eta (the first law in
entropy representation); off equilibrium, S and a are independent target
coordinates.  The state function maps any point to a Gibbs state through
mu_i = lam_i + f_i(S, a, lam) with f_i vanishing on equilibrium.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang
from .errors import DegenerateMetricError, SignatureError, ValidationError
from .exprlang import Expr
from .geometry import FDScheme, MetricTensor
from .gibbs import ObservableSet, gibbs_batch, gibbs_point
from .linalg import DensityOperator, central_difference
from .processes import _trapezoid

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

MU_VALIDATION_POINTS = 32
MU_VALIDATION_TOL = 1e-8
_MU_GRID_SEED = 173651


def _frozen_vector(x, n: int, what: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != n:
        raise ValidationError(f"{what} must have {n} components, got {v.size}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{what} must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class ThermoPoint:
    """A point (S, a, lam) of the contact state space; coordinates independent."""

    S: float
    a: np.ndarray
    lam: np.ndarray

    def __post_init__(self) -> None:
        if not np.isfinite(self.S):
            raise ValidationError("S must be finite")
        a = _frozen_vector(self.a, np.asarray(self.a).size, "a")
        lam = _frozen_vector(self.lam, np.asarray(self.lam).size, "lam")
        if a.size != lam.size:
            raise ValidationError("a and lam must have equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lam", lam)

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
        if not np.isfinite(self.dS):
            raise ValidationError("dS must be finite")
        da = _frozen_vector(self.da, np.asarray(self.da).size, "da")
        dlam = _frozen_vector(self.dlam, np.asarray(self.dlam).size, "dlam")
        if da.size != dlam.size:
            raise ValidationError("da and dlam must have equal length")
        object.__setattr__(self, "da", da)
        object.__setattr__(self, "dlam", dlam)


def _point_env(S, a: np.ndarray, lam: np.ndarray) -> dict:
    """Expression variables at points (S, a, lam); a and lam have shape (..., n)."""
    env = {"S": S, "t": 0.0}
    for i in range(lam.shape[-1]):
        env[f"a{i + 1}"] = a[..., i]
        env[f"l{i + 1}"] = lam[..., i]
    return env


class MuExtension:
    """Additive extension mu_i = lam_i + f_i(S, a, lam) of the conjugate map.

    The f_i must vanish on equilibrium points; this is validated
    numerically on a 32-point grid of equilibrium embeddings rather than
    symbolically.  Build instances through `MuExtension.validated`.
    """

    __slots__ = ("exprs", "n")

    def __init__(self, exprs: Sequence[Expr], n: int) -> None:
        exprs = tuple(exprs)
        if len(exprs) != n:
            raise ValidationError(f"need {n} extension expressions, got {len(exprs)}")
        allowed = set(exprlang.allowed_variables(n)) - {"t"}
        for k, e in enumerate(exprs):
            extra = exprlang.free_vars(e) - allowed
            if extra:
                raise ValidationError(
                    f"f_{k + 1} uses variables {sorted(extra)} outside (S, a, lam)"
                )
        object.__setattr__(self, "exprs", exprs)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("MuExtension is immutable")

    @classmethod
    def validated(
        cls,
        texts: Sequence[str],
        obs: ObservableSet,
        box: float = 1.0,
    ) -> "MuExtension":
        """Parse f_i and check |f_i| < 1e-8 on sampled equilibrium embeddings."""
        exprs = [exprlang.parse(t, obs.n) for t in texts]
        mu = cls(exprs, obs.n)
        rng = np.random.default_rng(_MU_GRID_SEED)
        lams = rng.uniform(-box, box, size=(MU_VALIDATION_POINTS, obs.n))
        batch = gibbs_batch(obs, lams)
        env = _point_env(batch.S, batch.a, lams)
        worst = np.max(np.abs([exprlang.eval_expr(e, env) for e in exprs]), axis=0)
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
        return cls([exprlang.Num(0.0)] * n, n)

    def offsets(self, p: ThermoPoint) -> np.ndarray:
        env = _point_env(p.S, p.a, p.lam)
        return np.array([exprlang.eval_expr(e, env) for e in self.exprs])

    def mu_values(self, p: ThermoPoint) -> np.ndarray:
        return p.lam + self.offsets(p)


class MMetricSpec:
    """Scalar fields (g_S, g_{a_i}, h_k) of the pseudo-Riemannian extension.

    g_S may take any sign (entropy direction), the g_{a_i} must stay
    positive, and the h_k are the cross-terms coupling dS to dlam_k; all
    are functions of lam alone.
    """

    __slots__ = ("g_S", "g_a", "h", "n")

    def __init__(self, g_S: Expr, g_a: Sequence[Expr], h: Sequence[Expr], n: int):
        g_a = tuple(g_a)
        h = tuple(h)
        if len(g_a) != n or len(h) != n:
            raise ValidationError(f"need {n} g_a and h expressions")
        lam_vars = {f"l{i + 1}" for i in range(n)}
        for name, e in (("g_S", g_S), *((f"g_a{k+1}", x) for k, x in enumerate(g_a)),
                        *((f"h{k+1}", x) for k, x in enumerate(h))):
            extra = exprlang.free_vars(e) - lam_vars
            if extra:
                raise ValidationError(
                    f"{name} may only depend on lam, found {sorted(extra)}"
                )
        object.__setattr__(self, "g_S", g_S)
        object.__setattr__(self, "g_a", g_a)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("MMetricSpec is immutable")

    @classmethod
    def parsed(
        cls, g_S: str, g_a: Sequence[str], h: Sequence[str], n: int
    ) -> "MMetricSpec":
        return cls(
            exprlang.parse(g_S, n),
            [exprlang.parse(t, n) for t in g_a],
            [exprlang.parse(t, n) for t in h],
            n,
        )

    def evaluate(self, lam: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """(g_S, g_a vector, h vector) at lam, enforcing the sign invariants."""
        env = {f"l{i + 1}": float(lam[i]) for i in range(self.n)}
        g_s = exprlang.eval_expr(self.g_S, env)
        if abs(g_s) <= 1e-12:
            raise DegenerateMetricError(
                f"|g_S| = {abs(g_s):.3e} at lambda = {np.asarray(lam).tolist()}"
            )
        g_a = np.array([exprlang.eval_expr(e, env) for e in self.g_a])
        if np.any(g_a <= 0.0):
            raise SignatureError(
                f"g_a must be positive, got {g_a.tolist()} at "
                f"lambda = {np.asarray(lam).tolist()}"
            )
        h = np.array([exprlang.eval_expr(e, env) for e in self.h])
        return float(g_s), g_a, h


def eta_eval(p: ThermoPoint, v: TangentVector) -> float:
    """The contact form: eta(v) = dS - sum_i lam_i da_i."""
    return float(v.dS - p.lam @ v.da)


def deta_eval(u: TangentVector, v: TangentVector) -> float:
    """d eta = -sum_i dlam_i wedge da_i, constant over the state space."""
    return float(-(u.dlam @ v.da) + (v.dlam @ u.da))


def eta_coefficients(p: ThermoPoint) -> np.ndarray:
    """eta as a row vector on the ordered basis (dS, da_1.., dlam_1..)."""
    return np.concatenate(([1.0], -p.lam, np.zeros(p.n)))


def wedge_top_coefficient(one_form: np.ndarray, two_form: np.ndarray, n: int) -> float:
    """Evaluate alpha wedge beta^n on an ordered basis of dimension 2n+1.

    alpha is a 1-form coefficient vector, beta an antisymmetric 2-form
    matrix; the expansion antisymmetrizes over all (2n+1)! orderings with
    the 1/(2^n) multi-degree normalization.
    """
    dim = 2 * n + 1
    if one_form.shape != (dim,) or two_form.shape != (dim, dim):
        raise ValidationError("coefficient arrays do not match dimension 2n+1")
    total = 0.0
    for perm in itertools.permutations(range(dim)):
        coeff = one_form[perm[0]]
        if coeff == 0.0:
            continue
        sign = _perm_sign(perm)
        prod = coeff
        for k in range(n):
            prod *= two_form[perm[1 + 2 * k], perm[2 + 2 * k]]
            if prod == 0.0:
                break
        total += sign * prod
    return total / (2.0**n)


def _perm_sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def contact_volume_coefficient(n: int) -> float:
    """Coefficient of eta wedge (d eta)^n on (dS, da_1, dlam_1, .., da_n, dlam_n).

    Nonzero everywhere (the form is a volume form); the value is computed
    by brute-force antisymmetrization at a generic point, never hardcoded.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
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


def legendrian_residual(
    obs: ObservableSet, lambda_grid, scheme: FDScheme = FDScheme()
) -> float:
    """max |dS/dlam_k - sum_i lam_i da_i/dlam_k| over a grid of base points.

    `linalg.central_difference`, at the scheme's order and step,
    differentiates (S, a) from one `gibbs_batch` call over every tap; the
    residual vanishes on the equilibrium submanifold (the first law), so
    this is the Legendrian diagnostic.
    """
    grid = np.atleast_2d(np.asarray(lambda_grid, dtype=float))
    if grid.shape[1] != obs.n:
        raise ValidationError(f"grid points must have {obs.n} components")
    n = obs.n

    def entropy_and_expectations(taps: np.ndarray) -> np.ndarray:
        batch = gibbs_batch(obs, taps.reshape(-1, n))
        values = np.concatenate((batch.S[:, None], batch.a), axis=1)
        return values.reshape(*taps.shape[:-1], n + 1)

    d = central_difference(entropy_and_expectations, grid, scheme.step, scheme.order)
    residual = d[..., 0] - np.einsum("pi,pki->pk", grid, d[..., 1:])
    return float(np.max(np.abs(residual)))


def state_function(
    obs: ObservableSet, mu: MuExtension, p: ThermoPoint
) -> DensityOperator:
    """The density operator rho_{mu(p)}; reduces to rho_lam on equilibrium."""
    if mu.n != obs.n or p.n != obs.n:
        raise ValidationError("extension, point and observables disagree on n")
    return gibbs_point(obs, mu.mu_values(p)).rho


def fiber_membership(
    obs: ObservableSet,
    mu: MuExtension,
    p: ThermoPoint,
    c,
    tol: float = 1e-9,
) -> bool:
    """Whether p lies on the fiber over rho_c, i.e. max_i |mu_i(p) - c_i| <= tol."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.size != obs.n:
        raise ValidationError(f"fiber label must have {obs.n} components")
    return bool(np.max(np.abs(mu.mu_values(p) - c)) <= tol)


def mu_jacobian(mu: MuExtension, p: ThermoPoint, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of mu over (S, a, lam), shape (n, 2n+1).

    `linalg.central_difference` differentiates mu_i = lam_i + f_i, each f_i
    evaluated once over all taps; `step` must lie in (0, 1e-2].  Rank n
    certifies the fiber is a smooth (n+1)-dimensional level set.
    """
    if not (0.0 < step <= 1e-2):
        raise ValidationError(f"step must be in (0, 1e-2], got {step!r}")
    n = p.n

    def mu_values(coords: np.ndarray) -> np.ndarray:
        lam = coords[..., n + 1 :]
        env = _point_env(coords[..., 0], coords[..., 1 : n + 1], lam)
        return lam + np.stack([exprlang.eval_expr(e, env) for e in mu.exprs], axis=-1)

    coords = np.concatenate(([p.S], p.a, p.lam))
    return central_difference(mu_values, coords, step, 2).T


def equilibrium_point(obs: ObservableSet, c) -> ThermoPoint:
    """The unique equilibrium embedding (S(c), a(c), c) over the label c."""
    point = gibbs_point(obs, c)
    return ThermoPoint(point.S, point.a, point.lam)


def gauge_translate(p: ThermoPoint, dS: float, da) -> ThermoPoint:
    """The free fiber-transitive action (S, a, lam) -> (S + dS, a + da, lam)."""
    da = np.asarray(da, dtype=float).reshape(-1)
    if da.size != p.n:
        raise ValidationError(f"da must have {p.n} components")
    return ThermoPoint(p.S + float(dS), p.a + da, p.lam)


def gM_quadratic(
    spec: MMetricSpec, metric_g: MetricTensor, p: ThermoPoint, v: TangentVector
) -> float:
    """The quadratic form of the pseudo-Riemannian extension on a tangent.

    g_S dS^2 + sum_i g_{a_i} da_i^2 + sum_ij g_ij dlam_i dlam_j
    + 2 sum_k h_k dS dlam_k; the lam-lam block is the supplied
    Bures-Wasserstein tensor.
    """
    if spec.n != p.n or metric_g.g.shape[0] != p.n:
        raise ValidationError("metric spec, tensor and point disagree on n")
    g_s, g_a, h = spec.evaluate(p.lam)
    return float(
        g_s * v.dS**2
        + g_a @ (v.da**2)
        + v.dlam @ metric_g.g @ v.dlam
        + 2.0 * v.dS * (h @ v.dlam)
    )


def fiber_path_length(
    spec: MMetricSpec, points: Sequence[ThermoPoint], duration: float
) -> float:
    """Trapezoid length of a vertical path: int sqrt(g_S S'^2 + sum g_a a_i'^2).

    All points must share lam (the path stays in one fiber) and the
    vertical restriction must be Riemannian there, so g_S > 0 is required
    on top of the positive g_a.
    """
    pts = list(points)
    if len(pts) < 2:
        raise ValidationError("a fiber path needs at least two points")
    if duration <= 0.0:
        raise ValidationError("duration must be positive")
    lam0 = pts[0].lam
    for q in pts[1:]:
        if q.n != pts[0].n or np.max(np.abs(q.lam - lam0)) > 1e-12:
            raise ValidationError("fiber paths must keep lam fixed")
    g_s, g_a, _ = spec.evaluate(lam0)
    if g_s <= 0.0:
        raise SignatureError(
            f"vertical restriction needs g_S > 0, got {g_s!r} at "
            f"lambda = {lam0.tolist()}"
        )
    s_vals = np.array([q.S for q in pts])
    a_vals = np.stack([q.a for q in pts])
    dt = duration / (len(pts) - 1)
    s_dot = np.gradient(s_vals, dt)
    a_dot = np.gradient(a_vals, dt, axis=0)
    speed = np.sqrt(g_s * s_dot**2 + (a_dot**2) @ g_a)
    return _trapezoid(speed, dt)
