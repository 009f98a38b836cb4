"""Principal-connection layer on the thermodynamic bundle.

The structure group is abelian (translations of (S, a) at fixed lam), so
the connection reduces to the coefficients Gamma^k_0 = h_k / g_S acting
on the entropy coordinate, with Gamma^k_i = 0 on the expectation
coordinates.  Horizontal lifts integrate S' = -sum_k Gamma^k_0 lam_k',
holonomy is the vertical displacement of a lifted loop, and the same
number is recovered as minus the curvature flux through a spanning
rectangle (Stokes, since the group is abelian).

Every layer is batched over points: `ConnectionSpec.gamma` maps lam of
shape (..., n) to (..., n) with one evaluation of each expression, a
curvature batch differentiates it through `linalg.central_difference`,
and a lift makes one gamma call for its samples and midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exprlang
from .errors import DegenerateMetricError, ValidationError
from .exprlang import Expr
from .contact import ThermoPoint
from .linalg import central_difference
from .processes import ParamPath

__all__ = [
    "ConnectionSpec",
    "GammaCoefficients",
    "HolonomyResult",
    "Loop",
    "rectangle_loop",
    "gamma_coeffs",
    "horizontal_lift",
    "curvature",
    "holonomy_via_lift",
    "holonomy_via_curvature",
    "flatness_check",
    "FlatnessReport",
]

MIN_LOOP_STEPS = 16


class ConnectionSpec:
    """Scalar fields g_S(lam) and h_k(lam) plus the FD step for lam-derivatives."""

    __slots__ = ("g_S", "h", "fd_step", "n")

    def __init__(self, g_S: Expr, h: Sequence[Expr], n: int, fd_step: float = 1e-5):
        h = tuple(h)
        if len(h) != n:
            raise ValidationError(f"need {n} h expressions, got {len(h)}")
        if not (1e-8 <= fd_step <= 1e-2):
            raise ValidationError(f"fd_step must be in [1e-8, 1e-2], got {fd_step!r}")
        lam_vars = {f"l{i + 1}" for i in range(n)}
        for name, e in (("g_S", g_S), *((f"h{k + 1}", x) for k, x in enumerate(h))):
            extra = exprlang.free_vars(e) - lam_vars
            if extra:
                raise ValidationError(
                    f"{name} may only depend on lam, found {sorted(extra)}"
                )
        object.__setattr__(self, "g_S", g_S)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "fd_step", float(fd_step))
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("ConnectionSpec is immutable")

    @classmethod
    def parsed(
        cls, g_S: str, h: Sequence[str], n: int, fd_step: float = 1e-5
    ) -> "ConnectionSpec":
        return cls(exprlang.parse(g_S, n), [exprlang.parse(t, n) for t in h], n, fd_step)

    def gamma(self, lam) -> np.ndarray:
        """Gamma^k_0 = h_k / g_S, mapping lam of shape (..., n) to (..., n).

        One evaluation of each expression covers every point; |g_S| <= 1e-12
        at any point raises, naming the first such point in C order.
        """
        lam = np.asarray(lam, dtype=float)
        if lam.ndim == 0 or lam.shape[-1] != self.n:
            raise ValidationError(f"lam must have {self.n} components in its last axis")
        # contiguous copies of the components: ufuncs on strided views cost more
        columns = np.moveaxis(lam, -1, 0).copy()
        env = {f"l{i + 1}": columns[i] for i in range(self.n)}
        g_s = np.asarray(exprlang.eval_expr(self.g_S, env))
        degenerate = np.abs(g_s) <= 1e-12
        if degenerate.any():
            at = np.unravel_index(int(np.argmax(degenerate)), g_s.shape)
            raise DegenerateMetricError(
                f"|g_S| = {abs(float(g_s[at])):.3e} at lambda = {lam[at].tolist()}"
            )
        h = np.stack([exprlang.eval_expr(e, env) for e in self.h], axis=-1)
        return h / g_s[..., None]


@dataclass(frozen=True)
class GammaCoefficients:
    """The entropy-direction coefficients and the structural zeros."""

    entropy: np.ndarray  # Gamma^k_0, shape (n,)
    expectation: np.ndarray  # Gamma^k_i = 0, shape (n, n)


def gamma_coeffs(spec: ConnectionSpec, lam) -> GammaCoefficients:
    """Connection coefficients at lam: (h_k / g_S, zeros)."""
    return GammaCoefficients(spec.gamma(lam), np.zeros((spec.n, spec.n)))


@dataclass(frozen=True)
class HolonomyResult:
    """Vertical displacement (dS, da) of a transported loop; da is always zero."""

    dS: float
    da: np.ndarray
    method: str

    def __post_init__(self) -> None:
        da = np.asarray(self.da, dtype=float).reshape(-1)
        if np.any(da != 0.0):
            raise ValidationError("curvature acts only on S; da must be zero")
        if self.method not in ("lift", "curvature-integral"):
            raise ValidationError(f"unknown holonomy method {self.method!r}")
        da = da.copy()
        da.flags.writeable = False
        object.__setattr__(self, "da", da)


@dataclass(frozen=True)
class Loop:
    """A closed base path: samples[0] = samples[K] within 1e-12, K >= 16."""

    path: ParamPath

    def __post_init__(self) -> None:
        s = self.path.samples
        if self.path.steps < MIN_LOOP_STEPS:
            raise ValidationError(
                f"loops need at least {MIN_LOOP_STEPS} steps, got {self.path.steps}"
            )
        gap = float(np.max(np.abs(s[0] - s[-1])))
        if gap > 1e-12:
            raise ValidationError(f"loop is not closed: endpoint gap {gap:.3e}")


def rectangle_loop(
    lo: Sequence[float],
    hi: Sequence[float],
    k: int = 0,
    l: int = 1,
    steps: int = 256,
    n: int | None = None,
    base: Sequence[float] | None = None,
    duration: float = 1.0,
) -> Loop:
    """Counterclockwise rectangle loop in the (k, l) coordinate plane.

    Corners land on grid nodes (steps is rounded up to a multiple of 4),
    which keeps the per-segment integrator at full order.
    """
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != (2,) or hi.shape != (2,):
        raise ValidationError("lo and hi must be 2-vectors in the (k, l) plane")
    if n is None:
        n = max(k, l) + 1
    if k == l or not (0 <= k < n and 0 <= l < n):
        raise ValidationError(f"invalid plane indices ({k}, {l}) for n={n}")
    steps = max(int(np.ceil(steps / 4.0)) * 4, MIN_LOOP_STEPS)
    quarter = steps // 4
    corners = [
        (lo[0], lo[1]),
        (hi[0], lo[1]),
        (hi[0], hi[1]),
        (lo[0], hi[1]),
        (lo[0], lo[1]),
    ]
    center = np.zeros(n) if base is None else np.asarray(base, dtype=float).reshape(-1)
    if center.size != n:
        raise ValidationError(f"base point must have {n} components")
    samples = np.tile(center, (steps + 1, 1))
    row = 0
    for (x0, y0), (x1, y1) in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, quarter + 1)
        seg_x = x0 + ts * (x1 - x0)
        seg_y = y0 + ts * (y1 - y0)
        samples[row : row + quarter + 1, k] = seg_x
        samples[row : row + quarter + 1, l] = seg_y
        row += quarter
    return Loop(ParamPath(duration, samples))


def _lift_entropy(spec: ConnectionSpec, base: ParamPath, p0: ThermoPoint) -> np.ndarray:
    """S at every base sample of the horizontal lift started at p0."""
    if p0.n != base.n or spec.n != base.n:
        raise ValidationError("spec, base path and start point disagree on n")
    if float(np.max(np.abs(p0.lam - base.samples[0]))) > 1e-12:
        raise ValidationError("p0 must sit over the first base sample")
    dt = base.duration / base.steps
    lam0, lam1 = base.samples[:-1], base.samples[1:]
    vel = (lam1 - lam0) / dt
    # one gamma call: the K+1 samples, then the K segment midpoints
    g = spec.gamma(np.concatenate((base.samples, 0.5 * (lam0 + lam1))))
    g_node, g_mid = g[: base.steps + 1], g[base.steps + 1 :]
    k1 = -np.einsum("ij,ij->i", g_node[:-1], vel)
    k_mid = -np.einsum("ij,ij->i", g_mid, vel)
    k4 = -np.einsum("ij,ij->i", g_node[1:], vel)
    increments = (dt / 6.0) * (k1 + 4.0 * k_mid + k4)
    return np.cumsum(np.concatenate(([p0.S], increments)))


def horizontal_lift(
    spec: ConnectionSpec, base: ParamPath, p0: ThermoPoint
) -> list[ThermoPoint]:
    """Lift a base path horizontally: S' = -sum_k Gamma^k_0 lam_k', a' = 0.

    Classical RK4 on each grid segment (the base is piecewise linear, so
    this is Simpson quadrature of the connection line integral): one
    batched gamma call over the samples and segment midpoints, then a
    cumulative sum.  The lifted lam samples coincide with the base exactly.
    """
    s_vals = _lift_entropy(spec, base, p0)
    return [
        ThermoPoint(float(s_vals[j]), p0.a, base.samples[j])
        for j in range(base.steps + 1)
    ]


# points per batched gamma call in curvature, which bounds its working set
_CURVATURE_CHUNK = 4096


def _curvature_rows(spec: ConnectionSpec, lam: np.ndarray, k: int, l: int) -> np.ndarray:
    d = central_difference(spec.gamma, lam, spec.fd_step, 4, axes=(k, l))
    return d[:, 0, l] - d[:, 1, k]


def curvature(spec: ConnectionSpec, lam, k: int, l: int) -> float | np.ndarray:
    """R_kl = d(h_l/g_S)/dlam_k - d(h_k/g_S)/dlam_l, the dS-coefficient.

    lam of shape (n,) gives a float; a batch of shape (P, n) gives a (P,)
    array.  `linalg.central_difference` differentiates `spec.gamma` along
    (k, l) at fourth order with the spec's fd_step, in one gamma call over
    all taps; antisymmetric in (k, l) by construction.
    """
    if spec.n < 2:
        raise ValidationError("curvature needs at least two parameters")
    if not (0 <= k < spec.n and 0 <= l < spec.n):
        raise ValidationError(f"plane indices ({k}, {l}) out of range for n={spec.n}")
    lam = np.asarray(lam, dtype=float)
    if lam.ndim not in (1, 2) or lam.shape[-1] != spec.n:
        raise ValidationError(f"lam must have {spec.n} components (shape (n,) or (P, n))")
    pts = np.atleast_2d(lam)
    out = np.zeros(pts.shape[0])
    if k != l:
        for start in range(0, pts.shape[0], _CURVATURE_CHUNK):
            stop = start + _CURVATURE_CHUNK
            out[start:stop] = _curvature_rows(spec, pts[start:stop], k, l)
    return float(out[0]) if lam.ndim == 1 else out


def holonomy_via_lift(
    spec: ConnectionSpec, loop: Loop, p0: ThermoPoint
) -> HolonomyResult:
    """Hol = vertical displacement of the horizontal lift around the loop.

    The lift ODE never reads (S, a), so the result is independent of the
    base point's vertical coordinates.
    """
    s_vals = _lift_entropy(spec, loop.path, p0)
    return HolonomyResult(
        dS=float(s_vals[-1] - s_vals[0]),
        da=np.zeros(spec.n),
        method="lift",
    )


def holonomy_via_curvature(
    spec: ConnectionSpec,
    lo: Sequence[float],
    hi: Sequence[float],
    k: int = 0,
    l: int = 1,
    grid: tuple[int, int] = (64, 64),
    base: Sequence[float] | None = None,
) -> HolonomyResult:
    """Hol dS = -double integral of R_kl over a coordinate rectangle.

    Composite 2-D trapezoid on an (N_k+1) x (N_l+1) grid, whose nodes go
    to `curvature` as one batch; matches the lift holonomy of the
    counterclockwise boundary loop by Stokes.  The plane (k, l) must be
    two distinct indices in [0, n).
    """
    if spec.n < 2:
        raise ValidationError("surface holonomy needs at least two parameters")
    if k == l or not (0 <= k < spec.n and 0 <= l < spec.n):
        raise ValidationError(f"invalid plane indices ({k}, {l}) for n={spec.n}")
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    if lo.shape != (2,) or hi.shape != (2,):
        raise ValidationError("lo and hi must be 2-vectors in the (k, l) plane")
    n_k, n_l = int(grid[0]), int(grid[1])
    if n_k < 1 or n_l < 1:
        raise ValidationError("grid must have at least one cell per direction")
    center = np.zeros(spec.n) if base is None else np.asarray(base, dtype=float).reshape(-1)
    if center.size != spec.n:
        raise ValidationError(f"base point must have {spec.n} components")
    xs = np.linspace(lo[0], hi[0], n_k + 1)
    ys = np.linspace(lo[1], hi[1], n_l + 1)
    pts = np.tile(center, ((n_k + 1) * (n_l + 1), 1))
    pts[:, k] = np.repeat(xs, n_l + 1)
    pts[:, l] = np.tile(ys, n_k + 1)
    values = curvature(spec, pts, k, l).reshape(n_k + 1, n_l + 1)
    wx = np.full(n_k + 1, 1.0)
    wx[0] = wx[-1] = 0.5
    wy = np.full(n_l + 1, 1.0)
    wy[0] = wy[-1] = 0.5
    dx = (hi[0] - lo[0]) / n_k
    dy = (hi[1] - lo[1]) / n_l
    flux = dx * dy * float(wx @ values @ wy)
    return HolonomyResult(dS=-flux, da=np.zeros(spec.n), method="curvature-integral")


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    max_abs_curvature: float


def _flatness_grid(spec: ConnectionSpec, grid_points) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(grid_points, dtype=float))
    if pts.shape[0] < 1:
        raise ValidationError("flatness grid must be nonempty")
    if pts.shape[1] != spec.n:
        raise ValidationError(f"grid points must have {spec.n} components")
    return pts


def flatness_check(
    spec: ConnectionSpec, grid_points, tol: float = 1e-7
) -> FlatnessReport:
    """Flat iff max |R_kl| over all pairs and grid points stays below tol.

    One batched `curvature` call per plane covers every grid point.
    """
    pts = _flatness_grid(spec, grid_points)
    pairs = [(k, l) for k in range(spec.n) for l in range(k + 1, spec.n)]
    worst = max(
        (float(np.max(np.abs(curvature(spec, pts, k, l)))) for k, l in pairs),
        default=0.0,
    )
    return FlatnessReport(flat=bool(worst <= tol), max_abs_curvature=worst)
