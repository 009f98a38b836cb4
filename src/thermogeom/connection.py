"""Principal-connection layer on the thermodynamic bundle.

The structure group is abelian and acts only by translating (S, a) at
fixed lam, so a connection is one coefficient per parameter,
Gamma^k = h_k / g_S, on the entropy coordinate.  Horizontal lifts
integrate S' = -sum_k Gamma^k lam_k' and never move a; holonomy is the
vertical displacement dS of a lifted loop, and the same number is
recovered as minus the curvature flux through a spanning rectangle
(Stokes, since the group is abelian).

Every layer is batched over points.  A `ConnectionSpec` holds n and one
program over [g_S, Gamma^1, ..., Gamma^n], built by `ConnectionSpec.parsed`
from the texts of g_S and the h_k, parsed as `exprlang.compile_fields`
parses its slots and compiled once, with each Gamma^k = h_k / g_S a node
of the program: a subtree shared between g_S and the h_k (as in an exact
h_k = g_S d_k phi) is evaluated once per call, and an overflow in a
quotient names its node and point.  `ConnectionSpec.gamma` maps lam of
shape (..., n) to (..., n) with one run of it, checking g_S before any
Gamma^k is evaluated.  The curvature of a plane is the program
[g_S, R_kl] that `exprlang.derivative` makes of the same expressions,
compiled on the plane's first use and kept on the spec, so it is exact up
to rounding and evaluates no point but those asked for.  A lift makes one
gamma call for its samples and midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import exprlang
from .errors import ValidationError
from .contact import ThermoPoint, _check_g_S
from .inputs import count, counts, points, positive, reals, vector
from .processes import ParamPath, _trapezoid

__all__ = [
    "ConnectionSpec",
    "HolonomyResult",
    "Loop",
    "rectangle_loop",
    "horizontal_lift",
    "curvature",
    "holonomy_via_lift",
    "holonomy_via_curvature",
    "flatness_check",
    "FlatnessReport",
]

MIN_LOOP_STEPS = 16


@dataclass(frozen=True, slots=True)
class ConnectionSpec:
    """Scalar fields g_S(lam) and h_k(lam) over n parameters, compiled into one program.

    Build it with `ConnectionSpec.parsed`; the program computes
    [g_S, h_1/g_S, ..., h_n/g_S].
    """

    n: int
    program: exprlang.Program
    # (k, l) with k < l -> the program [g_S, R_kl], compiled on first use
    _planes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        count(self.n, "n", 1)

    @classmethod
    def parsed(cls, g_S: str, h: Sequence[str], n: int) -> "ConnectionSpec":
        """The fields from their texts: g_S and h1..hn may read l1..ln only."""
        n = count(n, "n", 1)
        fields = {"g_S": g_S, **exprlang.numbered("h", h, n)}
        g, *hs = exprlang._parse_fields(fields, n, {f"l{i}" for i in range(1, n + 1)})
        return cls(n, exprlang.Program([g, *(exprlang.BinOp("/", h_k, g) for h_k in hs)]))

    def _run(self, program: exprlang.Program, lam: np.ndarray) -> list[np.ndarray]:
        """The outputs after the first of program at the points lam, shape (P, n).

        The first output is g_S, checked before any other is evaluated.
        """
        # contiguous copies of the components: ufuncs on strided views cost more
        columns = lam.T.copy()
        values = program.run({f"l{i + 1}": columns[i] for i in range(self.n)})
        _check_g_S(next(values), lam)
        return list(values)

    def gamma(self, lam) -> np.ndarray:
        """Gamma^k = h_k / g_S, mapping lam of shape (..., n) to (..., n).

        One run of the spec's program covers every point; |g_S| <=
        `contact.G_S_FLOOR` at any point raises, naming the first such point
        in C order, before any Gamma^k is evaluated.
        """
        lam = reals(lam, "lam")
        # the points as rows; a last axis of another length fails the width check
        flat = points(lam.reshape(math.prod(lam.shape[:-1]), *lam.shape[-1:]), self.n, "lam")
        return np.stack(self._run(self.program, flat), axis=-1).reshape(lam.shape)

    def _curvature(self, lam: np.ndarray, k: int, l: int) -> np.ndarray:
        """R_kl at the points lam, shape (P, n), for k < l."""
        program = self._planes.get((k, l))
        if program is None:
            g, *gamma = self.program.exprs
            r = exprlang.BinOp(
                "-",
                exprlang.derivative(gamma[l], f"l{k + 1}"),
                exprlang.derivative(gamma[k], f"l{l + 1}"),
            )
            program = self._planes[k, l] = exprlang.Program([g, r])
        (r,) = self._run(program, lam)
        return r


@dataclass(frozen=True)
class HolonomyResult:
    """Vertical displacement dS of a transported loop, and the method that found it."""

    dS: float
    method: str


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


def _rectangle(lo, hi, k, l, n, base) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Corners lo, hi and base point (zeros if None) of a rectangle in the (k, l) plane.

    k and l are distinct indices in [0, n), with n = max(k, l) + 1 if None;
    the corners are finite 2-vectors and the base a finite n-vector.
    """
    k, l = count(k, "plane index"), count(l, "plane index")
    n = max(k, l) + 1 if n is None else count(n, "n")
    if k == l or max(k, l) >= n:
        raise ValidationError(f"invalid plane indices ({k}, {l}) for n={n}")
    center = np.zeros(n) if base is None else vector(base, n, "base point")
    return vector(lo, 2, "lo"), vector(hi, 2, "hi"), center


def rectangle_loop(
    lo: Sequence[float],
    hi: Sequence[float],
    k: int = 0,
    l: int = 1,
    steps: int = 256,
    n: int | None = None,
    base: Sequence[float] | None = None,
) -> Loop:
    """Counterclockwise rectangle loop of duration 1 in the (k, l) coordinate plane.

    A lift's dS is a line integral, so no other duration would change it.
    Corners land on grid nodes (steps, a positive integer up to MAX_COUNT,
    is rounded up to a multiple of 4 and to at least MIN_LOOP_STEPS), which
    keeps the per-segment integrator at full order.
    """
    lo, hi, center = _rectangle(lo, hi, k, l, n, base)
    steps = max(int(np.ceil(count(steps, "steps", 1) / 4.0)) * 4, MIN_LOOP_STEPS)
    quarter = steps // 4
    corners = [
        (lo[0], lo[1]),
        (hi[0], lo[1]),
        (hi[0], hi[1]),
        (lo[0], hi[1]),
        (lo[0], lo[1]),
    ]
    samples = np.tile(center, (steps + 1, 1))
    row = 0
    for (x0, y0), (x1, y1) in zip(corners[:-1], corners[1:]):
        ts = np.linspace(0.0, 1.0, quarter + 1)
        seg_x = x0 + ts * (x1 - x0)
        seg_y = y0 + ts * (y1 - y0)
        samples[row : row + quarter + 1, k] = seg_x
        samples[row : row + quarter + 1, l] = seg_y
        row += quarter
    return Loop(ParamPath(1.0, samples))


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
    """Lift a base path horizontally: S' = -sum_k Gamma^k lam_k', a' = 0.

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


def curvature(spec: ConnectionSpec, lam, k: int, l: int) -> float | np.ndarray:
    """R_kl = d(h_l/g_S)/dlam_k - d(h_k/g_S)/dlam_l, the dS-coefficient.

    lam of shape (n,) gives a float; a batch of shape (P, n) gives a (P,)
    array.  The spec's compiled [g_S, R_kl] program runs once over the
    batch; R_lk is exactly -R_kl, and R_kk is 0.
    """
    if spec.n < 2:
        raise ValidationError("curvature needs at least two parameters")
    k, l = count(k, "plane index", 0, spec.n - 1), count(l, "plane index", 0, spec.n - 1)
    lam = reals(lam, "lam")
    # one point is a block of one row; points' own reals passes the array through
    pts = points(lam.reshape(1, -1) if lam.ndim < 2 else lam, spec.n, "lam")
    if k == l:
        out = np.zeros(pts.shape[0])
    elif k < l:
        out = spec._curvature(pts, k, l)
    else:
        out = -spec._curvature(pts, l, k)
    return float(out[0]) if lam.ndim == 1 else out


def holonomy_via_lift(
    spec: ConnectionSpec, loop: Loop, p0: ThermoPoint
) -> HolonomyResult:
    """Hol = vertical displacement of the horizontal lift around the loop.

    The lift ODE never reads (S, a), so the result is independent of the
    base point's vertical coordinates.
    """
    s_vals = _lift_entropy(spec, loop.path, p0)
    return HolonomyResult(float(s_vals[-1] - s_vals[0]), "lift")


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
    to `curvature` as one batch: `processes._trapezoid` along l, then along
    k.  It matches the lift holonomy of the
    counterclockwise boundary loop by Stokes.  The rectangle is checked as
    in `rectangle_loop` (plane, corners, base), and grid is two positive
    integers whose product, the number of cells, is at most MAX_COUNT.
    """
    lo, hi, center = _rectangle(lo, hi, k, l, spec.n, base)
    n_k, n_l = counts(grid, 2, "grid", 1)
    xs = np.linspace(lo[0], hi[0], n_k + 1)
    ys = np.linspace(lo[1], hi[1], n_l + 1)
    pts = np.tile(center, ((n_k + 1) * (n_l + 1), 1))
    pts[:, k] = np.repeat(xs, n_l + 1)
    pts[:, l] = np.tile(ys, n_k + 1)
    values = curvature(spec, pts, k, l).reshape(n_k + 1, n_l + 1)
    along_l = _trapezoid(values.T, (hi[1] - lo[1]) / n_l).sum(axis=0)
    return HolonomyResult(
        -float(_trapezoid(along_l, (hi[0] - lo[0]) / n_k).sum()), "curvature-integral"
    )


@dataclass(frozen=True)
class FlatnessReport:
    flat: bool
    max_abs_curvature: float


def flatness_check(
    spec: ConnectionSpec, grid_points, tol: float = 1e-7
) -> FlatnessReport:
    """Flat iff max |R_kl| over all pairs and grid points stays below tol.

    One batched `curvature` call per plane covers every grid point; tol is
    a finite number > 0.
    """
    positive(tol, "tol")
    pts = points(grid_points, spec.n, "grid points", 1)
    pairs = [(k, l) for k in range(spec.n) for l in range(k + 1, spec.n)]
    worst = max(
        (float(np.max(np.abs(curvature(spec, pts, k, l)))) for k, l in pairs),
        default=0.0,
    )
    return FlatnessReport(flat=bool(worst <= tol), max_abs_curvature=worst)
