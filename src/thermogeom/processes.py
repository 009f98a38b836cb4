"""Parameter-space paths: length, entropy production, geodesics, scans.

Paths are piecewise linear on a uniform time grid.  `thermo_length` and
`entropy_production` take velocities from central differences (one-sided
at the ends) and integrate with the composite trapezoid rule, so
refinement is by raising the sample count; each total is the sum of
`_trapezoid`'s segment terms.  Geodesics minimize the midpoint-rule
path energy with fixed endpoints, which makes minimizers constant-speed.
One batch at the segment midpoints gives the segment energies, the exact
energy gradient (the metric's first derivatives in closed form) and the
metrics of a Sobolev (H^1) descent step, whose iteration count does not
grow with the segment count; the geodesic's reported length and energy,
`discrete_path_energy` and `segment_speed_profile` all read that same
batch's segment energies.  Both ray scans read every state on their ray
off one `eigvalsh` of sum_i d_i A_i and run over their nodes in blocks of
points (`linalg._in_blocks`), which names a failing point Lambda d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import _quadratic_form_derivatives, metric_grid
from .gibbs import ObservableSet, _entropy, _guarded, observables
from .inputs import MAX_COUNT, count, points, positive, vector
from .linalg import _freeze, _in_blocks

__all__ = [
    "ParamPath",
    "LengthReport",
    "GeodesicProblem",
    "ConvergenceRecord",
    "ThirdLawScan",
    "BoundaryEntropyScan",
    "straight_path",
    "thermo_length",
    "entropy_production",
    "discrete_path_energy",
    "segment_speed_profile",
    "geodesic_between",
    "third_law_scan",
    "boundary_entropy_limit",
]

MIN_PATH_STEPS = 8


@dataclass(frozen=True)
class ParamPath:
    """K+1 parameter samples on the uniform grid t_k = k T / K, 8 <= K <= MAX_COUNT."""

    duration: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "duration", positive(self.duration, "duration"))
        samples = points(self.samples, None, "samples", MIN_PATH_STEPS + 1, MAX_COUNT + 1)
        object.__setattr__(self, "samples", _freeze(samples, float))

    @property
    def steps(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.duration, self.steps + 1)


def straight_path(
    lam_a, lam_b, steps: int = 512, duration: float = 1.0
) -> ParamPath:
    """Uniform-speed straight segment from lam_a to lam_b."""
    a = vector(lam_a, None, "lam_a")
    b = vector(lam_b, a.size, "lam_b")
    return ParamPath(duration, _straight_samples(a, b, count(steps, "steps", MIN_PATH_STEPS)))


def _straight_samples(a: np.ndarray, b: np.ndarray, steps: int) -> np.ndarray:
    """The steps + 1 uniform samples from a to b, checked endpoints and count assumed."""
    ts = np.linspace(0.0, 1.0, steps + 1)
    return a[None, :] + ts[:, None] * (b - a)[None, :]


@dataclass(frozen=True)
class LengthReport:
    """Length and energy of a path with per-segment contributions that sum to them.

    `thermo_length` uses the node trapezoid, `geodesic_between` the midpoint
    rule; under either rule length and energy are exactly (bitwise) the sums
    of the segment arrays.
    """

    length: float
    energy: float
    segment_lengths: np.ndarray
    segment_energies: np.ndarray


def _trapezoid(y: np.ndarray, dx) -> np.ndarray:
    """Trapezoid segment terms of node values y along axis 0; dx is a float or one per segment."""
    return 0.5 * (y[:-1] + y[1:]) * dx


def _speed_squared(obs: ObservableSet, path: ParamPath) -> np.ndarray:
    dt = path.duration / path.steps
    v = np.gradient(path.samples, dt, axis=0)
    g = metric_grid(obs, path.samples)
    q = np.einsum("ki,kij,kj->k", v, g, v)
    return np.clip(q, 0.0, None)


def thermo_length(obs: ObservableSet, path: ParamPath) -> LengthReport:
    """Thermodynamic length int sqrt(g(gamma', gamma')) dt along the path.

    Also reports the path energy int g(gamma', gamma') dt; the report
    satisfies length^2 <= duration * energy (grid Cauchy-Schwarz), and the
    length is reparametrization-invariant up to quadrature error.
    """
    dt = path.duration / path.steps
    q = _speed_squared(obs, path)
    lengths, energies = _trapezoid(np.sqrt(q), dt), _trapezoid(q, dt)
    return LengthReport(float(lengths.sum()), float(energies.sum()), lengths, energies)


def entropy_production(
    obs: ObservableSet,
    path: ParamPath,
    kappa: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Rate series kappa * g(gamma', gamma') at the grid nodes and its integral.

    The total scales as 1/duration for a fixed path image, vanishing in
    the quasistatic limit; it is bounded below by kappa * length^2 / T.
    """
    kappa = positive(kappa, "kappa")
    dt = path.duration / path.steps
    rates = kappa * _speed_squared(obs, path)
    return rates, float(_trapezoid(rates, dt).sum())


@dataclass(frozen=True)
class GeodesicProblem:
    """Fixed-endpoint discrete geodesic search, initialized on the straight line."""

    start: np.ndarray
    end: np.ndarray
    interior_points: int = 15
    duration: float = 1.0
    max_iters: int = 500
    tolerance: float = 1e-5

    def __post_init__(self) -> None:
        start = vector(self.start, None, "start")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", vector(self.end, start.size, "end"))
        # the path has interior_points + 1 segments, itself a count
        count(self.interior_points, "interior_points", MIN_PATH_STEPS - 1, MAX_COUNT - 1)
        count(self.max_iters, "max_iters", 1)
        positive(self.duration, "duration")
        positive(self.tolerance, "tolerance")


@dataclass(frozen=True)
class ConvergenceRecord:
    iterations: int
    grad_norm: float
    converged: bool
    energy_initial: float
    energy_final: float


def _midpoint_terms(
    obs: ObservableSet, samples: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment energies, the interior energy gradient and the metrics of one midpoint batch.

    With dl_s the s-th step, g_s the metric and c_s = grad_lam (dl_s^T g dl_s)
    at its midpoint m_s, and gv_s = g_s dl_s, the midpoint-rule segment energy
    is e_s = dl_s . gv_s / dt, and node j, which ends segment j-1 and starts
    segment j, has dE/dx_j = [2 gv_{j-1} + c_{j-1} / 2 - 2 gv_j + c_j / 2] / dt.
    e is a (1, n) @ (n, 1) product per segment.  Returns e, shape (K,), the
    gradient, shape (K-1, n), and g, shape (K, n, n).
    """
    mids = 0.5 * (samples[:-1] + samples[1:])
    deltas = samples[1:] - samples[:-1]
    g, c = _quadratic_form_derivatives(obs, mids, deltas)
    gv = np.einsum("kij,kj->ki", g, deltas)
    energies = (deltas[:, None] @ gv[:, :, None])[:, 0, 0] / dt
    return energies, (2.0 * (gv[:-1] - gv[1:]) + 0.5 * (c[:-1] + c[1:])) / dt, g


def _segment_energies(obs: ObservableSet, samples, duration) -> tuple[np.ndarray, float]:
    """The checked samples' e_s of `_midpoint_terms`, the numbers the geodesic minimizes, and dt."""
    positive(duration, "duration")
    samples = points(samples, observables(obs).n, "samples", 2)
    dt = duration / (samples.shape[0] - 1)
    return _midpoint_terms(obs, samples, dt)[0], dt


def discrete_path_energy(obs: ObservableSet, samples: np.ndarray, duration: float) -> float:
    """The geodesic objective: sum of midpoint-rule segment energies."""
    return float(_segment_energies(obs, samples, duration)[0].sum())


def segment_speed_profile(
    obs: ObservableSet, samples: np.ndarray, duration: float
) -> np.ndarray:
    """Per-segment metric speeds |dl|_g / dt in the geodesic discretization."""
    energies, dt = _segment_energies(obs, samples, duration)
    return np.sqrt(np.clip(energies, 0.0, None) / dt)


def _pinv_symmetric(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a real symmetric matrix or stack of them.

    One stacked eigendecomposition a = V diag(w) V^T gives V diag(1/w) V^T,
    with 0 in place of each |w| <= 1e-12 max|w| of its own matrix (the
    rcond rule of `np.linalg.pinv`), so a zero matrix gives a zero matrix.
    """
    w, v = np.linalg.eigh(a)
    size = np.abs(w)
    keep = size > 1e-12 * size.max(axis=-1, keepdims=True)
    inv = np.divide(1.0, w, out=np.zeros(w.shape), where=keep)
    return (v * inv[..., None, :]) @ v.swapaxes(-1, -2)


def _sobolev_direction(g: np.ndarray, grad: np.ndarray, dt: float) -> np.ndarray:
    """The metric-weighted H^1 gradient d, shape (K-1, n), solving H d = grad.

    H = (2 / dt) tridiag(-g_{j-1}, g_{j-1} + g_j, -g_j) is the Gauss-Newton
    Hessian of the midpoint energy, with d_0 = d_K = 0 (Neuberger, Sobolev
    Gradients and Differential Equations, LNM 1670).  The flux
    q_s = g_s (d_{s+1} - d_s) is C - F_s, F_s = (dt / 2) sum_{j<=s} grad_j;
    d_K = 0 fixes C = (sum g_s^+)^+ sum g_s^+ F_s, and d sums g_s^+ q_s.
    Each g_s^+ is symmetric, so sum g_s^+ F_s is one (1, K n) @ (K n, n)
    product of the flattened F with the stacked rows of g^+.  Pseudo-inverses
    keep a redundant observable set (g singular) solvable: each is
    `_pinv_symmetric`, which drops, per matrix, the eigenvalues with
    |w| <= 1e-12 max|w|.
    """
    g_inv = _pinv_symmetric(g)
    f = np.zeros(g.shape[:2])
    (0.5 * dt * grad).cumsum(axis=0, out=f[1:])
    weighted = f.reshape(-1) @ g_inv.reshape(-1, g.shape[1])
    c = _pinv_symmetric(g_inv.sum(axis=0)) @ weighted
    return np.einsum("sij,sj->si", g_inv[:-1], c - f[:-1]).cumsum(axis=0)


def geodesic_between(
    obs: ObservableSet, problem: GeodesicProblem
) -> tuple[ParamPath, LengthReport, ConvergenceRecord]:
    """Minimize the discrete path energy by metric-weighted Sobolev descent.

    Endpoints stay fixed; the straight line seeds the search.  Each step is
    `_sobolev_direction`'s closed-form H^1 gradient, backtracked (monotone
    Armijo) from the full step, so the iteration count hardly moves with K.
    The start and every trial are one `_midpoint_terms` batch each; an
    accepted trial's gradient and metrics drive the next step and are
    tested for convergence, so a step that reaches the tolerance ends the
    search even when it is the last allowed one.  The record describes the
    returned path: `iterations` counts its accepted steps, `grad_norm` is
    its max |dE/dx| and converged means grad_norm < tolerance.  The report
    is the midpoint rule the solver minimized: its energy is `energy_final`
    and its length sums |dl_s|_g.  Non-convergence is flagged in the
    record, never raised; the last iterate, which is also the best, is
    still returned.
    """
    k_total = problem.interior_points + 1
    dt = problem.duration / k_total
    samples = _straight_samples(problem.start, problem.end, k_total)
    segments, grad, g = _midpoint_terms(obs, samples, dt)
    energy = energy_initial = float(segments.sum())
    grad_norm = float(np.abs(grad).max())
    iterations = 0
    while grad_norm >= problem.tolerance and iterations < problem.max_iters:
        direction = _sobolev_direction(g, grad, dt)
        slope = float((grad * direction).sum())
        t = 1.0
        for _ in range(60):
            trial = np.concatenate((samples[:1], samples[1:-1] - t * direction, samples[-1:]))
            trial_terms = _midpoint_terms(obs, trial, dt)
            trial_energy = float(trial_terms[0].sum())
            if trial_energy <= energy - 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break
        samples, energy, (segments, grad, g) = trial, trial_energy, trial_terms
        grad_norm = float(np.abs(grad).max())
        iterations += 1
    segment_lengths = np.sqrt(np.clip(segments, 0.0, None) * dt)
    report = LengthReport(
        length=float(segment_lengths.sum()),
        energy=energy,
        segment_lengths=segment_lengths,
        segment_energies=segments,
    )
    record = ConvergenceRecord(
        iterations, grad_norm, grad_norm < problem.tolerance, energy_initial, energy
    )
    return ParamPath(problem.duration, samples), report, record


def _unit_direction(direction, n: int) -> np.ndarray:
    d = vector(direction, n, "direction")
    norm = math.hypot(*d)  # scaled: no overflow for |d_i| near the float limit
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"direction must be a unit vector, |d| = {norm!r}")
    return d


def _check_lambda_list(lambdas) -> np.ndarray:
    """1 to MAX_COUNT strictly increasing, finite Lambda >= 0 (both ray scans)."""
    lam = vector(lambdas, None, "Lambda list")
    if not 1 <= lam.size <= MAX_COUNT:
        raise ValidationError(f"Lambda list must have 1 to {MAX_COUNT} entries, got {lam.size}")
    if lam.size > 1 and not np.all(np.diff(lam) > 0.0):
        raise ValidationError("Lambda list must be strictly increasing")
    if lam[0] < 0.0:
        raise ValidationError(f"Lambda must be >= 0, got {float(lam[0])!r}")
    return lam


@dataclass(frozen=True)
class ThirdLawScan:
    """Lengths L(Lambda) of the rays 0 -> Lambda * direction, with increments.

    All are read off one cumulative integral, so the table is nondecreasing.
    On the sigma_z qubit L(Lambda) = 2 arctan(tanh(Lambda / 2)) -> pi / 2:
    the pure boundary state is at finite length, and it is the coordinate
    Lambda that diverges.
    """

    lambdas: np.ndarray
    lengths: np.ndarray
    increments: np.ndarray


def _ray(obs: ObservableSet, direction, lambdas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unit direction d, the checked Lambda list and w = eigvalsh(sum_i d_i A_i)."""
    d = _unit_direction(direction, observables(obs).n)
    lam = _check_lambda_list(lambdas)
    _guarded(obs, lam[-1] * d[None])
    return d, lam, np.linalg.eigvalsh(np.einsum("k,kij->ij", d, obs._stack))


def _along_ray(field, d: np.ndarray, w: np.ndarray, nodes: np.ndarray):
    """field(p, y) at the ray points s d, s in nodes, in blocks of nodes (`linalg._in_blocks`).

    Every rho(s d) = exp(-s H_d) / Z commutes with H_d, so with y = w_0 - w,
    ascending as in `gibbs._spectra`, its populations are p = exp(s y) / sum exp(s y).
    y is formed in the block, so a field that is not finite, an H_d past the
    double range included, names its first such point s d.
    """

    def block(_, s):
        y = w[0] - w[::-1]
        e = np.exp(np.multiply.outer(s, y))
        return field(e / e.sum(axis=1, keepdims=True), y)

    return _in_blocks(block, 8 * len(w), np.multiply.outer(nodes, d), nodes)


def third_law_scan(
    obs: ObservableSet,
    direction,
    lambdas,
    steps: int = 1024,
) -> ThirdLawScan:
    """Thermodynamic lengths along one ray toward the boundary.

    The ray 0 -> max(Lambda) * d is sampled at spacing max(Lambda) / steps
    with every Lambda inserted as a node.  The speed sqrt(d^T g d) at a node
    is the closed-form standard deviation of `_along_ray`'s y under its
    populations, and each length is the cumulative trapezoid sum at its Lambda.
    """
    steps = count(steps, "steps", MIN_PATH_STEPS)
    d, lam, w = _ray(obs, direction, lambdas)
    nodes = np.union1d(np.linspace(0.0, lam[-1], steps + 1), lam)
    speeds = _along_ray(_standard_deviation, d, w, nodes)
    segments = _trapezoid(speeds, np.diff(nodes))
    lengths = np.concatenate(([0.0], np.cumsum(segments)))[np.searchsorted(nodes, lam)]
    return ThirdLawScan(lam, lengths, np.diff(lengths))


def _standard_deviation(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The standard deviation of y under each row of populations p."""
    return np.sqrt((p * (y - p @ y[:, None]) ** 2).sum(axis=1))


@dataclass(frozen=True)
class BoundaryEntropyScan:
    """Entropy along a ray with the limiting stratum entropy ln k.

    k is the dimension of the ground eigenspace of sum_i direction_i A_i;
    the boundary state is maximally mixed on that eigenspace.
    """

    lambdas: np.ndarray
    entropies: np.ndarray
    gaps: np.ndarray
    ground_degeneracy: int

    @property
    def limit_entropy(self) -> float:
        return float(np.log(self.ground_degeneracy))


def boundary_entropy_limit(
    obs: ObservableSet, direction, lambdas
) -> BoundaryEntropyScan:
    """Entropies S = -sum p ln p of rho_{Lambda d} and their gap to the ln k limit."""
    d, lam, w = _ray(obs, direction, lambdas)
    entropies = _along_ray(lambda p, _: _entropy(p), d, w, lam)
    k = int(np.sum(w - w[0] <= 1e-8 * max(float(w[-1] - w[0]), 1.0)))
    return BoundaryEntropyScan(lam, entropies, entropies - np.log(k), k)
