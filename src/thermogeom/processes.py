"""Parameter-space paths: length, entropy production, geodesics, scans.

Paths are piecewise linear on a uniform time grid.  `thermo_length` and
`entropy_production` take velocities from central differences (one-sided
at the ends) and integrate with the composite trapezoid rule, so
refinement is by raising the sample count.  Geodesics minimize the
midpoint-rule path energy with fixed endpoints, which makes minimizers
constant-speed.  One batch at the segment midpoints gives the segment
energies, the exact energy gradient (the metric's first derivatives in
closed form) and the metrics of a Sobolev (H^1) descent step, whose
iteration count does not grow with the segment count; the geodesic's
reported length and energy are that same midpoint rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import _quadratic_form_derivatives, metric_grid
from .gibbs import ObservableSet, gibbs_batch
from .inputs import MAX_COUNT, count, points, positive, vector

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
        samples = points(self.samples, None, "samples", MIN_PATH_STEPS + 1, MAX_COUNT + 1).copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

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
    ts = np.linspace(0.0, 1.0, count(steps, "steps", MIN_PATH_STEPS) + 1)
    return ParamPath(duration, a[None, :] + ts[:, None] * (b - a)[None, :])


@dataclass(frozen=True)
class LengthReport:
    """Length and energy of a path with per-segment contributions that sum to them.

    `thermo_length` uses the node trapezoid, `geodesic_between` the midpoint rule.
    """

    length: float
    energy: float
    segment_lengths: np.ndarray
    segment_energies: np.ndarray


def _trapezoid(y: np.ndarray, dx: float) -> float:
    return float(dx * (0.5 * (y[0] + y[-1]) + y[1:-1].sum()))


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
    speeds = np.sqrt(q)
    return LengthReport(
        length=_trapezoid(speeds, dt),
        energy=_trapezoid(q, dt),
        segment_lengths=0.5 * (speeds[:-1] + speeds[1:]) * dt,
        segment_energies=0.5 * (q[:-1] + q[1:]) * dt,
    )


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
    return rates, _trapezoid(rates, dt)


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
    Returns e, shape (K,), the gradient, shape (K-1, n), and g, shape (K, n, n).
    """
    mids = 0.5 * (samples[:-1] + samples[1:])
    deltas = samples[1:] - samples[:-1]
    g, c = _quadratic_form_derivatives(obs, mids, deltas)
    gv = np.einsum("kij,kj->ki", g, deltas)
    energies = np.einsum("ki,ki->k", deltas, gv) / dt
    return energies, (2.0 * (gv[:-1] - gv[1:]) + 0.5 * (c[:-1] + c[1:])) / dt, g


def _segment_energies(obs: ObservableSet, samples, duration) -> tuple[np.ndarray, float]:
    """The e_s of `_midpoint_terms` from `metric_grid` at the midpoints, and dt."""
    positive(duration, "duration")
    samples = points(samples, obs.n, "samples", 2)
    dt = duration / (samples.shape[0] - 1)
    deltas = samples[1:] - samples[:-1]
    gv = np.einsum("kij,kj->ki", metric_grid(obs, 0.5 * (samples[:-1] + samples[1:])), deltas)
    return np.einsum("ki,ki->k", deltas, gv) / dt, dt


def discrete_path_energy(obs: ObservableSet, samples: np.ndarray, duration: float) -> float:
    """The geodesic objective: sum of midpoint-rule segment energies."""
    return float(_segment_energies(obs, samples, duration)[0].sum())


def segment_speed_profile(
    obs: ObservableSet, samples: np.ndarray, duration: float
) -> np.ndarray:
    """Per-segment metric speeds |dl|_g / dt in the geodesic discretization."""
    energies, dt = _segment_energies(obs, samples, duration)
    return np.sqrt(np.clip(energies, 0.0, None) / dt)


def _sobolev_direction(g: np.ndarray, grad: np.ndarray, dt: float) -> np.ndarray:
    """The metric-weighted H^1 gradient d, shape (K-1, n), solving H d = grad.

    H = (2 / dt) tridiag(-g_{j-1}, g_{j-1} + g_j, -g_j) is the Gauss-Newton
    Hessian of the midpoint energy, with d_0 = d_K = 0 (Neuberger, Sobolev
    Gradients and Differential Equations, LNM 1670).  The flux
    q_s = g_s (d_{s+1} - d_s) is C - F_s, F_s = (dt / 2) sum_{j<=s} grad_j;
    d_K = 0 fixes C = (sum g_s^+)^+ sum g_s^+ F_s, and d sums g_s^+ q_s.
    Pseudo-inverses keep a redundant observable set (g singular) solvable.
    """
    g_inv = np.linalg.pinv(g, rcond=1e-12, hermitian=True)
    f = np.concatenate((np.zeros_like(grad[:1]), np.cumsum(0.5 * dt * grad, axis=0)))
    weighted = np.einsum("sij,sj->i", g_inv, f)
    c = np.linalg.pinv(g_inv.sum(axis=0), rcond=1e-12, hermitian=True) @ weighted
    return np.cumsum(np.einsum("sij,sj->si", g_inv[:-1], c - f[:-1]), axis=0)


def geodesic_between(
    obs: ObservableSet, problem: GeodesicProblem
) -> tuple[ParamPath, LengthReport, ConvergenceRecord]:
    """Minimize the discrete path energy by metric-weighted Sobolev descent.

    Endpoints stay fixed; the straight line seeds the search.  Each step is
    `_sobolev_direction`'s closed-form H^1 gradient, backtracked (monotone
    Armijo) from the full step, so the iteration count hardly moves with K.
    The start and every trial are one `_midpoint_terms` batch each; an
    accepted trial's gradient and metrics drive the next step.  Converged
    means max |dE/dx| < tolerance.  The report is the midpoint rule the
    solver minimized: its energy is `energy_final` and its length sums
    |dl_s|_g.  Non-convergence is flagged in the record, never raised; the
    last iterate, which is also the best, is still returned.
    """
    k_total = problem.interior_points + 1
    dt = problem.duration / k_total
    samples = straight_path(
        problem.start, problem.end, steps=k_total, duration=problem.duration
    ).samples
    segments, grad, g = _midpoint_terms(obs, samples, dt)
    energy = energy_initial = float(segments.sum())
    converged = False
    for iterations in range(1, problem.max_iters + 1):
        grad_norm = float(np.abs(grad).max())
        if grad_norm < problem.tolerance:
            converged = True
            iterations -= 1
            break
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
    segment_lengths = np.sqrt(np.clip(segments, 0.0, None) * dt)
    report = LengthReport(
        length=float(segment_lengths.sum()),
        energy=energy,
        segment_lengths=segment_lengths,
        segment_energies=segments,
    )
    record = ConvergenceRecord(iterations, grad_norm, converged, energy_initial, energy)
    return ParamPath(problem.duration, samples), report, record


def _unit_direction(direction, n: int) -> np.ndarray:
    d = vector(direction, n, "direction")
    norm = float(np.linalg.norm(d))
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


def third_law_scan(
    obs: ObservableSet,
    direction,
    lambdas,
    steps: int = 1024,
) -> ThirdLawScan:
    """Thermodynamic lengths along one ray toward the boundary.

    The ray 0 -> max(Lambda) * d is sampled at spacing max(Lambda) / steps
    with every Lambda inserted as a node; one `metric_grid` batch gives the
    speeds sqrt(d^T g d) at all nodes, and each length is the cumulative
    trapezoid sum at its Lambda.
    """
    d = _unit_direction(direction, obs.n)
    lam = _check_lambda_list(lambdas)
    nodes = np.union1d(np.linspace(0.0, lam[-1], count(steps, "steps", MIN_PATH_STEPS) + 1), lam)
    q = np.einsum("i,kij,j->k", d, metric_grid(obs, nodes[:, None] * d), d)
    speeds = np.sqrt(np.clip(q, 0.0, None))
    segments = 0.5 * (speeds[:-1] + speeds[1:]) * np.diff(nodes)
    lengths = np.concatenate(([0.0], np.cumsum(segments)))[np.searchsorted(nodes, lam)]
    return ThirdLawScan(lam, lengths, np.diff(lengths))


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
    """Entropies S(rho_{Lambda d}) and their gap to the ln k limit."""
    d = _unit_direction(direction, obs.n)
    lam = _check_lambda_list(lambdas)
    h_d = np.einsum("k,kij->ij", d, obs._stack)
    w = np.linalg.eigvalsh(h_d)
    spread = max(float(w[-1] - w[0]), 1.0)
    k = int(np.sum(w - w[0] <= 1e-8 * spread))
    batch = gibbs_batch(obs, lam[:, None] * d[None, :])
    gaps = batch.S - np.log(k)
    return BoundaryEntropyScan(lam, batch.S.copy(), gaps, k)
