"""Parameter-space paths: length, entropy production, geodesics, scans.

Paths are piecewise linear on a uniform time grid; velocities come from
central differences (one-sided at the ends) and integrals from the
composite trapezoid rule, so refinement is by raising the sample count.
Geodesics minimize the discrete path energy with fixed endpoints, which
makes minimizers constant-speed without second derivatives of the metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError
from .geometry import metric_grid
from .gibbs import ObservableSet, gibbs_batch
from .linalg import central_difference

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
    """K+1 parameter samples on the uniform grid t_k = k T / K, K >= 8."""

    duration: float
    samples: np.ndarray
    provenance: str = "explicit-samples"

    def __post_init__(self) -> None:
        if not (self.duration > 0.0 and np.isfinite(self.duration)):
            raise ValidationError(f"duration must be positive, got {self.duration!r}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 2:
            raise ValidationError(f"samples must be 2-D, got shape {samples.shape}")
        if samples.shape[0] < MIN_PATH_STEPS + 1:
            raise ValidationError(
                f"need at least {MIN_PATH_STEPS + 1} samples, got {samples.shape[0]}"
            )
        if not np.all(np.isfinite(samples)):
            raise ValidationError("path samples must be finite")
        if self.provenance not in ("explicit-samples", "expression-defined"):
            raise ValidationError(f"unknown provenance {self.provenance!r}")
        samples = samples.copy()
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
    a = np.asarray(lam_a, dtype=float).reshape(-1)
    b = np.asarray(lam_b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValidationError("endpoints must have the same dimension")
    ts = np.linspace(0.0, 1.0, steps + 1)
    return ParamPath(duration, a[None, :] + ts[:, None] * (b - a)[None, :])


@dataclass(frozen=True)
class LengthReport:
    """Length and energy of a path with per-segment trapezoid contributions."""

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
    if not (kappa > 0.0 and np.isfinite(kappa)):
        raise ValidationError(f"kappa must be positive, got {kappa!r}")
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
        start = np.asarray(self.start, dtype=float).reshape(-1)
        end = np.asarray(self.end, dtype=float).reshape(-1)
        if start.shape != end.shape:
            raise ValidationError("endpoints must have the same dimension")
        if not (np.all(np.isfinite(start)) and np.all(np.isfinite(end))):
            raise ValidationError("endpoints must be finite")
        if self.interior_points < MIN_PATH_STEPS - 1:
            raise ValidationError(
                f"need at least {MIN_PATH_STEPS - 1} interior points"
            )
        finite = all(v > 0.0 and np.isfinite(v) for v in (self.duration, self.tolerance))
        if not finite or self.max_iters < 1:
            raise ValidationError("duration, max_iters, tolerance must be positive and finite")
        start = start.copy()
        start.flags.writeable = False
        end = end.copy()
        end.flags.writeable = False
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


@dataclass(frozen=True)
class ConvergenceRecord:
    iterations: int
    grad_norm: float
    converged: bool
    energy_initial: float
    energy_final: float


def _segment_energies(obs: ObservableSet, samples: np.ndarray, dt: float) -> np.ndarray:
    """Midpoint-rule energy of each segment: (dl^T g(mid) dl) / dt."""
    mids = 0.5 * (samples[:-1] + samples[1:])
    deltas = samples[1:] - samples[:-1]
    g = metric_grid(obs, mids)
    return np.einsum("ki,kij,kj->k", deltas, g, deltas) / dt


def discrete_path_energy(obs: ObservableSet, samples: np.ndarray, duration: float) -> float:
    """The geodesic objective: sum of midpoint-rule segment energies."""
    samples = np.asarray(samples, dtype=float)
    dt = duration / (samples.shape[0] - 1)
    return float(_segment_energies(obs, samples, dt).sum())


def segment_speed_profile(
    obs: ObservableSet, samples: np.ndarray, duration: float
) -> np.ndarray:
    """Per-segment metric speeds |dl|_g / dt in the geodesic discretization."""
    samples = np.asarray(samples, dtype=float)
    dt = duration / (samples.shape[0] - 1)
    return np.sqrt(np.clip(_segment_energies(obs, samples, dt), 0.0, None) / dt)


def _energy_gradient(
    obs: ObservableSet,
    samples: np.ndarray,
    dt: float,
    fd_step: float = 1e-6,
) -> np.ndarray:
    """Gradient of the discrete energy w.r.t. interior samples, batched.

    Moving interior node j changes only segments j and j+1, so
    `linalg.central_difference` differentiates the sum of those two
    segment energies at every interior node; the 2n taps of all nodes
    and their two segments go to one metric_grid call.
    """
    n = samples.shape[1]
    before, after = samples[:-2, None, None], samples[2:, None, None]

    def touched_energy(taps: np.ndarray) -> np.ndarray:
        mids = np.stack((0.5 * (before + taps), 0.5 * (taps + after))).reshape(-1, n)
        deltas = np.stack((taps - before, after - taps)).reshape(-1, n)
        g = metric_grid(obs, mids)
        seg = np.einsum("ki,kij,kj->k", deltas, g, deltas) / dt
        seg = seg.reshape(2, *taps.shape[:-1])
        return seg[0] + seg[1]

    return central_difference(touched_energy, samples[1:-1], fd_step, 2)


def geodesic_between(
    obs: ObservableSet, problem: GeodesicProblem
) -> tuple[ParamPath, LengthReport, ConvergenceRecord]:
    """Minimize the discrete path energy by gradient descent with backtracking.

    Endpoints stay fixed; the straight line seeds the search.  Descent is
    monotone, so the returned energy never exceeds the straight-line
    energy, and at convergence the speed profile is constant up to the
    discretization.  Non-convergence is flagged in the record, never
    raised; the best iterate is still returned.
    """
    k_total = problem.interior_points + 1
    dt = problem.duration / k_total
    samples = straight_path(
        problem.start, problem.end, steps=k_total, duration=problem.duration
    ).samples.copy()
    energy = float(_segment_energies(obs, samples, dt).sum())
    energy_initial = energy
    best_samples = samples.copy()
    best_energy = energy
    # Barzilai-Borwein step with a nonmonotone (Grippo) Armijo safeguard;
    # the best iterate is tracked so the returned energy is monotone vs init
    recent = [energy]
    step = 1.0
    grad_norm = float("inf")
    iterations = 0
    converged = False
    prev_x = None
    prev_g = None
    for iterations in range(1, problem.max_iters + 1):
        grad = _energy_gradient(obs, samples, dt)
        grad_norm = float(np.abs(grad).max())
        if grad_norm < problem.tolerance:
            converged = True
            iterations -= 1
            break
        x = samples[1:-1]
        if prev_x is not None:
            s = (x - prev_x).ravel()
            y = (grad - prev_g).ravel()
            sy = float(s @ y)
            if sy > 0.0:
                step = float(np.clip((s @ s) / sy, 1e-10, 1e4))
        prev_x = x.copy()
        prev_g = grad.copy()
        g_sq = float((grad * grad).sum())
        reference = max(recent)
        accepted = False
        t = step
        for _ in range(60):
            trial = samples.copy()
            trial[1:-1] = x - t * grad
            trial_energy = float(_segment_energies(obs, trial, dt).sum())
            if trial_energy <= reference - 1e-4 * t * g_sq:
                samples = trial
                energy = trial_energy
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        if energy < best_energy:
            best_energy = energy
            best_samples = samples.copy()
        recent.append(energy)
        if len(recent) > 10:
            recent.pop(0)
    if not converged and energy > best_energy:
        samples = best_samples
        energy = best_energy
    path = ParamPath(problem.duration, samples)
    report = thermo_length(obs, path)
    record = ConvergenceRecord(
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        energy_initial=energy_initial,
        energy_final=energy,
    )
    return path, report, record


def _unit_direction(direction, n: int) -> np.ndarray:
    d = np.asarray(direction, dtype=float).reshape(-1)
    if d.size != n:
        raise ValidationError(f"direction must have {n} components, got {d.size}")
    norm = float(np.linalg.norm(d))
    if abs(norm - 1.0) > 1e-8:
        raise ValidationError(f"direction must be a unit vector, |d| = {norm!r}")
    return d


def _check_lambda_list(lambdas) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size < 1:
        raise ValidationError("Lambda list must be nonempty")
    if lam.size > 1 and not np.all(np.diff(lam) > 0.0):
        raise ValidationError("Lambda list must be strictly increasing")
    return lam


@dataclass(frozen=True)
class ThirdLawScan:
    """Lengths of rays 0 -> Lambda * direction with tail increments.

    Convergence versus divergence of the total length is left to the
    reader of the table; only monotonicity is asserted.
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
    """Table of thermodynamic lengths along a ray toward the boundary."""
    d = _unit_direction(direction, obs.n)
    lam = _check_lambda_list(lambdas)
    lengths = np.array(
        [
            thermo_length(obs, straight_path(np.zeros(obs.n), l * d, steps)).length
            for l in lam
        ]
    )
    if np.any(np.diff(lengths) < -1e-12):
        raise NumericalConsistencyError(
            "scan lengths are not monotone nondecreasing; raise the sample count"
        )
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
