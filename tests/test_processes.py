import math
import re

import numpy as np
import pytest

from thermogeom import geometry, gibbs, processes
from thermogeom.errors import NearSingularError, ParameterRangeError, ValidationError
from thermogeom.geometry import fidelity, metric_grid
from thermogeom.gibbs import LAMBDA_GUARD, ObservableSet, gibbs_point
from thermogeom.inputs import MAX_COUNT
from thermogeom.linalg import HermitianOperator
from thermogeom.processes import (
    GeodesicProblem,
    ParamPath,
    _midpoint_terms,
    _unit_direction,
    boundary_entropy_limit,
    discrete_path_energy,
    entropy_production,
    geodesic_between,
    segment_speed_profile,
    straight_path,
    thermo_length,
    third_law_scan,
)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
QUBIT = ObservableSet([HermitianOperator(SIGMA_Z)], ["sz"])
PAULI = ObservableSet([HermitianOperator(s) for s in (SIGMA_Z, SIGMA_X, SIGMA_Y)])
PAULI_ZX = ObservableSet([HermitianOperator(s) for s in (SIGMA_Z, SIGMA_X)])
TWO_QUBIT = ObservableSet(
    [
        HermitianOperator(np.kron(SIGMA_Z, np.eye(2))),
        HermitianOperator(np.kron(np.eye(2), SIGMA_Z)),
    ],
    ["z1", "z2"],
)
# (sz, 2 sz) is the qubit family in u = l1 + 2 l2: g is singular at every point
REDUNDANT = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(2.0 * SIGMA_Z)])
RNG = np.random.default_rng(777)


def gell_mann():
    """The eight Gell-Mann matrices: a non-commuting basis of traceless qutrit observables."""
    mats = []
    for j in range(3):
        for k in range(j + 1, 3):
            sym = np.zeros((3, 3), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((3, 3), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            mats += [sym, anti]
    mats.append(np.diag([1.0, -1.0, 0.0]).astype(complex))
    mats.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / math.sqrt(3.0))
    return ObservableSet([HermitianOperator(a) for a in mats])


GELL_MANN = gell_mann()


def random_family(m, n, seed):
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
    return ObservableSet([HermitianOperator((a + a.conj().T) / 2) for a in mats])


def gudermannian(x):
    """Antiderivative of sech; the qubit thermodynamic arc length."""
    return 2.0 * math.atan(math.tanh(x / 2.0))


class TestParamPath:
    def test_minimum_steps(self):
        with pytest.raises(ValidationError):
            ParamPath(1.0, np.zeros((8, 1)))
        ParamPath(1.0, np.zeros((9, 1)))

    def test_maximum_steps(self):
        ParamPath(1.0, np.zeros((MAX_COUNT + 1, 1)))
        with pytest.raises(ValidationError, match=str(MAX_COUNT + 1)):
            ParamPath(1.0, np.zeros((MAX_COUNT + 2, 1)))

    def test_rejects_nonfinite(self):
        samples = np.zeros((9, 1))
        samples[3] = np.nan
        with pytest.raises(ValidationError):
            ParamPath(1.0, samples)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValidationError):
            ParamPath(0.0, np.zeros((9, 1)))

    def test_times_grid(self):
        path = straight_path([0.0], [1.0], steps=10, duration=2.0)
        assert np.allclose(path.times, np.linspace(0, 2, 11))


class TestThermoLength:
    def test_constant_path_has_zero_length(self):
        path = ParamPath(1.0, np.full((17, 1), 0.4))
        report = thermo_length(QUBIT, path)
        assert report.length == 0.0
        assert report.energy == 0.0

    def test_qubit_gudermannian_oracle(self):
        path = straight_path([0.0], [1.0], steps=512)
        report = thermo_length(QUBIT, path)
        assert report.length == pytest.approx(gudermannian(1.0), abs=1e-4)
        assert report.length == pytest.approx(0.8658, abs=1e-4)

    @pytest.mark.parametrize("k", [64, 256])
    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
    def test_bloch_circle_closed_form(self, r, k):
        # the circle |lam| = r has length 2 pi tanh r; the central difference
        # reads each chord speed times sin h / h, h = 2 pi / k, about 1 - 6.6 / k^2
        theta = np.linspace(0.0, 2.0 * math.pi, k + 1)
        circle = r * np.stack((np.cos(theta), np.sin(theta), np.zeros_like(theta)), axis=1)
        length = thermo_length(PAULI, ParamPath(1.0, circle)).length
        assert abs(length / (2.0 * math.pi * math.tanh(r)) - 1.0) <= 7.0 / k**2

    def test_time_rescaled_copy_same_length(self):
        path = straight_path([0.0], [1.0], steps=64, duration=1.0)
        slow = straight_path([0.0], [1.0], steps=64, duration=2.0)
        l_fast = thermo_length(QUBIT, path).length
        l_slow = thermo_length(QUBIT, slow).length
        assert abs(l_fast - l_slow) < 1e-9

    def test_reparametrization_invariance(self):
        k = 1024
        u = np.linspace(0.0, 1.0, k + 1)
        alpha = 0.5
        warp = (np.exp(alpha * u) - 1.0) / (np.exp(alpha) - 1.0)
        base = straight_path([0.0], [1.0], steps=k)
        resampled = ParamPath(1.0, warp[:, None])
        l_base = thermo_length(QUBIT, base).length
        l_warp = thermo_length(QUBIT, resampled).length
        assert abs(l_base - l_warp) <= 1e-6 * l_base + 1e-9

    def test_cauchy_schwarz_on_grid(self):
        for _ in range(5):
            samples = np.cumsum(RNG.normal(0, 0.05, size=(33, 2)), axis=0)
            path = ParamPath(RNG.uniform(0.5, 3.0), samples)
            report = thermo_length(TWO_QUBIT, path)
            assert report.length**2 <= path.duration * report.energy + 1e-9

    def test_segment_contributions_sum(self):
        path = straight_path([-0.5], [0.75], steps=32)
        report = thermo_length(QUBIT, path)
        assert report.segment_lengths.sum() == pytest.approx(report.length, rel=1e-14)
        assert report.segment_energies.sum() == pytest.approx(report.energy, rel=1e-14)


class TestEntropyProduction:
    def test_constant_path_produces_nothing(self):
        path = ParamPath(1.0, np.full((17, 1), -0.3))
        rates, total = entropy_production(QUBIT, path)
        assert np.all(rates == 0.0)
        assert total == 0.0

    def test_doubling_duration_halves_total(self):
        fast = straight_path([0.0], [1.0], steps=64, duration=1.0)
        slow = straight_path([0.0], [1.0], steps=64, duration=2.0)
        _, total_fast = entropy_production(QUBIT, fast)
        _, total_slow = entropy_production(QUBIT, slow)
        assert total_slow == pytest.approx(total_fast / 2.0, rel=1e-2)
        assert total_slow == pytest.approx(total_fast / 2.0, rel=1e-12)

    def test_total_equals_discrete_energy(self):
        path = straight_path([0.0], [1.0], steps=64)
        report = thermo_length(QUBIT, path)
        _, total = entropy_production(QUBIT, path, kappa=1.0)
        assert total == report.energy

    def test_quasistatic_scaling(self):
        totals = {}
        for duration in (1.0, 2.0, 4.0, 8.0):
            path = straight_path([0.0], [1.0], steps=64, duration=duration)
            _, totals[duration] = entropy_production(QUBIT, path)
        products = [t * sigma for t, sigma in totals.items()]
        spread = (max(products) - min(products)) / np.mean(products)
        assert spread < 1e-2

    def test_lower_bound_by_length(self):
        path = straight_path([-0.4], [1.1], steps=64, duration=1.7)
        kappa = 2.5
        report = thermo_length(QUBIT, path)
        _, total = entropy_production(QUBIT, path, kappa)
        assert total >= kappa * report.length**2 / path.duration - 1e-9

    def test_kappa_validation(self):
        path = straight_path([0.0], [1.0], steps=16)
        with pytest.raises(ValidationError):
            entropy_production(QUBIT, path, kappa=0.0)

    def test_bool_kappa_is_rejected(self):
        path = straight_path([0.0], [1.0], steps=16)
        with pytest.raises(ValidationError, match="kappa"):
            entropy_production(QUBIT, path, kappa=True)


class TestGeodesic:
    def test_one_dimensional_image_is_the_interval(self):
        problem = GeodesicProblem(
            [0.0], [1.0], interior_points=127, max_iters=300, tolerance=1e-5
        )
        path, report, record = geodesic_between(QUBIT, problem)
        assert record.converged
        assert path.samples.min() >= -1e-9
        assert path.samples.max() <= 1.0 + 1e-9
        assert abs(report.length - gudermannian(1.0)) <= 1.5e-6

    def test_redundant_observables_have_a_singular_metric(self):
        # the discrete geodesic of the redundant pair is the qubit's on [0, 1.1]
        _, report, record = geodesic_between(
            REDUNDANT,
            GeodesicProblem([0.0, 0.0], [0.3, 0.4], interior_points=15, tolerance=1e-8),
        )
        _, qubit_report, _ = geodesic_between(
            QUBIT, GeodesicProblem([0.0], [1.1], interior_points=15, tolerance=1e-8)
        )
        assert record.converged
        assert report.length == pytest.approx(qubit_report.length, rel=1e-9)
        assert 0.0 <= report.length - gudermannian(1.1) <= 0.05 / 16**2

    def test_iterations_do_not_grow_with_segments(self):
        iterations = {}
        for segments in (16, 64):
            problem = GeodesicProblem(
                [0.3, -0.8, 0.2], [-1.2, 0.5, 0.9], interior_points=segments - 1,
                max_iters=2000, tolerance=1e-7,
            )
            record = geodesic_between(PAULI, problem)[2]
            assert record.converged
            iterations[segments] = record.iterations
        assert iterations[64] <= 1.5 * iterations[16]

    def test_coincident_endpoints(self):
        problem = GeodesicProblem(
            [0.7], [0.7], interior_points=7, max_iters=50, tolerance=1e-8
        )
        path, report, record = geodesic_between(QUBIT, problem)
        assert report.length == 0.0
        assert record.converged

    def test_two_qubit_beats_straight_line(self):
        problem = GeodesicProblem(
            [-1.2, 0.0], [1.2, 1.5], interior_points=15, max_iters=800, tolerance=2e-5
        )
        path, report, record = geodesic_between(TWO_QUBIT, problem)
        straight_energy = discrete_path_energy(
            TWO_QUBIT,
            straight_path([-1.2, 0.0], [1.2, 1.5], steps=16).samples,
            1.0,
        )
        assert record.energy_final <= straight_energy + 1e-12
        assert straight_energy - record.energy_final > 1e-3  # strict gap
        speeds = segment_speed_profile(TWO_QUBIT, path.samples, path.duration)
        assert (speeds.max() - speeds.min()) / speeds.mean() < 0.02

    def test_two_qubit_matches_flat_isometry_oracle(self):
        # per-axis arc length u = gd(lam) flattens the product metric, so
        # the geodesic distance is the Euclidean chord in u coordinates
        problem = GeodesicProblem(
            [-1.2, 0.0], [1.2, 1.5], interior_points=15, max_iters=800, tolerance=2e-5
        )
        _, report, _ = geodesic_between(TWO_QUBIT, problem)
        oracle = math.hypot(
            gudermannian(1.2) - gudermannian(-1.2),
            gudermannian(1.5) - gudermannian(0.0),
        )
        assert report.length == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize("k", [16, 32, 64])
    def test_two_qubit_path_is_the_flat_straight_line(self, k):
        # u = gd(lam) per axis makes g = diag(sech^2 lam_1, sech^2 lam_2) flat, so
        # the geodesic is the uniform straight line u* in u and L* = |gd(b) - gd(a)|
        a, b = np.array([-1.2, 0.0]), np.array([1.2, 1.5])
        problem = GeodesicProblem(a, b, interior_points=k - 1, tolerance=1e-9, max_iters=500)
        path, report, record = geodesic_between(TWO_QUBIT, problem)
        gd = np.vectorize(gudermannian)
        u_star = gd(a) + np.linspace(0.0, 1.0, k + 1)[:, None] * (gd(b) - gd(a))
        excess = report.length / float(np.linalg.norm(gd(b) - gd(a))) - 1.0
        assert record.converged
        assert 0.0 <= excess <= 0.1 / k**2
        assert np.abs(gd(path.samples) - u_star).max() <= 0.2 / k**2

    def test_non_convergence_is_flagged_not_raised(self):
        problem = GeodesicProblem(
            [-1.2, 0.0], [1.2, 1.5], interior_points=15, max_iters=1, tolerance=1e-12
        )
        path, _, record = geodesic_between(TWO_QUBIT, problem)
        assert not record.converged
        assert record.iterations == 1
        assert path.samples.shape == (17, 2)

    @pytest.mark.parametrize("max_iters", [1, 2])
    def test_a_step_that_converges_on_the_last_allowed_iteration_says_so(self, max_iters):
        # the one step this sz, sx solve takes reaches max |grad E| = 3.2e-5 < 3e-4
        problem = GeodesicProblem(
            [0.16, 0.0], [-0.11027, 0.24096], interior_points=15, max_iters=max_iters,
            tolerance=3e-4,
        )
        path, _, record = geodesic_between(PAULI_ZX, problem)
        _, grad, _ = _midpoint_terms(PAULI_ZX, path.samples, 1.0 / 16)
        assert record.converged
        assert record.iterations == 1
        assert record.grad_norm == float(np.abs(grad).max())

    @pytest.mark.parametrize(
        "max_iters, converged, iterations",
        [(1, False, 1), (2, False, 2), (3, True, 3), (400, True, 3)],
    )
    def test_the_record_describes_the_returned_path(self, max_iters, converged, iterations):
        # the shipped problem: its third step reaches max |grad E| = 2.7e-5 < 1e-4,
        # and after one step the returned path's gradient is 4.2e-3, not the
        # straight line's 4.8e-2
        problem = GeodesicProblem(
            [0.0], [1.0], interior_points=15, max_iters=max_iters, tolerance=1e-4
        )
        path, report, record = geodesic_between(QUBIT, problem)
        energies, grad, _ = _midpoint_terms(QUBIT, path.samples, 1.0 / 16)
        assert record.converged is converged
        assert record.iterations == iterations
        assert record.grad_norm == float(np.abs(grad).max())
        assert record.energy_final == report.energy == float(energies.sum())
        if max_iters == 1:
            assert record.grad_norm == pytest.approx(4.22e-3, rel=1e-3)

    def test_endpoints_fixed(self):
        problem = GeodesicProblem(
            [-0.8, 0.2], [0.5, 1.0], interior_points=9, max_iters=100, tolerance=1e-4
        )
        path, _, _ = geodesic_between(TWO_QUBIT, problem)
        assert np.array_equal(path.samples[0], [-0.8, 0.2])
        assert np.array_equal(path.samples[-1], [0.5, 1.0])

    def test_problem_validation(self):
        with pytest.raises(ValidationError):
            GeodesicProblem([0.0], [1.0, 2.0])
        with pytest.raises(ValidationError):
            GeodesicProblem([0.0], [1.0], interior_points=3)

    @pytest.mark.parametrize("field", ["duration", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_problem_rejects_non_finite_or_non_positive(self, field, value):
        with pytest.raises(ValidationError, match=field):
            GeodesicProblem([0.0], [1.0], **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("interior_points", 15.5),
            ("interior_points", 2**40),
            ("interior_points", MAX_COUNT + 1),
            ("interior_points", MAX_COUNT),
            ("max_iters", 2.5),
            ("max_iters", True),
            ("max_iters", 0),
        ],
    )
    def test_problem_counts_are_capped_python_ints(self, field, value):
        with pytest.raises(ValidationError, match=field):
            GeodesicProblem([0.0], [1.0], **{field: value})

    def test_problem_accepts_the_count_cap(self):
        # interior_points + 1 segments are a path's steps, themselves capped at MAX_COUNT
        problem = GeodesicProblem([0.0], [1.0], interior_points=MAX_COUNT - 1, max_iters=MAX_COUNT)
        assert problem.interior_points + 1 == problem.max_iters == MAX_COUNT

    @pytest.mark.parametrize(
        "family, start, end, segments",
        [
            (PAULI, [0.3, -0.8, 0.2], [-1.2, 0.5, 0.9], 16),
            (PAULI, [0.3, -0.8, 0.2], [-1.2, 0.5, 0.9], 32),
            (GELL_MANN, [0.2, -0.3, 0.1, 0.0, 0.3, 0.1, -0.2, 0.4],
             [-0.3, 0.1, 0.2, -0.4, 0.0, 0.3, 0.3, -0.2], 16),
        ],
        ids=["bloch-K16", "bloch-K32", "gell-mann-K16"],
    )
    def test_non_commuting_bures_angle_oracle(self, family, start, end, segments):
        # the Pauli and Gell-Mann families cover all full-rank qubit and qutrit
        # states, so the geodesic distance is the Bures angle 2 arccos F
        problem = GeodesicProblem(
            start, end, interior_points=segments - 1, max_iters=2000, tolerance=1e-6
        )
        path, report, record = geodesic_between(family, problem)
        exact = 2.0 * math.acos(
            fidelity(gibbs_point(family, start).rho, gibbs_point(family, end).rho)
        )
        straight = thermo_length(family, straight_path(start, end, steps=segments))
        assert record.converged
        # the midpoint-rule length of a path can never undercut the distance
        assert 0.0 <= report.length - exact <= 0.15 / segments**2
        assert report.length < straight.length
        assert segment_speed_profile(family, path.samples, path.duration).mean() >= exact
        assert report.energy == record.energy_final
        assert report.segment_lengths.sum() == pytest.approx(report.length, rel=1e-12)
        assert report.segment_energies.sum() == pytest.approx(report.energy, rel=1e-12)

    @pytest.mark.parametrize(
        "obs, start, end, dtype",
        [
            (PAULI_ZX, [0.16, 0.0], [-0.07, 0.24], np.float64),
            (PAULI, [0.16, 0.0, 0.05], [-0.07, 0.24, -0.1], np.complex128),
        ],
        ids=["zx", "zxy"],
    )
    def test_one_decomposition_per_energy_evaluation(self, obs, start, end, dtype, monkeypatch):
        # the start and every line-search trial each decompose their K
        # midpoint exponents once, in one stacked eigh of the spectral core,
        # real for a real set; nothing else (no repeat for the gradient, no
        # trailing node-grid report) does.  Each Sobolev step decomposes two
        # real metric stacks for its pseudo-inverses: the (K, n, n) metrics of
        # the accepted evaluation and their (n, n) inverse sum
        stacks, evaluations, metrics = [], [], []
        in_spectra = [False]
        eigh = np.linalg.eigh
        spectra = geometry._spectra
        midpoint_terms = processes._midpoint_terms

        def record_eigh(a, *args, **kwargs):
            stacks.append((in_spectra[0], np.array(a)))
            return eigh(a, *args, **kwargs)

        def record_spectra(obs, lams):
            in_spectra[0] = True
            try:
                return spectra(obs, lams)
            finally:
                in_spectra[0] = False

        def record_evaluation(obs, samples, dt):
            start = len(stacks)
            result = midpoint_terms(obs, samples, dt)
            evaluations.append(stacks[start:])
            metrics.append(result[2])
            return result

        monkeypatch.setattr(np.linalg, "eigh", record_eigh)
        monkeypatch.setattr(geometry, "_spectra", record_spectra)
        monkeypatch.setattr(processes, "_midpoint_terms", record_evaluation)
        problem = GeodesicProblem(start, end, interior_points=15, max_iters=2000, tolerance=1e-10)
        _, _, record = geodesic_between(obs, problem)
        assert record.converged and record.iterations > 1
        exponents = [stack for tagged, stack in stacks if tagged]
        assert len(exponents) == len(evaluations) > record.iterations
        assert all(len(calls) == 1 and calls[0][0] for calls in evaluations)
        assert all(stack.shape == (16, 2, 2) and stack.dtype == dtype for stack in exponents)
        distinct = {stack.tobytes() for stack in exponents}
        assert len(distinct) == len(exponents)
        sobolev = [stack for tagged, stack in stacks if not tagged]
        assert len(sobolev) == 2 * record.iterations
        n = obs.n
        assert [stack.shape for stack in sobolev] == [(16, n, n), (n, n)] * record.iterations
        assert all(stack.dtype == np.float64 for stack in sobolev)
        assert all(any(np.array_equal(stack, g) for g in metrics) for stack in sobolev[::2])


def loop_energy_gradient(obs, samples, dt, fd_step=1e-6):
    """Oracle: perturb each coordinate of each interior node in turn."""
    p_int, n = samples.shape[0] - 2, samples.shape[1]
    mids, deltas = [], []
    for j in range(1, p_int + 1):
        for c in range(n):
            for sign in (+1.0, -1.0):
                x = samples[j].copy()
                x[c] += sign * fd_step
                mids.append(0.5 * (samples[j - 1] + x))
                deltas.append(x - samples[j - 1])
                mids.append(0.5 * (x + samples[j + 1]))
                deltas.append(samples[j + 1] - x)
    deltas = np.asarray(deltas)
    g = metric_grid(obs, np.asarray(mids))
    seg = np.einsum("ki,kij,kj->k", deltas, g, deltas) / dt
    seg = seg.reshape(p_int, n, 2, 2).sum(axis=3)
    return (seg[:, :, 0] - seg[:, :, 1]) / (2.0 * fd_step)


def classical_full_span(m, seed):
    """n = m - 1 traceless diagonals D (rows) rotated by one seeded random unitary U.

    A_k = U D_k U^dagger look non-diagonal, yet the family is every full-rank
    state diagonal in U, with populations p_a proportional to exp(-lam . D_a).
    """
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(m - 1, m))
    d -= d.mean(axis=1, keepdims=True)
    q, r = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    obs = ObservableSet([HermitianOperator(u @ np.diag(dk) @ u.conj().T) for dk in d])
    return obs, d, rng


def classical_populations(d, lam):
    e = -np.asarray(lam) @ d
    p = np.exp(e - e.max())
    return p / p.sum()


class TestClassicalFullSpan:
    @pytest.mark.parametrize("m", [3, 4])
    def test_every_metric_is_the_classical_fisher_matrix(self, m):
        # on a commuting family the SLD metric g, the Kubo-Mori Hessian K and
        # the covariance C all reduce to sum_a p_a dD_ia dD_ja, dD = D - <D>
        obs, d, rng = classical_full_span(m, 5)
        for lam in rng.normal(size=(4, m - 1)):
            p = classical_populations(d, lam)
            centred = d - (d @ p)[:, None]
            fisher = (centred * p) @ centred.T
            c, rank = geometry.injectivity_diagnostic(obs, lam)
            k = geometry._equilibrium_tangent(obs, lam[None])[1][0]
            assert rank == m - 1
            for metric in (geometry.metric_tensor(obs, lam).g, k, c):
                assert np.abs(metric - fisher).max() <= 1e-13 * np.abs(fisher).max()

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("k", [16, 32])
    def test_geodesic_length_is_the_bhattacharyya_angle(self, seed, k):
        # the geodesic is the great circle of sqrt(p), of length
        # L* = 2 arccos sum_a sqrt(p_a q_a); the midpoint rule may lie on
        # either side of it, so the O(1/K^2) bound is two-sided
        obs, d, rng = classical_full_span(4, seed)
        a, b = rng.normal(size=(2, 3))
        overlap = np.sqrt(classical_populations(d, a) * classical_populations(d, b)).sum()
        exact = 2.0 * math.acos(float(overlap))
        problem = GeodesicProblem(a, b, interior_points=k - 1, tolerance=1e-8)
        _, report, record = geodesic_between(obs, problem)
        assert record.converged
        assert abs(report.length / exact - 1.0) <= 0.1 / k**2


class TestEnergyGradient:
    @pytest.mark.parametrize(
        "obs, k",
        [
            (QUBIT, 8),
            (TWO_QUBIT, 16),
            (PAULI, 9),
            (PAULI, 32),
            (random_family(4, 3, 43), 12),
            (random_family(8, 8, 88), 10),
        ],
        ids=["qubit", "two-qubit", "pauli-K9", "pauli-K32", "random-m4n3", "random-m8n8"],
    )
    def test_agrees_with_the_finite_difference_loop(self, obs, k):
        # the loop's own error is O(fd_step^2) truncation plus eps / fd_step roundoff
        samples = np.random.default_rng(k).uniform(-0.8, 0.8, (k + 1, obs.n))
        _, grad, _ = _midpoint_terms(obs, samples, 1.0 / k)
        reference = loop_energy_gradient(obs, samples, 1.0 / k)
        assert grad.shape == (k - 1, obs.n)
        assert np.abs(grad - reference).max() <= 1e-8 * np.abs(reference).max()

    def test_raises_what_metric_grid_raises_past_the_floor(self):
        # at lam = 30 the populations of sz are e^{-60} apart: p_a + p_b < 1e-14
        samples = np.linspace(0.0, 40.0, 9)[:, None]
        mids = 0.5 * (samples[:-1] + samples[1:])
        with pytest.raises(NearSingularError) as from_grid:
            metric_grid(QUBIT, mids)
        with pytest.raises(NearSingularError) as from_gradient:
            _midpoint_terms(QUBIT, samples, 1.0 / 8)
        assert str(from_gradient.value) == str(from_grid.value)


def dense_sobolev_hessian(g, dt):
    """Oracle: assemble (2 / dt) tridiag(-g_{j-1}, g_{j-1} + g_j, -g_j) densely."""
    k, n = g.shape[0], g.shape[1]
    h = np.zeros((k - 1, n, k - 1, n))
    for j in range(k - 1):
        h[j, :, j, :] = g[j] + g[j + 1]
        if j + 1 < k - 1:
            h[j, :, j + 1, :] = h[j + 1, :, j, :] = -g[j + 1]
    return (2.0 / dt) * h.reshape((k - 1) * n, (k - 1) * n)


class TestSobolevDirection:
    @pytest.mark.parametrize(
        "obs, k", [(TWO_QUBIT, 16), (PAULI, 33), (GELL_MANN, 64)],
        ids=["K16-n2", "K33-n3", "K64-n8"],
    )
    def test_solves_the_block_tridiagonal_system(self, obs, k):
        samples = np.random.default_rng(k).uniform(-0.8, 0.8, (k + 1, obs.n))
        _, grad, g = _midpoint_terms(obs, samples, 1.0 / k)
        direction = processes._sobolev_direction(g, grad, 1.0 / k)
        h = dense_sobolev_hessian(g, 1.0 / k)
        reference = np.linalg.solve(h, grad.ravel()).reshape(k - 1, obs.n)
        assert np.abs(direction - reference).max() <= 1e-12 * np.abs(reference).max()
        assert float((grad * direction).sum()) > 0.0

    @pytest.mark.parametrize("k", [16, 33])
    def test_redundant_family_solves_the_singular_system(self, k):
        # H is singular, but grad lies in its range (E reads only l1 + 2 l2),
        # so the pseudo-inverse step solves H d = grad to rounding
        samples = np.random.default_rng(k).uniform(-0.8, 0.8, (k + 1, 2))
        _, grad, g = _midpoint_terms(REDUNDANT, samples, 1.0 / k)
        direction = processes._sobolev_direction(g, grad, 1.0 / k)
        residual = dense_sobolev_hessian(g, 1.0 / k) @ direction.ravel() - grad.ravel()
        assert np.abs(residual).max() <= 1e-12 * np.abs(grad).max()
        assert float((grad * direction).sum()) > 0.0


def spd_stack(rng, size, n):
    a = rng.normal(size=(size, n, n))
    return a @ a.swapaxes(1, 2) + 1e-3 * np.eye(n)


def with_spectrum(rng, eigenvalues):
    """A real symmetric matrix with the given eigenvalues in a seeded basis."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return (q * np.asarray(eigenvalues, dtype=float)) @ q.T


class TestPinvSymmetric:
    rng = np.random.default_rng(2024)
    CASES = {
        "spd-32x3": spd_stack(rng, 32, 3),
        "spd-8x8": spd_stack(rng, 8, 8),
        "spd-one-3": spd_stack(rng, 1, 3)[0],
        "redundant-metrics": metric_grid(REDUNDANT, rng.uniform(-0.8, 0.8, (16, 2))),
        # a global cutoff at 1e-12 * 1e8 would drop the second block's 1e-5;
        # the third block's 1e-14-relative eigenvalue and the exact 0 drop
        "mixed-rank": np.stack([
            with_spectrum(rng, [1e8, 3.0, 1.0]),
            with_spectrum(rng, [1.0, 0.5, 1e-5]),
            with_spectrum(rng, [2.0, 2e-14, 0.0]),
            with_spectrum(rng, [-4.0, 1.0, 0.0]),
        ]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_numpy_pinv_per_block(self, name):
        a = self.CASES[name]
        got = processes._pinv_symmetric(a)
        ref = np.linalg.pinv(a, rcond=1e-12, hermitian=True)
        assert got.shape == a.shape
        for block, ref_block in zip(got.reshape(-1, *a.shape[-2:]), ref.reshape(-1, *a.shape[-2:])):
            assert np.abs(block - ref_block).max() <= 1e-13 * np.abs(ref_block).max()

    def test_redundant_metrics_are_singular(self):
        w = np.linalg.eigvalsh(self.CASES["redundant-metrics"])
        assert np.all(np.abs(w[:, 0]) <= 1e-12 * w[:, 1])

    def test_zero_block_gives_exact_zeros(self):
        a = np.stack([spd_stack(self.rng, 1, 3)[0], np.zeros((3, 3))])
        got = processes._pinv_symmetric(a)
        assert np.all(got[1] == 0.0)
        ref = np.linalg.pinv(a[0], rcond=1e-12, hermitian=True)
        assert np.abs(got[0] - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.all(processes._pinv_symmetric(np.zeros((2, 2))) == 0.0)


class TestObjectiveValidation:
    @pytest.mark.parametrize("objective", [discrete_path_energy, segment_speed_profile])
    @pytest.mark.parametrize("duration", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_finite_and_positive(self, objective, duration):
        samples = straight_path([0.0], [1.0], steps=8).samples
        with pytest.raises(ValidationError, match="duration"):
            objective(QUBIT, samples, duration)

    @pytest.mark.parametrize("objective", [discrete_path_energy, segment_speed_profile])
    @pytest.mark.parametrize("shape", [(1, 1), (0, 1), (5,)])
    def test_needs_a_block_of_two_samples(self, objective, shape):
        with pytest.raises(ValidationError, match="samples"):
            objective(QUBIT, np.zeros(shape), 1.0)

    def test_two_samples_are_one_segment(self):
        energy = discrete_path_energy(QUBIT, [[0.0], [1.0]], 2.0)
        g_mid = metric_grid(QUBIT, [[0.5]])[0, 0, 0]
        assert energy == pytest.approx(g_mid / 2.0, rel=1e-14)


class TestStepCounts:
    @pytest.mark.parametrize("steps", [2.5, True, 7, MAX_COUNT + 1])
    def test_straight_path(self, steps):
        with pytest.raises(ValidationError, match="steps"):
            straight_path([0.0], [1.0], steps=steps)

    def test_third_law_scan(self):
        with pytest.raises(ValidationError, match="steps"):
            third_law_scan(QUBIT, [1.0], [1.0], steps=8.5)


class TestThirdLawScan:
    def test_qubit_closed_form_and_shrinking_increments(self):
        scan = third_law_scan(QUBIT, [1.0], [1.0, 2.0, 4.0, 8.0, 16.0])
        for lam, length in zip(scan.lambdas, scan.lengths):
            assert length == pytest.approx(gudermannian(lam), abs=1e-4)
        assert np.all(np.diff(scan.increments) < 0)
        assert scan.lengths[-1] < math.pi / 2

    def test_singleton_zero(self):
        scan = third_law_scan(QUBIT, [1.0], [0.0])
        assert scan.lengths.tolist() == [0.0]
        assert scan.increments.size == 0

    def test_monotone(self):
        scan = third_law_scan(QUBIT, [-1.0], [0.5, 1.0, 3.0])
        assert np.all(np.diff(scan.lengths) >= 0)

    def test_direction_must_be_unit(self):
        with pytest.raises(ValidationError):
            third_law_scan(QUBIT, [2.0], [1.0])

    def test_lambda_list_must_increase(self):
        with pytest.raises(ValidationError):
            third_law_scan(QUBIT, [1.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "obs, direction",
        [(QUBIT, [1.0]), (PAULI, [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])],
    )
    def test_longest_length_is_the_thermo_length_of_its_ray(self, obs, direction):
        scan = third_law_scan(obs, direction, [0.5, 1.0, 2.0], steps=64)
        ray = straight_path(np.zeros(obs.n), 2.0 * np.asarray(direction), 64)
        assert scan.lengths[-1] == pytest.approx(thermo_length(obs, ray).length, rel=1e-12)

    def test_off_grid_lambda_is_read_at_its_inserted_node(self):
        scan = third_law_scan(QUBIT, [1.0], [0.3, 1.0], steps=8)
        nodes = np.array([0.0, 0.125, 0.25, 0.3, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])
        speeds = np.sqrt(metric_grid(QUBIT, nodes[:, None])[:, 0, 0])
        cumulative = np.cumsum(0.5 * (speeds[:-1] + speeds[1:]) * np.diff(nodes))
        assert scan.lengths.tolist() == pytest.approx([cumulative[2], cumulative[-1]], rel=1e-14)


class TestRaysFromOneSpectrum:
    """Both ray scans read every state on lam = s d off one eigvalsh of H_d = sum_i d_i A_i."""

    SIZES = [(2, 3), (3, 4), (4, 3), (8, 5), (16, 4)]

    @staticmethod
    def unit(rng, n):
        d = rng.normal(size=n)
        return d / np.linalg.norm(d)

    def test_neither_scan_reaches_the_batched_layers(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a ray scan needs only the spectrum of H_d")

        for module, name in [
            (processes, "metric_grid"),
            (geometry, "metric_grid"),
            (gibbs, "gibbs_batch"),
            (gibbs, "_spectra"),
            (geometry, "_spectra"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        obs = random_family(4, 3, seed=5)
        d = self.unit(np.random.default_rng(5), 3)
        third_law_scan(obs, d, [1.0, 2.0, 4.0], steps=64)
        boundary_entropy_limit(obs, d, [0.0, 1.0, 4.0])

    @pytest.mark.parametrize("m, n", SIZES)
    def test_ray_speed_is_the_variance_of_the_spectrum(self, m, n):
        # non-commuting complex families: d^T g(s d) d = Var_p(s)(w), p(s) ~ exp(-s w)
        obs = random_family(m, n, seed=100 * m + n)
        d = self.unit(np.random.default_rng(m + n), n)
        w = np.linalg.eigvalsh(np.einsum("k,kij->ij", d, obs._stack))
        s = np.array([0.0, 0.1, 0.4, 1.0])
        q = np.einsum("i,kij,j->k", d, metric_grid(obs, s[:, None] * d), d)
        e = np.exp(-np.multiply.outer(s, w - w[0]))
        p = e / e.sum(axis=1, keepdims=True)
        var = (p * (w - p @ w[:, None]) ** 2).sum(axis=1)
        assert np.abs(q - var).max() <= 1e-12 * var.max()

    @pytest.mark.parametrize("m, n", SIZES)
    def test_scan_is_the_trapezoid_of_metric_speeds(self, m, n):
        obs = random_family(m, n, seed=100 * m + n)
        d = self.unit(np.random.default_rng(m + n), n)
        scan = third_law_scan(obs, d, [0.25, 1.0], steps=16)
        nodes = np.linspace(0.0, 1.0, 17)
        q = np.einsum("i,kij,j->k", d, metric_grid(obs, nodes[:, None] * d), d)
        speeds = np.sqrt(q)
        cumulative = np.cumsum(0.5 * (speeds[:-1] + speeds[1:]) * np.diff(nodes))
        assert scan.lengths == pytest.approx([cumulative[3], cumulative[-1]], rel=1e-12)

    @pytest.mark.parametrize("m, n", SIZES)
    def test_entropies_match_the_gibbs_states(self, m, n):
        obs = random_family(m, n, seed=100 * m + n)
        d = self.unit(np.random.default_rng(m + n), n)
        lam = [0.0, 0.5, 2.0, 8.0]
        scan = boundary_entropy_limit(obs, d, lam)
        expected = [gibbs_point(obs, s * d).S for s in lam]
        assert scan.entropies == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_qubit_length_to_lambda_40_is_the_gudermannian(self):
        # at Lambda = 40 the SLD denominator 2 p_b = 3.6e-35 is far below SLD_DENOM_FLOOR,
        # and the scan divides by no such sum
        lam = [1.0, 8.0, 20.0, 40.0]
        scan = third_law_scan(QUBIT, [1.0], lam, steps=4096)
        for got, at in zip(scan.lengths, lam):
            assert got == pytest.approx(gudermannian(at), abs=1e-5)

    def test_non_commuting_ray_to_lambda_40_is_finite_and_nondecreasing(self):
        obs = random_family(8, 5, seed=85)
        d = self.unit(np.random.default_rng(85), 5)
        scan = third_law_scan(obs, d, [1.0, 8.0, 20.0, 40.0])
        assert np.isfinite(scan.lengths).all()
        assert np.all(np.diff(scan.lengths) >= 0.0)

    @pytest.mark.parametrize("scan", [third_law_scan, boundary_entropy_limit])
    def test_lambda_past_the_guard_is_refused(self, scan):
        message = f"|lambda| = 1001 exceeds the overflow guard {LAMBDA_GUARD:g}"
        with pytest.raises(ParameterRangeError, match=re.escape(message)):
            scan(QUBIT, [1.0], [1.0, 1001.0])

    @pytest.mark.parametrize("scan", [third_law_scan, boundary_entropy_limit])
    def test_overflowing_ray_observable_is_refused(self, scan):
        # each A_i is finite, but H_d = sum_i A_i / 3 is past the float range
        big = HermitianOperator(np.diag([8.9e307, -8.9e307]))
        obs = ObservableSet([big] * 9)
        with pytest.raises(ParameterRangeError, match="overflows"):
            scan(obs, np.full(9, 1.0 / 3.0), [0.5, 1.0])


class TestLambdaList:
    """The one Lambda domain of both ray scans."""

    @pytest.mark.parametrize("scan", [third_law_scan, boundary_entropy_limit])
    def test_negative_lambda_is_named_as_a_float(self, scan):
        with pytest.raises(ValidationError, match=r">= 0, got -1\.0$"):
            scan(QUBIT, [1.0], [-1.0, 0.0, 2.0])

    @pytest.mark.parametrize("scan", [third_law_scan, boundary_entropy_limit])
    def test_lambda_count_is_capped(self, scan):
        with pytest.raises(ValidationError, match=f"1 to {MAX_COUNT} entries"):
            scan(QUBIT, [1.0], np.arange(MAX_COUNT + 1.0))


@pytest.mark.parametrize(
    "direction", [[math.nan], [math.inf], [True], [1.0, 0.0]], ids=["nan", "inf", "bool", "length"]
)
def test_ray_direction_is_a_finite_real_vector_of_n_components(direction):
    with pytest.raises(ValidationError, match="direction"):
        _unit_direction(direction, 1)


@pytest.mark.parametrize("direction", [[1e300], [-1e200, 1e200], [1e-300, 0.0]])
def test_ray_direction_norm_is_named_without_overflow(direction):
    # |d|^2 overflowed (or underflowed) for entries near the float limit,
    # a RuntimeWarning where the norm belongs in the message
    norm = math.hypot(*direction)
    with pytest.raises(ValidationError, match=re.escape(f"|d| = {norm!r}")):
        _unit_direction(direction, len(direction))


class TestBoundaryEntropyLimit:
    def test_qubit_ray_to_pure_state(self):
        scan = boundary_entropy_limit(QUBIT, [1.0], [0.0, 1.0, 4.0, 16.0])
        assert scan.ground_degeneracy == 1
        assert scan.entropies[0] == pytest.approx(math.log(2), rel=1e-12)
        expected = [
            math.log(2 * math.cosh(l)) - l * math.tanh(l)
            for l in scan.lambdas[1:]
        ]
        assert np.allclose(scan.entropies[1:], expected, atol=1e-12)
        assert scan.entropies[-1] < 1e-6

    def test_pure_state_entropy_is_positive_zero(self):
        # at Lambda = 400 the excited population exp(-800) / Z is 0.0: S is
        # exactly zero, and +0.0, as is its gap to ln 1
        scan = boundary_entropy_limit(QUBIT, [1.0], [0.0, 400.0])
        for s in (scan.entropies[1], scan.gaps[1], gibbs_point(QUBIT, [400.0]).S):
            assert s == 0.0 and math.copysign(1.0, s) == 1.0

    def test_qutrit_degenerate_ground_space(self):
        obs = ObservableSet([HermitianOperator(np.diag([1.0, 0.0, 0.0]))])
        scan = boundary_entropy_limit(obs, [1.0], [0.0, 4.0, 16.0])
        assert scan.ground_degeneracy == 2
        assert scan.limit_entropy == pytest.approx(math.log(2))
        assert scan.entropies[0] == pytest.approx(math.log(3), rel=1e-12)
        assert abs(scan.gaps[-1]) < 1e-6

    def test_gap_column_is_signed_difference(self):
        scan = boundary_entropy_limit(QUBIT, [1.0], [0.0])
        assert scan.gaps[0] == pytest.approx(math.log(2) - math.log(1))


class TestOnePathPerNumber:
    """Each reported total is the sum of the segment terms reported beside it."""

    @staticmethod
    def walk(n, seed):
        rng = np.random.default_rng(seed)
        steps = rng.normal(0.0, 0.05, size=(33, n))
        return ParamPath(rng.uniform(0.5, 3.0), np.cumsum(steps, axis=0))

    @pytest.mark.parametrize(
        "obs, seed", [(PAULI_ZX, 5), (PAULI, 2), (GELL_MANN, 5)], ids=["zx", "bloch", "gell-mann"]
    )
    def test_node_trapezoid_totals_are_the_segment_sums(self, obs, seed):
        # non-commuting families on seeded random walks: bitwise, not to
        # rounding (a separately spelled total missed the sum by an ulp on each)
        path = self.walk(obs.n, seed)
        report = thermo_length(obs, path)
        assert report.length == float(report.segment_lengths.sum())
        assert report.energy == float(report.segment_energies.sum())
        rates, total = entropy_production(obs, path, kappa=1.0)
        assert total == report.energy
        assert report.segment_energies.tolist() == (
            0.5 * (rates[:-1] + rates[1:]) * (path.duration / path.steps)
        ).tolist()

    @pytest.mark.parametrize("obs", [PAULI_ZX, GELL_MANN], ids=["zx", "gell-mann"])
    def test_path_energy_is_the_geodesic_objective(self, obs, monkeypatch):
        rng = np.random.default_rng(obs.n)
        problem = GeodesicProblem(
            rng.uniform(-0.3, 0.3, obs.n), rng.uniform(-0.3, 0.3, obs.n),
            interior_points=15, max_iters=50, tolerance=1e-8, duration=1.5,
        )
        path, report, _ = geodesic_between(obs, problem)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return metric_grid(*args, **kwargs)

        monkeypatch.setattr(processes, "metric_grid", counted)
        monkeypatch.setattr(geometry, "metric_grid", counted)
        energy = discrete_path_energy(obs, path.samples, path.duration)
        speeds = segment_speed_profile(obs, path.samples, path.duration)
        assert calls == []
        assert energy == report.energy
        dt = path.duration / path.steps
        assert speeds.tolist() == np.sqrt(report.segment_energies / dt).tolist()

    @pytest.mark.parametrize("obs", [PAULI_ZX, GELL_MANN], ids=["zx", "gell-mann"])
    def test_geodesic_seed_is_the_straight_path(self, obs):
        # the solver seeds from straight_path's unchecked core: its first
        # energy is that of the public straight_path, bitwise, and at a
        # tolerance the seed already meets it returns that very path
        rng = np.random.default_rng(obs.n + 1)
        start, end = rng.uniform(-0.5, 0.5, obs.n), rng.uniform(-0.5, 0.5, obs.n)
        seed = straight_path(start, end, 21, 1.5).samples
        for tolerance, iterations in ((1e-8, 3), (1e3, 0)):
            problem = GeodesicProblem(
                start, end, interior_points=20, max_iters=3, duration=1.5, tolerance=tolerance
            )
            path, _, record = geodesic_between(obs, problem)
            assert record.iterations == iterations
            assert record.energy_initial == discrete_path_energy(obs, seed, 1.5)
        assert np.array_equal(path.samples, seed)

    def test_ray_entropy_is_the_gibbs_entropy(self):
        # a random m = 8 family: the ray's spectrum of H_d and gibbs_batch's
        # eigendecomposition of each exponent give the same S
        obs = random_family(8, 3, seed=88)
        d = TestRaysFromOneSpectrum.unit(np.random.default_rng(88), 3)
        lam = np.array([0.0, 0.05, 0.3, 1.0, 2.5, 6.0])
        scan = boundary_entropy_limit(obs, d, lam)
        expected = gibbs.gibbs_batch(obs, lam[:, None] * d).S
        assert np.abs(scan.entropies - expected).max() <= 1e-14
