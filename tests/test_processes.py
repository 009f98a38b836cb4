import math

import numpy as np
import pytest

from thermogeom import geometry, processes
from thermogeom.errors import NearSingularError, ValidationError
from thermogeom.geometry import fidelity, metric_grid
from thermogeom.gibbs import ObservableSet, gibbs_point
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
        # (sz, 2 sz) is the qubit family in u = l1 + 2 l2, with g singular at
        # every point: the discrete geodesic is the qubit's on [0, 1.1]
        redundant = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(2.0 * SIGMA_Z)])
        _, report, record = geodesic_between(
            redundant,
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

    def test_non_convergence_is_flagged_not_raised(self):
        problem = GeodesicProblem(
            [-1.2, 0.0], [1.2, 1.5], interior_points=15, max_iters=1, tolerance=1e-12
        )
        path, _, record = geodesic_between(TWO_QUBIT, problem)
        assert not record.converged
        assert record.iterations == 1
        assert path.samples.shape == (17, 2)

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

    def test_one_decomposition_per_energy_evaluation(self, monkeypatch):
        # the start and every line-search trial each decompose their K
        # midpoints once; nothing else (no repeat for the gradient, no
        # trailing node-grid report) reaches gibbs_batch
        blocks, evaluations = [], []
        gibbs_batch = geometry.gibbs_batch
        midpoint_terms = processes._midpoint_terms

        def record_batch(obs, lams):
            blocks.append(np.array(lams, dtype=float))
            return gibbs_batch(obs, lams)

        def record_evaluation(obs, samples, dt):
            evaluations.append(samples)
            return midpoint_terms(obs, samples, dt)

        monkeypatch.setattr(geometry, "gibbs_batch", record_batch)
        monkeypatch.setattr(processes, "_midpoint_terms", record_evaluation)
        problem = GeodesicProblem(
            [0.16, 0.0], [-0.07, 0.24], interior_points=15, max_iters=2000, tolerance=1e-10
        )
        _, _, record = geodesic_between(PAULI_ZX, problem)
        assert record.converged and record.iterations > 1
        assert len(blocks) == len(evaluations) > record.iterations
        assert all(block.shape == (16, 2) for block in blocks)
        distinct = {block.tobytes() for block in blocks}
        assert len(distinct) == len(blocks)


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


def dense_sobolev_direction(g, grad, dt):
    """Oracle: assemble (2 / dt) tridiag(-g_{j-1}, g_{j-1} + g_j, -g_j) and solve it."""
    k, n = g.shape[0], g.shape[1]
    h = np.zeros((k - 1, n, k - 1, n))
    for j in range(k - 1):
        h[j, :, j, :] = g[j] + g[j + 1]
        if j + 1 < k - 1:
            h[j, :, j + 1, :] = h[j + 1, :, j, :] = -g[j + 1]
    h = (2.0 / dt) * h.reshape((k - 1) * n, (k - 1) * n)
    return np.linalg.solve(h, grad.ravel()).reshape(k - 1, n)


class TestSobolevDirection:
    @pytest.mark.parametrize(
        "obs, k", [(TWO_QUBIT, 16), (PAULI, 33), (GELL_MANN, 64)],
        ids=["K16-n2", "K33-n3", "K64-n8"],
    )
    def test_solves_the_block_tridiagonal_system(self, obs, k):
        samples = np.random.default_rng(k).uniform(-0.8, 0.8, (k + 1, obs.n))
        _, grad, g = _midpoint_terms(obs, samples, 1.0 / k)
        direction = processes._sobolev_direction(g, grad, 1.0 / k)
        reference = dense_sobolev_direction(g, grad, 1.0 / k)
        assert np.abs(direction - reference).max() <= 1e-12 * np.abs(reference).max()
        assert float((grad * direction).sum()) > 0.0


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

    def test_one_metric_batch_and_no_per_ray_length(self, monkeypatch):
        calls = []

        def counted(obs, lams):
            calls.append(len(lams))
            return metric_grid(obs, lams)

        def forbidden(*args, **kwargs):
            raise AssertionError("the scan integrates one ray")

        monkeypatch.setattr(processes, "metric_grid", counted)
        monkeypatch.setattr(processes, "thermo_length", forbidden)
        monkeypatch.setattr(processes, "straight_path", forbidden)
        third_law_scan(QUBIT, [1.0], [1.0, 2.0, 4.0, 8.0], steps=512)
        assert calls == [513]

    def test_off_grid_lambda_is_read_at_its_inserted_node(self):
        scan = third_law_scan(QUBIT, [1.0], [0.3, 1.0], steps=8)
        nodes = np.array([0.0, 0.125, 0.25, 0.3, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])
        speeds = np.sqrt(metric_grid(QUBIT, nodes[:, None])[:, 0, 0])
        cumulative = np.cumsum(0.5 * (speeds[:-1] + speeds[1:]) * np.diff(nodes))
        assert scan.lengths.tolist() == pytest.approx([cumulative[2], cumulative[-1]], rel=1e-14)


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
