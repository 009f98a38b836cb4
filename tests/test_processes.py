import math

import numpy as np
import pytest

from thermogeom.errors import ValidationError
from thermogeom.geometry import metric_grid
from thermogeom.gibbs import ObservableSet
from thermogeom.linalg import HermitianOperator
from thermogeom.processes import (
    GeodesicProblem,
    ParamPath,
    _energy_gradient,
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
TWO_QUBIT = ObservableSet(
    [
        HermitianOperator(np.kron(SIGMA_Z, np.eye(2))),
        HermitianOperator(np.kron(np.eye(2), SIGMA_Z)),
    ],
    ["z1", "z2"],
)
RNG = np.random.default_rng(777)


def gudermannian(x):
    """Antiderivative of sech; the qubit thermodynamic arc length."""
    return 2.0 * math.atan(math.tanh(x / 2.0))


class TestParamPath:
    def test_minimum_steps(self):
        with pytest.raises(ValidationError):
            ParamPath(1.0, np.zeros((8, 1)))
        ParamPath(1.0, np.zeros((9, 1)))

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


class TestGeodesic:
    def test_one_dimensional_image_is_the_interval(self):
        problem = GeodesicProblem(
            [0.0], [1.0], interior_points=127, max_iters=300, tolerance=1e-5
        )
        path, report, _ = geodesic_between(QUBIT, problem)
        assert path.samples.min() >= -1e-9
        assert path.samples.max() <= 1.0 + 1e-9
        straight = thermo_length(QUBIT, straight_path([0.0], [1.0], steps=128))
        assert abs(report.length - straight.length) < 1e-6

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
    @pytest.mark.parametrize("obs, k", [(QUBIT, 8), (TWO_QUBIT, 16), (PAULI, 9), (PAULI, 32)])
    def test_equals_the_per_node_loop_bit_for_bit(self, obs, k):
        samples = np.random.default_rng(k).uniform(-0.8, 0.8, (k + 1, obs.n))
        grad = _energy_gradient(obs, samples, 1.0 / k)
        assert grad.shape == (k - 1, obs.n)
        assert np.array_equal(grad, loop_energy_gradient(obs, samples, 1.0 / k))


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
