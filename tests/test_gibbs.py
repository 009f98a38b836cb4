import json
import math

import numpy as np
import pytest

from thermogeom.errors import ParameterRangeError, ValidationError
from thermogeom.gibbs import (
    ObservableSet,
    expectation_consistency,
    gibbs_batch,
    gibbs_point,
    injectivity_diagnostic,
)
from thermogeom.linalg import HermitianOperator
from thermogeom.serialization import observable_set_from_json

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

QUBIT = ObservableSet([HermitianOperator(SIGMA_Z)], ["sz"])
QUTRIT = ObservableSet([HermitianOperator(np.diag([1.0, 0.0, -1.0]))], ["Jz"])
RNG = np.random.default_rng(4211)


def entropy(rho):
    """Oracle S = -sum p ln p over the eigenvalues of rho, with 0 ln 0 = 0."""
    p = np.linalg.eigvalsh(rho.matrix)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


class TestObservableSet:
    def test_requires_nonempty(self):
        with pytest.raises(ValidationError):
            ObservableSet([])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            ObservableSet(
                [HermitianOperator(SIGMA_Z), HermitianOperator(np.eye(3))]
            )

    def test_independence_flag(self):
        assert QUBIT.independent
        pair = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)]
        )
        assert pair.independent
        redundant = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(2 * SIGMA_Z)]
        )
        assert not redundant.independent

    @pytest.mark.parametrize(
        "matrices",
        [[SIGMA_Z, np.eye(2)], [np.eye(2)], [SIGMA_Z, SIGMA_Z + np.eye(2)]],
        ids=["sz_and_identity", "identity", "sz_and_sz_plus_identity"],
    )
    def test_identity_direction_is_not_independent(self, matrices):
        # a multiple of the identity leaves rho unchanged, so these sets are redundant
        obs = ObservableSet([HermitianOperator(m) for m in matrices])
        assert not obs.independent
        assert injectivity_diagnostic(obs, np.full(obs.n, 0.3))[1] < obs.n

    def test_default_names(self):
        obs = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)])
        assert obs.names == ("A1", "A2")

    def test_json_round_trip(self):
        doc = json.loads(
            """{"dim": 2, "observables": [
                {"name": "z", "matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]},
                {"name": "x", "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}]}"""
        )
        back = observable_set_from_json(doc)
        assert back.names == ("z", "x")
        for a, b in zip(back.observables, (SIGMA_Z, SIGMA_X)):
            assert np.array_equal(a.matrix, b)


class TestGibbsPoint:
    def test_qubit_at_zero(self):
        point = gibbs_point(QUBIT, [0.0])
        assert point.Z == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(point.rho.matrix, np.eye(2) / 2, atol=1e-14)
        assert point.a[0] == pytest.approx(0.0, abs=1e-14)
        assert point.S == pytest.approx(math.log(2), rel=1e-14)

    def test_qubit_closed_form(self):
        lam = 0.5
        point = gibbs_point(QUBIT, [lam])
        assert point.Z == pytest.approx(2 * math.cosh(lam), rel=1e-13)
        assert point.a[0] == pytest.approx(-math.tanh(lam), rel=1e-13)

    def test_qutrit_diagonal(self):
        point = gibbs_point(QUTRIT, [1.0])
        z = math.exp(-1) + 1 + math.exp(1)
        assert point.Z == pytest.approx(z, rel=1e-13)
        assert point.a[0] == pytest.approx((math.exp(-1) - math.exp(1)) / z, rel=1e-13)

    def test_legendre_identity(self):
        for lam in ([-1.3], [0.2], [2.4]):
            point = gibbs_point(QUBIT, lam)
            assert point.S == pytest.approx(
                point.log_Z + float(np.dot(lam, point.a)), abs=1e-10
            )

    def test_entropy_matches_independent_path(self):
        for lam in RNG.uniform(-2, 2, size=(20, 1)):
            point = gibbs_point(QUBIT, lam)
            assert point.S == pytest.approx(
                entropy(point.rho), abs=1e-9
            )

    def test_interior_membership(self):
        for lam in ([0.0], [5.0], [-9.0]):
            point = gibbs_point(QUBIT, lam)
            assert np.all(point.rho.eigenvalues >= 0)
            assert point.rho.eigenvalues[-1] > 0

    def test_overflow_shift(self):
        point = gibbs_point(QUBIT, [600.0])
        assert point.log_Z == pytest.approx(600.0, rel=1e-12)
        assert point.a[0] == pytest.approx(-1.0, rel=1e-12)
        assert point.Z == pytest.approx(math.exp(600.0), rel=1e-12)
        extreme = gibbs_point(QUBIT, [800.0])
        assert extreme.log_Z == pytest.approx(800.0, rel=1e-12)
        assert math.isinf(extreme.Z)  # Z saturates, log_Z stays exact

    def test_parameter_guard(self):
        gibbs_point(QUBIT, [1000.0])
        with pytest.raises(ParameterRangeError):
            gibbs_point(QUBIT, [1000.5])

    def test_overflowing_exponent_names_its_point(self):
        # |lam| is within the guard, but lam * 1e306 is not a float
        huge = ObservableSet([HermitianOperator(1e306 * SIGMA_Z)])
        assert gibbs_batch(huge, [[1.0]]).log_Z[0] == pytest.approx(1e306)
        with pytest.raises(ParameterRangeError, match=r"lambda = \[400\.0\]"):
            gibbs_batch(huge, [[1.0], [400.0], [500.0]])

    def test_batch_matches_pointwise(self):
        lams = RNG.uniform(-2, 2, size=(8, 1))
        batch = gibbs_batch(QUBIT, lams)
        for j, lam in enumerate(lams):
            point = gibbs_point(QUBIT, lam)
            assert batch.log_Z[j] == pytest.approx(point.log_Z, rel=1e-14)
            assert np.allclose(batch.rho[j], point.rho.matrix, atol=1e-14)
            assert np.allclose(batch.a[j], point.a, atol=1e-14)


# {sz, sx} at lam = r (0.6, 0.8): the exponent has eigenvalues -r and r, so
# the populations are 1 / (1 + e^{2r}) and 1 / (1 + e^{-2r}), ascending
SZ_SX = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)], ["sz", "sx"])


class TestGibbsSpectrum:
    @pytest.mark.parametrize("r", [5.0, 10.0, 15.0, 20.0])
    def test_non_commuting_populations_match_the_oracle(self, r):
        p = gibbs_point(SZ_SX, [0.6 * r, 0.8 * r]).rho.eigenvalues
        oracle = [1.0 / (1.0 + math.exp(-2.0 * r)), 1.0 / (1.0 + math.exp(2.0 * r))]
        np.testing.assert_allclose(p, oracle, rtol=1e-14, atol=0.0)

    def test_one_eigendecomposition_per_point(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        gibbs_point(SZ_SX, [0.3, -1.2])
        assert calls == [(1, 2, 2)]

    def test_rho_keeps_the_batch_spectrum_bitwise(self):
        sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        obs = ObservableSet([HermitianOperator(a) for a in (SIGMA_Z, SIGMA_X, sigma_y)])
        lam = [0.4, -1.1, 2.5]
        batch = gibbs_batch(obs, [lam])
        rho = gibbs_point(obs, lam).rho
        assert rho.eigenvalues.tobytes() == batch.p[0, ::-1].tobytes()
        assert rho.eigenvectors.tobytes() == batch.U[0, :, ::-1].tobytes()
        assert rho.matrix.tobytes() == batch.rho[0].tobytes()


class TestExpectationConsistency:
    def test_qubit_typical_point(self):
        assert expectation_consistency(QUBIT, [0.3]) < 1e-7

    def test_symmetric_point_is_exact(self):
        assert expectation_consistency(QUBIT, [0.0]) < 1e-10

    def test_qutrit(self):
        assert expectation_consistency(QUTRIT, [0.2]) < 1e-6


class TestInjectivityDiagnostic:
    def test_redundant_pair_is_rank_deficient(self):
        obs = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(2 * SIGMA_Z)]
        )
        c, rank = injectivity_diagnostic(obs, [0.3, 0.0])
        assert rank == 1
        assert c[1, 1] == pytest.approx(4 * c[0, 0], rel=1e-12)

    def test_single_nondegenerate_observable(self):
        _, rank = injectivity_diagnostic(QUBIT, [0.7])
        assert rank == 1

    def test_identity_observable_has_zero_variance(self):
        obs = ObservableSet([HermitianOperator(np.eye(2))])
        c, rank = injectivity_diagnostic(obs, [0.4])
        assert np.allclose(c, 0.0, atol=1e-14)
        assert rank == 0

    def test_independent_pair_full_rank(self):
        pair = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)]
        )
        _, rank = injectivity_diagnostic(pair, [0.5, -0.2])
        assert rank == 2


class TestMaxEntropyProperty:
    def test_gibbs_maximizes_entropy_at_fixed_expectation(self):
        lam = 0.8
        point = gibbs_point(QUBIT, [lam])
        a = float(point.a[0])
        radius = math.sqrt(max(1 - a * a, 0.0))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
        for _ in range(25):
            r = 0.95 * radius * math.sqrt(RNG.uniform())
            phi = RNG.uniform(0, 2 * math.pi)
            sigma = (
                np.eye(2)
                + r * math.cos(phi) * sx
                + r * math.sin(phi) * sy
                + a * SIGMA_Z
            ) / 2
            from thermogeom.linalg import DensityOperator

            trial = DensityOperator(sigma)
            assert np.trace(SIGMA_Z @ sigma).real == pytest.approx(a, abs=1e-12)
            assert entropy(trial) <= point.S + 1e-9
