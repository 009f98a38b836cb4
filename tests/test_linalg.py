import numpy as np
import pytest

from thermogeom.errors import ValidationError
from thermogeom.gibbs import ObservableSet, gibbs_point
from thermogeom.linalg import (
    CENTRAL_STENCILS,
    DensityOperator,
    HermitianOperator,
    central_difference,
)

RNG = np.random.default_rng(20250810)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(m, rng=RNG):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return HermitianOperator((a + a.conj().T) / 2)


class TestHermitianOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            HermitianOperator(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[np.inf, 0.0], [0.0, 1.0]])

    def test_matrix_is_read_only(self):
        h = HermitianOperator(SIGMA_Z)
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0


def random_state(m, built_from, rng=RNG):
    """A full-rank m x m state, built from its matrix or as a Gibbs state with its spectrum."""
    if built_from == "matrix":
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        rho = a @ a.conj().T
        return DensityOperator(rho / np.trace(rho).real)
    obs = ObservableSet([random_hermitian(m, rng) for _ in range(2)])
    return gibbs_point(obs, rng.uniform(-1.0, 1.0, 2)).rho


@pytest.mark.parametrize("built_from", ["matrix", "gibbs"])
class TestDensitySpectrum:
    def test_reconstruction_residual(self, built_from):
        rho = random_state(6, built_from)
        u = rho.eigenvectors
        assert np.abs((u * rho.eigenvalues) @ u.conj().T - rho.matrix).max() < 1e-12

    def test_eigenvectors_orthonormal(self, built_from):
        u = random_state(8, built_from).eigenvectors
        assert u.shape == (8, 8)
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10

    def test_eigenvalues_descending_and_read_only(self, built_from):
        rho = random_state(4, built_from)
        assert np.all(np.diff(rho.eigenvalues) <= 0.0)
        assert rho.eigenvalues.dtype == float
        for stored in (rho.eigenvalues, rho.eigenvectors):
            with pytest.raises(ValueError):
                stored[0] = 0.5


class TestDensityOperator:
    def test_trace_enforced(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2))

    def test_clamp_window(self):
        rho = DensityOperator(np.diag([1.0 + 5e-13, -5e-13]))
        assert rho.eigenvalues[-1] == 0.0

    def test_below_clamp_rejected(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.0 + 1e-6, -1e-6]))

    def test_eigenvalues_cached_descending(self):
        rho = DensityOperator(np.diag([0.2, 0.5, 0.3]))
        assert np.allclose(rho.eigenvalues, [0.5, 0.3, 0.2])

    def test_eigenvector_columns_follow_the_eigenvalues(self):
        rho = DensityOperator(np.diag([0.2, 0.5, 0.3]))
        assert np.array_equal(np.abs(rho.eigenvectors), np.eye(3)[:, [1, 2, 0]])

    def test_maximally_mixed(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert np.allclose(rho.eigenvalues, [0.5, 0.5])
        assert np.abs(rho.eigenvectors.conj().T @ rho.eigenvectors - np.eye(2)).max() < 1e-10

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.ones((2, 3)), "expected a square matrix"),
            ([[0.5, 1.0], [0.0, 0.5]], "not self-adjoint"),
            ([[np.nan, 0.0], [0.0, 1.0]], "must be finite"),
            (np.eye(2), "trace must be 1, got 2.0"),
            (np.diag([1.0 + 1e-6, -1e-6]), "negative eigenvalue -1.000e-06 below the clamp window"),
        ],
        ids=["shape", "hermitian", "finite", "trace", "clamp"],
    )
    def test_refusals_name_the_fault(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            DensityOperator(matrix)


class TestCentralDifference:
    A = np.array([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.25], [0.5, 0.25, -1.5]])
    B = np.array([0.3, -2.0, 1.1])
    X = RNG.uniform(-1.0, 1.0, (4, 5, 3))

    def quadratic(self, x):
        return np.einsum("...i,ij,...j->...", x, self.A, x) + x @ self.B + 0.7

    @staticmethod
    def quartic(x):
        # degree 4 in each coordinate, with mixed terms
        return np.stack(
            (x[..., 0] ** 4 - 2.0 * x[..., 0] ** 3 * x[..., 1] + x[..., 2] ** 2,
             x[..., 1] ** 4 + 3.0 * x[..., 0] * x[..., 2] ** 3),
            axis=-1,
        )

    @staticmethod
    def quartic_gradient(x):
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        d0 = np.stack((4 * x0**3 - 6 * x0**2 * x1, 3 * x2**3), axis=-1)
        d1 = np.stack((-2 * x0**3, 4 * x1**3), axis=-1)
        d2 = np.stack((2 * x2, 9 * x0 * x2**2), axis=-1)
        return np.stack((d0, d1, d2), axis=-2)

    def test_orders_are_the_table_keys(self):
        assert sorted(CENTRAL_STENCILS) == [2, 4]
        for offsets, weights, denom in CENTRAL_STENCILS.values():
            assert weights @ offsets == denom  # exact on linear functions

    def test_order_two_is_exact_on_quadratics(self):
        d = central_difference(self.quadratic, self.X, 0.1, 2)
        assert d.shape == (4, 5, 3)
        np.testing.assert_allclose(d, 2.0 * self.X @ self.A + self.B, rtol=0.0, atol=1e-13)

    def test_order_four_is_exact_on_quartics(self):
        d = central_difference(self.quartic, self.X, 0.1, 4)
        assert d.shape == (4, 5, 3, 2)
        np.testing.assert_allclose(d, self.quartic_gradient(self.X), rtol=0.0, atol=1e-12)
        # order 2 is not: its truncation error shows at this step
        assert np.max(np.abs(central_difference(self.quartic, self.X, 0.1, 2) - d)) > 1e-3

    def test_axes_subset_and_single_point(self):
        full = central_difference(self.quartic, self.X, 1e-3, 4)
        sub = central_difference(self.quartic, self.X, 1e-3, 4, axes=(2, 0))
        assert sub.shape == (4, 5, 2, 2)
        assert np.array_equal(sub, full[..., [2, 0], :])
        one = central_difference(self.quartic, self.X[1, 2], 1e-3, 4, axes=[1])
        assert one.shape == (1, 2)
        assert np.array_equal(one, full[1, 2, [1]])

    def test_f_is_called_once_on_every_tap(self):
        shapes = []

        def f(taps):
            shapes.append(taps.shape)
            return self.quadratic(taps)

        central_difference(f, self.X, 1e-4, 4, axes=(0, 2))
        assert shapes == [(4, 5, 2, 4, 3)]

    def test_taps_move_one_coordinate(self):
        seen = []

        def f(taps):
            seen.append(taps.copy())
            return taps[..., 0]

        central_difference(f, np.array([1.0, 0.0, 2.0]), 0.5, 4, axes=(1,))
        expect = np.array([[[1.0, -1.0, 2.0], [1.0, -0.5, 2.0], [1.0, 0.5, 2.0], [1.0, 1.0, 2.0]]])
        assert np.array_equal(seen[0], expect)
