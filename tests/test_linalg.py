import math

import numpy as np
import pytest

from thermogeom.errors import (
    MatrixDomainError,
    NearSingularError,
    ValidationError,
)
from thermogeom.linalg import (
    CENTRAL_STENCILS,
    DensityOperator,
    HermitianOperator,
    central_difference,
    eig,
    matfun,
    sld_solve,
    von_neumann_entropy,
)

RNG = np.random.default_rng(20250810)

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(m, rng=RNG):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return HermitianOperator((a + a.conj().T) / 2)


def random_density(m, rng=RNG):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


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


class TestEig:
    def test_identity(self):
        spec = eig(HermitianOperator(np.eye(2)))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])
        assert np.allclose(
            spec.eigenvectors.conj().T @ spec.eigenvectors, np.eye(2), atol=1e-10
        )

    def test_sigma_z_is_sorted_ascending(self):
        spec = eig(HermitianOperator(SIGMA_Z))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_residual(self):
        h = random_hermitian(6)
        spec = eig(h)
        scale = np.abs(h.matrix).max()
        assert np.abs(spec.reconstruct() - h.matrix).max() < 1e-10 * scale

    def test_eigenvectors_orthonormal(self):
        spec = eig(random_hermitian(8))
        u = spec.eigenvectors
        assert np.abs(u.conj().T @ u - np.eye(8)).max() < 1e-10


class TestMatfun:
    def test_exp_of_zero_is_identity(self):
        out = matfun(HermitianOperator(np.zeros((3, 3))), "exp")
        assert np.allclose(out.matrix, np.eye(3), atol=1e-14)

    def test_sqrt_diagonal(self):
        out = matfun(HermitianOperator(np.diag([4.0, 9.0])), "sqrt")
        assert np.allclose(out.matrix, np.diag([2.0, 3.0]), atol=1e-14)

    def test_exp_trace_matches_2cosh(self):
        lam = 0.7
        out = matfun(HermitianOperator(-lam * SIGMA_Z), "exp")
        assert np.trace(out.matrix).real == pytest.approx(2 * math.cosh(lam), rel=1e-14)

    def test_log_domain_error_reports_eigenvalue(self):
        with pytest.raises(MatrixDomainError) as err:
            matfun(HermitianOperator(np.diag([1.0, -2.0])), "log")
        assert err.value.eigenvalue == pytest.approx(-2.0)

    def test_sqrt_rejects_non_positive(self):
        with pytest.raises(MatrixDomainError):
            matfun(HermitianOperator(np.diag([0.0, 1.0])), "sqrt")

    def test_xlogx_handles_zero(self):
        out = matfun(HermitianOperator(np.diag([0.0, 1.0])), "xlogx")
        assert np.allclose(out.matrix, np.zeros((2, 2)), atol=1e-14)

    def test_unknown_tag(self):
        with pytest.raises(ValidationError):
            matfun(HermitianOperator(np.eye(2)), "sinm")

    @pytest.mark.parametrize("tag,f", [
        ("exp", np.exp),
        ("log", np.log),
        ("sqrt", np.sqrt),
        ("xlogx", lambda w: w * np.log(w)),
    ])
    def test_eigenvalue_mapping(self, tag, f):
        h = random_hermitian(5)
        shifted = HermitianOperator(
            h.matrix + (abs(eig(h).eigenvalues[0]) + 1.0) * np.eye(5)
        )
        out = matfun(shifted, tag)
        expected = np.sort(f(eig(shifted).eigenvalues))
        assert np.abs(eig(out).eigenvalues - expected).max() < 1e-10


class TestSldSolve:
    def test_maximally_mixed_gives_twice_delta(self):
        rho = DensityOperator(np.eye(2) / 2)
        delta = random_hermitian(2)
        out = sld_solve(rho, delta)
        assert np.allclose(out.matrix, 2 * delta.matrix, atol=1e-12)

    def test_diagonal_closed_form(self):
        p, q = 0.7, 0.3
        rho = DensityOperator(np.diag([p, q]))
        delta = HermitianOperator(np.diag([0.2, -0.2]))
        out = sld_solve(rho, delta)
        assert np.allclose(out.matrix, np.diag([0.2 / p, -0.2 / q]), atol=1e-12)

    def test_residual_on_random_qutrit(self):
        rho = random_density(3)
        assert rho.is_full_rank()
        delta = random_hermitian(3)
        sld = sld_solve(rho, delta)
        residual = rho.matrix @ sld.matrix + sld.matrix @ rho.matrix - 2 * delta.matrix
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(delta.matrix)

    def test_output_self_adjoint(self):
        rho = random_density(4)
        sld = sld_solve(rho, random_hermitian(4))
        assert np.abs(sld.matrix - sld.matrix.conj().T).max() < 1e-12

    def test_near_singular_raises(self):
        rho = DensityOperator(np.diag([1.0, 0.0]))
        with pytest.raises(NearSingularError):
            sld_solve(rho, random_hermitian(2))


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

    def test_full_rank_predicate(self):
        assert DensityOperator(np.eye(2) / 2).is_full_rank()
        assert not DensityOperator(np.diag([1.0, 0.0])).is_full_rank()
        assert not DensityOperator(np.diag([1 - 1e-11, 1e-11])).is_full_rank()


class TestEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(DensityOperator(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        s = von_neumann_entropy(DensityOperator(np.eye(2) / 2))
        assert s == pytest.approx(math.log(2), rel=1e-14)

    def test_thermal_closed_form(self):
        lam = 1.0
        p = np.array([math.exp(-lam), math.exp(lam)])
        rho = DensityOperator(np.diag(p / p.sum()))
        expected = math.log(2 * math.cosh(lam)) - lam * math.tanh(lam)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_range(self):
        for m in (2, 3, 5):
            s = von_neumann_entropy(random_density(m))
            assert 0.0 <= s <= math.log(m) + 1e-12

    @pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
    def test_concavity_spot_check(self, t):
        for _ in range(10):
            rho, sigma = random_density(3), random_density(3)
            mix = DensityOperator(t * rho.matrix + (1 - t) * sigma.matrix)
            lower = t * von_neumann_entropy(rho) + (1 - t) * von_neumann_entropy(sigma)
            assert von_neumann_entropy(mix) >= lower - 1e-10

    def test_boundary_continuity(self):
        m = 4
        pure = np.zeros((m, m))
        pure[0, 0] = 1.0
        eps_values = [1e-2, 1e-4, 1e-6, 1e-8]
        entropies = [
            von_neumann_entropy(
                DensityOperator((1 - eps) * pure + eps * np.eye(m) / m)
            )
            for eps in eps_values
        ]
        assert all(a > b for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] < 1e-6


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
