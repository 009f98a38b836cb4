import ast
import re
from pathlib import Path

import numpy as np
import pytest

from thermogeom.errors import ValidationError
from thermogeom.gibbs import ObservableSet, gibbs_point
from thermogeom.linalg import DensityOperator, HermitianOperator

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

    def test_entries_near_the_float_limit_stay_finite(self):
        # A + A^dagger is past the float range here; A/2 + A^dagger/2 is not
        a = np.array([[1e308, 1e308 - 1e308j], [1e308 + 1e308j, -1e308]])
        assert np.array_equal(HermitianOperator(a).matrix, a)

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


SRC = Path(__file__).resolve().parents[1] / "src" / "thermogeom"


def test_finite_difference_is_the_one_black_box_check():
    # no library module keeps a generic difference machinery
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "central_difference" not in text and "CENTRAL_STENCILS" not in text, path.name
    # and README's finite-difference paragraph names exactly the one check
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("The remaining finite difference")
    paragraph = readme[start : readme.index("\n\n", start)]
    functions = {
        d.name
        for path in SRC.glob("*.py")
        for d in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(d, ast.FunctionDef)
    }
    named = set(re.findall(r"`(\w+)`", paragraph)) & functions
    assert named == {"expectation_consistency"}
