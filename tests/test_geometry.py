import math

import numpy as np
import pytest

from thermogeom import geometry
from thermogeom.errors import NearSingularError, ValidationError
from thermogeom.geometry import (
    SLD_DENOM_FLOOR,
    MetricTensor,
    _equilibrium_tangent,
    _quadratic_form_derivatives,
    _second_divided_differences,
    bw_distance,
    fidelity,
    injectivity_diagnostic,
    metric_grid,
    metric_tensor,
    state_derivatives,
)
from thermogeom.gibbs import ObservableSet, _spectra, gibbs_batch, gibbs_point
from thermogeom.linalg import DensityOperator, HermitianOperator, hermitize

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
QUBIT = ObservableSet([HermitianOperator(SIGMA_Z)], ["sz"])
RNG = np.random.default_rng(90125)


def random_density(m):
    a = RNG.normal(size=(m, m)) + 1j * RNG.normal(size=(m, m))
    rho = a @ a.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def sech(x):
    return 1.0 / math.cosh(x)


PAULIS = [SIGMA_Z, SIGMA_X, np.array([[0.0, -1.0j], [1.0j, 0.0]])]
PAULI = ObservableSet([HermitianOperator(a) for a in PAULIS], ["sz", "sx", "sy"])
# at lam = (0.7, 0, 0), H = 0.7 (z1 + z2) has a doubly degenerate middle
# eigenvalue that x1 x2 couples
DEGENERATE_PAIR = ObservableSet(
    [
        HermitianOperator(np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)),
        HermitianOperator(np.kron(SIGMA_X, SIGMA_X)),
        HermitianOperator(np.kron(PAULIS[2], np.eye(2))),
    ]
)


def order4_difference(f, x, step):
    """Order-4 central first derivatives of f at the points x of shape (..., n).

    f maps points of shape (..., n) to values of shape (..., *out) and is
    called once, on the four taps of every point along every coordinate,
    shape (..., n, 4, n).  The result has shape (..., n, *out); entry
    [..., a, ...] is the derivative along coordinate a (Fornberg, Math.
    Comp. 51, 1988).
    """
    n = x.shape[-1]
    taps = np.broadcast_to(x[..., None, None, :], (*x.shape[:-1], n, 4, n)).copy()
    taps[..., np.arange(n), :, np.arange(n)] += np.array([-2.0, -1.0, 1.0, 2.0]) * step
    vals = np.moveaxis(f(taps), x.ndim, -1)
    return (vals @ np.array([1.0, -8.0, 8.0, -1.0])) / (12.0 * step)


def reference_covariance(obs, lam):
    """C_ij = Re tr(rho Atil_i Atil_j) as an einsum over rho, symmetrised, and its rank."""
    point = gibbs_point(obs, lam)
    centered = obs._stack - point.a[:, None, None] * np.eye(obs.dim)
    c = np.einsum("ij,ajk,bki->ab", point.rho.matrix, centered, centered).real
    c = (c + c.T) / 2
    w = np.abs(np.linalg.eigvalsh(c))
    top = float(w.max())
    return c, 0 if top == 0.0 else int(np.sum(w > 1e-10 * top))


def fd_state_derivatives(obs, lam, step=5e-4):
    """Fourth-order central differences of the family map, shape (n, m, m)."""
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])
    weights = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * step)
    pts = lam + step * offsets[None, :, None] * np.eye(obs.n)[:, None, :]
    batch = gibbs_batch(obs, pts.reshape(-1, obs.n))
    rho = (batch.U * batch.p[:, None, :]) @ batch.U.conj().swapaxes(1, 2)
    return np.einsum("o,iokl->ikl", weights, rho.reshape(obs.n, 4, obs.dim, obs.dim))


def sld_solve(rho, delta):
    """Oracle L with rho L + L rho = 2 delta: 2 delta_ab / (p_a + p_b) in rho's eigenbasis."""
    p, u = np.linalg.eigh(rho)
    return u @ (2.0 * (u.conj().T @ delta @ u) / (p[:, None] + p[None, :])) @ u.conj().T


def sld_metric(obs, lam):
    """Oracle g_ij = Re tr(rho L_i L_j) from differenced states and SLD solves."""
    rho = gibbs_point(obs, lam).rho
    slds = [sld_solve(rho.matrix, hermitize(d)) for d in fd_state_derivatives(obs, lam)]
    g = np.array([[np.trace(rho.matrix @ li @ lj).real for lj in slds] for li in slds])
    return (g + g.T) / 2


class TestFidelity:
    def test_self_fidelity(self):
        for m in (2, 3, 4):
            rho = random_density(m)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.diag([0.0, 1.0]))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_thermal_states_bhattacharyya(self):
        rho = gibbs_point(QUBIT, [0.0]).rho
        sigma = gibbs_point(QUBIT, [1.0]).rho
        q = np.array([math.exp(-1.0), math.exp(1.0)])
        q /= q.sum()
        expected = sum(math.sqrt(0.5 * qi) for qi in q)
        assert fidelity(rho, sigma) == pytest.approx(expected, rel=1e-12)

    def test_range(self):
        for _ in range(10):
            f = fidelity(random_density(3), random_density(3))
            assert 0.0 <= f <= 1.0 + 1e-10

    def test_gibbs_states_match_their_matrices(self):
        # a Gibbs state's stored spectrum gives the square root that a
        # decomposition of its matrix gives
        for lam_a, lam_b in RNG.uniform(-2, 2, size=(5, 2, 3)):
            rho, sigma = (gibbs_point(PAULI, lam).rho for lam in (lam_a, lam_b))
            rebuilt = [DensityOperator(s.matrix) for s in (rho, sigma)]
            assert fidelity(rho, sigma) == pytest.approx(fidelity(*rebuilt), rel=0.0, abs=1e-14)


class TestBWDistance:
    def test_zero_on_equal_inputs(self):
        a = random_density(3)
        assert bw_distance(a, a) == pytest.approx(0.0, abs=1e-7)
        two_i = HermitianOperator(2 * np.eye(2))
        assert bw_distance(two_i, two_i) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pure_states(self):
        a = DensityOperator(np.diag([1.0, 0.0]))
        b = DensityOperator(np.diag([0.0, 1.0]))
        assert bw_distance(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_non_unit_trace_branch(self):
        a = HermitianOperator(np.eye(2))
        b = HermitianOperator(4 * np.eye(2))
        assert bw_distance(a, b) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_unit_trace_reduces_to_fidelity_form(self):
        rho = gibbs_point(QUBIT, [-0.4]).rho
        sigma = gibbs_point(QUBIT, [0.9]).rho
        d = bw_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert d == pytest.approx(math.sqrt(2 - 2 * f), rel=1e-10)

    def test_rejects_indefinite_input(self):
        with pytest.raises(ValidationError):
            bw_distance(HermitianOperator(SIGMA_Z), HermitianOperator(np.eye(2)))


class TestStateDerivatives:
    def test_qubit_closed_form(self):
        for lam in (0.0, 0.8, -1.3):
            (d,) = state_derivatives(QUBIT, [lam])
            expected = np.diag([-sech(lam) ** 2 / 2, sech(lam) ** 2 / 2])
            assert np.abs(d.matrix - expected).max() < 1e-10

    def test_traceless(self):
        obs = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)])
        for lam in RNG.uniform(-2, 2, size=(5, 2)):
            for d in state_derivatives(obs, lam):
                assert abs(np.trace(d.matrix)) < 1e-10

    def test_exact_at_the_maximally_mixed_point(self):
        # lam = 0: every pair is degenerate and d_i rho = -(A_i - tr A_i / m) / m
        for d, a in zip(state_derivatives(PAULI, [0.0, 0.0, 0.0]), PAULIS):
            assert np.abs(d.matrix + a / 2).max() < 1e-15

    def test_transverse_derivative_when_a_population_underflows(self):
        # at lam = 400 sz the lower population exp(-800) is 0.0 in floating
        # point; rho = (I - tanh r n.sigma) / 2 still gives -tanh(r) / (2 r) sx
        d_x = state_derivatives(PAULI, [400.0, 0.0, 0.0])[1]
        assert gibbs_point(PAULI, [400.0, 0.0, 0.0]).rho.eigenvalues[-1] == 0.0
        assert np.abs(d_x.matrix + SIGMA_X / 800.0).max() < 1e-17

    @pytest.mark.parametrize("scale", [1e6, 1e100])
    def test_large_observable_is_no_config_error(self, scale):
        # U X U^dagger rounds off Hermitian by about eps |A|, which once
        # failed HermitianOperator's absolute 1e-12 check with a ValidationError
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))
        a = a + a.conj().swapaxes(1, 2)
        obs = ObservableSet([HermitianOperator(scale * a[0]), HermitianOperator(a[1])])
        unit = ObservableSet([HermitianOperator(a[0]), HermitianOperator(a[1])])
        # the same states, so d/dlam_1 is scale times the unit family's d/dlam_1
        ders = state_derivatives(obs, [0.3 / scale, 0.2])
        for d, ref, factor in zip(ders, state_derivatives(unit, [0.3, 0.2]), (scale, 1.0)):
            expected = factor * ref.matrix
            assert np.abs(d.matrix - expected).max() <= 1e-9 * np.abs(expected).max()

    def test_degenerate_two_qubit_spectrum(self):
        # H = 0.7 (z1 + z2) has a doubly degenerate middle eigenvalue, and
        # x1 x2 couples exactly that pair
        obs = ObservableSet(
            [
                HermitianOperator(np.kron(SIGMA_Z, np.eye(2)) + np.kron(np.eye(2), SIGMA_Z)),
                HermitianOperator(np.kron(SIGMA_X, SIGMA_X)),
            ]
        )
        lam = np.array([0.7, 0.0])
        ders = state_derivatives(obs, lam)
        reference = fd_state_derivatives(obs, lam)
        for d, ref in zip(ders, reference):
            assert abs(np.trace(d.matrix)) < 1e-14
            assert np.abs(d.matrix - ref).max() < 1e-9


class TestMetricTensor:
    def test_qubit_sech_squared(self):
        for lam in (-1.5, 0.0, 0.3, 2.0):
            mt = metric_tensor(QUBIT, [lam])
            assert mt.g[0, 0] == pytest.approx(sech(lam) ** 2, abs=1e-8)

    def test_qubit_at_two(self):
        mt = metric_tensor(QUBIT, [2.0])
        assert mt.g[0, 0] == pytest.approx(0.07065082485316443, abs=1e-8)
        assert mt.g[0, 0] == pytest.approx(sech(2.0) ** 2, abs=1e-8)

    def test_redundant_pair_bilinearity(self):
        obs = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(2 * SIGMA_Z)]
        )
        mt = metric_tensor(obs, [0.4, 0.0])
        assert mt.g[1, 1] == pytest.approx(4 * mt.g[0, 0], rel=1e-9)
        assert mt.g[0, 1] == pytest.approx(2 * mt.g[0, 0], rel=1e-9)
        w = np.linalg.eigvalsh(mt.g)
        assert np.sum(np.abs(w) > 1e-10 * np.abs(w).max()) == 1

    def test_rescaling_is_quadratic(self):
        c, lam0 = 3.0, 0.25
        scaled = ObservableSet([HermitianOperator(c * SIGMA_Z)])
        g_scaled = metric_tensor(scaled, [lam0]).g[0, 0]
        g_base = metric_tensor(QUBIT, [c * lam0]).g[0, 0]
        assert g_scaled == pytest.approx(c**2 * g_base, rel=1e-9)

    def test_symmetry_and_psd_on_random_draws(self):
        obs = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)])
        for lam in RNG.uniform(-2, 2, size=(100, 2)):
            mt = metric_tensor(obs, lam)
            assert np.array_equal(mt.g, mt.g.T)
            assert np.linalg.eigvalsh(mt.g)[0] >= -1e-10

    def test_distance_metric_ratio_is_quarter(self):
        # d_BW(rho_l, rho_{l+eps})^2 ~ (1/4) geps^2: the pinned constant
        for lam in (-1.0, 0.0, 0.5, 1.5):
            g = metric_tensor(QUBIT, [lam]).g[0, 0]
            for eps in (1e-3, 5e-4):
                d = bw_distance(
                    gibbs_point(QUBIT, [lam]).rho,
                    gibbs_point(QUBIT, [lam + eps]).rho,
                )
                assert d**2 / (g * eps**2) == pytest.approx(0.25, rel=2e-2)

    def test_metric_grid_matches_pointwise(self):
        obs = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)])
        pts = RNG.uniform(-1.5, 1.5, size=(12, 2))
        grids = metric_grid(obs, pts)
        for j, lam in enumerate(pts):
            assert np.abs(grids[j] - metric_tensor(obs, lam).g).max() < 1e-12

    @pytest.mark.parametrize("r", [0.0, 1e-10, 0.5, 3.0, 10.0, 15.0])
    def test_qubit_bures_oracle(self, r):
        # Huebner (1992): sech^2 r along lam, tanh^2 r / r^2 across it
        for n in (np.array([1.0, 0.0, 0.0]), np.array([2.0, -1.0, 2.0]) / 3.0):
            g = metric_tensor(PAULI, r * n).g
            across = 1.0 if r == 0.0 else math.tanh(r) ** 2 / r**2
            nn = np.outer(n, n)
            ref = sech(r) ** 2 * nn + across * (np.eye(3) - nn)
            scale = np.where(ref != 0.0, np.abs(ref), np.abs(ref).max())
            assert np.all(np.abs(g - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("m,n", [(4, 3), (8, 8)])
    def test_random_non_commuting_family(self, m, n):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
        obs = ObservableSet([HermitianOperator(hermitize(x)) for x in a])
        pts = rng.uniform(-0.5, 0.5, size=(6, n))
        for g, lam in zip(metric_grid(obs, pts), pts):
            ref = sld_metric(obs, lam)
            assert np.abs(g - ref).max() <= 2e-11 * np.abs(ref).max()

    def test_boundary_proximity_raises(self):
        with pytest.raises(NearSingularError):
            metric_tensor(QUBIT, [18.0])

    def test_metric_tensor_type_validates(self):
        with pytest.raises(ValidationError):
            MetricTensor(np.array([0.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))


def diagonal_batch(energies):
    """A one-point batch whose exponent has the eigenvalues -energies, and its f2."""
    obs = ObservableSet([HermitianOperator(np.diag(energies))])
    batch = gibbs_batch(obs, [[1.0]])
    return batch, _second_divided_differences(batch, geometry._daleckii_krein(obs, batch)[1])


class TestSecondDividedDifferences:
    def test_textbook_quotient_at_separated_points(self):
        batch, f2 = diagonal_batch([3.0, 1.2, 0.0])
        x, p = batch.x[0], batch.p[0]

        def f1(i, j):
            return p[i] if i == j else (p[j] - p[i]) / (x[j] - x[i])

        for a, b, c in np.ndindex(3, 3, 3):
            lo, mid, hi = sorted((a, b, c))
            if lo == hi:
                ref = p[lo] / 2
            else:
                ref = (f1(mid, hi) - f1(lo, mid)) / (x[hi] - x[lo])
            assert f2[0, a, b, c] == pytest.approx(ref, rel=1e-13)

    def test_degenerate_triples_give_half_the_population(self):
        batch, f2 = diagonal_batch([0.4, 0.4, 0.4])
        assert np.array_equal(f2, np.full_like(f2, batch.p[0, 0] / 2))

    @pytest.mark.parametrize("gap", [1e-9, 1e-4, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9), 1e-2])
    def test_small_gaps_match_the_series(self, gap):
        # f2[0, -g, -g] of exp is (1 - (1 + g) e^{-g}) / g^2, exactly
        # 1/2 - g/3 + g^2/8 - g^3/30 + ...; both sides of the t = 1e-3 switch
        batch, f2 = diagonal_batch([gap, gap, 0.0])
        series = 0.5 - gap / 3 + gap**2 / 8 - gap**3 / 30 + gap**4 / 144 - gap**5 / 840
        assert f2[0, 0, 1, 2] / batch.p[0, 2] == pytest.approx(series, rel=5e-13)


def full_cube_f2(spectra, f1):
    """Reference: the f2 rule evaluated on all m^3 index triples, each sorted in place."""
    m = spectra.x.shape[1]
    lo, mid, hi = np.sort(np.indices((m, m, m)), axis=0)
    y = spectra.x
    s, t = y[:, hi] - y[:, mid], y[:, hi] - y[:, lo]
    f2 = spectra.p[:, hi] / 2
    np.divide(f1[:, mid, hi] - f1[:, lo, mid], t, out=f2, where=t >= 1e-3)
    series = 0.5 - (s + t) / 6 + (s * s + s * t + t * t) / 24 - (s + t) * (s * s + t * t) / 120
    return np.where((t > 0.0) & (t < 1e-3), spectra.p[:, hi] * series, f2)


def psi_f2(spectra):
    """Reference: f2 = p_hi (phi(s) - exp(-s) phi(t - s)) / t on all m^3 sorted triples.

    Below t = 1e-3 it is the cubic series; it reads no f1, so it checks the recursion.
    """
    m = spectra.x.shape[1]
    lo, mid, hi = np.sort(np.indices((m, m, m)), axis=0)
    y = spectra.x
    s, t = y[:, hi] - y[:, mid], y[:, hi] - y[:, lo]
    psi = 0.5 - (s + t) / 6 + (s * s + s * t + t * t) / 24 - (s + t) * (s * s + t * t) / 120
    np.divide(geometry._phi(s) - np.exp(-s) * geometry._phi(t - s), t, out=psi, where=t >= 1e-3)
    return spectra.p[:, hi] * psi


def random_family(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
    return ObservableSet([HermitianOperator(hermitize(x)) for x in a])


# seeded non-commuting families at m = 2, 3, 8, 16, and the degenerate and
# near-degenerate spectra on both sides of the t = 1e-3 series switch
F2_SPECTRA = {
    **{
        f"m{m}": (random_family(m, n, m), np.random.default_rng(m).uniform(-0.8, 0.8, (5, n)))
        for m, n in ((2, 3), (3, 8), (8, 8), (16, 4))
    },
    "degenerate-two-qubit": (DEGENERATE_PAIR, np.array([[0.7, 0.0, 0.0], [0.7, 1e-7, 0.0]])),
    "degenerate-triple": (ObservableSet([HermitianOperator(np.diag([0.4, 0.4, 0.4]))]), np.ones((1, 1))),
    **{
        f"gap-{gap:.12g}": (ObservableSet([HermitianOperator(np.diag([gap, gap, 0.0]))]), np.ones((1, 1)))
        for gap in (1e-9, 1e-4, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9), 1e-2)
    },
}


class TestSortedTripleF2:
    @pytest.mark.parametrize("m", range(1, 17))
    def test_distinct_sorted_triples_and_their_gather(self, m):
        lo, mid, hi, gather, mid_hi, lo_mid = geometry._sorted_triples(m)
        assert lo.shape == mid.shape == hi.shape == (m * (m + 1) * (m + 2) // 6,)
        assert np.all(lo <= mid) and np.all(mid <= hi)
        assert len({(a, b, c) for a, b, c in zip(lo, mid, hi)}) == len(lo)
        assert gather.shape == (m, m, m)
        ordered = np.sort(np.indices((m, m, m)), axis=0)
        assert np.array_equal(np.stack([lo[gather], mid[gather], hi[gather]]), ordered)
        assert np.array_equal(mid_hi, mid * m + hi) and np.array_equal(lo_mid, lo * m + mid)
        assert not any(a.flags.writeable for a in (lo, mid, hi, gather, mid_hi, lo_mid))

    def test_one_cached_entry_per_dimension(self):
        assert all(x is y for x, y in zip(geometry._sorted_triples(5), geometry._sorted_triples(5)))

    @pytest.mark.parametrize("name", F2_SPECTRA)
    def test_f2_is_bitwise_the_full_cube_evaluation(self, name):
        obs, lams = F2_SPECTRA[name]
        spectra = _spectra(obs, lams)
        f1 = geometry._daleckii_krein(obs, spectra)[1]
        assert np.array_equal(_second_divided_differences(spectra, f1), full_cube_f2(spectra, f1))

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
    def test_recursion_matches_the_psi_formula_on_a_mixed_batch(self, m):
        # one batch of a non-commuting family at |lam| from 1e-6 to 30, plus
        # diagonal rows with an exactly degenerate pair and, for m > 2, a
        # 3e-4 gap: separated, near-coincident and coincident distinct triples
        rng = np.random.default_rng(100 + m)
        levels = np.sort(rng.uniform(-1.0, 1.0, m))
        levels[1] = levels[0]
        if m > 2:
            levels[-1] = levels[-2] + 3e-4
        h = hermitize(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        obs = ObservableSet([HermitianOperator(h), HermitianOperator(np.diag(levels))])
        scales = np.geomspace(1e-6, 30.0, 12)
        lams = np.concatenate(
            (scales[:, None] * rng.normal(size=(12, 2)), np.column_stack((np.zeros(12), scales)))
        )
        spectra = _spectra(obs, lams)
        f2 = _second_divided_differences(spectra, geometry._daleckii_krein(obs, spectra)[1])
        lo, mid, hi = np.sort(np.indices((m, m, m)), axis=0)
        t = spectra.x[:, hi] - spectra.x[:, lo]
        assert ((t == 0.0) & (lo < hi)).any() and ((t > 0.0) & (t < 1e-3)).any() and (t >= 1e-3).any()
        ref = psi_f2(spectra)
        assert np.all(np.abs(f2 - ref) <= 1e-12 * ref)

    @pytest.mark.parametrize("name", F2_SPECTRA)
    def test_form_derivatives_are_bitwise_those_on_the_full_cube(self, name, monkeypatch):
        obs, lams = F2_SPECTRA[name]
        v = np.random.default_rng(5).normal(size=lams.shape)
        g, c = _quadratic_form_derivatives(obs, lams, v)
        monkeypatch.setattr(geometry, "_second_divided_differences", full_cube_f2)
        g_ref, c_ref = _quadratic_form_derivatives(obs, lams, v)
        assert np.array_equal(g, g_ref) and np.array_equal(c, c_ref)


def fd_form_gradient(obs, lams, v, step=1e-3):
    """grad_lam (v^T g v) by order-4 central differences of `metric_grid`."""

    def form(taps):
        g = metric_grid(obs, taps.reshape(-1, obs.n)).reshape(*taps.shape, obs.n)
        vb = v[:, None, None, :]
        return np.einsum("...i,...ij,...j->...", vb, g, vb)

    return order4_difference(form, lams, step)


class TestQuadraticFormDerivatives:
    @pytest.mark.parametrize(
        "obs, lam",
        [
            (PAULI, [0.0, 0.0, 0.0]),
            (PAULI, [0.5e-9, 0.0, 0.0]),
            (PAULI, [0.5e-6, 0.0, 0.0]),
            (PAULI, [0.5e-3, 0.0, 0.0]),
            (PAULI, [8.0, 0.0, 0.0]),
            (PAULI, [0.3, -0.8, 0.2]),
            (DEGENERATE_PAIR, [0.7, 0.0, 0.0]),
            (DEGENERATE_PAIR, [0.7, 1e-7, 0.0]),
            (DEGENERATE_PAIR, [0.0, 0.0, 0.0]),
        ],
        ids=["bloch-0", "gap-1e-9", "gap-1e-6", "gap-1e-3", "8sz", "bloch",
             "degenerate", "near-degenerate", "two-qubit-0"],
    )
    def test_matches_differenced_metric(self, obs, lam):
        # at lam = 0 the gradient vanishes, so the error is measured against
        # the size of the form v^T g v as well as the gradient's own
        lams = np.array([lam])
        v = np.random.default_rng(3).normal(size=(1, obs.n))
        g, c = _quadratic_form_derivatives(obs, lams, v)
        assert np.array_equal(g, metric_grid(obs, lams))
        ref = fd_form_gradient(obs, lams, v)
        scale = max(np.abs(ref).max(), float(np.einsum("pi,pij,pj->", v, g, v)))
        assert np.abs(c - ref).max() <= 1e-9 * scale

    def test_random_non_commuting_block(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        obs = ObservableSet([HermitianOperator(hermitize(x)) for x in a])
        lams, v = rng.uniform(-0.5, 0.5, size=(5, 3)), rng.normal(size=(5, 3))
        _, c = _quadratic_form_derivatives(obs, lams, v)
        ref = fd_form_gradient(obs, lams, v)
        assert np.abs(c - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_floor_raises_like_metric_grid(self):
        lams = np.array([[0.0], [18.0]])
        with pytest.raises(NearSingularError) as from_grid:
            metric_grid(QUBIT, lams)
        with pytest.raises(NearSingularError) as from_form:
            _quadratic_form_derivatives(QUBIT, lams, np.ones((2, 1)))
        assert str(from_form.value) == str(from_grid.value)


# seeded non-commuting families for the Kubo-Mori (BKM) Hessian
TANGENT_FAMILIES = [(2, 3), (3, 4), (4, 3), (8, 5), (16, 4)]


def tangent_points(m, n, seed):
    """A family and 6 points of it inside the SLD floor, |lam_i| up to 0.5."""
    obs = random_family(m, n, seed)
    lams = np.random.default_rng(seed).uniform(-0.5, 0.5, (6, n))
    assert _spectra(obs, lams).p.min() > 1e3 * SLD_DENOM_FLOOR
    return obs, lams


class TestEquilibriumTangent:
    @pytest.mark.parametrize("m,n", TANGENT_FAMILIES)
    def test_metrics_agree_along_lam_and_nest(self, m, n):
        # g lam = K lam = C lam, since sum_i lam_i At_i is diagonal in the
        # eigenbasis, and Petz's order g <= K <= C: their weights on
        # |At_ab|^2 are L^2 / A, L and A, for L the logarithmic and A the
        # arithmetic mean of p_a and p_b; C is checked both from the frame
        # and as the einsum over rho
        obs, lams = tangent_points(m, n, 100 + m)
        _, hessians = _equilibrium_tangent(obs, lams)
        for g, k, lam in zip(metric_grid(obs, lams), hessians, lams):
            for c in (injectivity_diagnostic(obs, lam)[0], reference_covariance(obs, lam)[0]):
                scale = np.abs(c).max()
                along = c @ lam
                for metric in (g, k):
                    assert np.abs(metric @ lam - along).max() <= 1e-12 * scale * np.abs(lam).max()
                for lower, upper in ((g, k), (k, c)):
                    assert np.linalg.eigvalsh(upper - lower)[0] >= -1e-12 * scale

    @pytest.mark.parametrize("m,n", TANGENT_FAMILIES)
    def test_matches_differenced_gibbs_batch(self, m, n):
        obs, lams = tangent_points(m, n, 200 + m)

        def entropy_and_expectations(taps):
            batch = gibbs_batch(obs, taps.reshape(-1, n))
            return np.concatenate((batch.S[:, None], batch.a), axis=1).reshape(*taps.shape[:-1], n + 1)

        ref = order4_difference(entropy_and_expectations, lams, 1e-4)
        ds, k = _equilibrium_tangent(obs, lams)
        for exact, differenced in ((ds, ref[..., 0]), (-k, ref[..., 1:])):
            assert np.abs(exact - differenced).max() <= 1e-8 * np.abs(differenced).max()

    def test_exact_on_the_qubit(self):
        # K = d^2 ln(2 cosh lam) / d lam^2 = sech^2 lam; dS/dlam = -lam sech^2 lam
        lams = np.linspace(-3.0, 3.0, 13)[:, None]
        ds, k = _equilibrium_tangent(QUBIT, lams)
        sech2 = 1.0 / np.cosh(lams[:, 0]) ** 2
        np.testing.assert_allclose(k[:, 0, 0], sech2, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(ds[:, 0], -lams[:, 0] * sech2, rtol=1e-13, atol=1e-16)


# the frame's covariance against the einsum over rho: the seeded tangent
# families, the degenerate middle eigenvalue, a redundant pair (rank 1) and
# the identity (C = 0, rank 0)
COVARIANCE_FAMILIES = {
    **{f"m{m}n{n}": tangent_points(m, n, 300 + m) for m, n in TANGENT_FAMILIES},
    "degenerate-pair": (DEGENERATE_PAIR, [[0.7, 0.0, 0.0], [0.7, 1e-7, 0.0], [0.0, 0.0, 0.0]]),
    "redundant": (
        ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(2 * SIGMA_Z)]),
        [[0.3, 0.0], [0.3, 0.1], [-1.2, 0.4]],
    ),
    "identity": (ObservableSet([HermitianOperator(np.eye(2))]), [[0.4], [0.0], [-2.5]]),
}


class TestFrameCovariance:
    @pytest.mark.parametrize("name", sorted(COVARIANCE_FAMILIES))
    def test_matches_the_einsum_over_rho(self, name):
        obs, lams = COVARIANCE_FAMILIES[name]
        for lam in lams:
            c, rank = injectivity_diagnostic(obs, lam)
            ref, ref_rank = reference_covariance(obs, lam)
            assert rank == ref_rank
            assert np.abs(c - ref).max() <= 1e-13 * np.abs(ref).max()
