import math

import numpy as np
import pytest

from thermogeom import exprlang
from thermogeom.contact import (
    MMetricSpec,
    MuExtension,
    TangentVector,
    ThermoPoint,
    contact_volume_coefficient,
    deta_eval,
    equilibrium_point,
    eta_coefficients,
    eta_eval,
    fiber_membership,
    fiber_path_length,
    gM_quadratic,
    gauge_translate,
    legendrian_residual,
    mu_jacobian,
    state_function,
    wedge_top_coefficient,
)
from thermogeom.errors import SignatureError, ValidationError
from thermogeom.geometry import FDScheme, metric_tensor
from thermogeom.gibbs import ObservableSet, gibbs_point
from thermogeom.linalg import HermitianOperator, von_neumann_entropy

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
QUBIT = ObservableSet([HermitianOperator(SIGMA_Z)], ["sz"])
PAULI = ObservableSet(
    [
        HermitianOperator(SIGMA_Z),
        HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])),
        HermitianOperator(np.array([[0.0, -1j], [1j, 0.0]])),
    ]
)
TWO_QUBIT = ObservableSet(
    [
        HermitianOperator(np.kron(SIGMA_Z, np.eye(2))),
        HermitianOperator(np.kron(np.eye(2), SIGMA_Z)),
    ],
    ["z1", "z2"],
)


def tangent(dS=0.0, da=None, dlam=None, n=1):
    return TangentVector(
        dS, np.zeros(n) if da is None else da, np.zeros(n) if dlam is None else dlam
    )


class TestEtaEval:
    def test_reeb_vector(self):
        p = ThermoPoint(0.3, np.array([0.2]), np.array([1.1]))
        assert eta_eval(p, tangent(dS=1.0)) == 1.0

    def test_zero_tangent(self):
        p = ThermoPoint(0.0, np.array([0.5, 0.1]), np.array([1.0, -1.0]))
        assert eta_eval(p, tangent(n=2)) == 0.0

    def test_equilibrium_tangent_annihilated(self):
        # (S'(lam), a'(lam), 1) lies in ker eta along the qubit curve
        lam, h = 0.8, 1e-5
        plus = gibbs_point(QUBIT, [lam + h])
        minus = gibbs_point(QUBIT, [lam - h])
        s_dot = (plus.S - minus.S) / (2 * h)
        a_dot = (plus.a - minus.a) / (2 * h)
        p = equilibrium_point(QUBIT, [lam])
        v = TangentVector(s_dot, a_dot, np.array([1.0]))
        assert abs(eta_eval(p, v)) < 1e-9

    def test_deta_on_reeb_vanishes(self):
        n = 2
        reeb = tangent(dS=1.0, n=n)
        for j in range(2 * n + 1):
            coords = np.zeros(2 * n + 1)
            coords[j] = 1.0
            other = TangentVector(coords[0], coords[1 : n + 1], coords[n + 1 :])
            assert deta_eval(reeb, other) == 0.0

    def test_eta_row_vector_has_rank_one(self):
        p = ThermoPoint(0.1, np.array([0.4, -0.2]), np.array([0.9, 2.0]))
        row = eta_coefficients(p)
        assert row.shape == (5,)
        assert np.linalg.matrix_rank(row[None, :]) == 1


class TestContactVolume:
    @pytest.mark.parametrize("n,expected", [(1, 1.0), (2, 2.0), (3, 6.0)])
    def test_nonzero_and_equals_n_factorial(self, n, expected):
        value = contact_volume_coefficient(n)
        assert value != 0.0
        assert abs(value) == pytest.approx(expected, rel=1e-12)

    def test_degenerate_form_vanishes(self):
        # replacing eta by dS kills the 2-form part: d(dS) = 0
        n = 2
        dim = 2 * n + 1
        alpha = np.zeros(dim)
        alpha[0] = 1.0
        assert wedge_top_coefficient(alpha, np.zeros((dim, dim)), n) == 0.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            contact_volume_coefficient(0)


class TestLegendrianResidual:
    def test_qubit_grid(self):
        grid = np.linspace(-2.0, 2.0, 81)[:, None]
        assert legendrian_residual(QUBIT, grid) < 1e-8

    def test_origin_alone(self):
        assert legendrian_residual(QUBIT, np.array([[0.0]])) < 1e-12

    def test_two_observable_commuting_family(self):
        axis = np.linspace(-1.5, 1.5, 7)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        assert legendrian_residual(TWO_QUBIT, grid) < 1e-7

    def test_order_two_converges_quadratically(self):
        grid = np.linspace(-1.5, 1.5, 7)[:, None]
        coarse, fine = (
            legendrian_residual(QUBIT, grid, FDScheme(step=h, order=2)) for h in (1e-2, 5e-3)
        )
        assert coarse != legendrian_residual(QUBIT, grid, FDScheme(step=1e-2, order=4))
        assert coarse / fine == pytest.approx(4.0, rel=0.02)

    def test_every_shipped_family_is_legendrian(self):
        qutrit = ObservableSet([HermitianOperator(np.diag([1.0, 0.0, 0.0]))], ["P0"])
        families = [
            (QUBIT, np.linspace(-2.0, 2.0, 21)[:, None]),
            (qutrit, np.linspace(-2.0, 2.0, 21)[:, None]),
            (
                TWO_QUBIT,
                np.stack(
                    np.meshgrid(*(np.linspace(-1.0, 1.0, 5),) * 2, indexing="ij"),
                    axis=-1,
                ).reshape(-1, 2),
            ),
        ]
        for obs, grid in families:
            assert legendrian_residual(obs, grid) <= 1e-7

    # steps at which truncation, not roundoff, sets the residual
    @pytest.mark.parametrize("order, step", [(2, 1e-3), (4, 1e-2)])
    def test_matches_a_per_tap_loop(self, order, step):
        grid = np.random.default_rng(3).uniform(-1.0, 1.0, (5, 3))
        offsets, weights, denom = {
            2: ([-1, 1], [-1, 1], 2.0),
            4: ([-2, -1, 1, 2], [1, -8, 8, -1], 12.0),
        }[order]
        worst = 0.0
        for lam in grid:
            for k in range(3):
                ds, da = 0.0, np.zeros(3)
                for o, w in zip(offsets, weights):
                    tap = lam.copy()
                    tap[k] += o * step
                    point = gibbs_point(PAULI, tap)
                    ds += w * point.S
                    da += w * point.a
                worst = max(worst, abs(ds - lam @ da) / (denom * step))
        got = legendrian_residual(PAULI, grid, FDScheme(step=step, order=order))
        # the loop and the batch round differently; FD roundoff is ~eps / step
        assert got == pytest.approx(worst, abs=1e-13 / step)


class TestMuExtension:
    def test_zero_extension_validates(self):
        MuExtension.validated(["0"], QUBIT)

    def test_entropy_difference_vanishes_on_equilibrium(self):
        mu = MuExtension.validated(
            ["S-(log(2*cosh(l1))-l1*tanh(l1))"], QUBIT
        )
        assert mu.n == 1

    def test_expectation_difference_vanishes_on_equilibrium(self):
        MuExtension.validated(["a1+tanh(l1)"], QUBIT)

    def test_non_vanishing_extension_rejected(self):
        with pytest.raises(ValidationError):
            MuExtension.validated(["1"], QUBIT)
        with pytest.raises(ValidationError):
            MuExtension.validated(["S"], QUBIT)

    def test_time_variable_rejected(self):
        with pytest.raises(ValidationError):
            MuExtension.validated(["t"], QUBIT)


class TestStateFunction:
    def test_zero_extension_returns_family_member(self):
        mu = MuExtension.zero(1)
        p = ThermoPoint(9.9, np.array([123.0]), np.array([0.6]))
        rho = state_function(QUBIT, mu, p)
        assert np.array_equal(rho.matrix, gibbs_point(QUBIT, [0.6]).rho.matrix)

    def test_equilibrium_point_recovers_gibbs_state(self):
        mu = MuExtension.validated(["S-(log(2*cosh(l1))-l1*tanh(l1))"], QUBIT)
        p = equilibrium_point(QUBIT, [0.9])
        rho = state_function(QUBIT, mu, p)
        assert np.abs(rho.matrix - gibbs_point(QUBIT, [0.9]).rho.matrix).max() < 1e-12

    def test_off_equilibrium_shifts_the_parameter(self):
        mu = MuExtension.validated(["a1+tanh(l1)"], QUBIT)
        lam = 0.5
        eq = equilibrium_point(QUBIT, [lam])
        p = gauge_translate(eq, 0.0, np.array([0.3]))  # a -> a + 0.3
        rho = state_function(QUBIT, mu, p)
        expected = gibbs_point(QUBIT, [lam + 0.3]).rho
        assert np.abs(rho.matrix - expected.matrix).max() < 1e-12


class TestFiberMembership:
    def test_equilibrium_point_lies_on_its_fiber(self):
        mu = MuExtension.validated(["a1+tanh(l1)"], QUBIT)
        c = np.array([0.7])
        assert fiber_membership(QUBIT, mu, equilibrium_point(QUBIT, c), c)

    def test_displaced_point_leaves_the_fiber(self):
        mu = MuExtension.validated(["a1+tanh(l1)"], QUBIT)
        c = np.array([0.7])
        p = gauge_translate(equilibrium_point(QUBIT, c), 0.0, np.array([0.05]))
        assert not fiber_membership(QUBIT, mu, p, c)

    def test_jacobian_rank_gives_fiber_dimension(self):
        # rank n Jacobian => fiber is a smooth (n+1)-dim level set in R^{2n+1}
        mu = MuExtension.zero(2)
        p = ThermoPoint(0.2, np.array([0.1, -0.4]), np.array([0.5, 0.8]))
        jac = mu_jacobian(mu, p)
        assert jac.shape == (2, 5)
        assert np.linalg.matrix_rank(jac, tol=1e-8) == 2
        mu_a = MuExtension.validated(["a1+tanh(l1)"], QUBIT)
        p1 = equilibrium_point(QUBIT, [0.3])
        assert np.linalg.matrix_rank(mu_jacobian(mu_a, p1), tol=1e-8) == 1

    def test_jacobian_matches_the_analytic_one(self):
        mu = MuExtension([exprlang.parse("S*a2+tanh(l1)", 2), exprlang.parse("exp(a1)-l2^2", 2)], 2)
        p = ThermoPoint(0.3, np.array([0.1, -0.4]), np.array([0.5, 0.8]))
        expect = np.array(
            [
                [-0.4, 0.0, 0.3, 1.0 + 1.0 / np.cosh(0.5) ** 2, 0.0],
                [0.0, np.exp(0.1), 0.0, 0.0, 1.0 - 1.6],
            ]
        )
        np.testing.assert_allclose(mu_jacobian(mu, p), expect, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("step", [0.0, -1e-6, 0.02, math.nan])
    def test_jacobian_step_validation(self, step):
        p = ThermoPoint(0.2, np.array([0.1]), np.array([0.5]))
        with pytest.raises(ValidationError, match="step"):
            mu_jacobian(MuExtension.zero(1), p, step)


class TestEquilibriumPoint:
    def test_qubit_at_zero(self):
        p = equilibrium_point(QUBIT, [0.0])
        assert p.S == pytest.approx(math.log(2), rel=1e-14)
        assert p.a[0] == pytest.approx(0.0, abs=1e-14)
        assert p.lam[0] == 0.0

    def test_qubit_at_one_closed_form(self):
        p = equilibrium_point(QUBIT, [1.0])
        assert p.S == pytest.approx(
            math.log(2 * math.cosh(1.0)) - math.tanh(1.0), rel=1e-13
        )
        assert p.a[0] == pytest.approx(-math.tanh(1.0), rel=1e-13)

    def test_entropy_consistent_with_spectral_path(self):
        p = equilibrium_point(QUBIT, [1.4])
        rho = gibbs_point(QUBIT, [1.4]).rho
        assert p.S == pytest.approx(von_neumann_entropy(rho), abs=1e-9)


class TestGaugeAction:
    def test_identity_element(self):
        p = ThermoPoint(0.5, np.array([0.1]), np.array([0.9]))
        q = gauge_translate(p, 0.0, np.array([0.0]))
        assert q.S == p.S
        assert np.array_equal(q.a, p.a)
        assert np.array_equal(q.lam, p.lam)

    def test_abelian_composition(self):
        p = ThermoPoint(0.5, np.array([0.1]), np.array([0.9]))
        stepwise = gauge_translate(
            gauge_translate(p, 0.2, np.array([-0.3])), 0.4, np.array([0.1])
        )
        combined = gauge_translate(p, 0.6, np.array([-0.2]))
        assert stepwise.S == pytest.approx(combined.S, abs=1e-15)
        assert np.allclose(stepwise.a, combined.a, atol=1e-15)

    def test_action_is_free(self):
        p = ThermoPoint(0.5, np.array([0.1]), np.array([0.9]))
        moved = gauge_translate(p, 1e-8, np.array([0.0]))
        assert moved.S != p.S  # only g = 0 fixes p
        nudged = gauge_translate(p, 0.0, np.array([1e-8]))
        assert not np.array_equal(nudged.a, p.a)

    def test_fiber_transitivity(self):
        lam = np.array([0.4])
        p1 = ThermoPoint(0.1, np.array([0.3]), lam)
        p2 = ThermoPoint(-2.0, np.array([1.5]), lam)
        g = (p2.S - p1.S, p2.a - p1.a)
        moved = gauge_translate(p1, *g)
        assert moved.S == p2.S
        assert np.array_equal(moved.a, p2.a)

    def test_state_function_invariance(self):
        mu = MuExtension.zero(1)
        p = ThermoPoint(0.5, np.array([0.1]), np.array([0.9]))
        q = gauge_translate(p, 3.0, np.array([-5.0]))
        assert np.array_equal(
            state_function(QUBIT, mu, p).matrix,
            state_function(QUBIT, mu, q).matrix,
        )


class TestGMQuadratic:
    def spec(self, n=1):
        return MMetricSpec.parsed("1", ["1"] * n, ["1"] * n, n)

    def test_vertical_reduction(self):
        spec = MMetricSpec.parsed("2", ["3"], ["1"], 1)
        g = metric_tensor(QUBIT, [0.5])
        p = equilibrium_point(QUBIT, [0.5])
        v = tangent(dS=2.0, da=np.array([1.0]))
        assert gM_quadratic(spec, g, p, v) == pytest.approx(2 * 4 + 3 * 1)

    def test_base_reduction_is_bw_form(self):
        spec = self.spec()
        g = metric_tensor(QUBIT, [0.5])
        p = equilibrium_point(QUBIT, [0.5])
        v = tangent(dlam=np.array([1.0]))
        assert gM_quadratic(spec, g, p, v) == pytest.approx(g.g[0, 0], rel=1e-12)

    def test_mixed_cross_term(self):
        spec = MMetricSpec.parsed("1", ["1"], ["1"], 1)
        g = metric_tensor(QUBIT, [0.0])
        p = equilibrium_point(QUBIT, [0.0])
        v = tangent(dS=1.0, dlam=np.array([1.0]))
        # g_S dS^2 + g dlam^2 + 2 h dS dlam
        assert gM_quadratic(spec, g, p, v) == pytest.approx(
            1.0 + g.g[0, 0] + 2.0, rel=1e-12
        )

    def test_negative_g_S_allowed_off_fiber(self):
        spec = MMetricSpec.parsed("-1", ["1"], ["0"], 1)
        g = metric_tensor(QUBIT, [0.0])
        p = equilibrium_point(QUBIT, [0.0])
        v = tangent(dS=1.0)
        assert gM_quadratic(spec, g, p, v) == pytest.approx(-1.0)

    def test_g_a_must_be_positive(self):
        spec = MMetricSpec.parsed("1", ["-1"], ["0"], 1)
        g = metric_tensor(QUBIT, [0.0])
        p = equilibrium_point(QUBIT, [0.0])
        with pytest.raises(SignatureError):
            gM_quadratic(spec, g, p, tangent(dS=1.0))


class TestFiberPathLength:
    def vertical_points(self, s0, s1, a0, a1, count=9, lam=0.4):
        lam_vec = np.array([lam])
        return [
            ThermoPoint(
                s0 + (s1 - s0) * t, np.array([a0 + (a1 - a0) * t]), lam_vec
            )
            for t in np.linspace(0.0, 1.0, count)
        ]

    def test_constant_point_has_zero_length(self):
        spec = MMetricSpec.parsed("1", ["1"], ["0"], 1)
        pts = self.vertical_points(0.3, 0.3, 0.1, 0.1)
        assert fiber_path_length(spec, pts, 1.0) == 0.0

    def test_flat_case_is_euclidean(self):
        spec = MMetricSpec.parsed("1", ["1"], ["0"], 1)
        pts = self.vertical_points(0.0, 0.6, 0.0, 0.8)
        assert fiber_path_length(spec, pts, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_g_S_scales_entropy_leg_in_quadrature(self):
        spec = MMetricSpec.parsed("4", ["1"], ["0"], 1)
        pts = self.vertical_points(0.0, 0.6, 0.0, 0.8)
        expected = math.hypot(2 * 0.6, 0.8)
        assert fiber_path_length(spec, pts, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_negative_g_S_is_signature_error(self):
        spec = MMetricSpec.parsed("-1", ["1"], ["0"], 1)
        pts = self.vertical_points(0.0, 0.6, 0.0, 0.8)
        with pytest.raises(SignatureError):
            fiber_path_length(spec, pts, 1.0)

    def test_lambda_must_stay_fixed(self):
        spec = MMetricSpec.parsed("1", ["1"], ["0"], 1)
        pts = self.vertical_points(0.0, 0.6, 0.0, 0.8)
        pts[3] = ThermoPoint(pts[3].S, pts[3].a, np.array([0.5]))
        with pytest.raises(ValidationError):
            fiber_path_length(spec, pts, 1.0)


class TestReversibilityCriterion:
    def test_equilibrium_directions_produce_no_eta(self):
        # ker eta along the Legendrian: no entropy production happens there
        batch_lams = np.linspace(-1.5, 1.5, 11)
        h = 1e-5
        for lam in batch_lams:
            plus = gibbs_point(QUBIT, [lam + h])
            minus = gibbs_point(QUBIT, [lam - h])
            v = TangentVector(
                (plus.S - minus.S) / (2 * h),
                (plus.a - minus.a) / (2 * h),
                np.array([1.0]),
            )
            p = equilibrium_point(QUBIT, [lam])
            assert abs(eta_eval(p, v)) < 1e-9
