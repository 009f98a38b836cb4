import json
import math

import numpy as np
import pytest

from thermogeom.cli import main
from thermogeom.connection import (
    ConnectionSpec,
    HolonomyResult,
    Loop,
    curvature,
    flatness_check,
    gamma_coeffs,
    holonomy_via_curvature,
    holonomy_via_lift,
    horizontal_lift,
    rectangle_loop,
)
from thermogeom.contact import MMetricSpec, ThermoPoint, fiber_path_length
from thermogeom.errors import DegenerateMetricError, ValidationError
from thermogeom.processes import ParamPath


def spec2(g_S="1", h=("0", "0"), fd_step=1e-5):
    return ConnectionSpec.parsed(g_S, list(h), 2, fd_step)


def point(lam, n=None):
    lam = np.asarray(lam, dtype=float)
    n = lam.size if n is None else n
    return ThermoPoint(0.0, np.zeros(n), lam)


def line_path(lam_a, lam_b, steps=64, duration=1.0):
    a = np.asarray(lam_a, dtype=float)
    b = np.asarray(lam_b, dtype=float)
    ts = np.linspace(0.0, 1.0, steps + 1)[:, None]
    return ParamPath(duration, a + ts * (b - a))


UNIT_SQUARE = rectangle_loop([0.0, 0.0], [1.0, 1.0], steps=256)


class TestGammaCoeffs:
    def test_zero_h_gives_zero_gamma(self):
        out = gamma_coeffs(spec2(), [0.3, 0.7])
        assert np.array_equal(out.entropy, [0.0, 0.0])
        assert np.array_equal(out.expectation, np.zeros((2, 2)))

    def test_scalar_division(self):
        out = gamma_coeffs(spec2(g_S="2", h=("4", "0")), [0.0, 0.0])
        assert out.entropy[0] == pytest.approx(2.0)

    def test_expression_evaluation(self):
        out = gamma_coeffs(spec2(h=("l2", "0")), [0.3, 0.7])
        assert out.entropy[0] == pytest.approx(0.7, rel=1e-14)

    def test_degenerate_g_S(self):
        spec = spec2(g_S="l1")
        with pytest.raises(DegenerateMetricError):
            gamma_coeffs(spec, [0.0, 1.0])


class TestHorizontalLift:
    def test_flat_connection_lifts_constant(self):
        lift = horizontal_lift(spec2(), line_path([0, 0], [1, 1]), point([0, 0]))
        assert all(q.S == 0.0 for q in lift)
        assert all(np.array_equal(q.a, [0.0, 0.0]) for q in lift)

    def test_constant_gamma_integrates_exactly(self):
        spec = spec2(h=("1", "0"))  # Gamma^1_0 = 1
        lift = horizontal_lift(spec, line_path([0, 0], [1, 0]), point([0, 0]))
        assert lift[-1].S == pytest.approx(-1.0, abs=1e-12)

    def test_gradient_field_loop_closes(self):
        # Gamma = grad of phi(l1,l2) = sin(l1 l2): exact line integral is 0
        spec = spec2(h=("l2*cos(l1*l2)", "l1*cos(l1*l2)"))
        lift = horizontal_lift(spec, UNIT_SQUARE.path, point([0, 0]))
        assert abs(lift[-1].S - lift[0].S) < 1e-8

    def test_projection_invariant(self):
        base = line_path([0.2, -0.4], [1.0, 0.8])
        lift = horizontal_lift(spec2(h=("l1", "l2")), base, point([0.2, -0.4]))
        for q, row in zip(lift, base.samples):
            assert np.array_equal(q.lam, row)

    def test_base_point_compatibility_checked(self):
        with pytest.raises(ValidationError):
            horizontal_lift(spec2(), line_path([0, 0], [1, 0]), point([0.5, 0]))


class TestCurvature:
    def test_gradient_field_is_flat(self):
        spec = spec2(h=("l2*cos(l1*l2)", "l1*cos(l1*l2)"))
        for lam in ([0.0, 0.0], [0.5, -0.3], [1.0, 1.0]):
            assert abs(curvature(spec, lam, 0, 1)) < 1e-8

    def test_unit_curvature(self):
        spec = spec2(h=("0", "l1"))
        for lam in ([0.0, 0.0], [0.7, 0.2], [-1.0, 3.0]):
            assert curvature(spec, lam, 0, 1) == pytest.approx(1.0, abs=1e-9)

    def test_antisymmetry(self):
        spec = spec2(h=("sin(l2)", "l1*l2"))
        lam = [0.4, 1.3]
        r_kl = curvature(spec, lam, 0, 1)
        r_lk = curvature(spec, lam, 1, 0)
        assert abs(r_kl + r_lk) < 1e-12

    def test_needs_two_parameters(self):
        spec = ConnectionSpec.parsed("1", ["0"], 1)
        with pytest.raises(ValidationError):
            curvature(spec, [0.0], 0, 0)


class TestHolonomy:
    def test_flat_spec_any_loop(self):
        result = holonomy_via_lift(spec2(), UNIT_SQUARE, point([0, 0]))
        assert abs(result.dS) < 1e-10
        assert np.array_equal(result.da, [0.0, 0.0])
        assert result.method == "lift"

    def test_area_holonomy_ccw_square(self):
        spec = spec2(h=("0", "l1"))
        result = holonomy_via_lift(spec, UNIT_SQUARE, point([0, 0]))
        assert result.dS == pytest.approx(-1.0, abs=1e-6)

    def test_orientation_reversal_flips_sign(self):
        spec = spec2(h=("0", "l1"))
        reversed_loop = Loop(
            ParamPath(1.0, UNIT_SQUARE.path.samples[::-1].copy())
        )
        result = holonomy_via_lift(spec, reversed_loop, point([0, 0]))
        assert result.dS == pytest.approx(1.0, abs=1e-6)

    def test_curvature_integral_constant_r(self):
        spec = spec2(h=("0", "l1"))  # R = 1 on the unit square
        result = holonomy_via_curvature(spec, [0, 0], [1, 1], 0, 1, grid=(64, 64))
        assert result.dS == pytest.approx(-1.0, abs=1e-9)
        assert result.method == "curvature-integral"

    def test_curvature_integral_iterated(self):
        spec = spec2(h=("0", "l1*l2"))  # R = l2, integral over square = 1/2
        result = holonomy_via_curvature(spec, [0, 0], [1, 1], 0, 1, grid=(64, 64))
        assert result.dS == pytest.approx(-0.5, abs=1e-6)

    def test_zero_area_rectangle(self):
        spec = spec2(h=("0", "l1"))
        result = holonomy_via_curvature(spec, [0.3, 0.1], [0.3, 0.9], 0, 1)
        assert result.dS == 0.0

    def test_stokes_equivalence_smooth_spec(self):
        spec = spec2(g_S="1+l2^2", h=("0", "sin(l1)*(1+l2^2)"))
        # Gamma^2_0 = sin(l1) so R_12 = cos(l1); flux over square = sin(1)
        loop = rectangle_loop([0.0, 0.0], [1.0, 1.0], steps=256)
        lift = holonomy_via_lift(spec, loop, point([0, 0]))
        surf = holonomy_via_curvature(spec, [0, 0], [1, 1], 0, 1, grid=(128, 128))
        assert abs(lift.dS - surf.dS) <= 1e-5
        assert lift.dS == pytest.approx(-math.sin(1.0), abs=1e-5)

    def test_loop_concatenation_is_additive(self):
        spec = spec2(h=("0", "l1*l1"))
        left = rectangle_loop([0.0, 0.0], [1.0, 1.0], steps=256)
        right = rectangle_loop([1.0, 0.0], [2.0, 1.0], steps=256)
        big = rectangle_loop([0.0, 0.0], [2.0, 1.0], steps=512)
        h_left = holonomy_via_lift(spec, left, point([0, 0])).dS
        h_right = holonomy_via_lift(spec, right, point([1, 0])).dS
        h_big = holonomy_via_lift(spec, big, point([0, 0])).dS
        assert abs(h_big - (h_left + h_right)) < 1e-8

    def test_independent_of_vertical_base_point(self):
        spec = spec2(h=("0", "l1"))
        a = holonomy_via_lift(
            spec, UNIT_SQUARE, ThermoPoint(0.0, np.zeros(2), np.zeros(2))
        )
        b = holonomy_via_lift(
            spec, UNIT_SQUARE, ThermoPoint(55.0, np.array([3.0, -2.0]), np.zeros(2))
        )
        assert a.dS == b.dS

    def test_lift_never_moves_expectations(self):
        spec = spec2(h=("l2", "l1*l2"))
        lift = horizontal_lift(spec, UNIT_SQUARE.path, point([0, 0]))
        for q in lift:
            assert np.array_equal(q.a, [0.0, 0.0])

    def test_nonzero_holonomy_costs_vertical_length(self):
        # closing the lifted loop vertically has strictly positive cost
        spec = spec2(h=("0", "l1"))
        hol = holonomy_via_lift(spec, UNIT_SQUARE, point([0, 0]))
        assert abs(hol.dS) > 0
        vertical = MMetricSpec.parsed("1", ["1", "1"], ["0", "0"], 2)
        lam = UNIT_SQUARE.path.samples[0]
        ends = [
            ThermoPoint(0.0 + hol.dS * t, np.zeros(2), lam)
            for t in np.linspace(0.0, 1.0, 9)
        ]
        assert fiber_path_length(vertical, ends, 1.0) > 0.9 * abs(hol.dS)


class TestLoopValidation:
    def test_open_path_rejected(self):
        with pytest.raises(ValidationError):
            Loop(line_path([0, 0], [1, 0], steps=32))

    def test_minimum_steps(self):
        tiny = rectangle_loop([0, 0], [1, 1], steps=16)
        assert tiny.path.steps >= 16
        samples = np.zeros((13, 2))
        with pytest.raises(ValidationError):
            Loop(ParamPath(1.0, samples))


class TestFlatness:
    def test_h_proportional_to_g_S_is_flat(self):
        spec = spec2(g_S="1+l1^2", h=("3*(1+l1^2)", "0.5*(1+l1^2)"))
        grid = np.stack(
            np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5), indexing="ij"),
            axis=-1,
        ).reshape(-1, 2)
        report = flatness_check(spec, grid)
        assert report.flat
        assert report.max_abs_curvature < 1e-7

    def test_explicit_gradient_is_flat(self):
        spec = spec2(h=("l2*cos(l1*l2)", "l1*cos(l1*l2)"))
        grid = np.stack(
            np.meshgrid(np.linspace(-1, 1, 4), np.linspace(-1, 1, 4), indexing="ij"),
            axis=-1,
        ).reshape(-1, 2)
        assert flatness_check(spec, grid).flat

    def test_area_spec_is_not_flat(self):
        spec = spec2(h=("0", "l1"))
        grid = np.array([[0.0, 0.0], [0.5, 0.5]])
        report = flatness_check(spec, grid)
        assert not report.flat
        assert report.max_abs_curvature == pytest.approx(1.0, abs=1e-8)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            flatness_check(spec2(), np.empty((0, 2)))


class TestHolonomyResult:
    def test_nonzero_da_rejected(self):
        with pytest.raises(ValidationError):
            HolonomyResult(dS=0.1, da=np.array([1.0]), method="lift")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            HolonomyResult(dS=0.0, da=np.zeros(1), method="guess")


class TestPlaneValidation:
    @pytest.mark.parametrize("k, l", [(0, 2), (2, 0), (0, 0), (1, 1), (-1, 1)])
    def test_curvature_integral_rejects_invalid_plane(self, k, l):
        with pytest.raises(ValidationError):
            holonomy_via_curvature(spec2(h=("0", "l1")), [0, 0], [1, 1], k, l, grid=(4, 4))


# a curved n = 3 spec: R_kl is nonzero and varies in every plane
CURVED3 = ConnectionSpec.parsed(
    "1+0.3*l1^2+0.2*exp(sin(l2))",
    ["l2*l3+sin(l1)", "cos(l1*l3)-l3^2", "l1*l2/(2+l3^2)+tanh(l2)"],
    3,
)
PAIRS3 = [(0, 1), (0, 2), (1, 2), (2, 0)]
POINTS3 = np.random.default_rng(7).uniform(-0.8, 0.8, (40, 3))
TS = np.linspace(0.0, 1.0, 25)


def pointwise_curvature(spec, pts, k, l):
    return np.array([curvature(spec, p, k, l) for p in pts])


def tap_loop_curvature(spec, lam, k, l):
    """Oracle: fourth-order differences of gamma, one single-point tap at a time."""

    def derivative(i, j):  # d gamma_j / d lam_i
        total = 0.0
        for offset, weight in zip((-2, -1, 1, 2), (1, -8, 8, -1)):
            tap = lam.copy()
            tap[i] += offset * spec.fd_step
            total += weight * spec.gamma(tap)[j]
        return total / (12.0 * spec.fd_step)

    return derivative(k, l) - derivative(l, k)


def assert_rel_close(batched, pointwise, rel=1e-12):
    np.testing.assert_allclose(batched, pointwise, rtol=0.0, atol=rel * np.max(np.abs(pointwise)))


def sequential_lift(spec, path, s0):
    """RK4 of S' = -Gamma . lam' one segment at a time, gamma at single points."""
    dt = path.duration / path.steps
    s = [s0]
    for a, b in zip(path.samples[:-1], path.samples[1:]):
        vel = (b - a) / dt
        rates = [-float(spec.gamma(lam) @ vel) for lam in (a, 0.5 * (a + b), b)]
        s.append(s[-1] + (dt / 6.0) * (rates[0] + 4.0 * rates[1] + rates[2]))
    return np.array(s)


class TestBatchedMatchesPointwise:
    def test_gamma_maps_any_leading_shape(self):
        lams = POINTS3[:12].reshape(3, 4, 3)
        out = CURVED3.gamma(lams)
        assert out.shape == (3, 4, 3)
        expect = np.array([CURVED3.gamma(p) for p in POINTS3[:12]]).reshape(3, 4, 3)
        assert_rel_close(out, expect)

    def test_gamma_degenerate_names_first_point(self):
        spec = spec2(g_S="l1")
        with pytest.raises(DegenerateMetricError, match=r"\[0\.0, 5\.0\]"):
            spec.gamma(np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 7.0]]))

    def test_curvature_shapes(self):
        assert isinstance(curvature(CURVED3, POINTS3[0], 0, 1), float)
        assert curvature(CURVED3, POINTS3, 0, 1).shape == (40,)
        assert curvature(CURVED3, POINTS3[:1], 0, 1).shape == (1,)
        assert np.array_equal(curvature(CURVED3, POINTS3, 1, 1), np.zeros(40))

    @pytest.mark.parametrize("k, l", PAIRS3)
    def test_curvature_batch(self, k, l):
        batched = curvature(CURVED3, POINTS3, k, l)
        assert_rel_close(batched, pointwise_curvature(CURVED3, POINTS3, k, l))
        assert np.min(np.abs(batched)) > 1e-3  # the spec is curved here

    @pytest.mark.parametrize("k, l", PAIRS3)
    def test_curvature_matches_a_per_tap_loop(self, k, l):
        expect = np.array([tap_loop_curvature(CURVED3, lam, k, l) for lam in POINTS3])
        assert_rel_close(curvature(CURVED3, POINTS3, k, l), expect, rel=1e-10)

    @pytest.mark.parametrize("k, l", [(0, 1), (2, 1)])
    def test_holonomy_via_curvature(self, k, l):
        lo, hi, base = [-0.4, 0.1], [0.5, 0.7], np.array([0.3, -0.2, 0.6])
        grid = (8, 6)
        xs = np.linspace(lo[0], hi[0], grid[0] + 1)
        ys = np.linspace(lo[1], hi[1], grid[1] + 1)
        values = np.empty((xs.size, ys.size))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                lam = base.copy()
                lam[k], lam[l] = x, y
                values[i, j] = curvature(CURVED3, lam, k, l)
        wx, wy = np.ones(xs.size), np.ones(ys.size)
        wx[[0, -1]] = wy[[0, -1]] = 0.5
        expect = -(xs[1] - xs[0]) * (ys[1] - ys[0]) * float(wx @ values @ wy)
        got = holonomy_via_curvature(CURVED3, lo, hi, k, l, grid=grid, base=base).dS
        assert got == pytest.approx(expect, rel=1e-12)

    def test_flatness_check(self):
        expect = max(
            float(np.max(np.abs(pointwise_curvature(CURVED3, POINTS3, k, l))))
            for k, l in [(0, 1), (0, 2), (1, 2)]
        )
        report = flatness_check(CURVED3, POINTS3)
        assert report.max_abs_curvature == pytest.approx(expect, rel=1e-12)
        assert not report.flat

    def test_curvature_map_rows(self, tmp_path):
        pauli = [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]],
        ]
        doc = {
            "observables": {
                "dim": 2,
                "observables": [{"name": f"s{i}", "matrix": m} for i, m in enumerate(pauli)],
            },
            "connection": {
                "g_S": "1+0.3*l1^2+0.2*exp(sin(l2))",
                "h": ["l2*l3+sin(l1)", "cos(l1*l3)-l3^2", "l1*l2/(2+l3^2)+tanh(l2)"],
            },
            "curvature_map": {
                "grid": {"start": [-0.5, 0.0, 0.2], "stop": [0.5, 0.6, 0.4], "num": [3, 4, 2]}
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "map.json"
        assert main(["curvature-map", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["columns"] == ["l1", "l2", "l3", "R_1_2", "R_1_3", "R_2_3"]
        rows = np.array(result["rows"])
        assert rows.shape == (24, 6)
        for col, (k, l) in enumerate([(0, 1), (0, 2), (1, 2)], start=3):
            assert_rel_close(rows[:, col], pointwise_curvature(CURVED3, rows[:, :3], k, l))

    @pytest.mark.parametrize(
        "path",
        [
            rectangle_loop([-0.3, 0.1], [0.6, 0.9], 0, 2, steps=64, n=3, base=[0.0, 0.4, 0.0]).path,
            ParamPath(2.0, np.stack([0.5 * np.sin(6 * TS), 0.3 * np.cos(TS), TS**2 - 0.2], axis=1)),
        ],
    )
    def test_horizontal_lift_matches_sequential_rk4(self, path):
        p0 = ThermoPoint(0.25, np.array([1.0, 2.0, 3.0]), path.samples[0])
        expect = sequential_lift(CURVED3, path, 0.25)
        lift = horizontal_lift(CURVED3, path, p0)
        assert len(lift) == path.steps + 1
        np.testing.assert_allclose([q.S for q in lift], expect, rtol=0.0, atol=1e-13)
        assert all(np.array_equal(q.a, p0.a) for q in lift)

    def test_holonomy_via_lift_matches_sequential_rk4(self):
        loop = rectangle_loop([-0.3, 0.1], [0.6, 0.9], 1, 2, steps=64, n=3, base=[0.2, 0.0, 0.0])
        p0 = point(loop.path.samples[0])
        s = sequential_lift(CURVED3, loop.path, 0.0)
        assert holonomy_via_lift(CURVED3, loop, p0).dS == pytest.approx(s[-1] - s[0], abs=1e-13)
