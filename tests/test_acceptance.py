"""Acceptance suite: one test per release criterion, one printed line each.

Tolerances are pinned here, not tuned at run time; each criterion prints
`[acceptance] <name>: PASS/FAIL` plus its measured runtime.
"""

import math
import time
from pathlib import Path

import numpy as np

from thermogeom.cli import main as cli_main
from thermogeom.connection import (
    ConnectionSpec,
    holonomy_via_curvature,
    holonomy_via_lift,
    rectangle_loop,
)
from thermogeom.contact import (
    ThermoPoint,
    contact_volume_coefficient,
    legendrian_residual,
    wedge_top_coefficient,
)
from thermogeom.geometry import bw_distance, injectivity_diagnostic, metric_grid, metric_tensor
from thermogeom.gibbs import ObservableSet, gibbs_point
from thermogeom.linalg import HermitianOperator
from thermogeom.processes import (
    GeodesicProblem,
    boundary_entropy_limit,
    discrete_path_energy,
    entropy_production,
    geodesic_between,
    segment_speed_profile,
    straight_path,
    thermo_length,
    third_law_scan,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
QUBIT = ObservableSet([HermitianOperator(SIGMA_Z)], ["sz"])
TWO_QUBIT = ObservableSet(
    [
        HermitianOperator(np.kron(SIGMA_Z, np.eye(2))),
        HermitianOperator(np.kron(np.eye(2), SIGMA_Z)),
    ],
    ["z1", "z2"],
)
QUTRIT_P0 = ObservableSet([HermitianOperator(np.diag([1.0, 0.0, 0.0]))], ["P0"])

# The pinned infinitesimal BW constant: d^2 = c * g * eps^2 with c = 1/4.
PINNED_BW_RATIO = 0.25


def gudermannian(x):
    return 2.0 * math.atan(math.tanh(x / 2.0))


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _criterion(name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.2f}s < {budget:g}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.2f}s over budget {budget}s"


def test_qubit_metric_oracle():
    with _Timer() as t:
        lams = np.linspace(-2.0, 2.0, 81)
        g = metric_grid(QUBIT, lams[:, None])[:, 0, 0]
        expected = 1.0 / np.cosh(lams) ** 2
        worst = float(np.abs(g - expected).max())
    _criterion(
        "qubit metric matches sech^2 on 81 points",
        worst < 1e-7,
        f"max |g - sech^2| = {worst:.2e}",
        t.elapsed,
        1.0,
    )


def test_distance_metric_consistency():
    with _Timer() as t:
        ratios = []
        for lam in (-1.0, 0.0, 0.5, 1.5):
            g = metric_tensor(QUBIT, [lam]).g[0, 0]
            rho = gibbs_point(QUBIT, [lam]).rho
            for eps in (1e-3, 5e-4):
                d = bw_distance(rho, gibbs_point(QUBIT, [lam + eps]).rho)
                ratios.append(d**2 / (g * eps**2))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        pin_err = abs(np.mean(ratios) - PINNED_BW_RATIO) / PINNED_BW_RATIO
    _criterion(
        "bw_distance^2 / (g eps^2) is one constant",
        spread < 0.02 and pin_err < 0.02,
        f"spread {spread:.2%}, mean {np.mean(ratios):.6f} vs pinned {PINNED_BW_RATIO}",
        t.elapsed,
        1.0,
    )


def test_legendrian_residual():
    with _Timer() as t:
        qubit_grid = np.linspace(-2.0, 2.0, 81)[:, None]
        r1 = legendrian_residual(QUBIT, qubit_grid)
        axis = np.linspace(-1.5, 1.5, 7)
        pair_grid = np.stack(
            np.meshgrid(axis, axis, indexing="ij"), axis=-1
        ).reshape(-1, 2)
        r2 = legendrian_residual(TWO_QUBIT, pair_grid)
    _criterion(
        "legendrian residual vanishes on equilibrium",
        r1 < 1e-8 and r2 < 1e-7,
        f"qubit {r1:.2e} < 1e-8, two-qubit {r2:.2e} < 1e-7",
        t.elapsed,
        2.0,
    )


def test_thermodynamic_length_oracle():
    with _Timer() as t:
        report = thermo_length(QUBIT, straight_path([0.0], [1.0], steps=512))
        expected = 2.0 * math.atan(math.tanh(0.5))
        err = abs(report.length - expected)
    _criterion(
        "qubit path length equals 2 atan(tanh 1/2)",
        err < 1e-4,
        f"|L - {expected:.6f}| = {err:.2e}",
        t.elapsed,
        1.0,
    )


def test_quasistatic_scaling():
    with _Timer() as t:
        products = []
        for duration in (1.0, 2.0, 4.0, 8.0):
            path = straight_path([0.0], [1.0], steps=64, duration=duration)
            _, total = entropy_production(QUBIT, path)
            products.append(duration * total)
        spread = (max(products) - min(products)) / np.mean(products)
    _criterion(
        "entropy production scales as 1/T",
        spread < 0.01,
        f"T*Sigma spread {spread:.2%}",
        t.elapsed,
        2.0,
    )


def test_geodesic_optimality():
    with _Timer() as t:
        start, end = np.array([-1.2, 0.0]), np.array([1.2, 1.5])
        problem = GeodesicProblem(
            start, end, interior_points=15, max_iters=800, tolerance=2e-5
        )
        path, report, record = geodesic_between(TWO_QUBIT, problem)
        straight_energy = discrete_path_energy(
            TWO_QUBIT, straight_path(start, end, steps=16).samples, 1.0
        )
        beats_straight = record.energy_final <= straight_energy + 1e-12
        speeds = segment_speed_profile(TWO_QUBIT, path.samples, path.duration)
        speed_spread = (speeds.max() - speeds.min()) / speeds.mean()
        rng = np.random.default_rng(20250810)
        interior = path.samples[1:-1]
        times = path.times[1:-1]
        worst_gain = 0.0
        for _ in range(20):
            coeffs = rng.normal(size=(3, 2))
            delta = sum(
                coeffs[m - 1][None, :] * np.sin(math.pi * m * times / path.duration)[:, None]
                for m in (1, 2, 3)
            )
            delta *= 1e-3 / np.abs(delta).max()
            trial = path.samples.copy()
            trial[1:-1] = interior + delta
            trial_energy = discrete_path_energy(TWO_QUBIT, trial, path.duration)
            worst_gain = max(worst_gain, record.energy_final - trial_energy)
        ok = (
            beats_straight
            and speed_spread < 0.02
            and worst_gain <= 1e-9
            and record.converged
        )
    _criterion(
        "geodesic beats straight line, constant speed, locally optimal",
        ok,
        f"dE {straight_energy - record.energy_final:.3e}, speed spread "
        f"{speed_spread:.2%}, best perturbation gain {worst_gain:.2e}",
        t.elapsed,
        30.0,
    )


def test_holonomy_stokes_equivalence():
    with _Timer() as t:
        area_spec = ConnectionSpec.parsed("1", ["0", "l1"], 2)
        square = rectangle_loop([0.0, 0.0], [1.0, 1.0], steps=256)
        p0 = ThermoPoint(0.0, np.zeros(2), np.zeros(2))
        lift = holonomy_via_lift(area_spec, square, p0).dS
        surf = holonomy_via_curvature(
            area_spec, [0.0, 0.0], [1.0, 1.0], 0, 1, grid=(64, 64)
        ).dS
        flat_hols = []
        for g_s, h in (
            ("1", ["0", "0"]),
            ("2", ["3*2", "0.5*2"]),  # h = const * g_S
            ("1", ["l2", "l1"]),  # gradient of l1*l2
        ):
            spec = ConnectionSpec.parsed(g_s, h, 2)
            flat_hols.append(abs(holonomy_via_lift(spec, square, p0).dS))
            flat_hols.append(
                abs(
                    holonomy_via_curvature(
                        spec, [0.0, 0.0], [1.0, 1.0], 0, 1, grid=(64, 64)
                    ).dS
                )
            )
        worst_flat = max(flat_hols)
        ok = (
            abs(lift + 1.0) < 1e-6
            and abs(surf + 1.0) < 1e-6
            and worst_flat < 1e-10
        )
    _criterion(
        "holonomy: lift = curvature flux = -area; flat specs vanish",
        ok,
        f"lift {lift:.9f}, flux {surf:.9f}, max flat |Hol| {worst_flat:.1e}",
        t.elapsed,
        1.0,
    )


def test_boundary_entropy_limits():
    with _Timer() as t:
        qubit_scan = boundary_entropy_limit(QUBIT, [1.0], [1.0, 4.0, 16.0])
        qutrit_scan = boundary_entropy_limit(QUTRIT_P0, [1.0], [1.0, 4.0, 16.0])
        s_qubit = float(qubit_scan.entropies[-1])
        gap_qutrit = abs(float(qutrit_scan.gaps[-1]))
        ok = (
            qubit_scan.ground_degeneracy == 1
            and s_qubit < 1e-6
            and qutrit_scan.ground_degeneracy == 2
            and gap_qutrit < 1e-6
        )
    _criterion(
        "boundary entropies reach ln k",
        ok,
        f"qubit S(16) = {s_qubit:.2e} -> ln 1, qutrit |S(16) - ln 2| = {gap_qutrit:.2e}",
        t.elapsed,
        1.0,
    )


def test_third_law_scan_monotone():
    with _Timer() as t:
        lambdas = [1.0, 2.0, 4.0, 8.0, 16.0]
        qubit_scan = third_law_scan(QUBIT, [1.0], lambdas)
        pair_scan = third_law_scan(TWO_QUBIT, [0.6, 0.8], [0.5, 1.0, 2.0, 4.0])
        qutrit_scan = third_law_scan(QUTRIT_P0, [1.0], [0.5, 1.0, 2.0, 4.0])
        monotone = all(
            np.all(np.diff(scan.lengths) >= -1e-12)
            for scan in (qubit_scan, pair_scan, qutrit_scan)
        )
        shrinking = bool(np.all(np.diff(qubit_scan.increments) < 0))
    _criterion(
        "third-law scans monotone; qubit tail increments shrink",
        monotone and shrinking,
        f"qubit L(16) = {qubit_scan.lengths[-1]:.6f} (pi/2 = {math.pi/2:.6f}), "
        f"last increment {qubit_scan.increments[-1]:.2e}",
        t.elapsed,
        1.0,
    )


def test_zeroth_law_diagnostic():
    with _Timer() as t:
        _, rank_qubit = injectivity_diagnostic(QUBIT, [0.5])
        _, rank_pair = injectivity_diagnostic(TWO_QUBIT, [0.3, -0.7])
        zx = ObservableSet([HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)])
        _, rank_zx = injectivity_diagnostic(zx, [0.4, 0.2])
        redundant = ObservableSet(
            [HermitianOperator(SIGMA_Z), HermitianOperator(2 * SIGMA_Z)]
        )
        _, rank_red = injectivity_diagnostic(redundant, [0.3, 0.1])
        ok = (
            rank_qubit == 1
            and rank_pair == 2
            and rank_zx == 2
            and rank_red == 1
            and not redundant.independent
        )
    _criterion(
        "zeroth-law covariance rank detects redundancy",
        ok,
        f"independent ranks (1, 2, 2), redundant pair rank {rank_red} < 2",
        t.elapsed,
        1.0,
    )


def test_contact_non_degeneracy():
    with _Timer() as t:
        values = {n: contact_volume_coefficient(n) for n in range(1, 7)}
        alpha = np.zeros(5)
        alpha[0] = 1.0
        degenerate = wedge_top_coefficient(alpha, np.zeros((5, 5)), 2)
        ok = all(v != 0.0 for v in values.values()) and degenerate == 0.0
    _criterion(
        "contact volume coefficient nonzero for n=1..6; dS form degenerate",
        ok,
        f"values {list(values.values())}, degenerate {degenerate}",
        t.elapsed,
        0.1,
    )


SHIPPED_RUNS = [
    ("gibbs", "run_gibbs.json"),
    ("metric", "run_metric.json"),
    ("length", "run_length.json"),
    ("entropy-production", "run_entropy_production.json"),
    ("geodesic", "run_geodesic.json"),
    ("third-law", "run_third_law.json"),
    ("boundary-entropy", "run_boundary_entropy.json"),
    ("contact-check", "run_contact_check.json"),
    ("holonomy", "run_holonomy.json"),
    ("curvature-map", "run_curvature_map.json"),
    ("flatness", "run_flatness.json"),
]


def test_cli_determinism(tmp_path):
    with _Timer() as t:
        mismatches = []
        for command, config in SHIPPED_RUNS:
            for fmt in ("json", "csv"):
                artifacts = []
                for attempt in ("a", "b"):
                    out = tmp_path / f"{command}-{attempt}.{fmt}"
                    code = cli_main(
                        [
                            command,
                            "--config",
                            str(CONFIG_DIR / config),
                            "--out",
                            str(out),
                            "--format",
                            fmt,
                        ]
                    )
                    assert code == 0, f"{command} exited {code}"
                    artifacts.append(out.read_bytes())
                if artifacts[0] != artifacts[1]:
                    mismatches.append(f"{command}/{fmt}")
    _criterion(
        "CLI artifacts byte-identical across runs",
        not mismatches,
        f"checked {len(SHIPPED_RUNS)} subcommands x 2 formats"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
        t.elapsed,
        60.0,
    )
