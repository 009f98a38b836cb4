"""metric-sweep: batched metric evaluation over seeded non-commuting families.

Where the time goes: `gibbs_batch` eigendecompositions (1 + 4n per metric
point) inside `metric_grid`.  The batch spread (16 to 2000 points) moves
the stencil working set from inside L2 to well beyond it, and the
quadrature, scan, boundary and Legendrian ops reach the same layers
through their own public entry points.  No expression is evaluated here.
"""

from __future__ import annotations

import math

import numpy as np

from common import (
    PAULI_FAMILIES,
    SIZES,
    Op,
    close,
    gd,
    matrix_to_json,
    metric_mismatch,
    qubit_metric,
    random_hermitian,
    reference_metric,
    size_label,
    stream,
)

# metric_grid batch sizes per (m, n): small, medium, large
BATCHES = {(2, 1): (16, 256, 2000), (4, 3): (16, 256, 2000), (8, 8): (16, 64, 256), (16, 4): (16, 64, 256)}
# rows per metric_grid call checked against the closed-form oracle
CHECKED_ROWS = 3
# typical spectral spread of H at the ordinary points, and the high-|lambda| slice
ORDINARY_SPREAD = (0.5, 4.0)
HIGH_SPREAD = {(2, 1): (8.0, 16.0), (4, 3): (8.0, 14.0)}
METRIC_RTOL = 1e-5
QUADRATURE_STEPS = 128
SCAN_STEPS = 256
# spectrum of the degenerate observable used for the ln k boundary limit
BOUNDARY_SPECTRUM = {4: (0.0, 0.0, 1.0, 1.5), 8: (0.0, 0.0, 0.0, 0.7, 1.0, 1.2, 1.6, 2.0)}
BOUNDARY_LAMBDAS = (0.0, 2.0, 8.0, 64.0)


def _family_name(m: int, n: int) -> str:
    return f"rand-{size_label(m, n)}"


def _boundary_name(m: int) -> str:
    return f"boundary-m{m}"


class MetricSweep:
    nominal_rotation_s = 2.6

    def __init__(self, seed: int, root, tmp) -> None:
        self.seed = seed
        self.stacks: dict[str, np.ndarray] = {}
        for i, (m, n) in enumerate(SIZES):
            rng = stream(seed, 0, i)
            self.stacks[_family_name(m, n)] = np.stack([random_hermitian(rng, m) for _ in range(n)])
        for m, spectrum in BOUNDARY_SPECTRUM.items():
            rng = stream(seed, 1, m)
            q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
            first = (q * np.asarray(spectrum)) @ q.conj().T
            rest = [random_hermitian(rng, m) for _ in range(2)]
            self.stacks[_boundary_name(m)] = np.stack([(first + first.conj().T) / 2, *rest])
        for key, mats in PAULI_FAMILIES.items():
            self.stacks[key] = np.stack(mats)
        self.tg = None
        self.families = {}

    def setup_spec(self) -> dict:
        return {"families": {k: [matrix_to_json(a) for a in s] for k, s in self.stacks.items()}}

    def build(self, tg, objects: dict) -> None:
        self.tg = tg
        self.families = objects["families"]

    # ---- input generation -------------------------------------------------

    def _points(self, rng, key: str, count: int, spread: tuple[float, float]) -> np.ndarray:
        """Random directions scaled so the spread of H lies in `spread`."""
        stack = self.stacks[key]
        d = rng.normal(size=(count, stack.shape[0]))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        w = np.linalg.eigvalsh(np.einsum("pk,kij->pij", d, stack))
        return d * (rng.uniform(*spread, size=count) / (w[:, -1] - w[:, 0]))[:, None]

    # ---- ops ---------------------------------------------------------------

    def rotation(self, r: int) -> list[Op]:
        ops: list[Op] = []
        tg = self.tg
        for i, (m, n) in enumerate(SIZES):
            key = _family_name(m, n)
            for b, count in enumerate(BATCHES[(m, n)]):
                rng = stream(self.seed, 2, r, i, b)
                pts = self._points(rng, key, count, ORDINARY_SPREAD)
                ops.append(self._grid_op(f"metric_grid.{size_label(m, n)}.P{count}", key, pts, rng))
            if (m, n) in HIGH_SPREAD:
                count = 256 if m == 2 else 64
                rng = stream(self.seed, 3, r, i)
                pts = self._points(rng, key, count, HIGH_SPREAD[(m, n)])
                ops.append(self._grid_op(f"metric_grid.{size_label(m, n)}.high", key, pts, rng))

        rng = stream(self.seed, 4, r)
        lam = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        ops.append(self._tensor_op("metric_tensor.zx.sz-axis", "zx", np.array([lam, 0.0])))
        ops.append(self._tensor_op("metric_tensor.zxy", "zxy", rng.uniform(-1.5, 1.5, 3)))
        key = _family_name(4, 3)
        ops.append(self._tensor_op("metric_tensor.m4n3", key, self._points(rng, key, 1, ORDINARY_SPREAD)[0]))

        ends = self._points(rng, key, 2, ORDINARY_SPREAD)
        path = tg.straight_path(ends[0], ends[1], steps=QUADRATURE_STEPS, duration=rng.uniform(0.5, 2.0))
        kappa = rng.uniform(0.5, 2.0)
        ops.append(self._length_op(key, path))
        ops.append(self._entropy_op(key, path, kappa))

        ops.append(self._third_law_op(rng))
        for m in BOUNDARY_SPECTRUM:
            ops.append(self._boundary_op(m, rng))
        for m, n, count in ((4, 3, 64), (8, 8, 32)):
            key = _family_name(m, n)
            ops.append(self._legendrian_op(f"legendrian_residual.{size_label(m, n)}", key,
                                           self._points(rng, key, count, ORDINARY_SPREAD)))
        return ops

    def _grid_op(self, kind: str, key: str, pts: np.ndarray, rng) -> Op:
        geometry = self.tg.geometry
        obs = self.families[key]
        stack = self.stacks[key]
        rows = rng.choice(pts.shape[0], size=min(CHECKED_ROWS, pts.shape[0]), replace=False)

        def check(g) -> str | None:
            g = np.asarray(g)
            if g.shape != (pts.shape[0], stack.shape[0], stack.shape[0]):
                return f"metric_grid returned shape {g.shape}"
            if not np.all(np.isfinite(g)):
                return "metric_grid returned non-finite entries"
            for row in rows:
                bad = metric_mismatch(g[row], reference_metric(stack, pts[row]), METRIC_RTOL)
                if bad:
                    return f"row {row}: {bad}"
            return None

        return Op(kind, lambda: geometry.metric_grid(obs, pts), check, (key, pts))

    def _tensor_op(self, kind: str, key: str, lam: np.ndarray) -> Op:
        geometry = self.tg.geometry
        obs = self.families[key]
        expect = qubit_metric(lam) if key in PAULI_FAMILIES else reference_metric(self.stacks[key], lam)
        return Op(kind, lambda: geometry.metric_tensor(obs, lam),
                  lambda res: metric_mismatch(res.g, expect, METRIC_RTOL), (key, lam))

    def _reference_quadrature(self, key: str, path) -> tuple[float, float]:
        """Length and energy by the library's documented rule, on the oracle metric."""
        s = path.samples
        dt = path.duration / path.steps
        v = np.empty_like(s)
        v[1:-1] = (s[2:] - s[:-2]) / (2.0 * dt)
        v[0] = (s[1] - s[0]) / dt
        v[-1] = (s[-1] - s[-2]) / dt
        q = np.array([vk @ reference_metric(self.stacks[key], sk) @ vk for sk, vk in zip(s, v)])
        q = np.clip(q, 0.0, None)
        length = float((0.5 * (np.sqrt(q[:-1]) + np.sqrt(q[1:])) * dt).sum())
        energy = float((0.5 * (q[:-1] + q[1:]) * dt).sum())
        return length, energy

    def _length_op(self, key: str, path) -> Op:
        processes = self.tg.processes
        obs = self.families[key]

        def check(rep) -> str | None:
            length, energy = self._reference_quadrature(key, path)
            if not (close(rep.length, length, 1e-6, 1e-12) and close(rep.energy, energy, 1e-6, 1e-12)):
                return f"length/energy {rep.length!r}/{rep.energy!r}, oracle {length!r}/{energy!r}"
            return None

        return Op("thermo_length.m4n3", lambda: processes.thermo_length(obs, path), check,
                  (path.samples, path.duration))

    def _entropy_op(self, key: str, path, kappa: float) -> Op:
        processes = self.tg.processes
        obs = self.families[key]

        def check(res) -> str | None:
            _, energy = self._reference_quadrature(key, path)
            total = res[1]
            if not close(total, kappa * energy, 1e-6, 1e-12):
                return f"entropy production {total!r}, oracle {kappa * energy!r}"
            return None

        return Op("entropy_production.m4n3",
                  lambda: processes.entropy_production(obs, path, kappa), check,
                  (path.samples, path.duration, kappa))

    def _third_law_op(self, rng) -> Op:
        """On the (2, 1) family the length of the ray 0 -> L is gd(L |a|) exactly."""
        processes = self.tg.processes
        key = _family_name(2, 1)
        obs = self.families[key]
        a = self.stacks[key][0]
        half_gap = float(np.ptp(np.linalg.eigvalsh(a))) / 2.0
        lambdas = np.sort(rng.uniform(0.5, 6.0, 4) / half_gap)

        def check(scan) -> str | None:
            expect = np.array([gd(x * half_gap) for x in lambdas])
            err = float(np.max(np.abs(np.asarray(scan.lengths) - expect)))
            return None if err <= 1e-4 * float(expect.max()) else f"scan lengths off by {err:.3e}"

        return Op("third_law_scan.m2n1",
                  lambda: processes.third_law_scan(obs, [1.0], lambdas, steps=SCAN_STEPS), check,
                  (key, lambdas))

    def _boundary_op(self, m: int, rng) -> Op:
        """Entropy along the degenerate direction tends to ln k; exact at every Lambda."""
        processes = self.tg.processes
        key = _boundary_name(m)
        obs = self.families[key]
        spectrum = np.asarray(BOUNDARY_SPECTRUM[m])
        k = int(np.sum(spectrum == spectrum.min()))
        lambdas = np.array(BOUNDARY_LAMBDAS) * rng.uniform(0.9, 1.1)

        def check(scan) -> str | None:
            if scan.ground_degeneracy != k:
                return f"ground degeneracy {scan.ground_degeneracy}, expected {k}"
            for lam_, s in zip(lambdas, scan.entropies):
                p = np.exp(-lam_ * (spectrum - spectrum.min()))
                p = p[p > 0.0] / p.sum()
                exact = float(-(p * np.log(p)).sum())
                if not close(float(s), exact, 1e-9, 1e-12):
                    return f"S({lam_:.3g}) = {float(s)!r}, exact {exact!r}"
            if abs(float(scan.gaps[-1])) > 1e-9:
                return f"gap to ln {k} at the last Lambda is {float(scan.gaps[-1]):.3e}"
            return None

        direction = [1.0, 0.0, 0.0]
        return Op(f"boundary_entropy_limit.m{m}",
                  lambda: processes.boundary_entropy_limit(obs, direction, lambdas), check,
                  (key, lambdas))

    def _legendrian_op(self, kind: str, key: str, pts: np.ndarray) -> Op:
        contact = self.tg.contact
        obs = self.families[key]

        def check(res) -> str | None:
            return None if math.isfinite(res) and abs(res) <= 1e-7 else f"Legendrian residual {res!r}"

        return Op(kind, lambda: contact.legendrian_residual(obs, pts), check, (key, pts))
