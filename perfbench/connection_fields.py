"""connection-fields: curvature, holonomy and flatness on seeded connection specs.

No eigendecomposition runs in the hot path: the time is in `exprlang`
tree walks called from the `connection` loops (4 stencil taps x 2
partials x (1 + n) expressions per curvature point).  A small share runs
`MuExtension.validated` and `contact_volume_coefficient`.

The spec pool (built at set-up) mixes n = 2 and n = 3 with curved and
exact (flat) specs; a flat spec has h_k = g_S d_k(phi), so its curvature
vanishes identically.  All fields of one kind have the same shape, so the
cost of an op does not depend on the seed.  Oracles come from the benchmark's own calculus in
exprgen.py: the exact curvature, the same quadrature rules on exact
integrands, and the Stokes gap between lift and curvature holonomy.
"""

from __future__ import annotations

import math

import numpy as np

import exprgen
from common import PAULI_FAMILIES, Op, close, matrix_to_json, stream

POOL = 12  # specs per seed: index % 4 -> (n=2 curved, n=3 curved, n=2 flat, n=3 flat)
SPECS_PER_ROTATION = 4
HOLONOMY_GRID = 16
LOOP_STEPS = 128
FLATNESS_GRID = 4
CURVATURE_POINTS = 8
FLAT_TOL = 1e-7


class _Spec:
    """One generated spec: its fields as trees, texts and exact calculus."""

    def __init__(self, rng, n: int, flat: bool) -> None:
        self.n = n
        self.flat = flat
        self.g_s = exprgen.positive_field(rng, n)
        if flat:
            phi = exprgen.potential(rng, n)
            self.h = [exprgen.mul(self.g_s, exprgen.diff(phi, k)) for k in range(n)]
        else:
            self.h = [exprgen.field(rng, n) for _ in range(n)]
        self.gamma = [exprgen.div(h, self.g_s) for h in self.h]
        self.texts = {"g_S": exprgen.render(self.g_s), "h": [exprgen.render(h) for h in self.h], "n": n}
        self._partials = {
            (k, l): exprgen.diff(self.gamma[l], k) for k in range(n) for l in range(n) if k != l
        }

    def curvature(self, lam: np.ndarray, k: int, l: int) -> np.ndarray:
        """Exact R_kl = d_k Gamma_l - d_l Gamma_k at lam, shape (n, ...) -> (...)."""
        return exprgen.evaluate(self._partials[(k, l)], lam) - exprgen.evaluate(self._partials[(l, k)], lam)

    def roundoff_scale(self, lam: np.ndarray, k: int, l: int) -> float:
        """max |Gamma| + |d_k Gamma_l| + |d_l Gamma_k|: what finite-difference
        roundoff in R_kl is proportional to (an exact spec has R = 0 but not these)."""
        parts = [self.gamma_values(lam), exprgen.evaluate(self._partials[(k, l)], lam),
                 exprgen.evaluate(self._partials[(l, k)], lam)]
        return sum(float(np.max(np.abs(x))) for x in parts)

    def gamma_values(self, lam: np.ndarray) -> np.ndarray:
        return np.stack([exprgen.evaluate(g, lam) for g in self.gamma])


def _trapezoid_flux(spec: _Spec, lo, hi, k: int, l: int, base: np.ndarray, grid: int) -> float:
    """-(2-D trapezoid of exact R_kl), the rule holonomy_via_curvature uses."""
    xs = np.linspace(lo[0], hi[0], grid + 1)
    ys = np.linspace(lo[1], hi[1], grid + 1)
    lam = np.broadcast_to(base[:, None, None], (spec.n, grid + 1, grid + 1)).copy()
    lam[k], lam[l] = np.meshgrid(xs, ys, indexing="ij")
    w = np.ones(grid + 1)
    w[0] = w[-1] = 0.5
    dx, dy = (hi[0] - lo[0]) / grid, (hi[1] - lo[1]) / grid
    return -dx * dy * float(w @ spec.curvature(lam, k, l) @ w)


def _simpson_lift(spec: _Spec, samples: np.ndarray, duration: float) -> float:
    """Simpson rule of -Gamma . dlam on each segment, the rule horizontal_lift uses."""
    steps = samples.shape[0] - 1
    dt = duration / steps
    a, b = samples[:-1], samples[1:]
    vel = (b - a) / dt

    def rate(at: np.ndarray) -> np.ndarray:
        return -(spec.gamma_values(at.T).T * vel).sum(axis=1)

    return float((dt / 6.0 * (rate(a) + 4.0 * rate(0.5 * (a + b)) + rate(b))).sum())


class ConnectionFields:
    nominal_rotation_s = 1.5

    def __init__(self, seed: int, root, tmp) -> None:
        self.seed = seed
        self.specs = []
        for i in range(POOL):
            self.specs.append(_Spec(stream(seed, 6, i), n=2 + i % 2, flat=(i % 4) >= 2))
        self.tg = None
        self.objects = {}

    def setup_spec(self) -> dict:
        return {
            "families": {k: [matrix_to_json(a) for a in mats] for k, mats in PAULI_FAMILIES.items()},
            "connections": {f"spec{i}": s.texts for i, s in enumerate(self.specs)},
        }

    def build(self, tg, objects: dict) -> None:
        self.tg = tg
        self.objects = objects

    def rotation(self, r: int) -> list[Op]:
        ops: list[Op] = []
        for j in range(SPECS_PER_ROTATION):
            i = (r * SPECS_PER_ROTATION + j) % POOL
            spec = self.specs[i]
            cs = self.objects["connections"][f"spec{i}"]
            rng = stream(self.seed, 7, r, j)
            k, l = sorted(rng.choice(spec.n, size=2, replace=False).tolist())
            lo = rng.uniform(-0.9, -0.3, 2)
            hi = lo + rng.uniform(0.4, 0.9, 2)
            base = rng.uniform(-0.5, 0.5, spec.n)
            base[[k, l]] = 0.0
            tag = f"n{spec.n}.{'flat' if spec.flat else 'curved'}"
            ops.extend(self._holonomy_ops(tag, spec, cs, lo, hi, k, l, base))
            ops.append(self._flatness_op(tag, spec, cs, rng))
            ops.append(self._curvature_op(tag, spec, cs, rng))
        ops.append(self._mu_op(r))
        ops.append(self._volume_op(1 + r % 3))
        return ops

    def _holonomy_ops(self, tag, spec: _Spec, cs, lo, hi, k, l, base) -> list[Op]:
        connection = self.tg.connection
        loop = connection.rectangle_loop(lo, hi, k, l, steps=LOOP_STEPS, n=spec.n, base=base)
        p0 = self.tg.ThermoPoint(0.0, np.zeros(spec.n), loop.path.samples[0])
        area = float(np.prod(hi - lo))
        shared: dict[str, float] = {}

        def tolerances() -> tuple[float, float]:
            """Absolute slack of the curvature rule and of the lift."""
            scale = spec.roundoff_scale(loop.path.samples.T, k, l)
            return 1e-8 * area * scale, 1e-12 * 2.0 * float(np.sum(hi - lo)) * scale

        def check_curvature(res) -> str | None:
            expect = _trapezoid_flux(spec, lo, hi, k, l, base, HOLONOMY_GRID)
            if not close(res.dS, expect, 1e-6, tolerances()[0]):
                return f"curvature holonomy {res.dS!r}, exact-integrand rule {expect!r}"
            shared["curvature"] = res.dS
            return None

        def check_lift(res) -> str | None:
            tol_curv, tol_lift = tolerances()
            expect = _simpson_lift(spec, loop.path.samples, loop.path.duration)
            if not close(res.dS, expect, 1e-9, tol_lift):
                return f"lift holonomy {res.dS!r}, exact-integrand rule {expect!r}"
            if "curvature" in shared:
                # Stokes: the lift is near exact, so the gap is the trapezoid error,
                # estimated from the same rule at twice the resolution
                fine = _trapezoid_flux(spec, lo, hi, k, l, base, 2 * HOLONOMY_GRID)
                coarse = _trapezoid_flux(spec, lo, hi, k, l, base, HOLONOMY_GRID)
                gap = abs(res.dS - shared["curvature"])
                if gap > 4.0 * abs(coarse - fine) + tol_curv + tol_lift:
                    return f"Stokes gap {gap:.3e} between lift and curvature holonomy"
            return None

        return [
            Op(f"holonomy_via_curvature.{tag}",
               lambda: connection.holonomy_via_curvature(cs, lo, hi, k, l, grid=(HOLONOMY_GRID,) * 2,
                                                         base=base),
               check_curvature, (spec.texts, lo, hi, k, l, base)),
            Op(f"holonomy_via_lift.{tag}", lambda: connection.holonomy_via_lift(cs, loop, p0), check_lift,
               (spec.texts, loop.path.samples)),
        ]

    def _flatness_op(self, tag, spec: _Spec, cs, rng) -> Op:
        connection = self.tg.connection
        axis = np.linspace(-0.8, 0.8, FLATNESS_GRID)
        mesh = np.meshgrid(*([axis] * 2), indexing="ij")
        pts = np.tile(rng.uniform(-0.5, 0.5, spec.n), (FLATNESS_GRID**2, 1))
        pts[:, 0], pts[:, 1] = mesh[0].ravel(), mesh[1].ravel()

        def check(rep) -> str | None:
            exact = max(float(np.max(np.abs(spec.curvature(pts.T, k, l))))
                        for k in range(spec.n) for l in range(k + 1, spec.n))
            if spec.flat:
                if not (rep.flat and rep.max_abs_curvature <= FLAT_TOL):
                    return f"exact spec reported max |R| = {rep.max_abs_curvature!r}"
                return None
            if not close(rep.max_abs_curvature, exact, 1e-6, 1e-9):
                return f"max |R| {rep.max_abs_curvature!r}, exact {exact!r}"
            return None if rep.flat == (exact <= FLAT_TOL) else f"flat = {rep.flat} with max |R| {exact!r}"

        return Op(f"flatness_check.{tag}", lambda: connection.flatness_check(cs, pts, FLAT_TOL), check,
                  (spec.texts, pts))

    def _curvature_op(self, tag, spec: _Spec, cs, rng) -> Op:
        connection = self.tg.connection
        pts = rng.uniform(-0.9, 0.9, (CURVATURE_POINTS, spec.n))
        pairs = [(k, l) for k in range(spec.n) for l in range(k + 1, spec.n)]

        def call() -> list[float]:
            return [connection.curvature(cs, p, k, l) for p in pts for k, l in pairs]

        def check(values) -> str | None:
            exact = np.array([float(spec.curvature(p[:, None], k, l)[0]) for p in pts for k, l in pairs])
            err = float(np.max(np.abs(np.asarray(values) - exact)))
            return None if err <= 1e-6 * float(np.max(np.abs(exact))) + 1e-9 else f"curvature off by {err:.3e}"

        return Op(f"curvature.{tag}", call, check, (spec.texts, pts))

    def _mu_op(self, r: int) -> Op:
        """f_i = c_i (S - ln 2cosh|lam| + |lam| tanh|lam|) (2 + sin l_j) vanishes on equilibrium."""
        fam = "zx" if r % 2 == 0 else "zxy"
        obs = self.objects["families"][fam]
        n = obs.n
        rng = stream(self.seed, 8, r)
        radius = "sqrt(" + "+".join(f"l{i + 1}*l{i + 1}" for i in range(n)) + ")"
        zero = f"(S-log(2*cosh({radius}))+{radius}*tanh({radius}))"
        texts = [f"{round(float(rng.uniform(0.5, 2.0)), 3)!r}*{zero}*(2+sin(l{int(rng.integers(n)) + 1}))"
                 for _ in range(n)]
        contact = self.tg.contact
        return Op(f"mu_validated.n{n}", lambda: contact.MuExtension.validated(texts, obs),
                  lambda mu: None if mu.n == n else f"extension has n = {mu.n}, expected {n}", (texts,))

    def _volume_op(self, n: int) -> Op:
        contact = self.tg.contact
        expect = float(math.factorial(n))
        return Op(f"contact_volume_coefficient.n{n}", lambda: contact.contact_volume_coefficient(n),
                  lambda v: None if close(v, expect, 1e-12, 0.0) else f"coefficient {v!r}, expected {expect!r}",
                  (n,))
