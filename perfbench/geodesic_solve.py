"""geodesic-solve: fixed-endpoint geodesics on the qubit Pauli families.

The same `metric_grid` as metric-sweep runs here, but as hundreds of
mid-size calls per solve (one gradient is 4 n (K - 1) perturbed segments),
so solver changes and per-call overhead both show.  The endpoints are one
fixed shape (radii and opening angle) turned by a seeded rotation: the
metric is rotation invariant, so every seed poses a problem of the same
difficulty.  Drawing the radii and angle as well made the iteration count
vary by 13-19 % from solve to solve, and the run's figures with it.  The
oracle is the closed-form BW distance 2 arccos(root fidelity).
"""

from __future__ import annotations

import math

import numpy as np

from common import PAULI_FAMILIES, Op, matrix_to_json, qubit_geodesic_length, stream

TOLERANCE = 3e-4  # tighter tolerances make the iteration count vary more from solve to solve
MAX_ITERS = 2000
# (family, segments K); an odd count keeps the median inside one kind, and
# the slowest kind, in which p90 falls, runs twice so p90 rests on more solves
SOLVES = (("zx", 16), ("zx", 16), ("zx", 16), ("zx", 24), ("zx", 32), ("zxy", 16), ("zxy", 24),
          ("zxy", 32), ("zxy", 32))
RADII = (0.16, 0.265)
ANGLE = 2.0
# discrete length vs the exact distance, relative (midpoint-rule energy, K >= 16)
LENGTH_RTOL = 2e-3


class GeodesicSolve:
    nominal_rotation_s = 3.5

    def __init__(self, seed: int, root, tmp) -> None:
        self.seed = seed
        self.tg = None
        self.families = {}

    def setup_spec(self) -> dict:
        return {"families": {k: [matrix_to_json(a) for a in mats] for k, mats in PAULI_FAMILIES.items()}}

    def build(self, tg, objects: dict) -> None:
        self.tg = tg
        self.families = objects["families"]

    def rotation(self, r: int) -> list[Op]:
        return [self._solve_op(fam, k, stream(self.seed, 5, r, j)) for j, (fam, k) in enumerate(SOLVES)]

    def _solve_op(self, fam: str, segments: int, rng) -> Op:
        tg = self.tg
        obs = self.families[fam]
        n = obs.n
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        u, v = q[:, 0], q[:, 1]
        a = RADII[0] * u
        b = RADII[1] * (math.cos(ANGLE) * u + math.sin(ANGLE) * v)
        problem = tg.GeodesicProblem(a, b, interior_points=segments - 1,
                                     max_iters=MAX_ITERS, tolerance=TOLERANCE)
        exact = qubit_geodesic_length(a, b)

        def check(res) -> str | None:
            path, report, record = res
            if not record.converged:
                return f"no convergence after {record.iterations} iterations"
            if record.energy_final > record.energy_initial * (1.0 + 1e-12):
                return f"energy {record.energy_final!r} above the straight line's {record.energy_initial!r}"
            if abs(report.length - exact) > LENGTH_RTOL * exact:
                return f"length {report.length!r}, exact distance {exact!r}"
            return None

        processes = tg.processes
        return Op(f"geodesic.{fam}.K{segments}", lambda: processes.geodesic_between(obs, problem), check,
                  (a, b))
