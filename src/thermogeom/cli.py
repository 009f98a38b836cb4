"""Command-line front end: JSON configs in, deterministic CSV/JSON out.

Every subcommand is a thin adapter over one library operation.  It
parses its whole config first and only then computes; `--validate` runs
the parse alone, so it accepts exactly the configs the run accepts.  The
parse reads every value through `thermogeom.inputs` or the library's own
constructors, with no rule of its own: a key that is absent takes its
default, and a key set to null is refused like any other bad value.  Exit
codes: 0 success, 2 config validation failure, 3 numerical-domain error,
4 geodesic non-convergence (artifact still written).  Identical configs
produce byte-identical artifacts; outputs are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import serialization as ser
from .connection import (
    MIN_LOOP_STEPS,
    ConnectionSpec,
    HolonomyResult,
    Loop,
    curvature,
    flatness_check,
    holonomy_via_curvature,
    holonomy_via_lift,
    rectangle_loop,
)
from .contact import ThermoPoint, legendrian_residual
from .errors import NumericalDomainError, ValidationError
from .geometry import metric_grid
from .gibbs import ObservableSet, gibbs_point
from .inputs import count, counts, points, positive, vector
from .processes import (
    MIN_PATH_STEPS,
    GeodesicProblem,
    _check_lambda_list,
    _unit_direction,
    boundary_entropy_limit,
    entropy_production,
    geodesic_between,
    third_law_scan,
    thermo_length,
)

__all__ = ["main", "entry"]

@dataclass
class RunConfig:
    """Inputs shared by the subcommands; referenced files are loaded up front."""

    raw: dict
    obs: ObservableSet
    connection: ConnectionSpec | None


def _resolve(cfg_dir: Path, obj: Any, loader: Callable, what: str):
    """Inline object or path string relative to the config file."""
    if isinstance(obj, str):
        obj = ser.load_json_file(cfg_dir / obj)
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be an object or a file path")
    return loader(obj)


def load_run_config(path: str | Path) -> RunConfig:
    cfg_path = Path(path)
    raw = ser.known_keys(ser.load_json_file(cfg_path), CONFIG_KEYS, "config")
    base = cfg_path.parent
    if "observables" not in raw:
        raise ValidationError("config needs an 'observables' entry")
    obs = _resolve(base, raw["observables"], ser.observable_set_from_json, "observables")
    conn = None
    if "connection" in raw:
        conn = _resolve(
            base, raw["connection"], lambda o: ser.connection_spec_from_json(o, obs.n),
            "connection",
        )
    return RunConfig(raw=raw, obs=obs, connection=conn)


def _section(cfg: RunConfig, key: str, *keys: str) -> dict:
    """The config section key, which takes only keys."""
    return ser.known_keys(cfg.raw.get(key), keys, f"section {key!r}")


def _grid_points(obj: Any, n: int, floor: int = 0) -> np.ndarray:
    """Inclusive per-axis linspace grid in lexicographic row order, at least floor points."""
    ser.known_keys(obj, ("start", "stop", "num"), "grid")
    start = vector(obj.get("start"), n, "grid.start")
    stop = vector(obj.get("stop"), n, "grid.stop")
    num = counts(obj.get("num"), n, "grid.num", floor=0)
    with np.errstate(over="ignore", invalid="ignore"):  # a span past the float range: refused below
        axes = [np.linspace(lo, hi, cnt) for lo, hi, cnt in zip(start, stop, num)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return points(np.stack([m.ravel() for m in mesh], axis=-1), n, "grid", floor)


def _plane(obj: Any, n: int) -> tuple[int, int]:
    """1-based [k, l] plane indices from config, returned 0-based."""
    k, l = counts(obj, 2, "plane", floor=1)
    if k > n or l > n or k == l:
        raise ValidationError(f"plane {obj!r} out of range for n={n}")
    return k - 1, l - 1


def _ray(cfg: RunConfig, sec: dict) -> tuple[np.ndarray, np.ndarray]:
    """The unit direction and the Lambda list (`_check_lambda_list`) of a boundary ray."""
    return _unit_direction(sec.get("direction"), cfg.obs.n), _check_lambda_list(sec.get("Lambda"))


def _require_connection(cfg: RunConfig) -> ConnectionSpec:
    if cfg.connection is None:
        raise ValidationError("this subcommand needs a 'connection' entry in the config")
    return cfg.connection


# Each cmd_* parses and checks its whole config section, then returns the
# job that computes the artifact: (json_payload, csv_header, csv_rows).
# --validate stops after the parse, so it accepts exactly what the run does.
Artifact = tuple[dict, list[str], list[list]]
Job = Callable[[], Artifact]


def cmd_gibbs(cfg: RunConfig) -> Job:
    lam = vector(_section(cfg, "gibbs", "lambda").get("lambda"), cfg.obs.n, "gibbs.lambda")

    def run() -> Artifact:
        point = gibbs_point(cfg.obs, lam)
        eigs = [float(v) for v in point.rho.eigenvalues]
        payload = {
            "lambda": lam.tolist(),
            "Z": point.Z,
            "log_Z": point.log_Z,
            "a": point.a.tolist(),
            "S": point.S,
            "rho_eigenvalues": eigs,
        }
        header = (
            [f"l{i + 1}" for i in range(cfg.obs.n)]
            + ["Z", "log_Z", "S"]
            + [f"a{i + 1}" for i in range(cfg.obs.n)]
            + [f"p{i + 1}" for i in range(cfg.obs.dim)]
        )
        row = lam.tolist() + [point.Z, point.log_Z, point.S] + point.a.tolist() + eigs
        return payload, header, [row]

    return run


def cmd_metric(cfg: RunConfig) -> Job:
    pts = _grid_points(_section(cfg, "metric", "grid").get("grid"), cfg.obs.n)

    def run() -> Artifact:
        g = metric_grid(cfg.obs, pts)
        n = cfg.obs.n
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        header = [f"l{i + 1}" for i in range(n)] + [f"g_{i + 1}_{j + 1}" for i, j in pairs]
        rows = [
            list(pts[p]) + [float(g[p, i, j]) for i, j in pairs]
            for p in range(pts.shape[0])
        ]
        payload = {
            "columns": header,
            "rows": [[float(v) for v in row] for row in rows],
        }
        return payload, header, rows

    return run


def cmd_length(cfg: RunConfig) -> Job:
    path = ser.path_from_json(_section(cfg, "length", "path").get("path"), cfg.obs.n)

    def run() -> Artifact:
        report = thermo_length(cfg.obs, path)
        payload = {
            "length": report.length,
            "energy": report.energy,
            "duration": path.duration,
            "steps": path.steps,
            "segment_lengths": [float(v) for v in report.segment_lengths],
        }
        header = ["length", "energy", "duration", "steps"]
        return payload, header, [[report.length, report.energy, path.duration, path.steps]]

    return run


def cmd_entropy_production(cfg: RunConfig) -> Job:
    sec = _section(cfg, "entropy_production", "path", "kappa")
    path = ser.path_from_json(sec.get("path"), cfg.obs.n)
    kappa = positive(sec.get("kappa", 1.0), "entropy_production.kappa")

    def run() -> Artifact:
        rates, total = entropy_production(cfg.obs, path, kappa)
        times = path.times
        payload = {
            "kappa": kappa,
            "total": total,
            "rates": [float(v) for v in rates],
            "times": [float(t) for t in times],
        }
        header = ["t", "rate"]
        rows: list[list] = [[float(t), float(r)] for t, r in zip(times, rates)]
        return payload, header, rows

    return run


def cmd_geodesic(cfg: RunConfig) -> Job:
    sec = _section(
        cfg, "geodesic", "start", "end", "interior_points", "duration", "max_iters", "tolerance"
    )
    n = cfg.obs.n
    problem = GeodesicProblem(
        **{
            **sec,
            "start": vector(sec.get("start"), n, "geodesic.start"),
            "end": vector(sec.get("end"), n, "geodesic.end"),
        }
    )

    def run() -> Artifact:
        path, report, record = geodesic_between(cfg.obs, problem)
        payload = {
            "samples": [list(map(float, row)) for row in path.samples],
            "duration": path.duration,
            "length": report.length,
            "energy": report.energy,
            "convergence": {
                "iterations": record.iterations,
                "grad_norm": record.grad_norm,
                "converged": record.converged,
                "energy_initial": record.energy_initial,
                "energy_final": record.energy_final,
            },
        }
        header = ["t"] + [f"l{i + 1}" for i in range(cfg.obs.n)]
        rows = [
            [float(t)] + list(map(float, row))
            for t, row in zip(path.times, path.samples)
        ]
        print(
            f"geodesic: iterations={record.iterations} "
            f"grad_norm={record.grad_norm:.3e} converged={record.converged}",
            file=sys.stderr,
        )
        return payload, header, rows

    return run


def cmd_third_law(cfg: RunConfig) -> Job:
    sec = _section(cfg, "third_law", "direction", "Lambda", "steps")
    direction, lambdas = _ray(cfg, sec)
    steps = count(sec.get("steps", 1024), "third_law.steps", floor=MIN_PATH_STEPS)

    def run() -> Artifact:
        scan = third_law_scan(cfg.obs, direction, lambdas, steps=steps)
        increments = [None] + [float(v) for v in scan.increments]
        payload = {
            "Lambda": scan.lambdas.tolist(),
            "length": scan.lengths.tolist(),
            "increment": [v for v in increments],
        }
        header = ["Lambda", "length", "increment"]
        rows = [
            [float(scan.lambdas[j]), float(scan.lengths[j]), "" if increments[j] is None else increments[j]]
            for j in range(scan.lambdas.size)
        ]
        return payload, header, rows

    return run


def cmd_boundary_entropy(cfg: RunConfig) -> Job:
    sec = _section(cfg, "boundary_entropy", "direction", "Lambda")
    direction, lambdas = _ray(cfg, sec)

    def run() -> Artifact:
        scan = boundary_entropy_limit(cfg.obs, direction, lambdas)
        payload = {
            "Lambda": scan.lambdas.tolist(),
            "S": scan.entropies.tolist(),
            "gap_to_ln_k": scan.gaps.tolist(),
            "ground_degeneracy": scan.ground_degeneracy,
            "limit_entropy": scan.limit_entropy,
        }
        header = ["Lambda", "S", "gap_to_ln_k"]
        rows = [
            [float(scan.lambdas[j]), float(scan.entropies[j]), float(scan.gaps[j])]
            for j in range(scan.lambdas.size)
        ]
        return payload, header, rows

    return run


def cmd_contact_check(cfg: RunConfig) -> Job:
    pts = _grid_points(_section(cfg, "contact_check", "grid").get("grid"), cfg.obs.n, 1)

    def run() -> Artifact:
        residual = legendrian_residual(cfg.obs, pts)
        payload = {"max_residual": residual, "grid_points": int(pts.shape[0])}
        header = ["max_residual", "grid_points"]
        return payload, header, [[residual, int(pts.shape[0])]]

    return run


def _holonomy_payload(result: HolonomyResult) -> dict:
    return {"dS": result.dS, "method": result.method}


def _rectangle(obj: Any, n: int) -> tuple[dict, tuple[int, int], int]:
    """Corners, plane and base shared by the loop and the surface; grid; steps."""
    ser.known_keys(obj, ("plane", "lo", "hi", "base", "grid", "steps"), "rectangle")
    k, l = _plane(obj.get("plane", [1, 2]), n)
    corners = {
        "lo": vector(obj.get("lo"), 2, "rectangle.lo"),
        "hi": vector(obj.get("hi"), 2, "rectangle.hi"),
        "k": k,
        "l": l,
        "base": vector(obj["base"], n, "rectangle.base") if "base" in obj else None,
    }
    grid = counts(obj.get("grid", [64, 64]), 2, "rectangle.grid", floor=1)
    steps = count(obj.get("steps", 256), "rectangle.steps", floor=MIN_LOOP_STEPS)
    return corners, (grid[0], grid[1]), steps


def cmd_holonomy(cfg: RunConfig) -> Job:
    spec = _require_connection(cfg)
    sec = _section(cfg, "holonomy", "method", "loop", "rectangle")
    n = cfg.obs.n
    method = sec.get("method", "both")
    if method not in ("lift", "curvature-integral", "both"):
        raise ValidationError(f"unknown holonomy method {method!r}")
    loop = Loop(ser.path_from_json(sec["loop"], n)) if "loop" in sec else None
    rect = _rectangle(sec["rectangle"], n) if "rectangle" in sec else None
    if method != "curvature-integral" and loop is None:
        if rect is None:
            raise ValidationError("holonomy needs a loop or rectangle for the lift method")
        corners, _, steps = rect
        loop = rectangle_loop(**corners, steps=steps, n=n)
    if method != "lift" and rect is None:
        raise ValidationError("holonomy needs a rectangle for the curvature method")

    def run() -> Artifact:
        results: list[HolonomyResult] = []
        if method != "curvature-integral":
            p0 = ThermoPoint(0.0, np.zeros(n), loop.path.samples[0])
            results.append(holonomy_via_lift(spec, loop, p0))
        if method != "lift":
            corners, grid, _ = rect
            results.append(holonomy_via_curvature(spec, **corners, grid=grid))
        if len(results) == 1:
            payload = _holonomy_payload(results[0])
        else:
            payload = {"results": [_holonomy_payload(r) for r in results]}
        return payload, ["method", "dS"], [[r.method, r.dS] for r in results]

    return run


def cmd_curvature_map(cfg: RunConfig) -> Job:
    spec = _require_connection(cfg)
    sec = _section(cfg, "curvature_map", "grid", "pairs")
    n = cfg.obs.n
    if n < 2:
        raise ValidationError("curvature maps need at least two parameters")
    pts = _grid_points(sec.get("grid"), n)
    planes = sec.get("pairs", [[i + 1, j + 1] for i in range(n) for j in range(i + 1, n)])
    if not isinstance(planes, list):
        raise ValidationError("curvature_map.pairs must be a list of [k, l] planes")
    pairs = [_plane(p, n) for p in planes]

    def run() -> Artifact:
        header = [f"l{i + 1}" for i in range(n)] + [
            f"R_{k + 1}_{l + 1}" for k, l in pairs
        ]
        rows = np.column_stack([pts] + [curvature(spec, pts, k, l) for k, l in pairs]).tolist()
        payload = {"columns": header, "rows": rows}
        return payload, header, rows

    return run


def cmd_flatness(cfg: RunConfig) -> Job:
    spec = _require_connection(cfg)
    sec = _section(cfg, "flatness", "grid", "tol")
    pts = _grid_points(sec.get("grid"), cfg.obs.n, 1)
    tol = positive(sec.get("tol", 1e-7), "flatness.tol")

    def run() -> Artifact:
        report = flatness_check(spec, pts, tol)
        payload = {
            "flat": report.flat,
            "max_abs_curvature": report.max_abs_curvature,
            "tol": tol,
        }
        header = ["flat", "max_abs_curvature", "tol"]
        return payload, header, [[str(report.flat).lower(), report.max_abs_curvature, tol]]

    return run


_HANDLERS: dict[str, Callable[[RunConfig], Job]] = {
    "gibbs": cmd_gibbs,
    "metric": cmd_metric,
    "length": cmd_length,
    "entropy-production": cmd_entropy_production,
    "geodesic": cmd_geodesic,
    "third-law": cmd_third_law,
    "boundary-entropy": cmd_boundary_entropy,
    "contact-check": cmd_contact_check,
    "holonomy": cmd_holonomy,
    "curvature-map": cmd_curvature_map,
    "flatness": cmd_flatness,
}

# the top-level keys of a run config: one section per subcommand
CONFIG_KEYS = frozenset({"observables", "connection", *(c.replace("-", "_") for c in _HANDLERS)})


def _render_csv(header: list[str], rows: list[list]) -> str:
    def cell(v) -> str:
        if isinstance(v, str):
            return v
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return ser.format_float(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        ser.atomic_write_text(out, text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="thermogeom",
        description="Geometry toolkit for Gibbs-state manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="artifact path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument(
            "--validate",
            action="store_true",
            help="parse and check the config as the run does, compute nothing",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        job = _HANDLERS[args.command](load_run_config(args.config))
        if args.validate:
            print(f"{args.command}: config OK", file=sys.stderr)
            return 0
        payload, header, rows = job()
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalDomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 3
    text = _render_json(payload) if args.format == "json" else _render_csv(header, rows)
    _emit(text, args.out)
    if args.command == "geodesic" and not payload["convergence"]["converged"]:
        print("geodesic did not converge; artifact written", file=sys.stderr)
        return 4
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
