"""Command-line front end: JSON configs in, deterministic CSV/JSON out.

Every subcommand is a thin adapter over one library operation.  Exit
codes: 0 success, 2 config validation failure, 3 numerical-domain error,
4 geodesic non-convergence (artifact still written).  Identical configs
produce byte-identical artifacts; outputs are written atomically.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import serialization as ser
from .connection import (
    ConnectionSpec,
    HolonomyResult,
    curvature,
    flatness_check,
    holonomy_via_curvature,
    holonomy_via_lift,
    rectangle_loop,
    Loop,
)
from .contact import MMetricSpec, MuExtension, ThermoPoint, legendrian_residual
from .errors import NumericalDomainError, ValidationError
from .geometry import FDScheme, metric_grid
from .gibbs import ObservableSet, gibbs_point
from .processes import (
    GeodesicProblem,
    boundary_entropy_limit,
    entropy_production,
    geodesic_between,
    third_law_scan,
    thermo_length,
)

__all__ = ["main", "entry"]

SUBCOMMANDS = (
    "gibbs",
    "metric",
    "length",
    "entropy-production",
    "geodesic",
    "third-law",
    "boundary-entropy",
    "contact-check",
    "holonomy",
    "curvature-map",
    "flatness",
)


@dataclass
class RunConfig:
    """Validated run inputs; every referenced file is loaded up front."""

    base_dir: Path
    raw: dict
    obs: ObservableSet
    scheme: FDScheme
    kappa: float
    metric_spec: MMetricSpec | None
    connection: ConnectionSpec | None
    mu: MuExtension | None
    seed: int | None


def _fail(msg: str) -> ValidationError:
    return ValidationError(msg)


def _as_int(value: Any, default: int, what: str) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(f"{what} must be an integer, got {value!r}")
    return value


def _as_float(value: Any, default: float, what: str) -> float:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(f"{what} must be a number, got {value!r}")
    return float(value)


def _resolve(cfg_dir: Path, obj: Any, loader: Callable, what: str):
    """Inline object or path string relative to the config file."""
    if isinstance(obj, str):
        obj = ser.load_json_file(cfg_dir / obj)
    if not isinstance(obj, dict):
        raise _fail(f"{what} must be an object or a file path")
    return loader(obj)


def load_run_config(path: str | Path, seed: int | None = None) -> RunConfig:
    cfg_path = Path(path)
    raw = ser.load_json_file(cfg_path)
    if not isinstance(raw, dict):
        raise _fail("config root must be a JSON object")
    base = cfg_path.parent
    if "observables" not in raw:
        raise _fail("config needs an 'observables' entry")
    obs = _resolve(base, raw["observables"], ser.observable_set_from_json, "observables")
    fd = raw.get("fd", {})
    if not isinstance(fd, dict):
        raise _fail("fd must be an object with step/order")
    scheme = FDScheme(
        step=_as_float(fd.get("step"), 1e-5, "fd.step"),
        order=_as_int(fd.get("order"), 4, "fd.order"),
    )
    kappa = raw.get("kappa", 1.0)
    if not isinstance(kappa, (int, float)) or kappa <= 0:
        raise _fail(f"kappa must be positive, got {kappa!r}")
    metric_spec = None
    if "metric_spec" in raw:
        metric_spec = _resolve(
            base, raw["metric_spec"], lambda o: ser.mmetric_spec_from_json(o, obs.n),
            "metric_spec",
        )
    conn = None
    if "connection" in raw:
        conn = _resolve(
            base, raw["connection"], lambda o: ser.connection_spec_from_json(o, obs.n),
            "connection",
        )
    mu = None
    if "mu" in raw:
        mu = _resolve(
            base, raw["mu"], lambda o: ser.mu_extension_from_json(o, obs), "mu"
        )
    return RunConfig(
        base_dir=base,
        raw=raw,
        obs=obs,
        scheme=scheme,
        kappa=float(kappa),
        metric_spec=metric_spec,
        connection=conn,
        mu=mu,
        seed=seed,
    )


def _section(cfg: RunConfig, key: str) -> dict:
    sec = cfg.raw.get(key)
    if not isinstance(sec, dict):
        raise _fail(f"config needs a {key!r} section")
    return sec


def _vector(obj: Any, n: int, what: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise _fail(f"{what} must be a list of {n} numbers")
    if not all(isinstance(v, (int, float)) for v in obj):
        raise _fail(f"{what} entries must be numbers")
    return np.asarray(obj, dtype=float)


def _grid_points(obj: Any, n: int) -> np.ndarray:
    """Inclusive per-axis linspace grid in lexicographic row order."""
    if not isinstance(obj, dict):
        raise _fail("grid must be an object with start/stop/num")
    start = _vector(obj.get("start"), n, "grid.start")
    stop = _vector(obj.get("stop"), n, "grid.stop")
    num = obj.get("num")
    if not isinstance(num, list) or len(num) != n or not all(
        isinstance(v, int) and v >= 0 for v in num
    ):
        raise _fail(f"grid.num must be {n} nonnegative integers")
    axes = []
    for lo, hi, cnt in zip(start, stop, num):
        if cnt == 0:
            return np.empty((0, n))
        axes.append(np.linspace(lo, hi, cnt) if cnt > 1 else np.array([lo]))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _plane(obj: Any, n: int) -> tuple[int, int]:
    """1-based [k, l] plane indices from config, returned 0-based."""
    if not isinstance(obj, list) or len(obj) != 2 or not all(
        isinstance(v, int) for v in obj
    ):
        raise _fail("plane must be [k, l] with 1-based integer indices")
    k, l = obj[0] - 1, obj[1] - 1
    if not (0 <= k < n and 0 <= l < n) or k == l:
        raise _fail(f"plane {obj!r} out of range for n={n}")
    return k, l


def _require_connection(cfg: RunConfig) -> ConnectionSpec:
    if cfg.connection is None:
        raise _fail("this subcommand needs a 'connection' entry in the config")
    return cfg.connection


# each cmd_* returns (json_payload, csv_header, csv_rows)
Artifact = tuple[dict, list[str], list[list]]


def cmd_gibbs(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "gibbs")
    lam = _vector(sec.get("lambda"), cfg.obs.n, "gibbs.lambda")
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


def cmd_metric(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "metric")
    pts = _grid_points(sec.get("grid"), cfg.obs.n)
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


def cmd_length(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "length")
    path = ser.path_from_json(sec.get("path"), cfg.obs.n)
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


def cmd_entropy_production(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "entropy_production")
    path = ser.path_from_json(sec.get("path"), cfg.obs.n)
    kappa = _as_float(sec.get("kappa"), cfg.kappa, "entropy_production.kappa")
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


def _geodesic_problem(cfg: RunConfig, sec: dict) -> GeodesicProblem:
    return GeodesicProblem(
        start=_vector(sec.get("start"), cfg.obs.n, "geodesic.start"),
        end=_vector(sec.get("end"), cfg.obs.n, "geodesic.end"),
        interior_points=_as_int(sec.get("interior_points"), 15, "interior_points"),
        duration=_as_float(sec.get("duration"), 1.0, "duration"),
        max_iters=_as_int(sec.get("max_iters"), 500, "max_iters"),
        tolerance=_as_float(sec.get("tolerance"), 1e-5, "tolerance"),
    )


def cmd_geodesic(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "geodesic")
    problem = _geodesic_problem(cfg, sec)
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


def cmd_third_law(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "third_law")
    lambdas = sec.get("Lambda")
    if not isinstance(lambdas, list) or not lambdas:
        raise _fail("third_law.Lambda must be a nonempty list")
    scan = third_law_scan(
        cfg.obs,
        _vector(sec.get("direction"), cfg.obs.n, "third_law.direction"),
        np.asarray(lambdas, dtype=float),
        steps=_as_int(sec.get("steps"), 1024, "third_law.steps"),
    )
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


def cmd_boundary_entropy(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "boundary_entropy")
    lambdas = sec.get("Lambda")
    if not isinstance(lambdas, list) or not lambdas:
        raise _fail("boundary_entropy.Lambda must be a nonempty list")
    scan = boundary_entropy_limit(
        cfg.obs,
        _vector(sec.get("direction"), cfg.obs.n, "boundary_entropy.direction"),
        np.asarray(lambdas, dtype=float),
    )
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


def cmd_contact_check(cfg: RunConfig) -> Artifact:
    sec = _section(cfg, "contact_check")
    pts = _grid_points(sec.get("grid"), cfg.obs.n)
    if pts.shape[0] == 0:
        raise _fail("contact_check.grid must contain at least one point")
    residual = legendrian_residual(cfg.obs, pts, cfg.scheme)
    payload = {"max_residual": residual, "grid_points": int(pts.shape[0])}
    header = ["max_residual", "grid_points"]
    return payload, header, [[residual, int(pts.shape[0])]]


def _holonomy_payload(result: HolonomyResult) -> dict:
    return {"dS": result.dS, "da": result.da.tolist(), "method": result.method}


def cmd_holonomy(cfg: RunConfig) -> Artifact:
    spec = _require_connection(cfg)
    sec = _section(cfg, "holonomy")
    method = sec.get("method", "both")
    if method not in ("lift", "curvature-integral", "both"):
        raise _fail(f"unknown holonomy method {method!r}")
    results: list[HolonomyResult] = []
    p0 = ThermoPoint(0.0, np.zeros(cfg.obs.n), np.zeros(cfg.obs.n))
    if method in ("lift", "both"):
        if "loop" in sec:
            loop = Loop(ser.path_from_json(sec["loop"], cfg.obs.n))
        elif "rectangle" in sec:
            loop = _rectangle_from_config(sec["rectangle"], cfg.obs.n)
        else:
            raise _fail("holonomy needs a loop or rectangle for the lift method")
        start = loop.path.samples[0]
        p0 = ThermoPoint(0.0, np.zeros(cfg.obs.n), start)
        results.append(holonomy_via_lift(spec, loop, p0))
    if method in ("curvature-integral", "both"):
        rect = sec.get("rectangle")
        if rect is None:
            raise _fail("holonomy needs a rectangle for the curvature method")
        lo, hi, k, l, grid, base = _rectangle_fields(rect, cfg.obs.n)
        results.append(
            holonomy_via_curvature(spec, lo, hi, k, l, grid=grid, base=base)
        )
    if len(results) == 1:
        payload = _holonomy_payload(results[0])
    else:
        payload = {"results": [_holonomy_payload(r) for r in results]}
    header = ["method", "dS"] + [f"da{i + 1}" for i in range(cfg.obs.n)]
    rows = [[r.method, r.dS] + r.da.tolist() for r in results]
    return payload, header, rows


def _rectangle_fields(obj: Any, n: int):
    if not isinstance(obj, dict):
        raise _fail("rectangle must be an object")
    lo = _vector(obj.get("lo"), 2, "rectangle.lo")
    hi = _vector(obj.get("hi"), 2, "rectangle.hi")
    k, l = _plane(obj.get("plane", [1, 2]), n)
    grid = obj.get("grid", [64, 64])
    if not isinstance(grid, list) or len(grid) != 2 or not all(
        isinstance(v, int) and v >= 1 for v in grid
    ):
        raise _fail("rectangle.grid must be two positive integers")
    base = None
    if "base" in obj:
        base = _vector(obj["base"], n, "rectangle.base")
    return lo, hi, k, l, (grid[0], grid[1]), base


def _rectangle_from_config(obj: Any, n: int) -> Loop:
    lo, hi, k, l, _, base = _rectangle_fields(obj, n)
    steps = _as_int(obj.get("steps"), 256, "rectangle.steps")
    if steps < 16:
        raise _fail("rectangle.steps must be an integer >= 16")
    return rectangle_loop(lo, hi, k, l, steps=steps, n=n, base=base)


def cmd_curvature_map(cfg: RunConfig) -> Artifact:
    spec = _require_connection(cfg)
    sec = _section(cfg, "curvature_map")
    pts = _grid_points(sec.get("grid"), cfg.obs.n)
    n = cfg.obs.n
    if n < 2:
        raise _fail("curvature maps need at least two parameters")
    if "pairs" in sec:
        pairs = [_plane(p, n) for p in sec["pairs"]]
    else:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    header = [f"l{i + 1}" for i in range(n)] + [
        f"R_{k + 1}_{l + 1}" for k, l in pairs
    ]
    rows = [
        list(map(float, pt)) + [curvature(spec, pt, k, l) for k, l in pairs]
        for pt in pts
    ]
    payload = {"columns": header, "rows": [[float(v) for v in r] for r in rows]}
    return payload, header, rows


def cmd_flatness(cfg: RunConfig) -> Artifact:
    spec = _require_connection(cfg)
    sec = _section(cfg, "flatness")
    pts = _grid_points(sec.get("grid"), cfg.obs.n)
    tol = sec.get("tol", 1e-7)
    if not isinstance(tol, (int, float)) or tol <= 0:
        raise _fail(f"flatness.tol must be positive, got {tol!r}")
    report = flatness_check(spec, pts, float(tol))
    payload = {
        "flat": report.flat,
        "max_abs_curvature": report.max_abs_curvature,
        "tol": float(tol),
    }
    header = ["flat", "max_abs_curvature", "tol"]
    return payload, header, [[str(report.flat).lower(), report.max_abs_curvature, float(tol)]]


_HANDLERS: dict[str, Callable[[RunConfig], Artifact]] = {
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

_VALIDATORS: dict[str, Callable[[RunConfig], None]] = {}


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


def _validate_only(command: str, cfg: RunConfig) -> None:
    """Schema and domain checks for the subcommand without computing."""
    section_key = command.replace("-", "_")
    sec = _section(cfg, section_key)
    if command == "gibbs":
        _vector(sec.get("lambda"), cfg.obs.n, "gibbs.lambda")
    elif command in ("metric", "contact-check", "flatness", "curvature-map"):
        _grid_points(sec.get("grid"), cfg.obs.n)
        if command in ("flatness", "curvature-map"):
            _require_connection(cfg)
    elif command in ("length", "entropy-production"):
        ser.path_from_json(sec.get("path"), cfg.obs.n)
    elif command == "geodesic":
        _geodesic_problem(cfg, sec)
    elif command in ("third-law", "boundary-entropy"):
        _vector(sec.get("direction"), cfg.obs.n, f"{section_key}.direction")
        lambdas = sec.get("Lambda")
        if not isinstance(lambdas, list) or not lambdas:
            raise _fail(f"{section_key}.Lambda must be a nonempty list")
    elif command == "holonomy":
        _require_connection(cfg)
        method = sec.get("method", "both")
        if method not in ("lift", "curvature-integral", "both"):
            raise _fail(f"unknown holonomy method {method!r}")
        if "rectangle" in sec:
            _rectangle_fields(sec["rectangle"], cfg.obs.n)
        elif method in ("lift", "both") and "loop" not in sec:
            raise _fail("holonomy needs a loop or rectangle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermogeom",
        description="Geometry toolkit for Gibbs-state manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation")
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--out", default=None, help="artifact path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument(
            "--validate",
            action="store_true",
            help="check schemas and domains, compute nothing",
        )
        p.add_argument("--seed", type=int, default=None, help="seed for randomized tests")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed=args.seed)
        if args.validate:
            _validate_only(args.command, cfg)
            print(f"{args.command}: config OK", file=sys.stderr)
            return 0
        payload, header, rows = _HANDLERS[args.command](cfg)
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
